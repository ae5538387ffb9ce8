"""Shared hypothesis strategies for property tests."""

from fractions import Fraction

from hypothesis import strategies as st

from lacunary import (
    DimensionCertificate,
    FiniteSolution,
    FiniteTable,
    GeometricSupport,
    OperatorSpec,
    PartialLacunarySolution,
    Periodic,
    ResiduePolynomial,
    Window,
)
from lacunary.corpus import random_residue_operator

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _periodic(period, entries=small_fractions):
    return st.builds(
        Periodic,
        st.just(period),
        st.lists(entries, min_size=period, max_size=period).map(tuple),
        st.integers(min_value=-3, max_value=3),
    )


periodics = st.integers(min_value=1, max_value=4).flatmap(_periodic)

finite_tables = st.builds(
    FiniteTable,
    st.integers(min_value=-10, max_value=10),
    st.lists(small_fractions, min_size=1, max_size=6).map(tuple),
    st.one_of(st.just(Fraction(0)), small_fractions),
)

residue_polys = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.builds(
        ResiduePolynomial,
        st.just(m),
        st.dictionaries(
            st.integers(min_value=0, max_value=m - 1),
            st.lists(small_fractions, min_size=1, max_size=3).map(tuple),
            max_size=m,
        ),
    )
)

geometric_supports = st.builds(
    GeometricSupport,
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=-10, max_value=10),
    small_fractions,
    st.booleans(),
)

sequence_specs = st.one_of(finite_tables, periodics, residue_polys, geometric_supports)

windows = st.builds(
    lambda a, b: Window(min(a, b), max(a, b)),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
)

_nonzero = small_fractions.filter(bool)

# the values of a FiniteSolution: nonzero at both ends
solution_tables = st.one_of(
    st.tuples(_nonzero),
    st.builds(
        lambda a, mid, b: (a, *mid, b), _nonzero, st.lists(small_fractions, max_size=3), _nonzero
    ),
)


@st.composite
def dimension_certificates(draw):
    """Solutions placed left to right, each past the last, in any order, in a window."""
    at = draw(st.integers(min_value=-20, max_value=20))
    solutions = []
    for values in draw(st.lists(solution_tables, min_size=1, max_size=5)):
        solutions.append(FiniteSolution(at, values))
        at += len(values) + draw(st.integers(min_value=0, max_value=3))
    lo = solutions[0].anchor - draw(st.integers(min_value=0, max_value=3))
    hi = solutions[-1].max_support + draw(st.integers(min_value=0, max_value=3))
    solutions = draw(st.permutations(solutions))
    return DimensionCertificate(len(solutions), Window(lo, hi), tuple(solutions))


@st.composite
def partial_lacunary_solutions(draw):
    """Blocks along either ray, gap i at least i + 2 as the construction keeps it."""
    d = draw(st.sampled_from([1, -1]))
    blocks, gaps = [], []
    for values in draw(st.lists(solution_tables, min_size=1, max_size=4)):
        if not blocks:
            near = draw(st.integers(min_value=-20, max_value=20))
        else:
            gaps.append(draw(st.integers(min_value=len(gaps) + 2, max_value=len(gaps) + 6)))
            near = far + d * gaps[-1]
        anchor = near if d == 1 else near - len(values) + 1
        blocks.append(FiniteSolution(anchor, values))
        far = anchor + len(values) - 1 if d == 1 else anchor
    return PartialLacunarySolution(tuple(blocks), tuple(gaps), "positive" if d == 1 else "negative")


residue_operators = st.builds(
    random_residue_operator,
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)

periodic_operators = st.integers(min_value=1, max_value=3).flatmap(
    lambda r: st.lists(
        st.one_of(periodics, residue_polys), min_size=r + 1, max_size=r + 1
    ).map(lambda cs: OperatorSpec(tuple(cs)))
)


@st.composite
def end_nonvanishing_operators(draw):
    """Periodic coefficients a_0 .. a_r, r from 0 to 4, a_0 or a_r nonzero at every n."""
    coeffs = draw(st.lists(periodics, min_size=1, max_size=5))
    period = draw(st.integers(min_value=1, max_value=4))
    coeffs[draw(st.sampled_from([0, len(coeffs) - 1]))] = draw(_periodic(period, _nonzero))
    return OperatorSpec(tuple(coeffs))


# any coefficient kinds: a period only when every one has one
spec_operators = st.integers(min_value=1, max_value=3).flatmap(
    lambda r: st.lists(sequence_specs, min_size=r + 1, max_size=r + 1).map(
        lambda cs: OperatorSpec(tuple(cs))
    )
)

small_matrices = st.integers(min_value=1, max_value=7).flatmap(
    lambda nc: st.lists(
        st.lists(small_fractions, min_size=nc, max_size=nc),
        min_size=1,
        max_size=9,
    )
)


def _band_row(first, lead, core, trail, ncols):
    # zeros at either end, clipped to the columns right of first
    entries = (Fraction(0),) * lead + tuple(core) + (Fraction(0),) * trail
    return first, entries[: ncols - first]


band_systems = st.integers(min_value=1, max_value=12).flatmap(
    lambda nc: st.tuples(
        st.lists(
            st.builds(
                _band_row,
                st.integers(min_value=0, max_value=nc - 1),
                st.integers(min_value=0, max_value=1),
                st.lists(small_fractions, min_size=1, max_size=4),
                st.integers(min_value=0, max_value=1),
                st.just(nc),
            ),
            max_size=14,
        ),
        st.just(nc),
    )
)
