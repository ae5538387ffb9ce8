"""Operators: residuals, finite-solution verification, window systems, masks."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from lacunary import (
    FiniteSolution,
    FiniteTable,
    GeometricSupport,
    Inconclusive,
    MaskViolation,
    OperatorSpec,
    Periodic,
    ResidueMask,
    ResiduePolynomial,
    VerificationFailure,
    Window,
    coefficient_masks,
    finite_support_kernel,
    is_global_solution_finite,
    residual,
    residue_certificate,
    split_lacunary,
    window_matrix,
)
from lacunary import engine as engine_mod
from lacunary import jsonio
from lacunary import linalg as linalg_mod
from lacunary import operators as operators_mod
from lacunary.corpus import (
    fibonacci_operator,
    geometric_lacunary_sequence,
    vanish_on_multiples_operator,
    zero_operator,
)

from .oracles import (
    densify,
    every_equation_check,
    pairwise_residue_conflicts,
    trimmed_solution,
)
from .strategies import (
    periodic_operators,
    residue_operators,
    sequence_specs,
    small_fractions,
)


def fib_table():
    return FiniteTable(0, tuple(Fraction(v) for v in (1, 1, 2, 3, 5)))


def test_residual_fibonacci_values():
    fib = fibonacci_operator()
    assert residual(fib, fib_table(), 0) == 0
    assert residual(fib, fib_table(), 1) == 0
    # x(5) and x(6) are 0 outside the table, so the recurrence breaks there
    assert residual(fib, fib_table(), 3) == -8
    assert residual(fib, fib_table(), 4) == -5


def test_residual_kills_masked_sequences():
    op = vanish_on_multiples_operator(2)
    lac = geometric_lacunary_sequence(2)
    assert all(residual(op, lac, n) == 0 for n in range(-10, 120))


def test_is_global_solution_finite():
    op = vanish_on_multiples_operator(2)
    assert is_global_solution_finite(op, FiniteSolution(1, (Fraction(5),)))
    assert not is_global_solution_finite(op, FiniteSolution(3, (Fraction(5),)))
    fib = fibonacci_operator()
    assert not is_global_solution_finite(fib, FiniteSolution(0, (Fraction(1),)))
    assert is_global_solution_finite(zero_operator(), FiniteSolution(0, (Fraction(9),)))


def test_first_non_solution_keeps_each_table_it_knows_by_identity():
    # a generator frees each solution once it is checked; were its table not
    # kept, a later table could take its id and pass as the table that had it
    op = vanish_on_multiples_operator(2)
    good, bad = (1, 0, 1), (1, 1, 1)  # anchored at 2 mod 3, bad is nonzero at a multiple
    n = 10_000

    def fresh():
        for i in range(n):
            yield FiniteSolution(3 * i + 2, tuple(map(Fraction, bad if i == n - 1 else good)))

    found = operators_mod._first_non_solution(op, fresh())
    assert found == FiniteSolution(3 * n - 1, tuple(map(Fraction, bad)))
    assert operators_mod._first_non_solution(op, islice(fresh(), n - 1)) is None


def rebind_check(monkeypatch, check):
    """Put `check` in place of is_global_solution_finite wherever the library binds it."""
    monkeypatch.undo()  # any earlier rebinding
    for module in (operators_mod, linalg_mod, engine_mod):
        if vars(module).get("is_global_solution_finite") is is_global_solution_finite:
            monkeypatch.setattr(module, "is_global_solution_finite", check)


def test_kernel_rechecks_one_vector_per_translation_class(monkeypatch):
    checked = []
    rebind_check(monkeypatch, lambda op, x: checked.append(x) or is_global_solution_finite(op, x))
    kb = finite_support_kernel(vanish_on_multiples_operator(2), Window(0, 200))
    assert kb.dimension == 134
    # L commutes with translation by its period 3: one check per (anchor mod 3, values)
    assert len(checked) <= 2
    assert {(x.anchor % 3, x.values) for x in checked} == {
        (s.anchor % 3, s.values) for s in kb.solutions
    }


def test_kernel_and_split_name_the_first_rejected_solution(monkeypatch):
    def rejecting(bad):
        return lambda op, x: not bad(x) and is_global_solution_finite(op, x)

    # a(n) x(n) = 0 with a nonzero only at 0: no period, every unit off 0 solves it
    op = OperatorSpec((FiniteTable(0, (Fraction(1),)),))
    assert op.period is None
    x = FiniteTable(2, tuple(map(Fraction, (1, 0, 5, 0, 0, 7))))
    assert [s.anchor for s in finite_support_kernel(op, Window(0, 7)).solutions] == [
        1, 2, 3, 4, 5, 6, 7,
    ]
    assert [p.anchor for p in split_lacunary(op, x, Window(0, 10))] == [2, 4, 7]
    rebind_check(monkeypatch, rejecting(lambda x: x.anchor in (3, 5)))
    with pytest.raises(
        VerificationFailure, match=r"^kernel vector anchored at 3 fails residual re-verification$"
    ):
        finite_support_kernel(op, Window(0, 7))
    rebind_check(monkeypatch, rejecting(lambda x: x.anchor in (4, 7)))
    with pytest.raises(
        VerificationFailure, match=r"^piece anchored at 4 fails residual re-verification$"
    ):
        split_lacunary(op, x, Window(0, 10))

    # with a period a class passes or fails as one: its first member is named
    monkeypatch.undo()
    vanish = vanish_on_multiples_operator(2)
    assert [s.anchor for s in finite_support_kernel(vanish, Window(0, 12)).solutions] == [
        1, 2, 4, 5, 7, 8, 10, 11,
    ]
    rebind_check(monkeypatch, rejecting(lambda x: x.anchor % 3 == 2))
    with pytest.raises(
        VerificationFailure, match=r"^kernel vector anchored at 2 fails residual re-verification$"
    ):
        finite_support_kernel(vanish, Window(0, 12))
    # pieces {4, 7}, {13}, {25}, {49}, {97}: the units form one class, first at 13
    rebind_check(monkeypatch, rejecting(lambda x: x.values == (Fraction(1),)))
    with pytest.raises(
        VerificationFailure, match=r"^piece anchored at 13 fails residual re-verification$"
    ):
        split_lacunary(vanish, geometric_lacunary_sequence(2), Window(0, 100))


def test_finite_solution_invariants():
    with pytest.raises(ValueError):
        FiniteSolution(0, (Fraction(0),))
    with pytest.raises(ValueError):
        FiniteSolution(0, ())
    with pytest.raises(ValueError):
        FiniteSolution(0, (Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        FiniteSolution(0, (Fraction(1), Fraction(0)))
    x = FiniteSolution(2, (Fraction(1), Fraction(0), Fraction(3)))
    assert x.min_support == 2 and x.max_support == 4
    assert x.support_set() == {2, 4}
    assert x.value_at(3) == 0 and x.value_at(100) == 0


def test_finite_solution_keeps_the_record_contract():
    # FiniteSolution has its own constructor; everything else is Record's
    x = FiniteSolution(2, (Fraction(1), 0, Fraction(3, 4)))
    assert x.values == (Fraction(1), Fraction(0), Fraction(3, 4))
    assert all(type(v) is Fraction for v in x.values)
    assert FiniteSolution(anchor=2, values=x.values) == x
    assert x == FiniteSolution(2, values=[1, 0, Fraction(3, 4)])
    assert hash(FiniteSolution(values=[1, 0, Fraction(3, 4)], anchor=2)) == hash(x)
    assert x != FiniteSolution(3, x.values) and x != (2, x.values)
    assert repr(FiniteSolution(-1, (Fraction(1, 2),))) == (
        "FiniteSolution(anchor=-1, values=(Fraction(1, 2),))"
    )
    for name in ("anchor", "values", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    for name in ("anchor", "values"):
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert (x.anchor, x.values) == (2, (Fraction(1), Fraction(0), Fraction(3, 4)))
    for values, error, message in (
        ((), ValueError, "empty value table"),
        ((0, 1), ValueError, "value table must be trimmed to its support"),
        ((1, 0), ValueError, "value table must be trimmed to its support"),
        ((1, 0.5), TypeError, "floats are not allowed; pass Fraction or int"),
        ((1, "3/4"), TypeError, "cannot interpret '3/4' as a rational number"),
        ((True,), TypeError, "bool is not a rational value"),
    ):
        with pytest.raises(error) as caught:
            FiniteSolution(0, values)
        assert str(caught.value) == message
    for args, kwargs in (((0,), {}), ((0, (1,), 2), {}), ((0,), {"vals": (1,)})):
        with pytest.raises(TypeError):
            FiniteSolution(*args, **kwargs)


def test_finite_solution_is_slotted_and_still_frozen():
    # one is built per solution a certificate holds; without `Record.__slots__`
    # every instance would silently get its dict back.  That assigning and
    # deleting fields still fail is in test_finite_solution_keeps_the_record_contract.
    x = FiniteSolution(2, (Fraction(1), 0, Fraction(3, 4)))
    assert not hasattr(x, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(x, "extra", 1)  # no dict to hold it
    assert hash(x) == hash((2, x.values))
    # the certificate decoder's build, the one past the binding, is the same value
    decoded = jsonio._decode({}, [("anchor", 2), ("values", ["1/1", "0/1", "3/4"])])
    assert type(decoded) is FiniteSolution and decoded == x and hash(decoded) == hash(x)
    assert not hasattr(decoded, "__dict__")
    # the slot descriptors are not defaults; the Records with defaults keep theirs
    assert FiniteSolution._defaults == {}
    assert Inconclusive._defaults == {"best_kernel_dim": None, "best_gap": None}
    assert GeometricSupport._defaults == {
        "shift": 0, "value": Fraction(1), "allow_negative_m": False,
    }


def test_operator_period():
    def period(*coeffs):
        return OperatorSpec(coeffs).period

    assert period(Periodic(3, (1, 2, 3), offset=1)) == 3
    assert period(ResiduePolynomial(4, {1: (5,), 3: (-1,)})) == 4
    assert period(ResiduePolynomial(2, {1: (3, 0)})) == 2  # canonically constant
    assert period(ResiduePolynomial(5, {})) == 5  # identically zero
    mixed = (Periodic(4, (1, 0, 0, 2)), ResiduePolynomial(6, {0: (1,)}), Periodic.constant(7))
    assert period(*mixed) == 12
    assert vanish_on_multiples_operator(2).period == 3
    assert period(Periodic(2, (1, 1)), FiniteTable(0, (1,))) is None
    assert period(Periodic(2, (1, 1)), GeometricSupport(3)) is None
    assert period(ResiduePolynomial(3, {0: (1,), 1: (0, 1)})) is None  # a class of degree 1
    assert fibonacci_operator().period == zero_operator().period == 1  # constant


@settings(max_examples=60, deadline=None)
@given(periodic_operators)
def test_operator_period_is_a_period_of_every_coefficient(op):
    p = op.period
    if p is None:
        assert any(
            isinstance(a, ResiduePolynomial) and any(len(c) > 1 for c in a.per_class.values())
            for a in op.coeffs
        )
        return
    for a in op.coeffs:
        assert all(a.value_at(n + p) == a.value_at(n) for n in range(-2 * p, 2 * p))


def test_window_matrix_fibonacci_frozen():
    fib = fibonacci_operator()
    rows = window_matrix(fib, Window(0, 2))
    # equation indices n = -2 .. 2, as (first column, entries)
    assert [(first, tuple(int(v) for v in entries)) for first, entries in rows] == [
        (0, (1,)),
        (0, (-1, 1)),
        (0, (-1, -1, 1)),
        (1, (-1, -1)),
        (2, (-1,)),
    ]
    # the one unclipped row (n = 0) is the free-boundary system
    assert [row for row in rows if len(row[1]) == fib.order + 1] == [(0, (-1, -1, 1))]


def test_window_matrix_order_zero_identity():
    op = OperatorSpec((Periodic.constant(1),))
    rows = window_matrix(op, Window(0, 1))
    assert [(first, tuple(int(v) for v in entries)) for first, entries in rows] == [
        (0, (1,)),
        (1, (1,)),
    ]


@given(residue_operators, st.integers(min_value=-8, max_value=8), st.integers(min_value=2, max_value=10))
def test_window_matrix_band_structure(op, lo, length):
    w = Window(lo, lo + length)
    r = op.order
    rows = window_matrix(op, w)
    assert len(rows) == w.size + r
    dense = densify(rows, w.size)
    for n, (first, entries), row in zip(range(w.lo - r, w.hi + 1), rows, dense):
        # the entries cover exactly the terms of equation n inside the window
        assert first == max(n, w.lo) - w.lo
        assert len(entries) == min(n + r, w.hi) - max(n, w.lo) + 1
        for col, value in enumerate(row):
            shift = (col + w.lo) - n
            if not (0 <= shift <= r):
                assert value == 0
            else:
                assert value == op.coeffs[shift].value_at(n)


@given(periodic_operators, st.data())
def test_is_global_matches_support_confined_nullspace(op, data):
    anchor = data.draw(st.integers(min_value=-6, max_value=6))
    body = data.draw(st.lists(small_fractions, min_size=1, max_size=5))
    x = trimmed_solution(anchor, body)
    if x is None:
        return
    w = Window(x.min_support, x.max_support)
    matrix = densify(window_matrix(op, w), w.size)
    vec = [x.value_at(n) for n in w.indices()]
    in_nullspace = all(
        sum((a * b for a, b in zip(row, vec)), Fraction(0)) == 0 for row in matrix
    )
    assert is_global_solution_finite(op, x) == in_nullspace


def test_table_only_check_matches_every_equation():
    outcomes = set()

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(residue_operators, periodic_operators), st.data())
    def agrees(op, data):
        lo = data.draw(st.integers(min_value=-8, max_value=8))
        kernel = finite_support_kernel(op, Window(lo, lo + 12)).solutions
        candidates = list(kernel)
        if kernel:
            # tamper with one entry of a genuine solution; its ends stay nonzero
            s = data.draw(st.sampled_from(kernel))
            j = data.draw(st.integers(min_value=0, max_value=len(s.values) - 1))
            values = list(s.values)
            values[j] = values[j] + 1 or Fraction(2)
            candidates.append(FiniteSolution(s.anchor, tuple(values)))
        # a random table with interior zeros
        body = data.draw(st.lists(st.sampled_from((0, 0, 1, -1, Fraction(1, 2))), max_size=6))
        candidates.append(FiniteSolution(lo, (Fraction(1), *body, Fraction(-2))))
        for x in candidates:
            expected = every_equation_check(op, x)
            assert is_global_solution_finite(op, x) == expected
            outcomes.add(expected)
        assert all(every_equation_check(op, s) for s in kernel)

    agrees()
    assert outcomes == {True, False}


@given(
    periodic_operators,
    st.integers(min_value=-5, max_value=5),
    st.lists(small_fractions, min_size=1, max_size=4),
    st.lists(small_fractions, min_size=1, max_size=4),
    small_fractions,
    small_fractions,
    st.integers(min_value=-6, max_value=6),
)
def test_residual_linearity(op, anchor, xs, ys, alpha, beta, n):
    length = max(len(xs), len(ys))
    xs = xs + [Fraction(0)] * (length - len(xs))
    ys = ys + [Fraction(0)] * (length - len(ys))
    x = FiniteTable(anchor, tuple(xs))
    y = FiniteTable(anchor, tuple(ys))
    z = FiniteTable(anchor, tuple(alpha * a + beta * b for a, b in zip(xs, ys)))
    assert residual(op, z, n) == alpha * residual(op, x, n) + beta * residual(op, y, n)


def test_residue_mask_validation():
    with pytest.raises(ValueError):
        ResidueMask(0, frozenset())
    with pytest.raises(ValueError):
        ResidueMask(3, frozenset({3}))
    mask = ResidueMask(2, frozenset({1}))
    assert mask.lifted(6) == {1, 3, 5}
    with pytest.raises(ValueError):
        mask.lifted(5)
    assert mask.admits(-1) and not mask.admits(2)


def test_residue_certificate_vanish_family():
    for r in (1, 2, 3):
        op = vanish_on_multiples_operator(r)
        masks = coefficient_masks(op)
        off_multiples = ResidueMask(r + 1, frozenset(range(1, r + 1)))
        cert = residue_certificate(op, masks, off_multiples)
        assert cert.certified
        assert cert.conflicts == ()
        with_zero = ResidueMask(r + 1, frozenset(range(r + 1)))
        cert = residue_certificate(op, masks, with_zero)
        assert not cert.certified
        # the only collisions put the solution residue on the multiples
        assert all(tau == 0 for _, _, tau in cert.conflicts)
        assert len(cert.conflicts) == r + 1


def test_residue_certificate_no_disjointness():
    fib = fibonacci_operator()
    everything = ResidueMask(1, frozenset({0}))
    cert = residue_certificate(fib, [everything] * 3, everything)
    assert not cert.certified


def test_residue_certificate_mixed_moduli():
    # coefficient on evens, shifted by k=1, solution on odds: products collide
    op = OperatorSpec((Periodic.constant(0), Periodic(2, (Fraction(1), Fraction(0)))))
    masks = [ResidueMask(1, frozenset()), ResidueMask(2, frozenset({0}))]
    cert = residue_certificate(op, masks, ResidueMask(2, frozenset({1})))
    assert not cert.certified
    assert cert.modulus == 2
    assert cert.conflicts == ((1, 0, 1),)
    cert = residue_certificate(op, masks, ResidueMask(2, frozenset({0})))
    assert cert.certified


residue_masks = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.frozensets(st.integers(min_value=0, max_value=m - 1)).map(
        lambda allowed: ResidueMask(m, allowed)
    )
)


@given(st.lists(residue_masks, min_size=1, max_size=4), residue_masks)
def test_residue_conflicts_match_the_pairwise_oracle(coeff_masks, sol_mask):
    # zero coefficients respect every mask, so any masks can be certified
    op = OperatorSpec(tuple(Periodic.constant(0) for _ in coeff_masks))
    cert = residue_certificate(op, coeff_masks, sol_mask)
    assert cert.conflicts == pairwise_residue_conflicts(coeff_masks, sol_mask)
    assert cert.certified == (not cert.conflicts)


def test_residue_certificate_rejects_lying_masks():
    fib = fibonacci_operator()
    masks = [
        ResidueMask(2, frozenset({0})),  # claims a_0 vanishes on odd n: false
        ResidueMask(1, frozenset({0})),
        ResidueMask(1, frozenset({0})),
    ]
    with pytest.raises(MaskViolation) as err:
        residue_certificate(fib, masks, ResidueMask(2, frozenset({1})))
    assert err.value.k == 0
    with pytest.raises(ValueError):
        residue_certificate(fib, masks[:2], ResidueMask(2, frozenset({1})))


def test_mask_check_covers_aperiodic_parts():
    # a FiniteTable bump outside the mask must be caught even though the
    # periodic picture looks clean
    op = OperatorSpec(
        (
            FiniteTable(7, (Fraction(1),), default=Fraction(0)),
            Periodic.constant(0),
        )
    )
    with pytest.raises(MaskViolation):
        residue_certificate(
            op,
            [ResidueMask(2, frozenset({0})), ResidueMask(1, frozenset())],
            ResidueMask(2, frozenset({0})),
        )
    # a nonzero default reaches every residue class, also away from the table
    op = OperatorSpec((FiniteTable(0, (Fraction(0),), default=Fraction(2)),))
    with pytest.raises(MaskViolation) as err:
        residue_certificate(op, [ResidueMask(3, frozenset({0, 1}))], ResidueMask(1, frozenset()))
    assert err.value.n % 3 == 2


def test_mask_check_is_exact_on_polynomial_classes():
    # a_0(n) = n(n+1) vanishes only at n = 0 and n = -1, so the empty mask
    # (identically zero) is a lie that no finite sample around 0 exposes
    op = OperatorSpec((ResiduePolynomial(1, {0: (0, 1, 1)}),))
    with pytest.raises(MaskViolation) as err:
        residue_certificate(op, [ResidueMask(1, frozenset())], ResidueMask(1, frozenset({0})))
    assert err.value.k == 0
    assert op.coeffs[0].value_at(err.value.n) != 0


def test_mask_check_is_exact_on_doubling_points():
    # 2**m mod 3000 is eventually periodic; m < 12 misses 4096 = 1096 mod 3000
    op = OperatorSpec((GeometricSupport(1),))
    first_twelve = ResidueMask(3000, frozenset(pow(2, m, 3000) for m in range(12)))
    with pytest.raises(MaskViolation) as err:
        residue_certificate(op, [first_twelve], ResidueMask(1, frozenset()))
    assert err.value.n == 4096
    every_power = ResidueMask(3000, frozenset(pow(2, m, 3000) for m in range(3000)))
    assert residue_certificate(op, [every_power], ResidueMask(1, frozenset())).certified

    # scale 24 = 3 * 2**3 with m < 0 allowed: the support is 3 * 2**j + 1, j >= 0.
    # Mod 40, 3 * 2**j runs 3, 6, 12 (the m < 0 points) before its cycle 24,
    # 8, 16, 32, so the residues 4, 7 and 13 occur once each
    geometric = GeometricSupport(24, 1, Fraction(1), True)
    op = OperatorSpec((geometric,))
    residues = frozenset((3 * 2**j + 1) % 40 for j in range(40))
    assert len(residues) == 7 and {4, 7, 13} <= residues
    for missing in residues:
        with pytest.raises(MaskViolation) as err:
            residue_certificate(op, [ResidueMask(40, residues - {missing})], ResidueMask(1, frozenset()))
        assert err.value.n % 40 == missing and geometric.value_at(err.value.n) != 0
    assert residue_certificate(op, [ResidueMask(40, residues)], ResidueMask(1, frozenset())).certified


@given(
    sequence_specs,
    st.integers(min_value=1, max_value=6).flatmap(
        lambda m: st.builds(
            ResidueMask,
            st.just(m),
            st.frozensets(st.integers(min_value=0, max_value=m - 1)),
        )
    ),
)
def test_mask_check_witnesses_and_soundness(spec, mask):
    op = OperatorSpec((spec,))
    sol_mask = ResidueMask(1, frozenset())
    try:
        residue_certificate(op, [mask], sol_mask)
    except MaskViolation as err:
        assert spec.value_at(err.n) != 0 and not mask.admits(err.n)
    else:
        for n in range(-60, 61):
            assert spec.value_at(n) == 0 or mask.admits(n)


@given(st.data())
def test_certified_masks_kill_masked_solutions(data):
    r = data.draw(st.integers(min_value=1, max_value=3))
    op = vanish_on_multiples_operator(r)
    masks = coefficient_masks(op)
    sol_mask = ResidueMask(r + 1, frozenset(range(1, r + 1)))
    assert residue_certificate(op, masks, sol_mask).certified
    anchor = data.draw(st.integers(min_value=-10, max_value=10))
    body = data.draw(st.lists(small_fractions, min_size=1, max_size=6))
    masked = [v if sol_mask.admits(anchor + i) else Fraction(0) for i, v in enumerate(body)]
    x = trimmed_solution(anchor, masked)
    if x is not None:
        assert is_global_solution_finite(op, x)
