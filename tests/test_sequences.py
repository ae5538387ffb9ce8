"""Sequence descriptions: exact evaluation, supports, gap witnesses."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lacunary import (
    FiniteTable,
    GeometricSupport,
    OperatorSpec,
    Periodic,
    ResiduePolynomial,
    Window,
    as_fraction,
    lacunarity_witness,
)
from lacunary.corpus import CorpusEntry
from lacunary.sequences import Record

from .strategies import sequence_specs, windows


def test_periodic_eval():
    seq = Periodic(2, (Fraction(1), Fraction(0)))
    assert seq.value_at(5) == 0
    assert seq.value_at(4) == 1
    assert seq.value_at(-1) == 0
    shifted = Periodic(2, (Fraction(1), Fraction(0)), offset=1)
    assert shifted.value_at(1) == 1
    assert shifted.value_at(2) == 0


def test_residue_polynomial_eval():
    seq = ResiduePolynomial(3, {0: (Fraction(0), Fraction(1))})  # n on class 0
    assert seq.value_at(6) == 6
    assert seq.value_at(7) == 0
    assert seq.value_at(-3) == -3


def test_geometric_support_eval():
    seq = GeometricSupport(scale=3, shift=1, value=Fraction(1))
    assert seq.value_at(13) == 1
    assert seq.value_at(10) == 0
    assert seq.value_at(4) == 1
    assert seq.value_at(1) == 0  # m >= 0 starts at scale + shift


def test_geometric_support_negative_m():
    seq = GeometricSupport(scale=12, shift=0, value=Fraction(5), allow_negative_m=True)
    assert seq.value_at(6) == 5
    assert seq.value_at(3) == 5
    assert seq.value_at(1) == 0  # 12/1 is not a power of two
    strict = GeometricSupport(scale=12, shift=0, value=Fraction(5))
    assert strict.value_at(6) == 0


def test_finite_table_eval_and_default():
    seq = FiniteTable(-2, (Fraction(7), Fraction(0), Fraction(3)), default=Fraction(9))
    assert seq.value_at(-2) == 7
    assert seq.value_at(-1) == 0
    assert seq.value_at(0) == 3
    assert seq.value_at(1) == 9
    assert seq.value_at(-100) == 9


def support(spec, w):
    return tuple(spec.support_points(w))


def test_support_points_finite_table():
    seq = FiniteTable(0, (Fraction(1), Fraction(0), Fraction(2)))
    assert support(seq, Window(-2, 5)) == (0, 2)


def test_support_points_geometric():
    seq = GeometricSupport(3, 1, Fraction(1))
    assert support(seq, Window(0, 100)) == (4, 7, 13, 25, 49, 97)


def test_support_points_periodic():
    seq = Periodic(3, (Fraction(0), Fraction(1), Fraction(1)))
    assert support(seq, Window(0, 5)) == (1, 2, 4, 5)


def test_lacunarity_witness_geometric():
    seq = GeometricSupport(3, 1, Fraction(1))
    assert lacunarity_witness(seq, Window(0, 1000), 40)
    assert support(seq, Window(0, 1000))[-2:] == (385, 769)
    assert not lacunarity_witness(seq, Window(0, 1000), 385)


def test_lacunarity_witness_periodic_and_singleton():
    periodic = Periodic(2, (Fraction(1), Fraction(0)))
    assert not lacunarity_witness(periodic, Window(-100, 100), 3)
    single = FiniteTable(5, (Fraction(1),))
    assert not lacunarity_witness(single, Window(0, 10), 1)


def test_lacunarity_witness_rejects_nonpositive_gap():
    with pytest.raises(ValueError):
        lacunarity_witness(Periodic.constant(1), Window(0, 5), 0)


def test_window_validation():
    with pytest.raises(ValueError):
        Window(3, 2)
    w = Window(-2, 2)
    assert w.size == 5
    assert list(w.indices()) == [-2, -1, 0, 1, 2]


def test_window_bounds_are_ints_not_bools():
    # a bool bound would be written as false/true, which no reader takes back
    for lo, hi in ((True, 2), (0, False)):
        with pytest.raises(TypeError, match="window bounds must be integers"):
            Window(lo, hi)


def test_as_fraction_coercions():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(5, 7)) == Fraction(5, 7)
    with pytest.raises(TypeError):
        as_fraction(0.5)
    # text is read by jsonio.parse_rational alone, in its one grammar
    for text in ("2/4", "1.5", " 1e-3 ", "1_0"):
        with pytest.raises(TypeError):
            as_fraction(text)
    with pytest.raises(TypeError):
        as_fraction(True)


def test_spec_validation():
    with pytest.raises(ValueError):
        FiniteTable(0, ())
    with pytest.raises(ValueError):
        Periodic(2, (Fraction(1),))
    with pytest.raises(ValueError):
        Periodic(0, ())
    with pytest.raises(ValueError):
        ResiduePolynomial(0, {})
    with pytest.raises(ValueError):
        GeometricSupport(0, 0, Fraction(1))
    with pytest.raises(TypeError):
        FiniteTable(0, (0.5,))


def test_residue_polynomial_canonicalization():
    a = ResiduePolynomial(3, {0: (Fraction(1), Fraction(0)), 1: (Fraction(0),)})
    b = ResiduePolynomial(3, {0: (Fraction(1),)})
    assert a == b
    assert hash(a) == hash(b)
    c = ResiduePolynomial(3, {4: (Fraction(2),)})  # residue reduced mod 3
    assert c.value_at(1) == 2
    assert c.value_at(4) == 2
    # reduction never lets one key overwrite another, a zero class included
    for per_class in ({2: (Fraction(1),), 5: (Fraction(2),)}, {0: (Fraction(0),), -3: (Fraction(1),)}):
        with pytest.raises(ValueError, match="residue class"):
            ResiduePolynomial(3, per_class)
    # a class polynomial is a coefficient tuple, never a bare scalar
    for scalar in (Fraction(2), 2, "2"):
        with pytest.raises(TypeError):
            ResiduePolynomial(3, {0: scalar})


def scanned_support(spec, w):
    return tuple(n for n in w.indices() if spec.value_at(n) != 0)


@given(sequence_specs, windows)
def test_support_matches_pointwise_evaluation(spec, w):
    assert support(spec, w) == scanned_support(spec, w)


@pytest.mark.parametrize(
    "spec",
    [
        GeometricSupport(3, 1, Fraction(1), True),
        GeometricSupport(3, 0, Fraction(1), True),
        GeometricSupport(12, -7, Fraction(-2, 3), True),
        GeometricSupport(12, -7, Fraction(1)),
        GeometricSupport(5, 2, Fraction(0), True),
        FiniteTable(-45, (Fraction(1), Fraction(0), Fraction(2))),
        FiniteTable(4990, tuple(Fraction(v) for v in (1, 0, 2, 0, 0, 3, 0, 0, 0, 0, 5, 4))),
    ],
)
def test_enumerated_support_matches_scan_on_wide_windows(spec):
    for w in (Window(-40, 5000), Window(-50, -10), Window(4994, 4995), Window(4995, 5003)):
        assert support(spec, w) == scanned_support(spec, w)


@given(sequence_specs, windows, st.integers(min_value=1, max_value=10))
def test_lacunarity_witness_monotone(spec, w, min_gap):
    if lacunarity_witness(spec, w, min_gap):
        bigger = Window(w.lo - 5, w.hi + 5)
        assert lacunarity_witness(spec, bigger, min_gap)
        if min_gap > 1:
            assert lacunarity_witness(spec, w, min_gap - 1)


def test_record_is_frozen():
    w = Window(0, 1)
    with pytest.raises(AttributeError):
        w.lo = 5
    with pytest.raises(AttributeError):
        del w.hi
    with pytest.raises(AttributeError):
        w.extra = 1
    assert (w.lo, w.hi) == (0, 1)


def test_record_equality_and_hash():
    assert Window(0, 1) == Window(0, 1)
    assert Window(0, 1) != Window(0, 2)
    # equal only within one class, never to the tuple of its fields
    assert Window(0, 1) != (0, 1)

    class Span(Record):
        lo: int
        hi: int

    assert Span(0, 1) != Window(0, 1)
    assert hash(Window(0, 1)) == hash(Window(0, 1))
    assert {Window(0, 1), Window(0, 1), Window(0, 2)} == {Window(0, 2), Window(0, 1)}
    # ResiduePolynomial compares and hashes its canonical classes
    a = ResiduePolynomial(3, {4: (1,), 2: (0,)})
    b = ResiduePolynomial(3, {1: (Fraction(1),)})
    assert a == b and hash(a) == hash(b)


def test_record_repr():
    assert repr(Window(0, 1)) == "Window(lo=0, hi=1)"
    assert repr(Periodic(1, (1,))) == "Periodic(period=1, values=(Fraction(1, 1),), offset=0)"


def test_record_arguments():
    assert Window(hi=1, lo=0) == Window(0, 1) == Window(0, hi=1)
    for args, kwargs in [((0,), {}), ((0, 1, 2), {}), ((0, 1), {"lo": 0}), ((0, 1), {"x": 1})]:
        with pytest.raises(TypeError):
            Window(*args, **kwargs)


def test_record_defaults():
    assert Periodic(2, (1, 0)).offset == 0
    g = GeometricSupport(3)
    assert (g.shift, g.value, g.allow_negative_m) == (0, 1, False)
    entry = CorpusEntry("e", OperatorSpec((Periodic.constant(1),)))
    assert entry.sequence is None and entry.known_facts == ()


def test_record_post_init_still_validates():
    with pytest.raises(ValueError):
        Window(2, 1)
    with pytest.raises(TypeError):
        Window(0, "1")
    # __post_init__ normalizes through object.__setattr__
    assert [type(v) for v in Periodic(1, (1,)).values] == [Fraction]
    with pytest.raises(TypeError):
        Periodic(1, ("1/2",))
