"""Named operator families and their executable fact sheets."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lacunary import (
    OperatorSpec,
    Periodic,
    ResiduePolynomial,
    Window,
    ZeroValueRejected,
    finite_support_kernel,
    lacunarity_witness,
    residual,
    support_in_window,
)
from lacunary.corpus import (
    coefficient_masks,
    entries,
    fibonacci_operator,
    geometric_lacunary_sequence,
    get_entry,
    random_residue_operator,
    run_known_fact,
    vanish_on_multiples_operator,
    zero_operator,
)
from lacunary.jsonio import dumps_canonical, manifest_to_json


def test_all_known_facts_hold():
    for entry in entries():
        for fact in entry.known_facts:
            holds, actual = run_known_fact(entry, fact)
            assert holds, f"{entry.name}: {fact.check} {fact.args} -> {actual!r}"


@pytest.mark.parametrize("r", [1, 2, 3])
def test_vanish_coefficient_pattern(r):
    op = vanish_on_multiples_operator(r)
    assert op.order == r
    for n in range(-20, 21):
        for k in range(r + 1):
            value = op.coeffs[k].value_at(n)
            if (n + k) % (r + 1) == 0:
                assert value != 0
            else:
                assert value == 0


def test_vanish_custom_values():
    default = vanish_on_multiples_operator(2)
    scaled = vanish_on_multiples_operator(
        2, (Fraction(3), Fraction(-1, 2), Fraction(5))
    )
    w = Window(0, 30)
    a = finite_support_kernel(default, w)
    b = finite_support_kernel(scaled, w)
    # coefficient magnitudes never matter, only where they vanish
    assert a.dimension == b.dimension
    assert {s.support_set() for s in a.solutions} == {
        s.support_set() for s in b.solutions
    }


def test_vanish_validation():
    with pytest.raises(ValueError):
        vanish_on_multiples_operator(0)
    with pytest.raises(ValueError):
        vanish_on_multiples_operator(2, (Fraction(1),))
    with pytest.raises(ZeroValueRejected):
        vanish_on_multiples_operator(2, (Fraction(1), Fraction(0), Fraction(1)))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_geometric_sequence_solves_vanish_operator(r):
    op = vanish_on_multiples_operator(r)
    x = geometric_lacunary_sequence(r)
    pts = support_in_window(x, Window(0, 2000)).indices
    assert pts
    assert all(n % (r + 1) == 1 for n in pts)
    for n in range(-10, 600):
        assert residual(op, x, n) == 0


@pytest.mark.parametrize(
    "r,budget,expected",
    [(1, 1000, 256), (2, 1000, 384), (3, 1000, 256), (2, 100, 48)],
)
def test_geometric_max_gap(r, budget, expected):
    x = geometric_lacunary_sequence(r)
    assert support_in_window(x, Window(0, budget)).max_gap == expected
    assert lacunarity_witness(x, Window(0, budget), expected)
    assert not lacunarity_witness(x, Window(0, budget), expected + 1)


def test_fibonacci_operator_shape():
    op = fibonacci_operator()
    assert op.order == 2
    assert all(isinstance(c, Periodic) and c.period == 1 for c in op.coeffs)
    fib = [Fraction(0), Fraction(1)]
    while len(fib) < 20:
        fib.append(fib[-1] + fib[-2])
    from lacunary import FiniteTable

    table = FiniteTable(0, tuple(fib))
    for n in range(0, 18):
        assert residual(op, table, n) == 0


def test_zero_operator_everything_solves():
    op = zero_operator(2)
    assert op.order == 2
    kb = finite_support_kernel(op, Window(0, 4))
    assert kb.dimension == 5


def test_random_residue_operator_is_deterministic():
    a = random_residue_operator(2, 3, seed=17)
    b = random_residue_operator(2, 3, seed=17)
    assert a == b
    c = random_residue_operator(2, 3, seed=18)
    assert a != c or True  # different seeds may rarely coincide; no assertion


def test_random_residue_operator_structure():
    for seed in range(30):
        op = random_residue_operator(3, 4, seed=seed)
        assert op.order == 3
        for coeff in op.coeffs:
            assert isinstance(coeff, ResiduePolynomial)
            assert coeff.modulus == 4


def test_random_residue_operator_validation():
    with pytest.raises(ValueError):
        random_residue_operator(0, 3, seed=1)
    with pytest.raises(ValueError):
        random_residue_operator(7, 3, seed=1)
    with pytest.raises(ValueError):
        random_residue_operator(2, 0, seed=1)
    with pytest.raises(ValueError):
        random_residue_operator(2, 7, seed=1)


def test_coefficient_masks_vanish_family():
    op = vanish_on_multiples_operator(2)
    masks = coefficient_masks(op)
    assert len(masks) == 3
    for k, mask in enumerate(masks):
        assert mask.modulus == 3
        assert mask.allowed == frozenset({(-k) % 3})


def test_coefficient_masks_periodic_and_rejection():
    masks = coefficient_masks(fibonacci_operator())
    assert all(m.modulus == 1 and m.allowed == frozenset({0}) for m in masks)
    from lacunary import FiniteTable

    op = OperatorSpec((FiniteTable(0, (Fraction(1),)),))
    with pytest.raises(ValueError):
        coefficient_masks(op)


def test_get_entry_unknown_name():
    with pytest.raises(KeyError):
        get_entry("no_such_entry")


def test_run_known_fact_unknown_check():
    entry = get_entry("fibonacci")
    fact = entry.known_facts[0]
    bogus = type(fact)("not_a_check", (), None)
    with pytest.raises(ValueError):
        run_known_fact(entry, bogus)


def test_manifest_is_json_ready():
    data = manifest_to_json(entries())
    assert sorted(e["name"] for e in data["entries"]) == [
        "fibonacci",
        "vanish_on_multiples_r1",
        "vanish_on_multiples_r2",
        "vanish_on_multiples_r3",
        "zero_operator",
    ]
    dumps_canonical(data)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
def test_random_residue_operators_admit_mask_checks(r, modulus, seed):
    op = random_residue_operator(r, modulus, seed=seed)
    masks = coefficient_masks(op)
    assert len(masks) == r + 1
    for k, mask in enumerate(masks):
        for n in range(-2 * modulus, 2 * modulus):
            if op.coeffs[k].value_at(n) != 0:
                assert mask.admits(n)
