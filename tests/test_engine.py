"""The three witness procedures: certify, split, build, and their audits."""

import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lacunary import (
    DimensionCertificate,
    FiniteSolution,
    FiniteTable,
    GeometricSupport,
    Inconclusive,
    KernelBasis,
    NotASolutionOnWindow,
    OperatorSpec,
    PartialLacunarySolution,
    Periodic,
    VerificationFailure,
    Window,
    build_lacunary,
    certify_dimension,
    is_global_solution_finite,
    split_lacunary,
    verify_dimension_certificate,
    verify_kernel_basis,
    verify_partial_lacunary,
    windowed_residual_check,
)
from lacunary.corpus import (
    fibonacci_operator,
    geometric_lacunary_sequence,
    vanish_on_multiples_operator,
    zero_operator,
)
from lacunary import engine as engine_mod
from lacunary import operators as operators_mod
from lacunary.jsonio import certificate_from_json
from lacunary.linalg import finite_support_kernel
from lacunary.sequences import _Sequence

from . import oracles
from .oracles import (
    assembled,
    dense_windowed_check,
    every_equation_check,
    naive_verify_certificate,
    symmetric_window_certify,
    trimmed_solution,
    uncached_first_blocks,
)
from .strategies import (
    periodic_operators,
    residue_operators,
    sequence_specs,
    small_fractions,
    spec_operators,
    windows,
)


def fib_table(count):
    vals = [0, 1]
    while len(vals) < count:
        vals.append(vals[-1] + vals[-2])
    return FiniteTable(0, tuple(Fraction(v) for v in vals[:count]))


def test_windowed_residual_check():
    op = fibonacci_operator()
    windowed_residual_check(op, fib_table(21), Window(0, 20))
    broken = FiniteTable(0, tuple(Fraction(v) for v in (1, 1, 2, 3, 6)))
    with pytest.raises(NotASolutionOnWindow) as err:
        windowed_residual_check(op, broken, Window(0, 4))
    assert err.value.n == 2
    assert err.value.value == 1
    # windows shorter than the order have no fully contained equation
    windowed_residual_check(op, broken, Window(0, 1))


class Bounded(_Sequence):
    """A sequence that fails the test once read at more than `limit` indices.

    Its support walk is the default scan, so it too reads through `value_at`.
    """

    def __init__(self, spec, limit):
        self.spec, self.left = spec, limit

    def value_at(self, n):
        self.left -= 1
        assert self.left >= 0, "read too much of the window"
        return self.spec.value_at(n)


def test_windowed_check_stops_at_the_first_failure_of_a_huge_window():
    # all ones fail x(n + 2) = x(n + 1) + x(n) at n = 0: the support is read
    # lazily, so neither check reads (or holds) the window's 10**12 indices
    op = fibonacci_operator()
    for check in (windowed_residual_check, split_lacunary):
        ones = Bounded(Periodic(1, (Fraction(1),)), 100)
        with pytest.raises(NotASolutionOnWindow) as err:
            check(op, ones, Window(0, 10**12))
        assert (err.value.n, err.value.value) == (0, -1)


def test_certify_dimension_singletons_off_multiples():
    out = certify_dimension(vanish_on_multiples_operator(1), 10, 1000)
    assert isinstance(out, DimensionCertificate)
    assert out.k == 10
    # the sweep starts at -budget and takes the first 10 free indices, the
    # odd ones (counting oracle: indices off the multiples of r+1 = 2)
    free = [n for n in range(-1000, 1001) if n % 2 != 0][:10]
    assert out.window == Window(free[0], free[-1])
    assert [s.anchor for s in out.solutions] == free
    for s in out.solutions:
        assert s.values == (Fraction(1),)
        assert s.anchor % 2 == 1
    assert verify_dimension_certificate(vanish_on_multiples_operator(1), out)


def test_certify_dimension_inconclusive_on_fibonacci():
    out = certify_dimension(fibonacci_operator(), 1, 200)
    assert isinstance(out, Inconclusive)
    assert out.best_kernel_dim == 0


def test_certify_dimension_zero_operator_small_budget():
    out = certify_dimension(zero_operator(), 7, 8)
    assert isinstance(out, DimensionCertificate)
    # every index is free: the sweep takes the first 7 from -budget on
    assert out.window == Window(-8, -2)
    assert [s.anchor for s in out.solutions] == [-8, -7, -6, -5, -4, -3, -2]


def interleaved_chain_operator():
    # x(n) + x(n+2) = 0 for n = 0, 1 mod 4 and no equation elsewhere: the
    # solutions {4j, 4j+2} and {4j+1, 4j+3} interleave without overlapping
    z = Periodic(4, (Fraction(1), Fraction(1), Fraction(0), Fraction(0)))
    return OperatorSpec((z, Periodic(1, (Fraction(0),)), z))


def test_certify_dimension_interleaved_chains():
    op = interleaved_chain_operator()
    for certify in (certify_dimension, symmetric_window_certify):
        out = certify(op, 12, 16)
        assert isinstance(out, DimensionCertificate)
        assert verify_dimension_certificate(op, out)
    # the sweep uses the whole budget: all 16 chains inside [-16, 16]
    out = certify_dimension(op, 16, 16)
    assert isinstance(out, DimensionCertificate)
    assert verify_dimension_certificate(op, out)
    chains = [[n, n + 2] for n in range(-16, 14) if n % 4 in (0, 1)]
    assert [sorted(s.support_set()) for s in out.solutions] == chains
    assert isinstance(symmetric_window_certify(op, 13, 16), Inconclusive)
    out = certify_dimension(op, 17, 16)
    assert isinstance(out, Inconclusive)
    assert out.best_kernel_dim == 16


def test_certify_dimension_nested_solutions():
    # x(n) = 0 for n = 1 mod 4 and x(n) = x(n+2) for n = 2 mod 4: every
    # singleton {4j+3} lies inside the hull of the pair {4j+2, 4j+4}.  The
    # zero a_3 makes the order 3, so block windows start 4 wide and the
    # first one from an edge can hold the singleton without its pair; the
    # widened window holds both (unwidened, the sweep finds 4 of the 8).
    zero = Periodic(1, (Fraction(0),))
    op = OperatorSpec((
        Periodic(4, (Fraction(0), Fraction(1), Fraction(1), Fraction(0))),
        zero,
        Periodic(4, (Fraction(0), Fraction(0), Fraction(-1), Fraction(0))),
        zero,
    ))
    inside = [[n, n + 2] for n in range(-8, 7) if n % 4 == 2]
    inside += [[n] for n in range(-8, 9) if n % 4 == 3]
    for certify in (certify_dimension, symmetric_window_certify):
        out = certify(op, len(inside), 8)
        assert isinstance(out, DimensionCertificate)
        assert verify_dimension_certificate(op, out)
        assert sorted(sorted(s.support_set()) for s in out.solutions) == sorted(inside)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(residue_operators, periodic_operators),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=30),
)
def test_certify_dimension_succeeds_where_symmetric_windows_do(op, k, budget):
    out = certify_dimension(op, k, budget)
    if isinstance(out, DimensionCertificate):
        assert out.k == k
        assert verify_dimension_certificate(op, out)
    if isinstance(symmetric_window_certify(op, k, budget), DimensionCertificate):
        assert isinstance(out, DimensionCertificate)


def test_certify_dimension_monotone_in_k():
    op = vanish_on_multiples_operator(2)
    assert isinstance(certify_dimension(op, 50, 100), DimensionCertificate)
    for k in (1, 7, 25, 49):
        assert isinstance(certify_dimension(op, k, 100), DimensionCertificate)


def test_certify_dimension_validation():
    with pytest.raises(ValueError):
        certify_dimension(zero_operator(), 0, 10)
    with pytest.raises(ValueError):
        certify_dimension(zero_operator(), 1, 0)


def test_dimension_certificate_invariants():
    a = FiniteSolution(0, (Fraction(1),))
    b = FiniteSolution(2, (Fraction(1),))
    DimensionCertificate(2, Window(0, 2), (a, b))
    with pytest.raises(ValueError):
        DimensionCertificate(1, Window(0, 2), (a, b))
    with pytest.raises(ValueError):
        DimensionCertificate(2, Window(0, 2), (a, a))
    with pytest.raises(ValueError):
        DimensionCertificate(2, Window(0, 1), (a, b))
    with pytest.raises(ValueError):
        DimensionCertificate(0, Window(0, 2), ())


def test_dimension_certificate_disjointness_is_by_support_points():
    one = (Fraction(1),)
    pair = FiniteSolution(0, (Fraction(1), Fraction(0), Fraction(1)))  # support {0, 2}
    # hulls [0, 2] and [1, 1] overlap, supports do not: the interior zero is no point
    DimensionCertificate(2, Window(0, 2), (pair, FiniteSolution(1, one)))
    DimensionCertificate(2, Window(0, 2), (FiniteSolution(1, one), pair))
    with pytest.raises(ValueError, match="not pairwise disjoint"):
        DimensionCertificate(2, Window(0, 2), (pair, FiniteSolution(2, one)))
    shared = (FiniteSolution(9, one), pair, FiniteSolution(2, one))  # 2 twice, not adjacent
    with pytest.raises(ValueError, match="not pairwise disjoint"):
        DimensionCertificate(3, Window(0, 9), shared)


def test_dimension_certificate_reads_the_support_of_each_table():
    one, pair = (Fraction(1),), (Fraction(1), Fraction(0), Fraction(1))
    # solutions share table objects; each object's offsets are found once
    shared = tuple(
        FiniteSolution(a + d, t) for a in range(0, 60, 6) for d, t in ((0, pair), (1, one))
    )
    DimensionCertificate(20, Window(0, 56), shared)
    # equal length, other zeros: {0, 2} and {1, 2, 3} meet at 2
    full = (Fraction(1),) * 3
    with pytest.raises(ValueError, match="not pairwise disjoint"):
        DimensionCertificate(2, Window(0, 3), (FiniteSolution(0, pair), FiniteSolution(1, full)))
    # equal tables in other objects read alike: {0, 2} and {3, 5}, then {5, 7}
    twin = tuple(map(Fraction, (1, 0, 1)))
    assert twin == pair and twin is not pair
    pairs = (FiniteSolution(0, pair), FiniteSolution(3, twin))
    DimensionCertificate(2, Window(0, 5), pairs)
    with pytest.raises(ValueError, match="not pairwise disjoint"):
        DimensionCertificate(3, Window(0, 7), pairs + (FiniteSolution(5, pair),))


def test_dimension_certificate_error_precedence():
    # solutions are checked in order, each for the window and then for overlap
    a = FiniteSolution(0, (Fraction(1),))
    wide = FiniteSolution(0, (Fraction(1), Fraction(0), Fraction(1)))
    far = FiniteSolution(10, (Fraction(1),))
    with pytest.raises(ValueError, match="leaves the certificate window"):
        DimensionCertificate(2, Window(0, 1), (a, wide))  # wide leaves and overlaps
    with pytest.raises(ValueError, match="leaves the certificate window"):
        DimensionCertificate(3, Window(0, 2), (far, a, a))
    with pytest.raises(ValueError, match="not pairwise disjoint"):
        DimensionCertificate(3, Window(0, 2), (a, a, far))


def test_verify_dimension_certificate_catches_non_solutions():
    bad = DimensionCertificate(1, Window(0, 2), (FiniteSolution(0, (Fraction(1),)),))
    assert not verify_dimension_certificate(fibonacci_operator(), bad)


def test_split_geometric_solution_frozen():
    op = vanish_on_multiples_operator(2)
    pieces = split_lacunary(op, geometric_lacunary_sequence(2), Window(0, 1000))
    assert [sorted(p.support_set()) for p in pieces] == [
        [4, 7], [13], [25], [49], [97], [193], [385], [769],
    ]
    assert all(v == 1 for p in pieces for v in p.values if v != 0)


def test_split_no_cuts_cases():
    fib = fibonacci_operator()
    assert split_lacunary(fib, fib_table(21), Window(0, 20)) == []
    # identically zero on the window: empty support, no pieces
    assert split_lacunary(fib, FiniteTable(100, (Fraction(1),)), Window(0, 20)) == []


def test_split_rejects_non_solutions():
    broken = FiniteTable(0, tuple(Fraction(v) for v in (1, 1, 2, 3, 6)))
    with pytest.raises(NotASolutionOnWindow):
        split_lacunary(fibonacci_operator(), broken, Window(0, 4))


def test_split_drops_segments_flush_with_window_edges():
    op = vanish_on_multiples_operator(2)
    lac = geometric_lacunary_sequence(2)
    # support on [4, 100] is {4,7,13,25,49,97}; the window starts at 4, so
    # the first segment has no left flank and must be dropped
    pieces = split_lacunary(op, lac, Window(4, 100))
    assert [p.anchor for p in pieces] == [13, 25, 49, 97]
    # the trailing segment {97} keeps its right flank only if the window
    # leaves r+1 zeros after it; 100-97 = 3 is exactly enough, 99 is not
    pieces = split_lacunary(op, lac, Window(4, 99))
    assert [p.anchor for p in pieces] == [13, 25, 49]


def test_split_single_fully_flanked_segment():
    op = vanish_on_multiples_operator(2)
    x = FiniteTable(4, (Fraction(2), Fraction(0), Fraction(0), Fraction(5)))
    pieces = split_lacunary(op, x, Window(0, 20))
    assert len(pieces) == 1
    assert sorted(pieces[0].support_set()) == [4, 7]


def test_split_reconstruction():
    op = vanish_on_multiples_operator(2)
    lac = geometric_lacunary_sequence(2)
    w = Window(0, 1000)
    pieces = split_lacunary(op, lac, w)
    total = {}
    for p in pieces:
        for n in p.support_set():
            total[n] = total.get(n, Fraction(0)) + p.value_at(n)
    for n in w.indices():
        assert total.get(n, Fraction(0)) == lac.value_at(n)


def test_split_pieces_form_a_certificate():
    op = vanish_on_multiples_operator(2)
    w = Window(0, 1000)
    pieces = split_lacunary(op, geometric_lacunary_sequence(2), w)
    cert = DimensionCertificate(len(pieces), w, tuple(pieces))
    assert verify_dimension_certificate(op, cert)


def test_build_lacunary_frozen_trace():
    op = vanish_on_multiples_operator(2)
    out = build_lacunary(op, 20, 200)
    assert isinstance(out, PartialLacunarySolution)
    assert out.ray == "positive"
    assert out.gap_profile == (3, 6, 12, 24)
    assert [b.anchor for b in out.blocks] == [1, 4, 10, 22, 46]
    assert max(out.gap_profile) >= 20
    gaps = out.gap_profile
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
    assert all(g >= i + 2 for i, g in enumerate(gaps))
    assert verify_partial_lacunary(op, out)


def test_build_lacunary_raises_on_a_prefix_its_re_check_rejects(monkeypatch):
    # the re-check covers the translated blocks and their sum, which no
    # kernel call checked; a rejected prefix is never returned
    monkeypatch.setattr(engine_mod, "verify_partial_lacunary", lambda op, partial: False)
    with pytest.raises(VerificationFailure, match=r"^assembled prefix fails re-verification$"):
        build_lacunary(vanish_on_multiples_operator(2), 20, 200)


def test_build_lacunary_assembled_table():
    op = vanish_on_multiples_operator(2)
    out = build_lacunary(op, 20, 200)
    table = assembled(out)
    assert table.anchor == 1 and len(table.values) == 46
    assert table.value_at(1) == 1 and table.value_at(46) == 1
    assert table.value_at(2) == 0
    windowed_residual_check(op, table, Window(1 - 2, 46 + 2))


def test_build_lacunary_inconclusive_cases():
    out = build_lacunary(fibonacci_operator(), 1, 200)
    assert isinstance(out, Inconclusive)
    assert out.best_gap is None
    out = build_lacunary(vanish_on_multiples_operator(2), 20, 20)
    assert isinstance(out, Inconclusive)
    assert out.best_gap == 6


def test_build_lacunary_zero_operator():
    out = build_lacunary(zero_operator(), 5, 50)
    assert isinstance(out, PartialLacunarySolution)
    assert out.ray == "positive"
    assert out.gap_profile == (2, 4, 8)


def test_build_lacunary_negative_ray():
    # order 0, coefficient 1 everywhere except a zero stretch left of the
    # origin: solutions live only at negative indices
    coeff = FiniteTable(-200, tuple(Fraction(0) for _ in range(200)), Fraction(1))
    op = OperatorSpec((coeff,))
    out = build_lacunary(op, 8, 300)
    assert isinstance(out, PartialLacunarySolution)
    assert out.ray == "negative"
    assert out.gap_profile == (2, 4, 8)
    assert [b.anchor for b in out.blocks] == [-1, -3, -7, -15]
    assert verify_partial_lacunary(op, out)


def mirrored(op):
    """The operator whose solutions are those of op reflected by n -> -n."""
    # (L x)(n) = sum_k a_k(n) y(-n - k) for y(m) = x(-m): coefficient j of
    # the mirror is a_{r - j}(-n - r), a reversed table
    r = op.order
    return OperatorSpec(tuple(
        FiniteTable(-a.anchor - len(a.values) - r + 1, a.values[::-1], a.default)
        for a in reversed(op.coeffs)
    ))


def test_build_lacunary_negative_ray_mirrors_the_positive_one():
    # inside [0, 59] equation n reads x(n) = x(n + 1) off the multiples of 3
    # and nothing on them, so the solutions are runs on 3m + 1 .. 3m + 3; the
    # mirror's lie left of the origin only, and build finds their reflections
    op = OperatorSpec((
        FiniteTable(0, (0, 1, 1) * 20, Fraction(1)),
        FiniteTable(0, (0, -1, -1) * 20, Fraction(1)),
    ))
    pos, neg = build_lacunary(op, 8, 100), build_lacunary(mirrored(op), 8, 100)
    assert (pos.ray, neg.ray) == ("positive", "negative")
    assert all(len(b.values) == 3 for b in pos.blocks)
    assert neg.gap_profile == pos.gap_profile
    assert [(-b.max_support, -b.min_support) for b in neg.blocks] == [
        (b.min_support, b.max_support) for b in pos.blocks
    ]
    assert verify_partial_lacunary(mirrored(op), neg)


def test_build_lacunary_validation():
    with pytest.raises(ValueError):
        build_lacunary(zero_operator(), 0, 10)
    with pytest.raises(ValueError):
        build_lacunary(zero_operator(), 1, 0)


def test_build_then_split_recovers_isolated_blocks():
    op = vanish_on_multiples_operator(2)
    out = build_lacunary(op, 20, 200)
    table = assembled(out)
    w = Window(table.anchor - 3, table.anchor + len(table.values) - 1 + 3)
    pieces = split_lacunary(op, table, w)
    piece_supports = [p.support_set() for p in pieces]
    gaps = out.gap_profile
    for i, block in enumerate(out.blocks):
        left = gaps[i - 1] if i > 0 else None
        right = gaps[i] if i < len(gaps) else None
        # a block flanked by zero runs of length >= r+1 on both sides
        # (window edges padded above) must come back as its own piece
        if (left is None or left >= 4) and (right is None or right >= 4):
            assert block.support_set() in piece_supports


def test_partial_lacunary_invariants():
    a = FiniteSolution(0, (Fraction(1),))
    b = FiniteSolution(3, (Fraction(1),))
    c = FiniteSolution(10, (Fraction(1),))
    PartialLacunarySolution((a, b, c), (3, 7), "positive")
    with pytest.raises(ValueError):
        PartialLacunarySolution((a, b), (2,), "positive")  # gap mismatch
    with pytest.raises(ValueError):
        PartialLacunarySolution((a, c, b), (10, 7), "positive")  # not ordered
    with pytest.raises(ValueError):
        PartialLacunarySolution((a, b, c), (3,), "positive")
    with pytest.raises(ValueError):
        PartialLacunarySolution((a, b), (3,), "sideways")
    with pytest.raises(ValueError):
        PartialLacunarySolution((a, b), (3,), ["positive"])  # unhashable, as JSON may give
    # on the negative ray a gap runs from a block's start to the next one's end
    e = FiniteSolution(-5, (Fraction(1), Fraction(0), Fraction(1)))
    f = FiniteSolution(-12, (Fraction(1), Fraction(1)))
    PartialLacunarySolution((e, f), (6,), "negative")
    with pytest.raises(ValueError):
        PartialLacunarySolution((e, f), (8,), "negative")
    with pytest.raises(ValueError):
        PartialLacunarySolution((), (), "positive")
    # second gap must be at least 3
    d = FiniteSolution(5, (Fraction(1),))
    with pytest.raises(ValueError):
        PartialLacunarySolution((a, b, d), (3, 2), "positive")


def test_verify_partial_lacunary_catches_foreign_blocks():
    blocks = (FiniteSolution(3, (Fraction(1),)), FiniteSolution(9, (Fraction(1),)))
    partial = PartialLacunarySolution(blocks, (6,), "positive")
    assert not verify_partial_lacunary(vanish_on_multiples_operator(2), partial)
    ok = PartialLacunarySolution(
        (FiniteSolution(1, (Fraction(1),)), FiniteSolution(7, (Fraction(1),))),
        (6,),
        "positive",
    )
    assert verify_partial_lacunary(vanish_on_multiples_operator(2), ok)


def test_verify_kernel_basis():
    op = vanish_on_multiples_operator(2)
    kb = finite_support_kernel(op, Window(0, 8))
    assert verify_kernel_basis(op, kb)
    assert not verify_kernel_basis(fibonacci_operator(), kb)


def test_verify_kernel_basis_costs_its_solutions_not_its_window():
    """Columns no solution reaches add no rank: one short solution in a
    window of a million columns is ranked over its own span, not the
    window's (about 64 MB of Python allocations when the window was ranked)."""
    op = vanish_on_multiples_operator(2)
    solution = finite_support_kernel(op, Window(0, 8)).solutions[0]
    wide = KernelBasis(Window(0, 10**6), (solution,))
    tracemalloc.start()
    try:
        assert verify_kernel_basis(op, wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert verify_kernel_basis(op, KernelBasis(Window(0, 10**6), ()))
    # ranked from the least anchor: a translate is independent, a repeat is not
    shifted = FiniteSolution(solution.anchor + 3 * 10**5, solution.values)
    assert verify_kernel_basis(op, KernelBasis(Window(0, 10**6), (solution, shifted)))
    assert not verify_kernel_basis(op, KernelBasis(Window(0, 10**6), (shifted, shifted)))


def test_verify_dimension_certificate_costs_little_beyond_its_json():
    """Reading and verifying a parsed certificate of unit solutions allocates
    a slotted FiniteSolution and a few pointers per solution, and no new int
    in the disjointness scan (153 bytes per solution with an instance dict
    and an offset-0 int per support point, 82 without, and 65 with the
    solutions collected straight into their tuple and the anchors straight
    into the one list of support points)."""
    n = 20_000
    free = [i for i in range(1, 3 * n) if i % 3][:n]  # vanish_on_multiples_r2 leaves these free
    data = json.loads(json.dumps({
        "kind": "dimension_certificate", "k": n, "window": [0, free[-1] + 1],
        "solutions": [{"anchor": i, "values": ["1/1"]} for i in free],
    }))
    op = vanish_on_multiples_operator(2)
    tracemalloc.start()
    try:
        kind, cert = certificate_from_json(data)
        assert kind == "dimension_certificate" and verify_dimension_certificate(op, cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 75 * n


@settings(max_examples=20, deadline=None)
@given(residue_operators, st.integers(min_value=1, max_value=4))
def test_certificates_are_sound_by_construction(op, k):
    out = certify_dimension(op, k, 30)
    if isinstance(out, DimensionCertificate):
        assert out.k == k
        assert verify_dimension_certificate(op, out)
    else:
        assert isinstance(out, Inconclusive)


@settings(max_examples=20, deadline=None)
@given(residue_operators, st.integers(min_value=2, max_value=6))
def test_build_results_verify(op, min_gap):
    out = build_lacunary(op, min_gap, 60)
    if isinstance(out, PartialLacunarySolution):
        assert max(out.gap_profile) >= min_gap
        assert verify_partial_lacunary(op, out)


def first_failure(check, *args):
    """(n, value) of the NotASolutionOnWindow a check raises, or None."""
    try:
        check(*args)
    except NotASolutionOnWindow as err:
        return err.n, err.value
    return None


@settings(max_examples=200, deadline=None)
@given(st.one_of(residue_operators, periodic_operators), sequence_specs, windows)
def test_sparse_checks_match_dense_oracle(op, x, w):
    expected = dense_windowed_check(op, x, w)
    assert first_failure(windowed_residual_check, op, x, w) == expected
    assert first_failure(split_lacunary, op, x, w) == expected


@pytest.mark.parametrize(
    "x",
    [GeometricSupport(3, 1, Fraction(1), True), GeometricSupport(12, -7, Fraction(1), True)],
)
def test_sparse_check_matches_dense_oracle_on_a_wide_window(x):
    w = Window(-50, 100000)
    for op in (vanish_on_multiples_operator(2), fibonacci_operator()):
        assert first_failure(windowed_residual_check, op, x, w) == dense_windowed_check(op, x, w)


def dense_partial_check(op, partial):
    """The assembled-sum check as a scan of every index around the blocks."""
    table = assembled(partial)
    w = Window(table.anchor - op.order, table.anchor + len(table.values) - 1 + op.order)
    return dense_windowed_check(op, table, w) is None


@settings(max_examples=25, deadline=None)
@given(residue_operators, residue_operators, st.integers(min_value=2, max_value=6), st.data())
def test_verify_partial_lacunary_matches_dense_check(op, foreign, min_gap, data):
    out = build_lacunary(op, min_gap, 60)
    if not isinstance(out, PartialLacunarySolution):
        return
    # tamper with one value of one block; the ends stay nonzero
    i = data.draw(st.integers(min_value=0, max_value=len(out.blocks) - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(out.blocks[i].values) - 1))
    values = list(out.blocks[i].values)
    values[j] = values[j] + 1 or Fraction(2)
    blocks = list(out.blocks)
    blocks[i] = FiniteSolution(blocks[i].anchor, tuple(values))
    tampered = PartialLacunarySolution(tuple(blocks), out.gap_profile, out.ray)
    for partial in (out, tampered):
        for L in (op, foreign):
            blocks_ok = all(is_global_solution_finite(L, b) for b in partial.blocks)
            expected = dense_partial_check(L, partial)
            assert verify_partial_lacunary(L, partial) == (blocks_ok and expected)
            # without the block checks the assembled sum alone decides
            with mock.patch.object(engine_mod, "_first_non_solution", lambda *_: None):
                assert verify_partial_lacunary(L, partial) == expected


def test_assembled_check_alone_catches_a_foreign_end_block():
    op = vanish_on_multiples_operator(2)
    unit = (Fraction(1),)
    # 3 and 6 are multiples of 3, where this operator's unit solutions fail
    first = PartialLacunarySolution((FiniteSolution(3, unit), FiniteSolution(7, unit)), (4,), "positive")
    last = PartialLacunarySolution((FiniteSolution(1, unit), FiniteSolution(6, unit)), (5,), "positive")
    with mock.patch.object(engine_mod, "_first_non_solution", lambda *_: None):
        for partial in (first, last):
            assert not dense_partial_check(op, partial)
            assert not verify_partial_lacunary(op, partial)


class CountedCoefficient(_Sequence):
    """A coefficient sequence that records each index it is evaluated at.

    It knows no period, so every distinct solution is re-checked."""

    def __init__(self, spec, calls):
        self.spec, self.calls = spec, calls

    def value_at(self, n):
        self.calls.append(n)
        return self.spec.value_at(n)


class PeriodicCountedCoefficient(CountedCoefficient):
    """A counted coefficient that knows the period of the spec it wraps."""

    def known_period(self):
        return self.spec.known_period()


def test_sparse_checks_cost_linear_in_the_support(monkeypatch):
    # two counts: coefficient evaluations bound the work of every residual
    # check, all of which walk the support through residual; but residual
    # evaluates no coefficient on an equation whose terms all miss the
    # support, so the equations evaluated are counted too, or a scan of the
    # whole window would go unseen
    calls, equations = [], []
    original = operators_mod.residual

    def counting(op, x, n):
        equations.append(n)
        return original(op, x, n)

    monkeypatch.setattr(operators_mod, "residual", counting)
    op = vanish_on_multiples_operator(2)
    counted = OperatorSpec(tuple(CountedCoefficient(a, calls) for a in op.coeffs))
    r = op.order
    windowed_residual_check(counted, geometric_lacunary_sequence(2), Window(0, 10**7))
    bound = 3 * (r + 1) * math.ceil(math.log2(10**7))
    assert 0 < len(equations) <= bound and 0 < len(calls) <= bound

    # the consume benchmark's partial: 18 unit blocks on the doubling points
    points = [3 * 2**i + 1 for i in range(18)]
    blocks = tuple(FiniteSolution(p, (Fraction(1),)) for p in points)
    gaps = tuple(b - a for a, b in zip(points, points[1:]))
    calls.clear()
    equations.clear()
    assert verify_partial_lacunary(counted, PartialLacunarySolution(blocks, gaps, "positive"))
    bound = 3 * sum(len(b.values) + r for b in blocks)
    assert 0 < len(equations) <= bound and 0 < len(calls) <= bound

    # k solutions with interior zeros: at most r + 1 per table entry, and in
    # fact r + 1 per nonzero entry, since a term with x(n + k) = 0 is skipped
    k, block = 200, (Fraction(1), Fraction(0), Fraction(1))
    # supports 3i + 2 and 3i + 4 miss the multiples of 3, the only constrained indices
    solutions = tuple(FiniteSolution(3 * i + 2, block) for i in range(k))
    cert = DimensionCertificate(k, Window(2, 3 * k + 1), solutions)
    calls.clear()
    equations.clear()
    assert verify_dimension_certificate(counted, cert)
    bound = k * (r + 1) * sum(1 for v in block if v)
    assert 0 < len(calls) <= bound < k * (r + 1) * len(block)
    assert 0 < len(equations) <= bound

    # with the period known, one solution per translation class is checked
    periodic = OperatorSpec(tuple(PeriodicCountedCoefficient(a, calls) for a in op.coeffs))
    classes = len({(s.anchor % periodic.period, s.values) for s in solutions})
    calls.clear()
    equations.clear()
    assert verify_dimension_certificate(periodic, cert)
    bound = classes * (r + 1) * sum(1 for v in block if v)
    assert 0 < len(calls) <= bound < classes * (r + 1) * len(block)
    assert 0 < len(equations) <= bound


def test_partial_check_walks_only_nonzero_entries(monkeypatch):
    # a block with a run of 18 zeros inside: the sum is checked, like each
    # block, only within r left of its 3 nonzero entries
    equations = []
    original = operators_mod.residual

    def counting(op, x, n):
        equations.append(n)
        return original(op, x, n)

    monkeypatch.setattr(operators_mod, "residual", counting)
    op = vanish_on_multiples_operator(2)
    one = Fraction(1)
    blocks = (FiniteSolution(1, (one,) + (Fraction(0),) * 18 + (one,)), FiniteSolution(100, (one,)))
    assert verify_partial_lacunary(op, PartialLacunarySolution(blocks, (80,), "positive"))
    assert len(equations) == 2 * 3 * (op.order + 1)


def test_translation_classes_match_the_every_equation_oracle():
    outcomes = set()

    @settings(max_examples=25, deadline=None)
    @given(residue_operators, st.data())
    def agrees(op, data):
        p = op.period
        assert p is not None  # constant residue classes
        kernel = finite_support_kernel(op, Window(0, 12)).solutions
        # the planted table: a tampered kernel vector, or a unit if there is none
        planted = FiniteSolution(0, (Fraction(1),))
        if kernel:
            s = data.draw(st.sampled_from(kernel))
            j = data.draw(st.integers(min_value=0, max_value=len(s.values) - 1))
            values = list(s.values)
            values[j] = values[j] + 1 or Fraction(2)
            planted = FiniteSolution(s.anchor, tuple(values))
        tables = data.draw(st.lists(st.sampled_from(kernel), max_size=12)) if kernel else []
        at = data.draw(st.integers(min_value=0, max_value=len(tables)))
        tables.insert(at, planted)
        # block j starts near 16p * j(j+1)/2: a multiple of p, plus an offset below p;
        # tables span at most 13 indices, so the gaps are disjoint and growing
        shifts = [
            16 * p * (j * (j + 1) // 2) + data.draw(st.sampled_from((0, 0, *range(1, p))))
            for j in range(len(tables))
        ]
        with_planted = [FiniteSolution(t.anchor + d, t.values) for t, d in zip(tables, shifts)]
        for solutions in (with_planted, with_planted[:at] + with_planted[at + 1 :]):
            if not solutions:
                continue
            expected = all(every_equation_check(op, s) for s in solutions)
            outcomes.add(expected)
            hull = Window(solutions[0].min_support, solutions[-1].max_support)
            cert = DimensionCertificate(len(solutions), hull, tuple(solutions))
            assert verify_dimension_certificate(op, cert) == expected
            assert verify_kernel_basis(op, KernelBasis(hull, tuple(solutions))) == expected
            gaps = tuple(b.min_support - a.max_support for a, b in zip(solutions, solutions[1:]))
            partial = PartialLacunarySolution(tuple(solutions), gaps, "positive")
            assert verify_partial_lacunary(op, partial) == expected

    agrees()
    assert outcomes == {True, False}


def test_certificates_match_the_naive_verify_oracle():
    outcomes = set()

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(residue_operators, spec_operators), st.data())
    def agrees(op, data):
        step = op.period or 1
        # kernel vectors and their translates by multiples of a period solve L;
        # the planted table, a tampered kernel vector (same length, other
        # zeros) or else a random table, mostly does not
        kernel = finite_support_kernel(op, Window(-6, 6)).solutions
        if kernel:
            s = data.draw(st.sampled_from(kernel))
            values = list(s.values)
            j = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
            values[j] = values[j] + 1 or Fraction(2)
            planted = FiniteSolution(s.anchor, tuple(values))
        else:
            body = data.draw(st.lists(small_fractions, min_size=1, max_size=4))
            planted = trimmed_solution(0, body) or FiniteSolution(0, (Fraction(1),))
        tables = data.draw(st.lists(st.sampled_from(kernel), max_size=5)) if kernel else []
        at = data.draw(st.integers(min_value=0, max_value=len(tables)))
        tables.insert(at, planted)
        shape = data.draw(st.sampled_from(["disjoint", "close", "overlap", "leaves"]))
        # close solutions interleave, overlapping or not by their zeros
        spread = data.draw(st.sampled_from([1, 2, 3])) if shape == "close" else 16 * step
        offsets = st.sampled_from([0, 0, step, 1])
        placed = [
            FiniteSolution(t.anchor + j * spread + data.draw(offsets), t.values)
            for j, t in enumerate(tables)
        ]
        if shape == "overlap":  # the first solution once more, at the end
            placed.append(placed[0])
        for solutions in (placed, placed[:at] + placed[at + 1 :]):
            if not solutions:
                continue
            lo = min(s.min_support for s in solutions)
            hi = max(s.max_support for s in solutions)
            if shape == "leaves":  # the window misses one end of the hull
                lo, hi = data.draw(st.sampled_from([(lo + 1, hi), (lo, hi - 1)]))
            window = Window(lo, max(lo, hi))
            expected = naive_verify_certificate(op, len(solutions), window, solutions)
            try:
                cert = DimensionCertificate(len(solutions), window, tuple(solutions))
            except ValueError as e:
                assert str(e) == expected
            else:
                assert verify_dimension_certificate(op, cert) == expected
            outcomes.add(expected)

    agrees()
    assert outcomes == {
        True, False,
        "solution supports are not pairwise disjoint",
        "solution support leaves the certificate window",
    }


def test_every_solution_is_checked_without_a_period():
    # a(n) x(n) = 0 with a nonzero only at 0: units solve it except the one at 0
    op = OperatorSpec((FiniteTable(0, (Fraction(1),)),))
    assert op.period is None
    units = tuple(FiniteSolution(n, (Fraction(1),)) for n in (5, 3, 0, 7))
    w = Window(0, 7)
    assert not verify_dimension_certificate(op, DimensionCertificate(4, w, units))
    assert not verify_kernel_basis(op, KernelBasis(w, units))
    assert verify_dimension_certificate(op, DimensionCertificate(3, w, units[:2] + units[3:]))


def test_one_check_per_translation_class(monkeypatch):
    checked = []
    original = operators_mod.is_global_solution_finite

    def counting(op, x):
        checked.append((x.anchor % 3, x.values))
        return original(op, x)

    monkeypatch.setattr(operators_mod, "is_global_solution_finite", counting)
    op = vanish_on_multiples_operator(2)
    assert op.period == 3
    one, pair = (Fraction(1),), (Fraction(1), Fraction(0), Fraction(1))
    # supports 6i + 1, {6i + 2, 6i + 4} and 6i + 5 miss the multiples of 3
    solutions = tuple(
        FiniteSolution(6 * i + d, values)
        for i in range(67)
        for d, values in ((1, one), (2, pair), (5, one))
    )[:200]
    classes = {(s.anchor % 3, s.values) for s in solutions}
    assert len(classes) == 3
    w = Window(1, solutions[-1].max_support)
    assert verify_dimension_certificate(op, DimensionCertificate(200, w, solutions))
    assert sorted(checked) == sorted(classes)
    checked.clear()
    assert verify_kernel_basis(op, KernelBasis(w, solutions))
    assert sorted(checked) == sorted(classes)
    # the first failure ends the check: one call per class up to it
    checked.clear()
    bad = solutions[:100] + (FiniteSolution(6 * 70, one),) + solutions[100:]
    w = Window(1, 6 * 70)
    assert not verify_dimension_certificate(op, DimensionCertificate(201, w, bad))
    assert sorted(checked) == sorted(classes | {(0, one)})


def test_block_search_matches_the_uncached_oracle():
    def uncached(op, d, edge, budget, solved, widen=False):
        return uncached_first_blocks(op, d, edge, budget, widen)

    @settings(max_examples=30, deadline=None)
    @given(residue_operators, st.integers(min_value=1, max_value=40), st.data())
    def agrees(op, budget, data):
        # one dict across edges on both rays, clipped or not, widened or not:
        # every window of a class after the first is a translate
        solved = {}
        edges = st.integers(min_value=-budget - 2, max_value=budget + 2)
        for edge in data.draw(st.lists(edges, min_size=1, max_size=10)):
            for d in (1, -1):
                for widen in (False, True):
                    expected = uncached_first_blocks(op, d, edge, budget, widen)
                    assert engine_mod._first_blocks(op, d, edge, budget, solved, widen) == expected
        k = data.draw(st.integers(min_value=1, max_value=6))
        gap = data.draw(st.integers(min_value=1, max_value=12))
        cached = certify_dimension(op, k, budget), build_lacunary(op, gap, budget)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_mod, "_first_blocks", uncached)
            assert (certify_dimension(op, k, budget), build_lacunary(op, gap, budget)) == cached

    agrees()


def test_block_search_solves_each_translation_class_once(monkeypatch):
    windows, oracle_windows = [], []

    def recording(log):
        def kernel(op, w):
            log.append(w)
            return finite_support_kernel(op, w)
        return kernel

    monkeypatch.setattr(engine_mod, "finite_support_kernel", recording(windows))
    monkeypatch.setattr(oracles, "finite_support_kernel", recording(oracle_windows))

    def both(search, *args):
        """The search's outcome and windows, cached and with every window solved."""
        windows.clear()
        oracle_windows.clear()
        out = search(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                engine_mod, "_first_blocks",
                lambda op, d, edge, budget, solved, widen=False:
                uncached_first_blocks(op, d, edge, budget, widen),
            )
            assert search(*args) == out
        return out, list(windows), list(oracle_windows)

    # period 3: every solution is a translate of two shapes
    out, solved, every = both(certify_dimension, vanish_on_multiples_operator(2), 100, 200)
    assert isinstance(out, DimensionCertificate) and out.k == 100
    assert len(solved) <= 6 < 194 == len(every)

    # period 1: the negative ray reuses every window size of the positive one
    out, solved, every = both(build_lacunary, fibonacci_operator(), 20, 200)
    assert isinstance(out, Inconclusive)
    sizes = [w.size for w in solved]
    assert len(set(sizes)) == len(sizes)
    assert sorted(sizes) == sorted({w.size for w in every})
    assert 2 * len(solved) == len(every)

    # no period: every window is solved, as the oracle solves it
    op = OperatorSpec((
        FiniteTable(0, (0, 1, 1) * 20, Fraction(1)),
        FiniteTable(0, (0, -1, -1) * 20, Fraction(1)),
    ))
    assert op.period is None
    for search, args in ((certify_dimension, (op, 5, 100)), (build_lacunary, (op, 8, 100))):
        out, solved, every = both(search, *args)
        assert not isinstance(out, Inconclusive)
        assert solved == every
