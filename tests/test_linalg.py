"""Exact elimination against an independent oracle, and the window kernels."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lacunary import (
    FiniteSolution,
    KernelBasis,
    VerificationFailure,
    Window,
    finite_support_kernel,
    free_kernel_dim,
    is_global_solution_finite,
    window_matrix,
)
from lacunary.corpus import (
    fibonacci_operator,
    vanish_on_multiples_operator,
    zero_operator,
)
from lacunary import linalg as linalg_mod
from lacunary.linalg import _nullspace

from .oracles import (
    densify,
    free_boundary_system,
    matrix_times_vector,
    naive_rank_nullspace,
    spans_equal,
    support_confined_nullity,
    support_confined_system,
)
from .strategies import (
    band_systems,
    end_nonvanishing_operators,
    residue_operators,
    small_matrices,
)


def frac_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def dense_nullspace(matrix):
    """Rank and band-form basis of a dense matrix: every row starts at column 0."""
    ncols = len(matrix[0])
    basis = _nullspace([(0, row) for row in matrix], ncols)
    return ncols - len(basis), basis


def test_rank_and_nullspace_basics():
    rank, basis = dense_nullspace(frac_matrix([[1, 1], [0, 0]]))
    assert rank == 1
    assert basis == [(0, (1, -1))]
    rank, basis = dense_nullspace(frac_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert (rank, basis) == (3, [])
    rank, basis = dense_nullspace(frac_matrix([[0, 0], [0, 0]]))
    assert rank == 0
    # trimmed to the nonzero span: the unit vectors of columns 0 and 1
    assert basis == [(0, (1,)), (1, (1,))]


def test_int_and_fraction_entries_scale_alike():
    # rows are scaled to integers through numerator and denominator, which ints have too
    rows = [[3, -6, 0, 9], [Fraction(1, 2), 0, Fraction(-2, 3), 1]]
    expected = dense_nullspace(frac_matrix(rows))
    assert dense_nullspace(rows) == expected
    assert dense_nullspace([tuple(row) for row in rows]) == expected
    assert expected[0] == 2


def test_nullspace_is_canonical():
    # integer entries, content 1, positive leading entry
    _, basis = dense_nullspace(frac_matrix([[2, 4], [0, 0]]))
    assert basis == [(0, (2, -1))]
    _, basis = dense_nullspace([[Fraction(1, 3), Fraction(1, 6)]])
    assert basis == [(0, (1, -2))]
    _, basis = dense_nullspace(frac_matrix([[0, 3, 6, 0]]))
    assert basis == [(0, (1,)), (1, (2, -1)), (3, (1,))]


def test_vanish_operator_window_system_nullity():
    op = vanish_on_multiples_operator(2)
    basis = _nullspace(window_matrix(op, Window(0, 8)), 9)
    assert len(basis) == 6
    assert support_confined_nullity(op, 0, 8) == 6


@given(small_matrices)
def test_rank_nullity_and_exactness_against_oracle(rows):
    matrix = frac_matrix(rows)
    ncols = len(matrix[0])
    rank, basis = dense_nullspace(matrix)
    oracle_rank, oracle_basis = naive_rank_nullspace(matrix, ncols)
    vectors = densify(basis, ncols)
    assert rank == oracle_rank
    assert rank + len(basis) == ncols
    for v in vectors:
        assert all(entry == 0 for entry in matrix_times_vector(matrix, v))
    assert spans_equal(vectors, oracle_basis, ncols)


@settings(max_examples=150)
@given(band_systems)
def test_band_system_nullspace_against_oracle(system):
    # mixed row widths and zero row ends exercise the back-substitution stop
    rows, ncols = system
    matrix = densify(rows, ncols)
    basis = _nullspace(rows, ncols)
    rank = ncols - len(basis)
    oracle_rank, oracle_basis = naive_rank_nullspace(matrix, ncols)
    vectors = densify(basis, ncols)
    assert rank == oracle_rank
    assert all(values[0] > 0 and values[-1] != 0 for _, values in basis)
    for v in vectors:
        assert all(entry == 0 for entry in matrix_times_vector(matrix, v))
    assert spans_equal(vectors, oracle_basis, ncols)


@settings(max_examples=40)
@given(residue_operators, st.integers(min_value=-6, max_value=6), st.integers(min_value=0, max_value=12))
def test_window_system_matches_unit_residual_oracle(op, lo, length):
    hi = lo + length
    rows = window_matrix(op, Window(lo, hi))
    assert densify(rows, length + 1) == support_confined_system(op, lo, hi)


def test_finite_support_kernel_vanish_free_indices():
    op = vanish_on_multiples_operator(2)
    kb = finite_support_kernel(op, Window(1, 2))
    assert kb.dimension == 2
    assert sorted(s.anchor for s in kb.solutions) == [1, 2]
    for s in kb.solutions:
        assert s.values == (Fraction(1),)


def test_finite_support_kernel_fibonacci_trivial():
    fib = fibonacci_operator()
    for w in (Window(0, 10), Window(-30, 30), Window(-100, 99)):
        assert finite_support_kernel(fib, w).dimension == 0


def test_finite_support_kernel_zero_operator():
    kb = finite_support_kernel(zero_operator(), Window(0, 4))
    assert kb.dimension == 5
    assert all(is_global_solution_finite(zero_operator(), s) for s in kb.solutions)


@settings(max_examples=30)
@given(residue_operators, st.integers(min_value=-5, max_value=5), st.integers(min_value=0, max_value=8))
def test_kernel_dimension_monotone_under_window_growth(op, lo, length):
    inner = Window(lo, lo + length)
    outer = Window(lo - 3, lo + length + 3)
    d_inner = finite_support_kernel(op, inner).dimension
    d_outer = finite_support_kernel(op, outer).dimension
    assert d_inner <= d_outer


def test_free_kernel_dim():
    assert free_kernel_dim(fibonacci_operator(), Window(0, 10)) == 2
    assert free_kernel_dim(zero_operator(), Window(0, 4)) == 5
    assert free_kernel_dim(vanish_on_multiples_operator(2), Window(0, 8)) == 6
    # a window of at most r indices holds no equation: every value is free
    assert free_kernel_dim(fibonacci_operator(), Window(0, 1)) == 2


@settings(max_examples=40)
@given(residue_operators, st.integers(min_value=-6, max_value=6), st.integers(min_value=0, max_value=12))
def test_free_kernel_dim_matches_free_boundary_oracle(op, lo, length):
    hi = lo + length
    rank, _ = naive_rank_nullspace(free_boundary_system(op, lo, hi), length + 1)
    assert free_kernel_dim(op, Window(lo, hi)) == length + 1 - rank


@settings(max_examples=100, deadline=None)
@given(end_nonvanishing_operators(), st.integers(min_value=-10, max_value=10))
def test_free_kernel_dim_is_the_order_when_an_end_coefficient_vanishes_nowhere(op, lo):
    # each of the size - r equations fixes x(n) by a_0(n), or x(n + r) by a_r(n),
    # from the r free values at one end of the window
    for length in range(op.order, op.order + 12):
        assert free_kernel_dim(op, Window(lo, lo + length)) == op.order, length


def test_free_kernel_order_zero():
    op = zero_operator(0)
    assert op.order == 0
    assert free_kernel_dim(op, Window(2, 4)) == 3


def test_kernel_basis_validation():
    with pytest.raises(ValueError):
        KernelBasis(Window(0, 2), (FiniteSolution(2, (Fraction(1), Fraction(1))),))
    with pytest.raises(ValueError):
        KernelBasis(Window(0, 2), (FiniteSolution(-1, (Fraction(1),)),))


def test_kernel_names_a_vector_the_elimination_got_wrong(monkeypatch):
    """The kernel's residual re-check is the one check of what elimination
    returns: a vector tampered to reach 12, a multiple of 3, no longer
    solves vanish_on_multiples_r2, and is named in a VerificationFailure,
    which, unlike an assert, `python -O` does not skip."""
    op = vanish_on_multiples_operator(2)
    w = Window(10, 40)
    elimination = linalg_mod._nullspace

    def tampered(rows, ncols):
        basis = elimination(rows, ncols)
        i = basis.index((13 - w.lo, (1,)))
        basis[i] = (12 - w.lo, (1, 1))
        return basis

    assert finite_support_kernel(op, w).dimension == 21
    monkeypatch.setattr(linalg_mod, "_nullspace", tampered)
    with pytest.raises(
        VerificationFailure, match=r"^kernel vector anchored at 12 fails residual re-verification$"
    ):
        finite_support_kernel(op, w)
