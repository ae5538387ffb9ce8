"""Exact rational rank and nullspace computation, and the kernels built on it.

A system is a list of band rows: (first column, entries), each equation
touching only the consecutive unknowns its entries cover.  Window systems
are built that way (`window_matrix`); a dense matrix is the special case
of rows that all start at column 0.  There is one elimination routine:

- Each row is scaled to integers and trimmed to its nonzero span.
- Forward elimination is fraction-free, in the band-LU manner: after the
  columns left of c are eliminated, the rows with a nonzero in column c
  are exactly those that start there.  The shortest of them is the pivot;
  every other one is cross-multiplied against it, divided by its content
  (the Bareiss-style growth control) and re-filed under its new first
  column.  Row scaling never changes rank or nullspace.
- Back-substitution over Fractions reads only each pivot row's span and
  skips the pivot rows right of the free column, which are zero there.

The nullspace basis is canonical (one vector per free column, integral,
content 1, positive leading entry), so it does not depend on pivot
choices, and every vector is asserted to satisfy M v = 0 exactly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .operators import (
    BandRow,
    FiniteSolution,
    OperatorSpec,
    is_global_solution_finite,
    vector_to_finite_solution,
    window_matrix,
)
from .sequences import Window

__all__ = [
    "KernelBasis",
    "VerificationFailure",
    "WindowTooSmall",
    "finite_support_kernel",
    "free_kernel_dim",
    "rank_and_nullspace",
]


class VerificationFailure(Exception):
    """A computed nullspace vector failed residual re-verification.

    This signals an internal elimination bug; it must never be swallowed.
    """


class WindowTooSmall(Exception):
    """The window cannot hold a single full equation of the operator."""


Matrix = Sequence[Sequence[Fraction]]


def _normalize(vector: list[Fraction]) -> tuple[Fraction, ...]:
    # Integer entries, content 1, first nonzero entry positive.
    scale = math.lcm(*(v.denominator for v in vector))
    ints = [int(v * scale) for v in vector]
    g = math.gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


def _nullspace(
    rows: Sequence[BandRow], ncols: int
) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Exact rank and canonical nullspace basis of a band-row system."""
    # by_start[c]: integer rows whose first nonzero lies in column c
    by_start: list[list[list[int]]] = [[] for _ in range(ncols)]
    for first, entries in rows:
        fracs = [Fraction(v) for v in entries]
        nz = [j for j, f in enumerate(fracs) if f]
        if not nz:
            continue
        fracs = fracs[nz[0] : nz[-1] + 1]
        scale = math.lcm(*(f.denominator for f in fracs))
        by_start[first + nz[0]].append([int(f * scale) for f in fracs])

    pivots: dict[int, list[int]] = {}
    for col, group in enumerate(by_start):
        if not group:
            continue
        prow = min(group, key=len)
        p = prow[0]
        for row in group:
            if row is prow:
                continue
            # len(row) >= len(prow), so the update spans row's columns
            f = row[0]
            new = [p * a - f * b for a, b in zip(row[1:], prow[1:])]
            new += [p * a for a in row[len(prow) :]]
            nz = [j for j, v in enumerate(new) if v]
            if not nz:
                continue
            new = new[nz[0] : nz[-1] + 1]
            g = math.gcd(*new)
            if g > 1:
                new = [v // g for v in new]
            by_start[col + 1 + nz[0]].append(new)
        pivots[col] = prow
    pivot_cols = list(pivots)

    basis: list[tuple[Fraction, ...]] = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for c in reversed(pivot_cols[: bisect.bisect(pivot_cols, free)]):
            row = pivots[c]
            s = sum(a * v[c + j] for j, a in enumerate(row) if j and v[c + j])
            if s:
                v[c] = -s / row[0]
        basis.append(_normalize(v))

    for v in basis:
        for first, entries in rows:
            span = v[first : first + len(entries)]
            acc = sum(a * b for a, b in zip(entries, span) if a and b)
            assert acc == 0, "nullspace vector fails exact M v = 0 check"
    rank = len(pivots)
    assert rank + len(basis) == ncols
    return rank, basis


def rank_and_nullspace(matrix: Matrix) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Exact rank and a canonical nullspace basis of a rational matrix.

    Basis vectors are integral with content 1 and positive leading entry,
    one per free column in ascending column order, so equal matrices give
    byte-identical serialized certificates.  Each returned vector is
    asserted to satisfy M v = 0 exactly.
    """
    ncols = len(matrix[0]) if matrix else 0
    if any(len(row) != ncols for row in matrix):
        raise ValueError("ragged matrix")
    return _nullspace([(0, row) for row in matrix], ncols)


@dataclass(frozen=True)
class KernelBasis:
    """Basis of the global solutions supported inside a window."""

    window: Window
    vectors: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if any(len(v) != self.window.size for v in self.vectors):
            raise ValueError("basis vector length does not match window size")

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def solutions(self) -> tuple[FiniteSolution, ...]:
        out = []
        for v in self.vectors:
            fs = vector_to_finite_solution(self.window, v)
            if fs is None:
                raise ValueError("zero vector in kernel basis")
            out.append(fs)
        return tuple(out)


def finite_support_kernel(op: OperatorSpec, w: Window) -> KernelBasis:
    """Basis of the space of global solutions whose support lies inside w.

    Every basis vector is re-verified against the operator by a complete
    residual check before being returned; a failure aborts the computation
    rather than returning an unsound certificate.
    """
    _, basis = _nullspace(window_matrix(op, w), w.size)
    kb = KernelBasis(w, tuple(basis))
    for fs in kb.solutions():
        if not is_global_solution_finite(op, fs):
            raise VerificationFailure(
                f"kernel vector anchored at {fs.anchor} fails residual re-verification"
            )
    return kb


def free_kernel_dim(op: OperatorSpec, w: Window) -> int:
    """Dimension of window solutions with no constraint outside the window."""
    if w.hi - w.lo < op.order:
        raise WindowTooSmall(
            f"window [{w.lo}, {w.hi}] is shorter than operator order {op.order}"
        )
    # the unclipped rows are the equations n in [w.lo, w.hi - r]
    full = [row for row in window_matrix(op, w) if len(row[1]) == op.order + 1]
    rank, _ = _nullspace(full, w.size)
    return w.size - rank
