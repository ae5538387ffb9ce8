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
- Back-substitution over Fractions builds each basis vector in band form,
  (first column, values), from its free column leftwards, reading only
  each pivot row's span.  It stops at the first pivot column c with
  c + w - 1 below the lowest nonzero so far, w the longest input row.
  The stop is exact: elimination only shortens a row from the left, so a
  pivot row at c ends by c + w - 1 and meets only zeros of the vector,
  and so do all pivot rows further left.  On a band system the kernel
  costs the total span of its vectors times w, not the window squared.

The nullspace basis is canonical (one vector per free column, trimmed to
its nonzero span, integral, content 1, positive leading entry), so it does
not depend on pivot choices.  finite_support_kernel re-checks every
vector against the operator itself, by the complete residual check that
`verify` runs (`operators._first_non_solution`); that is the one check,
and it raises VerificationFailure even where asserts are off.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .operators import BandRow, FiniteSolution, OperatorSpec, _first_non_solution, window_matrix
from .sequences import Record, Window

__all__ = [
    "KernelBasis",
    "VerificationFailure",
    "finite_support_kernel",
    "free_kernel_dim",
]


class VerificationFailure(Exception):
    """A computed nullspace vector failed residual re-verification.

    This signals an internal elimination bug; it must never be swallowed.
    """


def _normalize(values: list[Fraction]) -> tuple[int, ...]:
    # Integer entries, content 1, first entry (nonzero) positive.
    scale = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    g = math.gcd(*ints)
    if ints[0] < 0:
        g = -g
    return tuple(v // g for v in ints)


def _eliminate(rows: Sequence[BandRow], ncols: int) -> dict[int, list[int]]:
    """Forward elimination: the pivot row of each pivot column (rank = count)."""
    # by_start[c]: integer rows whose first nonzero lies in column c
    by_start: list[list[list[int]]] = [[] for _ in range(ncols)]
    for first, entries in rows:
        # entries are ints or Fractions: both carry numerator and denominator
        nz = [j for j, v in enumerate(entries) if v]
        if not nz:
            continue
        entries = entries[nz[0] : nz[-1] + 1]
        scale = math.lcm(*(v.denominator for v in entries))
        by_start[first + nz[0]].append([v.numerator * (scale // v.denominator) for v in entries])

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
    return pivots


def _nullspace(rows: Sequence[BandRow], ncols: int) -> list[BandRow]:
    """Canonical nullspace basis of a band-row system.

    Basis vectors come in band form, (first column, integer values),
    trimmed to their nonzero span.
    """
    width = max((len(entries) for _, entries in rows), default=0)
    pivots = _eliminate(rows, ncols)
    basis: list[BandRow] = []
    for free in (c for c in range(ncols) if c not in pivots):
        # rev[k] is the entry in column free - k; low, the lowest nonzero
        rev = [Fraction(1)]
        low = free
        for col in range(free - 1, -1, -1):
            if col + width - 1 < low:
                break  # this pivot row and all left of it end before low
            row = pivots.get(col)
            k = free - col
            value = Fraction(0)
            if row is not None:
                s = sum(a * rev[k - j] for j, a in enumerate(row[1 : k + 1], 1) if a)
                if s:
                    value = -s / row[0]
                    low = col
            rev.append(value)
        values = rev[free - low :: -1]
        basis.append((low, _normalize(values)))
    return basis


class KernelBasis(Record):
    """Basis of the global solutions supported inside a window."""

    window: Window
    solutions: tuple[FiniteSolution, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "solutions", tuple(self.solutions))
        for s in self.solutions:
            if s.min_support < self.window.lo or s.max_support > self.window.hi:
                raise ValueError("basis solution leaves the window")

    @property
    def dimension(self) -> int:
        return len(self.solutions)


def finite_support_kernel(op: OperatorSpec, w: Window) -> KernelBasis:
    """Basis of the space of global solutions whose support lies inside w.

    Every basis vector is re-verified against the operator by a complete
    residual check before being returned, once per translation class (as
    `verify` checks a certificate); a failure aborts the computation
    rather than returning an unsound certificate.
    """
    basis = _nullspace(window_matrix(op, w), w.size)
    kb = KernelBasis(w, tuple(FiniteSolution(w.lo + first, values) for first, values in basis))
    bad = _first_non_solution(op, kb.solutions)
    if bad is not None:
        raise VerificationFailure(
            f"kernel vector anchored at {bad.anchor} fails residual re-verification"
        )
    return kb


def free_kernel_dim(op: OperatorSpec, w: Window) -> int:
    """Dimension of window solutions with no constraint outside the window.

    The free-boundary rows are the equations n in [w.lo, w.hi - r], rows
    r to w.size - 1 of `window_matrix`.  A window of at most r indices
    holds no such equation, so all its w.size values are free.
    """
    return w.size - len(_eliminate(window_matrix(op, w)[op.order : w.size], w.size))
