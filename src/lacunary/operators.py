"""Linear difference operators with sequence coefficients.

An operator of order r acts on a bi-infinite sequence x by

    (L x)(n) = sum_{k=0}^{r} a_k(n) * x(n + k)

where each coefficient a_k is itself a finitely described sequence, asked
for its period and mask points, never inspected.  The leading and trailing
coefficients may vanish at individual points; nothing here assumes them
invertible.  This module evaluates residuals, walks the equations near a
support for the first that fails (the one walk behind every residual
check), verifies finite-support global solutions by a complete finite
check (once per translation class: the one re-check that kernel, split
and verify share), builds the linear system that a window of unknowns
must satisfy as band rows (each equation touches at most r + 1
consecutive unknowns, so it is stored as its first column and those
entries), and issues residue-class disjointness certificates on the
coefficient masks that coefficient_masks reads off the coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .sequences import (
    ZERO,
    Record,
    ResidueMask,
    SequenceSpec,
    Window,
    _set,
    as_fraction,
)

__all__ = [
    "FiniteSolution",
    "MaskViolation",
    "OperatorSpec",
    "ResidueCertificate",
    "coefficient_masks",
    "first_residual",
    "is_global_solution_finite",
    "residual",
    "residue_certificate",
    "window_matrix",
]


class OperatorSpec(Record):
    """Difference operator given by its coefficient sequences a_0 .. a_r."""

    coeffs: tuple[SequenceSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("an operator needs at least one coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def period(self) -> Optional[int]:
        """A common period p of all coefficients, or None if not known to have one.

        p is the lcm of the coefficients' `known_period`s, None if one is
        unknown.  L commutes with translation by p, so a translate of a
        solution by a multiple of p is again a solution.
        """
        periods = [a.known_period() for a in self.coeffs]
        return None if None in periods else math.lcm(*periods)


class FiniteSolution(Record):
    """Finite-support sequence as a tightly anchored value table.

    The table must start and end with a nonzero entry, so support bounds
    are read off directly and equal sequences are structurally equal.  The
    identically zero sequence is not a FiniteSolution.  The constructor
    takes any iterable of ints and Fractions and stores a tuple of
    Fractions; `_trusted` builds one, checking nothing, on a table an
    earlier constructor call checked.
    Its fields live in slots, not an instance dict: one is built per
    solution a certificate holds, and a slotted one takes 48 bytes, not 88.
    """

    __slots__ = ("anchor", "values")

    anchor: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(map(as_fraction, self.values))
        if not values:
            raise ValueError("empty value table")
        if not (values[0] and values[-1]):
            raise ValueError("value table must be trimmed to its support")
        _set(self, "values", values)

    @classmethod
    def _trusted(cls, anchor: int, values: tuple[Fraction, ...]) -> "FiniteSolution":
        self = object.__new__(cls)
        _set(self, "anchor", anchor)
        _set(self, "values", values)
        return self

    @property
    def min_support(self) -> int:
        return self.anchor

    @property
    def max_support(self) -> int:
        return self.anchor + len(self.values) - 1

    def value_at(self, n: int) -> Fraction:
        i = n - self.anchor
        if 0 <= i < len(self.values):
            return self.values[i]
        return ZERO

    def support_set(self) -> frozenset[int]:
        return frozenset(
            self.anchor + i for i, v in enumerate(self.values) if v != 0
        )


def residual(op: OperatorSpec, x: SequenceSpec | FiniteSolution, n: int) -> Fraction:
    """(L x)(n), evaluated exactly."""
    acc = ZERO
    for k, a_k in enumerate(op.coeffs):
        if (xv := x.value_at(n + k)) and (av := a_k.value_at(n)):
            acc += av * xv
    return acc


def first_residual(
    op: OperatorSpec, x: SequenceSpec | FiniteSolution, support: Iterable[int], lo: int, hi: int
) -> Optional[tuple[int, Fraction]]:
    """The first n in [lo, hi] with (L x)(n) != 0, with that residual; else None.

    Equation n reads x(n) .. x(n + r), so one that fails lies within r left
    of a point of the increasing `support`, which must hold every nonzero
    of x on [lo, hi + r]: only those equations are evaluated, each once.
    """
    r, nxt = op.order, lo
    for s in support:
        for n in range(max(s - r, nxt), min(s, hi) + 1):
            value = residual(op, x, n)
            if value:
                return n, value
        nxt = max(nxt, min(s, hi) + 1)
    return None


def is_global_solution_finite(op: OperatorSpec, x: FiniteSolution) -> bool:
    """Whether L x = 0 at every integer, checked finitely.

    Outside [min_support - r, max_support] every term of (L x)(n) touches
    only zeros of x, so the residual vanishes identically there and the
    finite check is complete for all of ZZ.
    """
    support = [x.anchor + i for i, v in enumerate(x.values) if v]
    return first_residual(op, x, support, x.anchor - op.order, x.max_support) is None


def _first_non_solution(
    op: OperatorSpec, solutions: Iterable[FiniteSolution]
) -> Optional[FiniteSolution]:
    """The first of the solutions that fails L x = 0, or None if all pass.

    The one re-check of finite solutions: each (anchor mod p, values) class
    is decided by one is_global_solution_finite, p the common period.  L
    commutes with translation by p, so a translate by a multiple of p
    solves L exactly when the original does.  Without a period the class
    is (anchor, values), so every distinct solution is checked.  A table
    is hashed once: it gets an int by content, then is found by identity
    (held, so a freed table's id cannot come back as another's).
    """
    p = op.period
    passed: set[tuple[int, int]] = set()
    by_id: dict[int, tuple[tuple[Fraction, ...], int]] = {}
    by_content: dict[tuple[Fraction, ...], int] = {}
    for s in solutions:
        if (held := by_id.get(id(s.values))) is None:
            held = by_id[id(s.values)] = s.values, by_content.setdefault(s.values, len(by_content))
        key = (s.anchor if p is None else s.anchor % p, held[1])
        if key not in passed:
            if not is_global_solution_finite(op, s):
                return s
            passed.add(key)
    return None


BandRow = tuple[int, Sequence[Fraction]]


def window_matrix(op: OperatorSpec, w: Window) -> list[BandRow]:
    """Support-confined linear system on the unknowns x(w.lo) .. x(w.hi).

    One band row per equation index n in [w.lo - r, w.hi], with x outside
    the window taken as zero: the pair (first column, entries) where entry
    j is eval(a_{m-n}, n) for the unknown x(m) in column first + j.  Only
    the terms that fall inside the window are kept, so a row has at most
    r + 1 entries, and nullspace vectors are genuine global solutions
    supported inside w.  The rows of the n in [w.lo, w.hi - r] are the
    unclipped ones, with all r + 1 entries: they alone form the
    free-boundary system, which assumes nothing about x elsewhere.
    """
    r = op.order
    rows = []
    for n in range(w.lo - r, w.hi + 1):
        k_lo = max(0, w.lo - n)
        k_hi = min(r, w.hi - n)
        entries = tuple(op.coeffs[k].value_at(n) for k in range(k_lo, k_hi + 1))
        rows.append((n + k_lo - w.lo, entries))
    return rows


class MaskViolation(Exception):
    """A coefficient is nonzero at n, outside its claimed residue mask."""

    def __init__(self, k: int, n: int) -> None:
        super().__init__(
            f"coefficient {k} is nonzero at n={n}, outside its claimed residue mask"
        )
        self.k = k
        self.n = n


class ResidueCertificate(Record):
    """Outcome of residue-class disjointness certification.

    `certified` True means: for every coefficient index k there is no pair
    of a residue where a_k may be nonzero and a residue where the solution
    class may be nonzero that line up as n and n + k.  Every product
    a_k(n) x(n+k) is then identically zero, so L x = 0 on all of ZZ for
    every x supported inside the solution mask.  `conflicts` lists the
    offending (k, coefficient residue, solution residue) triples mod
    `modulus` otherwise.
    """

    certified: bool
    modulus: int
    conflicts: tuple[tuple[int, int, int], ...]


def coefficient_masks(op: OperatorSpec) -> list[ResidueMask]:
    """The coefficients' natural residue masks: residue_certificate's input."""
    return [a.natural_mask() for a in op.coeffs]


def residue_certificate(
    op: OperatorSpec,
    coeff_masks: Sequence[ResidueMask],
    sol_mask: ResidueMask,
) -> ResidueCertificate:
    """Certify L x = 0 for all x supported inside `sol_mask`, by disjointness.

    Each claimed coefficient mask is checked exactly at its `mask_points`:
    one common period of a periodic coefficient, every subclass of a
    nonzero residue polynomial, the table and default of a finite table,
    and the eventually periodic doubling points of a geometric support.  A
    coefficient nonzero outside its mask raises MaskViolation with a
    witness index, and no certificate is issued.
    Certification itself is symbolic: lift all masks to the lcm modulus and
    look for a coefficient residue rho and solution residue tau with
    rho + k = tau, which is exactly a product term the masks fail to kill.
    """
    r = op.order
    if len(coeff_masks) != r + 1:
        raise ValueError(f"need {r + 1} coefficient masks, got {len(coeff_masks)}")

    for k, (a_k, mask) in enumerate(zip(op.coeffs, coeff_masks)):
        for n in a_k.mask_points(mask.modulus):
            if a_k.value_at(n) != 0 and not mask.admits(n):
                raise MaskViolation(k, n)

    lifted_modulus = math.lcm(sol_mask.modulus, *(m.modulus for m in coeff_masks))

    sol_lifted = sol_mask.lifted(lifted_modulus)
    conflicts = [  # rho + k meets at most one solution residue tau
        (k, rho, (rho + k) % lifted_modulus)
        for k, mask in enumerate(coeff_masks)
        for rho in sorted(mask.lifted(lifted_modulus))
        if (rho + k) % lifted_modulus in sol_lifted
    ]
    return ResidueCertificate(not conflicts, lifted_modulus, tuple(conflicts))
