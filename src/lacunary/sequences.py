"""Finitely described bi-infinite rational sequences.

Every sequence here is a total function ZZ -> QQ given by a finite
description, so it can be evaluated exactly at any integer index.  Four
description kinds are supported:

* :class:`FiniteTable` -- explicit values on an anchored range, a fixed
  default everywhere else (default 0 gives finite support);
* :class:`Periodic` -- one value per residue class of a fixed period;
* :class:`ResiduePolynomial` -- a polynomial in ``n`` per residue class,
  absent classes being identically zero;
* :class:`GeometricSupport` -- a single value on the doubling index set
  ``scale * 2**m + shift``, zero elsewhere.

All values are `fractions.Fraction`; floats are rejected so that every
downstream computation stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

__all__ = [
    "FiniteTable",
    "GeometricSupport",
    "Periodic",
    "ResiduePolynomial",
    "SequenceSpec",
    "SupportProfile",
    "Window",
    "as_fraction",
    "lacunarity_witness",
    "support_in_window",
]

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce an int, ``"p/q"`` string, or Fraction to Fraction.

    Floats are rejected: exactness is load-bearing for every certificate
    this library produces.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("floats are not allowed; pass Fraction, int, or 'p/q'")
    raise TypeError(f"cannot interpret {x!r} as a rational number")


@dataclass(frozen=True)
class Window:
    """Inclusive integer interval [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (isinstance(self.lo, int) and isinstance(self.hi, int)):
            raise TypeError("window bounds must be integers")
        if self.lo > self.hi:
            raise ValueError(f"empty window: lo={self.lo} > hi={self.hi}")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def indices(self) -> range:
        return range(self.lo, self.hi + 1)


@dataclass(frozen=True)
class SupportProfile:
    """Sorted nonzero indices of a sequence on a window, plus their gaps.

    ``gaps[i] = indices[i+1] - indices[i]``; a sequence with fewer than two
    support points in the window has no gaps at all.
    """

    indices: tuple[int, ...]
    gaps: tuple[int, ...]

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "SupportProfile":
        idx = tuple(indices)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("support indices must be strictly increasing")
        gaps = tuple(b - a for a, b in zip(idx, idx[1:]))
        return cls(idx, gaps)

    @property
    def max_gap(self) -> int:
        """Largest gap, or 0 when fewer than two support points exist."""
        return max(self.gaps, default=0)


@dataclass(frozen=True)
class FiniteTable:
    """Explicit values on ``[anchor, anchor + len(values) - 1]``, `default` elsewhere."""

    anchor: int
    values: tuple[Fraction, ...]
    default: Fraction = ZERO

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))
        object.__setattr__(self, "default", as_fraction(self.default))
        if not self.values:
            raise ValueError("FiniteTable needs at least one tabulated value")

    def value_at(self, n: int) -> Fraction:
        i = n - self.anchor
        if 0 <= i < len(self.values):
            return self.values[i]
        return self.default


@dataclass(frozen=True)
class Periodic:
    """Periodic sequence: value at n is ``values[(n - offset) % period]``."""

    period: int
    values: tuple[Fraction, ...]
    offset: int = 0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be positive")
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))
        if len(self.values) != self.period:
            raise ValueError(
                f"period {self.period} needs exactly {self.period} values, got {len(self.values)}"
            )

    @classmethod
    def constant(cls, value: RationalLike) -> "Periodic":
        return cls(1, (as_fraction(value),))

    def value_at(self, n: int) -> Fraction:
        return self.values[(n - self.offset) % self.period]


def _eval_poly(coeffs: tuple[Fraction, ...], n: int) -> Fraction:
    # Horner, ascending coefficient order.
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


@dataclass(frozen=True)
class ResiduePolynomial:
    """One polynomial in n per residue class mod `modulus`; absent classes are 0.

    Polynomials are stored as ascending coefficient tuples.  Keys are reduced
    mod `modulus`, and two keys of one class are rejected.  Classes whose
    polynomial is identically zero are dropped, so equal sequences compare
    equal and serialize identically.
    """

    modulus: int
    per_class: Mapping[int, tuple[Fraction, ...]]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        classes = [residue % self.modulus for residue in self.per_class]
        if len(set(classes)) < len(classes):
            raise ValueError(f"two keys name one residue class mod {self.modulus}")
        canon: dict[int, tuple[Fraction, ...]] = {}
        for residue, poly in self.per_class.items():
            if isinstance(poly, (Fraction, int, str)):
                coeffs = (as_fraction(poly),)
            else:
                coeffs = tuple(as_fraction(c) for c in poly)
            while coeffs and coeffs[-1] == 0:
                coeffs = coeffs[:-1]
            if coeffs:
                canon[residue % self.modulus] = coeffs
        object.__setattr__(self, "per_class", canon)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResiduePolynomial):
            return NotImplemented
        return self.modulus == other.modulus and dict(self.per_class) == dict(other.per_class)

    def __hash__(self) -> int:
        return hash((self.modulus, tuple(sorted(self.per_class.items()))))

    def value_at(self, n: int) -> Fraction:
        poly = self.per_class.get(n % self.modulus)
        if poly is None:
            return ZERO
        return _eval_poly(poly, n)


@dataclass(frozen=True)
class GeometricSupport:
    """`value` on the index set ``scale * 2**m + shift``, zero elsewhere.

    By default m ranges over the non-negative integers.  With
    ``allow_negative_m`` the finitely many negative m for which
    ``scale * 2**m`` is still an integer are admitted as well.
    """

    scale: int
    shift: int = 0
    value: Fraction = Fraction(1)
    allow_negative_m: bool = False

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")
        object.__setattr__(self, "value", as_fraction(self.value))

    def value_at(self, n: int) -> Fraction:
        d = n - self.shift
        if d >= self.scale and d % self.scale == 0:
            q = d // self.scale
            if q & (q - 1) == 0:  # q == 2**m, m >= 0
                return self.value
        if self.allow_negative_m and 0 < d < self.scale and self.scale % d == 0:
            q = self.scale // d
            if q & (q - 1) == 0:  # d == scale / 2**t, t >= 1
                return self.value
        return ZERO


SequenceSpec = Union[FiniteTable, Periodic, ResiduePolynomial, GeometricSupport]


def support_in_window(spec: SequenceSpec, window: Window) -> SupportProfile:
    """Exact support of `spec` in `window`, with gap list, in increasing order.

    Geometric supports walk their doubling points (from scale's odd part if
    m < 0 is allowed), default-0 tables their table; the rest scan the window.
    """
    candidates: Iterable[int] = window.indices()
    if isinstance(spec, GeometricSupport):
        d = spec.scale // (spec.scale & -spec.scale) if spec.allow_negative_m else spec.scale
        top = max(0, window.hi - spec.shift).bit_length()
        candidates = [(d << m) + spec.shift for m in range(top)]
    elif isinstance(spec, FiniteTable) and spec.default == 0:
        end = spec.anchor + len(spec.values)
        candidates = range(max(window.lo, spec.anchor), min(window.hi + 1, end))
    return SupportProfile.from_indices(
        n for n in candidates if window.lo <= n <= window.hi and spec.value_at(n) != 0
    )


def lacunarity_witness(spec: SequenceSpec, window: Window, min_gap: int) -> bool:
    """True iff two consecutive support points in `window` differ by >= min_gap.

    This is a finite witness that gaps of the requested size occur; it is
    monotone (a witness survives enlarging the window or lowering min_gap).
    """
    if min_gap < 1:
        raise ValueError("min_gap must be positive")
    return support_in_window(spec, window).max_gap >= min_gap
