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

Each kind answers what the engine asks of a sequence (a known period,
support points, mask points, a natural :class:`ResidueMask`), so no other
module dispatches on the kinds.  All values are `fractions.Fraction`;
floats are rejected so that every downstream computation stays exact.

Every value type of the library is a :class:`Record`, not a frozen
dataclass: each ``lacunary`` command is a fresh process, and importing
`dataclasses` and generating its methods took a third of start-up.  A
Record keeps its fields in an instance dict unless its class names them
in ``__slots__``, as only `FiniteSolution`, built once per solution a
certificate holds, does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import pairwise, takewhile
from operator import attrgetter
from typing import Iterator, Mapping, Optional, Union

__all__ = [
    "FiniteTable",
    "GeometricSupport",
    "Periodic",
    "ResidueMask",
    "ResiduePolynomial",
    "SequenceSpec",
    "Window",
    "as_fraction",
    "lacunarity_witness",
]

RationalLike = Union[Fraction, int]

ZERO = Fraction(0)


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce an int or Fraction to Fraction; floats and strings are rejected.

    Exactness is load-bearing for every certificate this library produces,
    and only `jsonio.parse_rational` reads a rational from text.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("floats are not allowed; pass Fraction or int")
    raise TypeError(f"cannot interpret {x!r} as a rational number")


_set = object.__setattr__


class Record:
    """Frozen value whose fields are its class's own annotations, in order.

    A class attribute named like a field is its default.  After binding the
    arguments, ``__post_init__`` may check the fields and normalize one with
    ``object.__setattr__``.  No subclass defines its own ``__init__``: every
    Record is built by this one binding, or, for a `FiniteSolution` whose
    table was already checked, by `_trusted`.  Equality, hashing, ``repr``
    and frozenness come from the fields.  Record itself has no
    instance dict, so a subclass that names its fields in ``__slots__``
    has none either.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        own = vars(cls)
        slots = own.get("__slots__", ())  # a slot's descriptor is not a default
        cls._defaults = {
            name: own[name] for name in cls._fields if name in own and name not in slots
        }
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        # never self.__dict__: materializing it slows every later attribute read
        fields = self._fields
        for key, value in zip(fields, args):
            _set(self, key, value)
        if len(args) != len(fields) or kwargs:  # the rest by keyword, else by default
            for key in fields[len(args):]:
                if key in kwargs:
                    _set(self, key, kwargs.pop(key))
                elif key in self._defaults:
                    _set(self, key, self._defaults[key])
                else:
                    raise TypeError(f"{type(self).__name__}() missing argument {key!r}")
            if kwargs or len(args) > len(fields):
                raise TypeError(f"{type(self).__name__}() got surplus or unknown arguments")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Window(Record):
    """Inclusive integer interval [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (type(self.lo) is int and type(self.hi) is int):  # a bool is not a bound
            raise TypeError("window bounds must be integers")
        if self.lo > self.hi:
            raise ValueError(f"empty window: lo={self.lo} > hi={self.hi}")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def indices(self) -> range:
        return range(self.lo, self.hi + 1)


class ResidueMask(Record):
    """Residue classes mod `modulus` on which a sequence may be nonzero.

    An empty `allowed` set denotes the identically zero sequence.
    """

    modulus: int
    allowed: frozenset[int]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        allowed = frozenset(int(a) for a in self.allowed)
        if any(not (0 <= a < self.modulus) for a in allowed):
            raise ValueError("allowed residues must lie in [0, modulus)")
        object.__setattr__(self, "allowed", allowed)

    def lifted(self, target_modulus: int) -> frozenset[int]:
        if target_modulus % self.modulus != 0:
            raise ValueError("target modulus must be a multiple of the mask modulus")
        reps = target_modulus // self.modulus
        return frozenset(a + j * self.modulus for a in self.allowed for j in range(reps))

    def admits(self, n: int) -> bool:
        return n % self.modulus in self.allowed


class _Sequence:
    """Defaults for what a kind knows beyond `value_at`: nothing.  Each kind
    overrides what its description tells, and defines `mask_points(modulus)`,
    the indices whose values decide whether it respects a mask mod modulus."""

    def known_period(self) -> Optional[int]:
        """A period of the sequence, or None if none is known."""
        return None

    def support_points(self, window: Window) -> Iterator[int]:
        """The nonzero indices in `window`, increasing, read one at a time."""
        return (n for n in window.indices() if self.value_at(n) != 0)

    def natural_mask(self) -> ResidueMask:
        raise ValueError("no natural residue mask for this coefficient kind")


class FiniteTable(_Sequence, Record):
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

    def support_points(self, window: Window) -> Iterator[int]:
        if self.default != 0:
            return super().support_points(window)
        lo, end = max(window.lo, self.anchor), min(window.hi + 1, self.anchor + len(self.values))
        return (n for n in range(lo, end) if self.values[n - self.anchor] != 0)

    def mask_points(self, modulus: int) -> range:
        # past the table every residue class carries the default
        return range(self.anchor, self.anchor + len(self.values) + modulus)


class Periodic(_Sequence, Record):
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

    def known_period(self) -> int:
        return self.period

    def mask_points(self, modulus: int) -> range:
        return range(math.lcm(self.period, modulus))

    def natural_mask(self) -> ResidueMask:
        allowed = frozenset(n for n in range(self.period) if self.value_at(n) != 0)
        return ResidueMask(self.period, allowed)


def _eval_poly(coeffs: tuple[Fraction, ...], n: int) -> Fraction:
    # Horner, ascending coefficient order.
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


class ResiduePolynomial(_Sequence, Record):
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
            coeffs = tuple(as_fraction(c) for c in poly)
            while coeffs and coeffs[-1] == 0:
                coeffs = coeffs[:-1]
            if coeffs:
                canon[residue % self.modulus] = coeffs
        object.__setattr__(self, "per_class", canon)

    def __hash__(self) -> int:  # per_class is a dict
        return hash((self.modulus, tuple(sorted(self.per_class.items()))))

    def value_at(self, n: int) -> Fraction:
        poly = self.per_class.get(n % self.modulus)
        if poly is None:
            return ZERO
        return _eval_poly(poly, n)

    def known_period(self) -> Optional[int]:
        """The modulus when every class is a constant, else None."""
        return self.modulus if all(len(poly) == 1 for poly in self.per_class.values()) else None

    def mask_points(self, modulus: int) -> Iterator[int]:
        p, classes = math.lcm(self.modulus, modulus), self.per_class
        # a nonzero polynomial of degree d has a non-root among any d + 1 points
        return (n + j * p for n in range(p) for j in range(len(classes.get(n % self.modulus, ()))))

    def natural_mask(self) -> ResidueMask:
        return ResidueMask(self.modulus, frozenset(self.per_class))


class GeometricSupport(_Sequence, Record):
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

    def _base(self) -> int:
        # the index set is base * 2**j + shift for j >= 0: with m < 0 allowed,
        # scale * 2**m is an integer down to the odd part of scale
        return self.scale // (self.scale & -self.scale) if self.allow_negative_m else self.scale

    def value_at(self, n: int) -> Fraction:
        q, r = divmod(n - self.shift, self._base())  # member iff q == 2**j, j >= 0
        return self.value if r == 0 and q > 0 and q & (q - 1) == 0 else ZERO

    def _points(self) -> Iterator[int]:
        # increasing: the support unless value is 0
        d = self._base()
        while True:
            yield d + self.shift
            d *= 2

    def support_points(self, window: Window) -> Iterator[int]:
        points = takewhile(lambda n: n <= window.hi, self._points())
        return (n for n in points if n >= window.lo and self.value != 0)

    def mask_points(self, modulus: int) -> Iterator[int]:
        # d * 2**j mod the modulus follows x -> 2x, so from its first repeat on it cycles
        seen = set()
        for n in self._points():
            if n % modulus in seen:
                return
            seen.add(n % modulus)
            yield n


SequenceSpec = Union[FiniteTable, Periodic, ResiduePolynomial, GeometricSupport]


def lacunarity_witness(spec: SequenceSpec, window: Window, min_gap: int) -> bool:
    """True iff two consecutive support points in `window` differ by >= min_gap.

    This is a finite witness that gaps of the requested size occur; it is
    monotone (a witness survives enlarging the window or lowering min_gap).
    """
    if min_gap < 1:
        raise ValueError("min_gap must be positive")
    return any(b - a >= min_gap for a, b in pairwise(spec.support_points(window)))
