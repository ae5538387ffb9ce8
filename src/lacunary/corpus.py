"""Reference operators and sequences with machine-checkable known facts.

Every entry carries facts that are data, not prose: a KnownFact names a
check, its arguments and its expected answer, which tests/test_corpus.py
runs against the library and `lacunary corpus` emits.  The star of the
collection is the vanish-on-multiples family, an operator whose solutions
are exactly the sequences vanishing on the multiples of r+1, which makes
its solution space infinite-dimensional and its doubling-support companion
sequence a ready-made lacunary solution.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, Mapping, Optional, Sequence

from .operators import OperatorSpec
from .sequences import GeometricSupport, Periodic, Record, ResiduePolynomial, SequenceSpec

__all__ = [
    "CorpusEntry",
    "KnownFact",
    "entries",
    "fibonacci_operator",
    "geometric_lacunary_sequence",
    "get_entry",
    "random_residue_operator",
    "vanish_on_multiples_operator",
    "zero_operator",
]


def vanish_on_multiples_operator(r: int) -> OperatorSpec:
    """Operator of order r whose solutions vanish exactly on multiples of r+1.

    Coefficient k is 1 on the single residue class n = -k mod r+1 and 0
    elsewhere, so each equation instance reads x(m) = 0 for one index m
    divisible by r+1, and every index not divisible by r+1 is left free.
    The solution space is spanned by the unit sequences at those free
    indices, hence infinite-dimensional.
    """
    if r < 1:
        raise ValueError("order must be at least 1")
    coeffs = tuple(ResiduePolynomial(r + 1, {(-k) % (r + 1): (1,)}) for k in range(r + 1))
    return OperatorSpec(coeffs)


def geometric_lacunary_sequence(r: int) -> GeometricSupport:
    """Value 1 on the doubling index set (r+1) * 2**m + 1, zero elsewhere.

    Every support index is 1 mod r+1, so the sequence solves the
    vanish-on-multiples operator of the same order, and consecutive
    support points drift apart geometrically: a lacunary solution.
    """
    if r < 1:
        raise ValueError("order must be at least 1")
    return GeometricSupport(scale=r + 1, shift=1, value=Fraction(1))


def fibonacci_operator() -> OperatorSpec:
    """x(n+2) - x(n+1) - x(n) = 0 with constant coefficients.

    Nonvanishing leading and trailing coefficients propagate any zero
    window of length 2 forever in both directions, so the only
    finite-support solution is zero: the standing negative control.
    """
    return OperatorSpec(
        (Periodic.constant(-1), Periodic.constant(-1), Periodic.constant(1))
    )


def zero_operator(r: int = 1) -> OperatorSpec:
    """All coefficients identically zero; every sequence is a solution."""
    return OperatorSpec(tuple(Periodic.constant(0) for _ in range(r + 1)))


def random_residue_operator(r: int, modulus: int, seed: int) -> OperatorSpec:
    """Seeded random operator with residue-pattern coefficients.

    Each coefficient is nonzero on a random subset of residue classes with
    random small integer values; deterministic in the seed.  Kept at desk
    scale (r <= 6, modulus <= 6) on purpose: these exist for property
    tests, not stress tests.
    """
    if not 1 <= r <= 6:
        raise ValueError("order must be in [1, 6]")
    if not 1 <= modulus <= 6:
        raise ValueError("modulus must be in [1, 6]")
    rng = random.Random(seed)
    coeffs = []
    for _ in range(r + 1):
        per_class = {}
        for residue in range(modulus):
            if rng.random() < 0.5:
                value = rng.choice([-3, -2, -1, 1, 2, 3])
                per_class[residue] = (Fraction(value),)
        coeffs.append(ResiduePolynomial(modulus, per_class))
    return OperatorSpec(tuple(coeffs))


class KnownFact(Record):
    """One executable claim about a corpus entry."""

    check: str
    args: Mapping[str, Any]
    expected: Any

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", dict(self.args))


class CorpusEntry(Record):
    name: str
    operator: OperatorSpec
    sequence: Optional[SequenceSpec] = None
    known_facts: tuple[KnownFact, ...] = ()


def _vanish_entry(r: int, extra: Sequence[KnownFact]) -> CorpusEntry:
    m = r + 1
    base = [
        KnownFact(
            "finite_support_kernel_dim",
            {"window": [0, n]},
            sum(1 for i in range(n + 1) if i % m != 0),
        )
        for n in (8, 50)
    ]
    base.append(KnownFact("residuals_vanish", {"range": [-r, 500]}, True))
    base.append(
        KnownFact(
            "residue_certified",
            {"modulus": m, "residues": list(range(1, m))},
            True,
        )
    )
    base.append(
        KnownFact(
            "residue_certified",
            {"modulus": m, "residues": list(range(m))},
            False,
        )
    )
    return CorpusEntry(
        name=f"vanish_on_multiples_r{r}",
        operator=vanish_on_multiples_operator(r),
        sequence=geometric_lacunary_sequence(r),
        known_facts=tuple(base) + tuple(extra),
    )


def _entries() -> tuple[CorpusEntry, ...]:
    vanish_r2_extra = (
        KnownFact("finite_support_kernel_dim", {"window": [0, 100]}, 67),
        KnownFact("certify_dimension", {"k": 50, "budget": 100}, "certificate"),
        KnownFact(
            "split_pieces",
            {"window": [0, 1000]},
            [[4, 7], [13], [25], [49], [97], [193], [385], [769]],
        ),
        KnownFact("lacunarity_witness", {"window": [0, 1000], "min_gap": 384}, True),
        KnownFact("lacunarity_witness", {"window": [0, 1000], "min_gap": 385}, False),
    )
    vanish_r1_extra = (
        KnownFact("certify_dimension", {"k": 10, "budget": 100}, "certificate"),
        KnownFact("lacunarity_witness", {"window": [0, 1000], "min_gap": 256}, True),
    )
    vanish_r3_extra = (
        KnownFact("finite_support_kernel_dim", {"window": [0, 100]}, 75),
        KnownFact("lacunarity_witness", {"window": [0, 1000], "min_gap": 256}, True),
    )
    fibonacci = CorpusEntry(
        name="fibonacci",
        operator=fibonacci_operator(),
        known_facts=(
            KnownFact("finite_support_kernel_dim", {"window": [0, 10]}, 0),
            KnownFact("finite_support_kernel_dim", {"window": [-50, 50]}, 0),
            KnownFact("free_kernel_dim", {"window": [0, 10]}, 2),
            KnownFact("certify_dimension", {"k": 1, "budget": 200}, "inconclusive"),
        ),
    )
    zero = CorpusEntry(
        name="zero_operator",
        operator=zero_operator(),
        known_facts=(
            KnownFact("finite_support_kernel_dim", {"window": [0, 4]}, 5),
            KnownFact("free_kernel_dim", {"window": [0, 4]}, 5),
            KnownFact("certify_dimension", {"k": 7, "budget": 8}, "certificate"),
        ),
    )
    return (
        _vanish_entry(1, vanish_r1_extra),
        _vanish_entry(2, vanish_r2_extra),
        _vanish_entry(3, vanish_r3_extra),
        fibonacci,
        zero,
    )


_ENTRIES = _entries()


def entries() -> tuple[CorpusEntry, ...]:
    return _ENTRIES


def get_entry(name: str) -> CorpusEntry:
    for entry in _ENTRIES:
        if entry.name == name:
            return entry
    known = ", ".join(e.name for e in _ENTRIES)
    raise KeyError(f"no corpus entry named {name!r}; known entries: {known}")
