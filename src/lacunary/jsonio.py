"""Canonical JSON forms for every object that crosses the tool boundary.

Every wire format lives here, certificates and the corpus manifest
included: the command line calls these readers and writers and holds no
format of its own.  Certificates have one reader, certificate_from_json,
which returns the kind with the object, so the kind strings live here
only.  A missing key, or an unknown key in a sequence spec or an
operator, is an error that names the object and the key.
Rationals travel as strings "p/q" with q > 0 and gcd(p, q) = 1 ("0/1" for
zero), sequence specs carry a "kind" discriminator, and dumps_canonical
fixes key order and indentation so identical inputs give byte-identical
output files.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from .engine import (
    DimensionCertificate,
    Inconclusive,
    PartialLacunarySolution,
)
from .linalg import KernelBasis
from .operators import FiniteSolution, OperatorSpec
from .sequences import (
    FiniteTable,
    GeometricSupport,
    Periodic,
    ResiduePolynomial,
    SequenceSpec,
    Window,
)

if TYPE_CHECKING:
    from .corpus import CorpusEntry, KnownFact

__all__ = [
    "certificate_from_json",
    "corpus_entry_to_json",
    "dimension_certificate_to_json",
    "dumps_canonical",
    "finite_solution_from_json",
    "finite_solution_to_json",
    "format_rational",
    "inconclusive_to_json",
    "kernel_basis_to_json",
    "known_fact_to_json",
    "manifest_to_json",
    "operator_from_json",
    "operator_to_json",
    "parse_rational",
    "partial_lacunary_to_json",
    "sequence_from_json",
    "sequence_to_json",
    "split_result_to_json",
]


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: Any) -> Fraction:
    """A JSON integer, or a string "p/q" or "p" in ASCII digits; nothing else."""
    if isinstance(text, str):
        return _parse_rational_string(text)
    if isinstance(text, bool) or not isinstance(text, int):
        raise ValueError(f"expected a rational string 'p/q', got {text!r}")
    return Fraction(text)


# Certificates repeat a few strings ("0/1", "1/1") many times over: parse each
# once.  Only strings reach the cache, so True never meets the entry of 1, and
# a rejected string raises again on every call (exceptions are not cached).
@functools.lru_cache(maxsize=1024)
def _parse_rational_string(text: str) -> Fraction:
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"expected a rational string 'p/q', got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None


def _key(data: dict, key: str, what: str) -> Any:
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{what} has no key {key!r}") from None


def _only_keys(data: dict, allowed: tuple[str, ...], what: str) -> None:
    # a misspelled optional key would otherwise silently take its default
    unknown = data.keys() - allowed
    if unknown:
        raise ValueError(f"{what} has unknown key {min(unknown)!r}")


def _int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _list(value: Any, what: str, parse: Callable[[Any], Any]) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return tuple(parse(v) for v in value)


def _bool(value: Any, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return value


def _window_to_json(w: Window) -> list[int]:
    return [w.lo, w.hi]


def _window_from_json(data: Any) -> Window:
    if not (isinstance(data, list) and len(data) == 2):
        raise ValueError(f"window must be [lo, hi], got {data!r}")
    return Window(_int(data[0], "window lo"), _int(data[1], "window hi"))


def sequence_to_json(spec: SequenceSpec) -> dict:
    if isinstance(spec, FiniteTable):
        return {
            "kind": "finite_table",
            "anchor": spec.anchor,
            "values": [format_rational(v) for v in spec.values],
            "default": format_rational(spec.default),
        }
    if isinstance(spec, Periodic):
        return {
            "kind": "periodic",
            "period": spec.period,
            "values": [format_rational(v) for v in spec.values],
            "offset": spec.offset,
        }
    if isinstance(spec, ResiduePolynomial):
        return {
            "kind": "residue_poly",
            "modulus": spec.modulus,
            "per_class": {
                str(residue): [format_rational(c) for c in poly]
                for residue, poly in sorted(spec.per_class.items())
            },
        }
    if isinstance(spec, GeometricSupport):
        return {
            "kind": "geometric_support",
            "scale": spec.scale,
            "shift": spec.shift,
            "value": format_rational(spec.value),
            "allow_negative_m": spec.allow_negative_m,
        }
    raise ValueError(f"not a sequence spec: {spec!r}")


_CLASS_KEY = re.compile(r"0|[1-9][0-9]*")


def _class_key(key: Any, modulus: int) -> int:
    """A residue class key as written by sequence_to_json: canonical, below modulus.

    Anything else could name one class twice ("1" and "01"), one key
    silently overwriting the other.
    """
    if not (isinstance(key, str) and _CLASS_KEY.fullmatch(key)) or int(key) >= modulus:
        raise ValueError(
            f"residue class key must be a canonical integer in [0, {modulus}), got {key!r}"
        )
    return int(key)


def sequence_from_json(data: Any) -> SequenceSpec:
    if not isinstance(data, dict):
        raise ValueError(f"sequence spec must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind == "finite_table":
        _only_keys(data, ("kind", "anchor", "values", "default"), kind)
        return FiniteTable(
            anchor=_int(_key(data, "anchor", kind), "anchor"),
            values=_list(_key(data, "values", kind), "values", parse_rational),
            default=parse_rational(data.get("default", "0/1")),
        )
    if kind == "periodic":
        _only_keys(data, ("kind", "period", "values", "offset"), kind)
        return Periodic(
            period=_int(_key(data, "period", kind), "period"),
            values=_list(_key(data, "values", kind), "values", parse_rational),
            offset=_int(data.get("offset", 0), "offset"),
        )
    if kind == "residue_poly":
        _only_keys(data, ("kind", "modulus", "per_class"), kind)
        per_class = _key(data, "per_class", kind)
        if not isinstance(per_class, dict):
            raise ValueError(f"per_class must be a JSON object, got {per_class!r}")
        modulus = _int(_key(data, "modulus", kind), "modulus")
        if modulus < 1:  # before the keys, whose bound it is
            raise ValueError("modulus must be positive")
        per_class = {
            _class_key(residue, modulus): _list(poly, "polynomial", parse_rational)
            for residue, poly in per_class.items()
        }
        return ResiduePolynomial(modulus=modulus, per_class=per_class)
    if kind == "geometric_support":
        _only_keys(data, ("kind", "scale", "shift", "value", "allow_negative_m"), kind)
        return GeometricSupport(
            scale=_int(_key(data, "scale", kind), "scale"),
            shift=_int(data.get("shift", 0), "shift"),
            value=parse_rational(data.get("value", "1/1")),
            allow_negative_m=_bool(data.get("allow_negative_m", False), "allow_negative_m"),
        )
    raise ValueError(f"unknown sequence kind: {kind!r}")


def operator_to_json(op: OperatorSpec) -> dict:
    return {
        "order": op.order,
        "coeffs": [sequence_to_json(a) for a in op.coeffs],
    }


def operator_from_json(data: Any) -> OperatorSpec:
    if not isinstance(data, dict):
        raise ValueError("operator JSON must be an object with a 'coeffs' list")
    _only_keys(data, ("order", "coeffs"), "operator")
    coeffs = _list(_key(data, "coeffs", "operator"), "coeffs", sequence_from_json)
    op = OperatorSpec(coeffs)
    declared = data.get("order")
    if declared is not None and _int(declared, "order") != op.order:
        raise ValueError(
            f"declared order {declared} does not match {len(coeffs)} coefficients"
        )
    return op


def finite_solution_to_json(x: FiniteSolution) -> dict:
    return {
        "anchor": x.anchor,
        "values": [format_rational(v) for v in x.values],
    }


def finite_solution_from_json(data: Any) -> FiniteSolution:
    if not isinstance(data, dict):
        raise ValueError("finite solution JSON must be an object")
    return FiniteSolution(
        anchor=_int(_key(data, "anchor", "finite solution"), "anchor"),
        values=_list(_key(data, "values", "finite solution"), "values", parse_rational),
    )


def kernel_basis_to_json(kb: KernelBasis) -> dict:
    """The one dense form: each solution as a row of values across the window."""
    w = kb.window
    return {
        "window": _window_to_json(w),
        "vectors": [
            ["0/1"] * (s.anchor - w.lo)
            + [format_rational(v) for v in s.values]
            + ["0/1"] * (w.hi - s.max_support)
            for s in kb.solutions
        ],
    }


def _kernel_basis_from_json(data: dict) -> KernelBasis:
    w = _window_from_json(_key(data, "window", "kernel_basis"))

    def solution(vec: Any) -> FiniteSolution:
        values = _list(vec, "vector", parse_rational)
        if len(values) != w.size:
            raise ValueError(f"kernel vector has {len(values)} entries, window has {w.size}")
        fs = FiniteSolution.from_values(w.lo, values)
        if fs is None:
            raise ValueError("zero vector in kernel basis")
        return fs

    return KernelBasis(w, _list(_key(data, "vectors", "kernel_basis"), "vectors", solution))


def dimension_certificate_to_json(cert: DimensionCertificate) -> dict:
    return {
        "kind": "dimension_certificate",
        "k": cert.k,
        "window": _window_to_json(cert.window),
        "solutions": [finite_solution_to_json(s) for s in cert.solutions],
    }


def _dimension_certificate_from_json(data: dict) -> DimensionCertificate:
    what = "dimension_certificate"
    return DimensionCertificate(
        k=_int(_key(data, "k", what), "k"),
        window=_window_from_json(_key(data, "window", what)),
        solutions=_list(_key(data, "solutions", what), "solutions", finite_solution_from_json),
    )


def partial_lacunary_to_json(partial: PartialLacunarySolution) -> dict:
    return {
        "kind": "partial_lacunary",
        "ray": partial.ray,
        "blocks": [finite_solution_to_json(b) for b in partial.blocks],
        "gap_profile": list(partial.gap_profile),
    }


def _partial_lacunary_from_json(data: dict) -> PartialLacunarySolution:
    what = "partial_lacunary"
    return PartialLacunarySolution(
        blocks=_list(_key(data, "blocks", what), "blocks", finite_solution_from_json),
        gap_profile=_list(
            _key(data, "gap_profile", what), "gap_profile", lambda g: _int(g, "gap")
        ),
        ray=_key(data, "ray", what),
    )


def split_result_to_json(window: Window, pieces: Sequence[FiniteSolution]) -> dict:
    return {
        "kind": "split_result",
        "window": _window_to_json(window),
        "pieces": [finite_solution_to_json(p) for p in pieces],
    }


def _split_result_from_json(data: dict) -> Optional[DimensionCertificate]:
    """A split's pieces as the dimension certificate they are; None if there are none.

    The pieces must lie inside the window, pairwise disjoint, as for any
    dimension certificate.  An empty split certifies nothing.
    """
    pieces = _list(_key(data, "pieces", "split_result"), "pieces", finite_solution_from_json)
    window = _window_from_json(_key(data, "window", "split_result"))
    return DimensionCertificate(len(pieces), window, pieces) if pieces else None


def inconclusive_to_json(outcome: Inconclusive) -> dict:
    out: dict[str, Any] = {"kind": "inconclusive", "reason": outcome.reason}
    if outcome.best_kernel_dim is not None:
        out["best_kernel_dim"] = outcome.best_kernel_dim
    if outcome.best_gap is not None:
        out["best_gap"] = outcome.best_gap
    return out


def known_fact_to_json(fact: KnownFact) -> dict:
    return {"check": fact.check, "args": fact.args, "expected": fact.expected}


def corpus_entry_to_json(entry: CorpusEntry) -> dict:
    out: dict[str, Any] = {
        "name": entry.name,
        "operator": operator_to_json(entry.operator),
        "known_facts": [known_fact_to_json(f) for f in entry.known_facts],
    }
    if entry.sequence is not None:
        out["sequence"] = sequence_to_json(entry.sequence)
    return out


def manifest_to_json(entries: Sequence[CorpusEntry]) -> dict:
    """The corpus listing: each entry's name, order and known facts."""
    return {
        "entries": [
            {
                "name": e.name,
                "order": e.operator.order,
                "has_sequence": e.sequence is not None,
                "known_facts": [known_fact_to_json(f) for f in e.known_facts],
            }
            for e in entries
        ]
    }


def certificate_from_json(data: Any) -> tuple[str, Any]:
    """Any certificate's kind and engine object, dispatching on 'kind' or shape.

    A kernel basis serializes without a 'kind' tag (its two-field shape is
    its signature), so shape detection keeps round trips working.  A split
    reads as the DimensionCertificate of its pieces, or None if it has none.
    """
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    kind = data.get("kind")  # compared, never looked up: it may be any JSON value
    if kind == "dimension_certificate":
        return kind, _dimension_certificate_from_json(data)
    if kind == "partial_lacunary":
        return kind, _partial_lacunary_from_json(data)
    if kind == "split_result":
        return kind, _split_result_from_json(data)
    if kind is not None:
        raise ValueError(f"unknown certificate kind: {kind!r}")
    if "vectors" in data and "window" in data:
        return "kernel_basis", _kernel_basis_from_json(data)
    raise ValueError("unrecognized certificate JSON shape")


def dumps_canonical(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
