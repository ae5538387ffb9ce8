"""Canonical JSON forms for every library object crossing the tool boundary.

Every library object's wire format lives here, certificates and the
corpus manifest included: the command line calls these readers and
writers, and builds only the {"command": ...} reports of check and
verify, which hold no library object.  A tagged kind (a sequence spec, a
certificate or an outcome) is an object of its Record fields and a
"kind" tag: to_json writes every kind, and _record_from_json reads one
through one reader per field name, so a kind's keys are listed once, as
its fields.  Certificates have one reader, certificate_from_json, which
returns the kind with the object, so the kind strings live here only.  A
missing or an unknown key in any object, a finite solution included,
names the object and the key.
Every input file is read here.  _load_json reads any JSON file and rejects
a key repeated in an object.  _load_certificate reads a certificate file and
turns each finite solution object into a FiniteSolution while the file is
parsed, so a certificate is never held as a tree of dicts.  The finite
solutions of one file (or of one list, given parsed JSON) share the parsed
and checked table of each distinct values list of strings: reading costs
one parse per distinct table and a lookup per solution.  An object whose
table fails stays a dict and is read in full, so the first bad solution is
still the one reported.  A certificate file that fails to read is read
again as plain JSON, so its error is the one certificate_from_json gives.
A dense kernel vector parses, and tests for zero, each distinct string it
holds once.  Each memo lasts for one file, list or vector.
Rationals travel as strings "p/q" with q > 0 and gcd(p, q) = 1 ("0/1" for
zero), and dump_canonical fixes key order and indentation so identical
inputs give byte-identical output files.  It writes chunk by chunk into the
open file, so writing holds no copy of the output text.
"""

from __future__ import annotations

import json
import re
from contextlib import suppress
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, TextIO, get_args

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
    Record,
    ResiduePolynomial,
    SequenceSpec,
    Window,
)

if TYPE_CHECKING:
    from .corpus import CorpusEntry

__all__ = [
    "certificate_from_json",
    "dump_canonical",
    "format_rational",
    "manifest_to_json",
    "operator_from_json",
    "operator_to_json",
    "parse_rational",
    "sequence_from_json",
    "split_result_to_json",
    "to_json",
]


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: Any) -> Fraction:
    """A JSON integer, or a string "p/q" or "p" in ASCII digits; nothing else."""
    if isinstance(text, str) and _RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in rational {text!r}") from None
    if isinstance(text, bool) or not isinstance(text, int):
        raise ValueError(f"expected a rational string 'p/q', got {text!r}")
    return Fraction(text)


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
    return tuple(map(parse, value))


def _bool(value: Any, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return value


def _window_from_json(data: Any, what: str) -> Window:
    if not (isinstance(data, list) and len(data) == 2):
        raise ValueError(f"{what} must be [lo, hi], got {data!r}")
    return Window(_int(data[0], f"{what} lo"), _int(data[1], f"{what} hi"))


# the "kind" tag of each tagged Record: written by to_json, compared by the readers
_KINDS = {
    FiniteTable: "finite_table",
    Periodic: "periodic",
    ResiduePolynomial: "residue_poly",
    GeometricSupport: "geometric_support",
    DimensionCertificate: "dimension_certificate",
    PartialLacunarySolution: "partial_lacunary",
    Inconclusive: "inconclusive",
}


def to_json(value: Any) -> Any:
    """The JSON form of a value: a Record is an object of its fields.

    A tagged kind adds its "kind", a field that is None is left out, an
    operator also carries its order, and a kernel basis takes the dense form
    that certificate_from_json reads.  Rationals become "p/q", windows
    [lo, hi], tuples lists, and dict keys strings.
    """
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {str(key): to_json(v) for key, v in value.items()}
    if isinstance(value, Window):
        return [value.lo, value.hi]
    if isinstance(value, OperatorSpec):
        return operator_to_json(value)
    if isinstance(value, KernelBasis):  # the one dense form: each solution as a row
        w = value.window
        return {
            "window": [w.lo, w.hi],
            "vectors": [
                ["0/1"] * (s.anchor - w.lo)
                + [format_rational(v) for v in s.values]
                + ["0/1"] * (w.hi - s.max_support)
                for s in value.solutions
            ],
        }
    if not isinstance(value, Record):
        return value
    out = {"kind": _KINDS[type(value)]} if type(value) in _KINDS else {}
    for name in value._fields:
        if (field := getattr(value, name)) is not None:
            out[name] = to_json(field)
    return out


_CLASS_KEY = re.compile(r"0|[1-9][0-9]*")


def _class_key(key: Any, modulus: int) -> int:
    """A residue class key as to_json writes it: canonical, below modulus.

    Anything else could name one class twice ("1" and "01"), one key
    silently overwriting the other.
    """
    if not (isinstance(key, str) and _CLASS_KEY.fullmatch(key)) or int(key) >= modulus:
        raise ValueError(
            f"residue class key must be a canonical integer in [0, {modulus}), got {key!r}"
        )
    return int(key)


def _per_class(data: Any, modulus: int) -> dict[int, tuple[Fraction, ...]]:
    if not isinstance(data, dict):
        raise ValueError(f"per_class must be a JSON object, got {data!r}")
    if modulus < 1:  # before the keys, whose bound it is
        raise ValueError("modulus must be positive")
    return {
        _class_key(residue, modulus): _list(poly, "polynomial", parse_rational)
        for residue, poly in data.items()
    }


def _decode(item: Any, tables: dict) -> Any:
    """item as a FiniteSolution if it is an object of exactly an int anchor and
    a values list whose table checks; else item itself, to be read in full.

    Each distinct values list is parsed and checked once per `tables`, and
    a failed one is remembered as None.  Only a list of strings gets a table
    (no other JSON value equals a string), so `[true]` never takes `[1]`'s.
    """
    if not (type(item) is dict and len(item) == 2 and type(anchor := item.get("anchor")) is int
            and type(raw := item.get("values")) is list):
        return item
    try:
        values = tables[tuple(raw)]
    except TypeError:  # an unhashable entry
        return item
    except KeyError:
        values = None
        if all(type(text) is str for text in raw):
            with suppress(ValueError):
                values = FiniteSolution(0, map(parse_rational, raw)).values
        tables[tuple(raw)] = values
    return item if values is None else FiniteSolution._trusted(anchor, values)


def _finite_solutions(data: Any, what: str) -> tuple[FiniteSolution, ...]:
    """A list of finite solutions, decoded while parsed (_load_certificate) or not.

    Each item not yet a FiniteSolution goes through _decode, and one it
    leaves as it is is read in full, so the first bad one (an unknown key
    included) is the one reported.
    """
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a list, got {data!r}")
    tables: dict = {}
    return tuple(_finite_solution(_decode(item, tables)) for item in data)


def _finite_solution(item: Any) -> FiniteSolution:
    if type(item) is FiniteSolution:
        return item
    if not isinstance(item, dict):
        raise ValueError("finite solution JSON must be an object")
    _only_keys(item, FiniteSolution._fields, "finite solution")
    anchor = _int(_key(item, "anchor", "finite solution"), "anchor")
    raw = _key(item, "values", "finite solution")
    return FiniteSolution(anchor, _list(raw, "values", parse_rational))


# The reader of each field of the tagged kinds, called with the JSON value and
# the field's name; per_class gets the modulus read before it instead.
_FIELDS: dict[str, Callable[[Any, Any], Any]] = {
    **dict.fromkeys(
        ("anchor", "period", "offset", "modulus", "scale", "shift", "k", "best_kernel_dim",
         "best_gap"),
        _int,
    ),
    **dict.fromkeys(("default", "value"), lambda value, what: parse_rational(value)),
    **dict.fromkeys(("solutions", "blocks"), _finite_solutions),
    # PartialLacunarySolution checks its ray itself; a reason is free text
    **dict.fromkeys(("ray", "reason"), lambda value, what: value),
    "values": lambda value, what: _list(value, what, parse_rational),
    "allow_negative_m": _bool,
    "window": _window_from_json,
    "gap_profile": lambda value, what: _list(value, what, lambda g: _int(g, "gap")),
    "per_class": _per_class,
}


def _record_from_json(cls: type, data: dict, what: str) -> Any:
    """The Record of class cls written as data: each field read by its reader, in order.

    A missing field takes the class's default, or is an error naming `what`
    and the key.
    """
    _only_keys(data, ("kind", *cls._fields), what)
    fields: dict[str, Any] = {}
    for name in cls._fields:
        if name in data:
            arg = fields["modulus"] if name == "per_class" else name
            fields[name] = _FIELDS[name](data[name], arg)
        elif name not in cls._defaults:
            raise ValueError(f"{what} has no key {name!r}")
    return cls(**fields)


def sequence_from_json(data: Any) -> SequenceSpec:
    if not isinstance(data, dict):
        raise ValueError(f"sequence spec must be a JSON object, got {data!r}")
    kind = data.get("kind")  # compared, never looked up: it may be any JSON value
    for cls in get_args(SequenceSpec):
        if kind == _KINDS[cls]:
            return _record_from_json(cls, data, kind)
    raise ValueError(f"unknown sequence kind: {kind!r}")


def operator_to_json(op: OperatorSpec) -> dict:
    return {"order": op.order, "coeffs": to_json(op.coeffs)}


def operator_from_json(data: Any) -> OperatorSpec:
    if not isinstance(data, dict):
        raise ValueError("operator JSON must be an object with a 'coeffs' list")
    _only_keys(data, ("order", "coeffs"), "operator")
    coeffs = _list(_key(data, "coeffs", "operator"), "coeffs", sequence_from_json)
    op = OperatorSpec(coeffs)
    declared = data.get("order", op.order)  # optional, but never null
    if _int(declared, "order") != op.order:
        raise ValueError(
            f"declared order {declared} does not match {len(coeffs)} coefficients"
        )
    return op


def _kernel_basis_from_json(data: dict) -> KernelBasis:
    _only_keys(data, ("window", "vectors"), "kernel_basis")
    w = _window_from_json(_key(data, "window", "kernel_basis"), "window")

    def solution(vec: Any) -> FiniteSolution:
        if not isinstance(vec, list):
            raise ValueError(f"vector must be a list, got {vec!r}")
        if set(map(type, vec)) <= {str}:
            # each distinct string once, in order of first use: the first bad entry raises
            parsed = {text: parse_rational(text) for text in dict.fromkeys(vec)}
        else:  # each entry on its own: as keys, 1 and True would be one
            parsed = dict(enumerate(map(parse_rational, vec)))
            vec = range(len(vec))
        if len(vec) != w.size:
            raise ValueError(f"kernel vector has {len(vec)} entries, window has {w.size}")
        is_zero = list(map({key for key, v in parsed.items() if not v}.__contains__, vec))
        if all(is_zero):
            raise ValueError("zero vector in kernel basis")
        lo, hi = is_zero.index(False), len(vec) - is_zero[::-1].index(False)
        return FiniteSolution(w.lo + lo, map(parsed.__getitem__, vec[lo:hi]))

    return KernelBasis(w, _list(_key(data, "vectors", "kernel_basis"), "vectors", solution))


def split_result_to_json(window: Window, pieces: Sequence[FiniteSolution]) -> dict:
    return {"kind": "split_result", "window": to_json(window), "pieces": to_json(pieces)}


def _split_result_from_json(data: dict) -> Optional[DimensionCertificate]:
    """A split's pieces as the dimension certificate they are; None if there are none.

    The pieces must lie inside the window, pairwise disjoint, as for any
    dimension certificate.  An empty split certifies nothing.
    """
    _only_keys(data, ("kind", "window", "pieces"), "split_result")
    pieces = _finite_solutions(_key(data, "pieces", "split_result"), "pieces")
    window = _window_from_json(_key(data, "window", "split_result"), "window")
    return DimensionCertificate(len(pieces), window, pieces) if pieces else None


def manifest_to_json(entries: Sequence[CorpusEntry]) -> dict:
    """The corpus listing: each entry's name, order and known facts."""
    return {
        "entries": [
            {
                "name": e.name,
                "order": e.operator.order,
                "has_sequence": e.sequence is not None,
                "known_facts": to_json(e.known_facts),
            }
            for e in entries
        ]
    }


def certificate_from_json(data: Any) -> tuple[str, Any]:
    """Any certificate's kind and engine object, dispatching on 'kind' or shape.

    A kernel basis serializes without a 'kind' tag, so an object with no
    'kind' key but a 'window' or 'vectors' key reads as one.  A split
    reads as the DimensionCertificate of its pieces, or None if it has none.
    """
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    kind = data.get("kind")  # compared, never looked up: it may be any JSON value
    for cls in (DimensionCertificate, PartialLacunarySolution):
        if kind == _KINDS[cls]:
            return kind, _record_from_json(cls, data, kind)
    if kind == "split_result":
        return kind, _split_result_from_json(data)
    if kind is not None:
        raise ValueError(f"unknown certificate kind: {kind!r}")
    if "kind" not in data and ("window" in data or "vectors" in data):
        return "kernel_basis", _kernel_basis_from_json(data)
    raise ValueError("unrecognized certificate JSON shape")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    # json's default keeps the last of two equal keys, silently dropping one
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r} in a JSON object")
            seen.add(key)
    return obj


# The two file loaders are private: bench/shim.py traces every name in
# __all__, and bench/layers.py counts a jsonio span as parsing only by a
# `_from_json` name, so an exported loader would take the JSON decode out of
# every per-layer metric.
def _load_json(path: str, hook: Callable[[list], Any] = _unique_keys) -> Any:
    """The JSON value in the file at path, each object made by hook: by
    default a dict, and an error if a key repeats."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=hook)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _load_certificate(path: str) -> tuple[str, Any]:
    """certificate_from_json of the JSON in the file at path, read at the size of its result.

    Each object is decoded as it is parsed: after the duplicate-key check,
    _decode turns a finite solution into a FiniteSolution, so a certificate
    is never held as a tree of dicts.  A file that fails to read is read
    again as plain JSON, so that its error is certificate_from_json's of
    that JSON: a solution object out of place is then the dict it is.
    """
    tables: dict = {}
    data = _load_json(path, lambda pairs: _decode(_unique_keys(pairs), tables))
    try:
        return certificate_from_json(data)
    except ValueError:
        del data, tables  # freed before the second read
    return certificate_from_json(_load_json(path))


def dump_canonical(data: Any, fh: TextIO) -> None:
    """Write data's canonical text to fh, json.dump's chunks joined 256 at a time.

    One write per chunk, as json.dump makes, is one system call per chunk
    on an unbuffered stdout (PYTHONUNBUFFERED), and one string of the whole
    text holds a copy of it.
    """
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(data)
    while batch := "".join(islice(chunks, 256)):
        fh.write(batch)
    fh.write("\n")
