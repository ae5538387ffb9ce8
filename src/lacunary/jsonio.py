"""Canonical JSON forms for every library object crossing the tool boundary.

Every library object's wire format lives here, certificates and the
corpus manifest included: the command line calls these readers and
writers, and builds only the {"command": ...} reports of check and
verify, which hold no library object.  One codec reads and writes every
object but the dense kernel basis: to_json writes a Record as an object of
its fields, and _record_from_json reads one through one reader per field
name, so its keys are listed once, as its fields.  A tagged kind (a
sequence spec, a certificate, a split result or an outcome) adds a "kind"
tag, written in _KINDS only.  certificate_from_json reads every
certificate and returns its kind.  A missing or an unknown key in any
object names the object and the key.
Every input file is read here.  _load_json reads any JSON file and rejects
a key repeated in an object.  _load_certificate reads a certificate file
_PIECE bytes at a time and parses each element of an array member on its
own: each finite solution object becomes a FiniteSolution as it is parsed,
and each vector of a dense kernel basis is trimmed before the next is
parsed, so a certificate is never held as its text, a tree of dicts or
lists of strings.  The finite solutions of one file (or of one list, given
parsed JSON) share the parsed and checked table of each distinct values
list of strings: reading costs one parse per distinct table and a lookup
per solution.  An object whose table fails stays a dict and is read in
full, so the first bad solution is still the one reported.  A file that
fails to read is read again as plain JSON, for certificate_from_json's
error.  A dense kernel vector parses, and tests for zero, each distinct
string it holds once.  Each memo lasts for one file, list or vector.
Rationals travel as strings "p/q" with q > 0 and gcd(p, q) = 1 ("0/1" for
zero), and dump_canonical fixes key order and indentation so identical
inputs give byte-identical output files.  It writes chunk by chunk into the
open file, so writing holds no copy of the output text.
"""

from __future__ import annotations

import json
import re
from codecs import utf_8_decode
from contextlib import suppress
from fractions import Fraction
from functools import partial
from itertools import islice
from operator import indexOf
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, TextIO, get_args

from .engine import (
    DimensionCertificate,
    Inconclusive,
    PartialLacunarySolution,
    SplitResult,
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
    _set,
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
    SplitResult: "split_result",
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
            "window": to_json(w),
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


def _decode(tables: dict, pairs: Any) -> Any:
    """The object of `pairs`, its (key, value) pairs as parsed or a dict's
    items: a FiniteSolution if it is exactly an int anchor then a values
    list whose table checks, in the one key order to_json writes, else a
    dict to be read in full; a repeated key is an error.  A solution of a
    table already seen calls no Python function.

    Each distinct values list is parsed and checked once per `tables`, and
    a failed one is remembered as None.  Only a list of strings gets a table
    (no other JSON value equals a string), so `[true]` never takes `[1]`'s.
    """
    if len(pairs) == 2:  # keyed "anchor" then "values", the order to_json writes
        (key, anchor), (other, raw) = pairs
        if key == "anchor" and other == "values" and type(anchor) is int and type(raw) is list:
            try:
                values = tables[tuple(raw)]
            except TypeError:  # an unhashable entry
                values = None
            except KeyError:
                values = None
                if all(type(text) is str for text in raw):
                    with suppress(ValueError):
                        values = FiniteSolution(0, map(parse_rational, raw)).values
                tables[tuple(raw)] = values
            if values is not None:  # FiniteSolution._trusted, without its call
                solution = object.__new__(FiniteSolution)
                _set(solution, "anchor", anchor)
                _set(solution, "values", values)
                return solution
    return _unique_keys(pairs)


def _finite_solutions(data: Any, what: str) -> tuple[FiniteSolution, ...]:
    """A list of finite solutions, decoded while parsed (_load_certificate) or not.

    Each object goes through _decode, and one it leaves a dict is read in
    full, so the first bad item (an unknown key included) is the one reported.
    """
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a list, got {data!r}")
    if set(map(type, data)) <= {FiniteSolution}:  # all decoded as the file was parsed
        return tuple(data)
    decode = partial(_decode, {})
    return tuple(_finite_solution(decode(x.items()) if type(x) is dict else x) for x in data)


def _finite_solution(item: Any) -> FiniteSolution:
    if type(item) is FiniteSolution:
        return item
    if not isinstance(item, dict):
        raise ValueError("finite solution JSON must be an object")
    return _record_from_json(FiniteSolution, item, "finite solution")


# The reader of each field of the Records read here, called with the JSON value
# and the field's name; per_class gets the modulus read before it instead.
_FIELDS: dict[str, Callable[[Any, Any], Any]] = {
    **dict.fromkeys(
        ("anchor", "period", "offset", "modulus", "scale", "shift", "k", "best_kernel_dim",
         "best_gap"),
        _int,
    ),
    **dict.fromkeys(("default", "value"), lambda value, what: parse_rational(value)),
    **dict.fromkeys(("solutions", "blocks", "pieces"), _finite_solutions),
    # PartialLacunarySolution checks its ray itself; a reason is free text
    **dict.fromkeys(("ray", "reason"), lambda value, what: value),
    "values": lambda value, what: _list(value, what, parse_rational),
    "coeffs": lambda value, what: _list(value, what, sequence_from_json),
    "allow_negative_m": _bool,
    "window": _window_from_json,
    "gap_profile": lambda value, what: _list(value, what, lambda g: _int(g, "gap")),
    "per_class": _per_class,
}


def _record_from_json(cls: type, data: dict, what: str) -> Any:
    """The Record of class cls written as data: each field read by its reader, in order.

    A "kind" key is allowed only for a tagged kind.  A missing field takes
    the class's default, or is an error naming `what` and the key.
    """
    _only_keys(data, ("kind", *cls._fields) if cls in _KINDS else cls._fields, what)
    fields: dict[str, Any] = {}
    for name in cls._fields:
        if name in data or name not in cls._defaults:
            arg = fields["modulus"] if name == "per_class" else name
            fields[name] = _FIELDS[name](_key(data, name, what), arg)
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
    fields = {key: value for key, value in data.items() if key != "order"}
    op = _record_from_json(OperatorSpec, fields, "operator")
    declared = data.get("order", op.order)  # optional, but never null
    if _int(declared, "order") != op.order:
        raise ValueError(
            f"declared order {declared} does not match {len(op.coeffs)} coefficients"
        )
    return op


def _trimmed(vec: Any) -> tuple[int, Optional[FiniteSolution]]:
    # a dense kernel vector's length and its nonzero span, anchored at its offset; None if zero
    if not isinstance(vec, list):
        raise ValueError(f"vector must be a list, got {vec!r}")
    if set(map(type, vec)) <= {str}:
        # each distinct string once, in order of first use: the first bad entry raises
        parsed = {text: parse_rational(text) for text in dict.fromkeys(vec)}
    else:  # each entry on its own: as keys, 1 and True would be one
        parsed = dict(enumerate(map(parse_rational, vec)))
        vec = range(len(vec))
    nonzero = list(map({key for key, v in parsed.items() if v}.__contains__, vec))
    if True not in nonzero:
        return len(vec), None
    lo, hi = nonzero.index(True), len(vec) - indexOf(reversed(nonzero), True)
    return len(vec), FiniteSolution(lo, map(parsed.__getitem__, vec[lo:hi]))


def _kernel_basis_from_json(data: dict) -> KernelBasis:
    _only_keys(data, ("window", "vectors"), "kernel_basis")
    w = _window_from_json(_key(data, "window", "kernel_basis"), "window")

    def solution(vec: Any) -> FiniteSolution:
        # _load_certificate trims each vector as it parses it ("vectors" sorts
        # before "window"); parsed JSON holds no tuple
        size, trimmed = vec if type(vec) is tuple else _trimmed(vec)
        if size != w.size:
            raise ValueError(f"kernel vector has {size} entries, window has {w.size}")
        if trimmed is None:
            raise ValueError("zero vector in kernel basis")
        return FiniteSolution._trusted(w.lo + trimmed.anchor, trimmed.values)

    return KernelBasis(w, _list(_key(data, "vectors", "kernel_basis"), "vectors", solution))


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
    for cls in (DimensionCertificate, PartialLacunarySolution, SplitResult):
        if kind == _KINDS[cls]:
            cert = _record_from_json(cls, data, kind)
            if cls is SplitResult:
                pieces = cert.pieces
                cert = DimensionCertificate(len(pieces), cert.window, pieces) if pieces else None
            return kind, cert
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
def _load_json(path: str) -> Any:
    """The JSON value in the file at path; an error if a key repeats in an object."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


_PIECE = 1 << 16  # bytes of a certificate read at once; more only while an element does not fit


def _walk_certificate(path: str) -> Any:
    """The JSON object in the file at path, read _PIECE bytes at a time.  The
    C decoder parses each member whole, or each element of one that is an
    array: an object through _decode, an array (a dense basis's vector)
    trimmed at once.  A step that fails on the text read so far, or ends
    with it (a number may go on), is taken again on more text."""
    scan = json.JSONDecoder(object_pairs_hook=partial(_decode, {})).scan_once
    space = json.decoder.WHITESPACE.match
    # "," or "]" after an element, and the whitespace after it (compiled here, not by every import)
    after_element = re.compile(r"[ \t\n\r]*([,\]])[ \t\n\r]*(?=[^ \t\n\r])").match
    pairs, items = [], None  # the object's (key, value) pairs; the elements of an open array
    text, i, raw = "", 0, b""  # the text read, where its unparsed part starts, a split character
    with open(path, "rb") as fh:
        while True:
            try:
                while items is not None:  # elements, each then "," or "]"
                    value, j = scan(text, i)
                    if not (after := after_element(text, j)):
                        raise ValueError("expected ',' or ']'")
                    items.append(_trimmed(value) if type(value) is list else value)
                    i, items = after.end(), None if after[1] == "]" else items
                j = space(text, i).end()
                if text[j] == "}" and pairs and not (  # the end, with only whitespace after it
                        text[j + 1:] + (raw + fh.read()).decode()).strip(" \t\n\r"):
                    return _unique_keys(pairs)
                if text[j] != ("," if pairs else "{"):
                    raise ValueError("expected an object")
                key, j = scan(text, space(text, j + 1).end())  # then ":", and a value or "["
                if type(key) is not str or text[j := space(text, j).end()] != ":":
                    raise ValueError("expected a key and ':'")
                if text[j := space(text, j + 1).end()] == "[":  # its elements come next
                    value, j = [], space(text, j + 1).end()
                    items, j = (None, j + 1) if text[j] == "]" else (value, j)  # "[]" ends here
                else:
                    value, j = scan(text, j)
                    if text[space(text, j).end()] not in ",}":
                        raise ValueError("expected ',' or '}'")
                pairs.append((key, value))
                i = j
            except (ValueError, StopIteration, IndexError):
                if not (piece := fh.read(max(_PIECE, len(text) - i))):
                    raise ValueError("not the JSON of a certificate") from None
                more, used = utf_8_decode(raw + piece)
                text, i, raw = text[i:] + more, 0, (raw + piece)[used:]


def _load_certificate(path: str) -> tuple[str, Any]:
    """certificate_from_json of the JSON in the file at path, read at the size of its result.

    A file that _walk_certificate or certificate_from_json fails on is read
    again as plain JSON, so that its error is certificate_from_json's of
    that JSON: a solution object out of place is then the dict it is.
    """
    with suppress(ValueError, RecursionError):
        return certificate_from_json(_walk_certificate(path))
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
