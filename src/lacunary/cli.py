"""Batch command line over the library.

Exit codes follow the semi-algorithm semantics: 0 is a definitive success,
2 means the budget ran out without a witness (Inconclusive), and 1 is an
error, including a certificate that fails verification.  JSON output is
canonical (sorted keys, fixed indentation, rationals as "p/q"), so two
runs over identical inputs produce byte-identical files.  Every wire
format lives in jsonio, certificate kinds included, and every certificate
check in engine; this module only dispatches on the engine types and
reports.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Any, Optional, Sequence

from . import corpus as corpus_mod
from .engine import (
    Inconclusive,
    NotASolutionOnWindow,
    PartialLacunarySolution,
    build_lacunary,
    certify_dimension,
    split_lacunary,
    verify_dimension_certificate,
    verify_kernel_basis,
    verify_partial_lacunary,
    windowed_residual_check,
)
from .jsonio import (
    certificate_from_json,
    corpus_entry_to_json,
    dimension_certificate_to_json,
    dumps_canonical,
    inconclusive_to_json,
    kernel_basis_to_json,
    manifest_to_json,
    operator_from_json,
    partial_lacunary_to_json,
    sequence_from_json,
    split_result_to_json,
)
from .linalg import KernelBasis, VerificationFailure, finite_support_kernel
from .sequences import Window

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)  # -50:50 is a window, not an option
        self._negative_number_matcher = re.compile(r"^-\d+(:-?\d+)?$|^-\d*\.\d+$")

    def error(self, message: str) -> None:  # noqa: A003 - argparse hook
        raise UsageError(message)


def _parse_window(text: str) -> Window:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"window must be LO:HI, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"window bounds must be integers, got {text!r}") from None
    return Window(lo, hi)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    # json's default keeps the last of two equal keys, silently dropping one
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r} in a JSON object")
        obj[key] = value
    return obj


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _positive(value: int, name: str) -> int:
    if value < 1:
        raise UsageError(f"--{name} must be positive, got {value}")
    return value


def _cmd_check(args) -> tuple[int, dict, list[str]]:
    op = operator_from_json(_load_json(args.operator))
    seq = sequence_from_json(_load_json(args.sequence))
    w = _parse_window(args.window)
    windowed_residual_check(op, seq, w)
    checked = [w.lo, w.hi - op.order]
    payload = {"command": "check", "ok": True, "window": [w.lo, w.hi], "checked_range": checked}
    count = max(0, checked[1] - checked[0] + 1)
    text = [f"ok: equation holds at all {count} fully windowed indices of [{w.lo}, {w.hi}]"]
    return EXIT_OK, payload, text


def _cmd_kernel(args) -> tuple[int, dict, list[str]]:
    op = operator_from_json(_load_json(args.operator))
    w = _parse_window(args.window)
    kb = finite_support_kernel(op, w)
    text = [f"kernel dimension {kb.dimension} on window [{w.lo}, {w.hi}]"]
    for fs in kb.solutions:
        text.append(f"  solution with support {sorted(fs.support_set())}")
    return EXIT_OK, kernel_basis_to_json(kb), text


def _cmd_certify(args) -> tuple[int, dict, list[str]]:
    op = operator_from_json(_load_json(args.operator))
    k = _positive(args.k, "k")
    budget = _positive(args.budget, "budget")
    outcome = certify_dimension(op, k, budget)
    if isinstance(outcome, Inconclusive):
        text = [f"inconclusive: {outcome.reason}"]
        if outcome.best_kernel_dim is not None:
            text.append(f"  disjoint solutions found: {outcome.best_kernel_dim}")
        return EXIT_INCONCLUSIVE, inconclusive_to_json(outcome), text
    w = outcome.window
    text = [
        f"certificate: solution space dimension >= {outcome.k}",
        f"  {outcome.k} disjoint-support solutions inside [{w.lo}, {w.hi}]",
    ]
    return EXIT_OK, dimension_certificate_to_json(outcome), text


def _cmd_split(args) -> tuple[int, dict, list[str]]:
    op = operator_from_json(_load_json(args.operator))
    seq = sequence_from_json(_load_json(args.sequence))
    w = _parse_window(args.window)
    max_pieces = args.max_pieces
    if max_pieces is not None:
        max_pieces = _positive(max_pieces, "max-pieces")
    pieces = split_lacunary(op, seq, w, max_pieces)
    if not pieces:
        text = ["no cuts: no piece has enough flanking zeros inside the window"]
    else:
        supports = "; ".join(str(sorted(p.support_set())) for p in pieces)
        text = [f"{len(pieces)} independent pieces with supports {supports}"]
    return EXIT_OK, split_result_to_json(w, pieces), text


def _cmd_build(args) -> tuple[int, dict, list[str]]:
    op = operator_from_json(_load_json(args.operator))
    gap = _positive(args.gap, "gap")
    budget = _positive(args.budget, "budget")
    outcome = build_lacunary(op, gap, budget)
    if isinstance(outcome, Inconclusive):
        text = [f"inconclusive: {outcome.reason}"]
        return EXIT_INCONCLUSIVE, inconclusive_to_json(outcome), text
    text = [
        f"partial lacunary solution on the {outcome.ray} ray: "
        f"{len(outcome.blocks)} blocks, gap profile {list(outcome.gap_profile)}"
    ]
    return EXIT_OK, partial_lacunary_to_json(outcome), text


def _cmd_verify(args) -> tuple[int, dict, list[str]]:
    op = operator_from_json(_load_json(args.operator))
    kind, cert = certificate_from_json(_load_json(args.certificate))
    # each verifier called by its module-level name, which bench/shim.py rebinds
    if isinstance(cert, PartialLacunarySolution):
        valid = verify_partial_lacunary(op, cert)
    elif isinstance(cert, KernelBasis):
        valid = verify_kernel_basis(op, cert)
    else:  # a dimension certificate, or None: an empty split certifies nothing
        valid = cert is None or verify_dimension_certificate(op, cert)
    payload = {"command": "verify", "kind": kind, "valid": valid}
    text = [f"{kind}: {'valid' if valid else 'INVALID'}"]
    return EXIT_OK if valid else EXIT_ERROR, payload, text


def _cmd_corpus(args) -> tuple[int, dict, list[str]]:
    if args.name is None:
        m = manifest_to_json(corpus_mod.entries())
        text = [f"{len(m['entries'])} corpus entries:"]
        for e in m["entries"]:
            text.append(f"  {e['name']} (order {e['order']}, {len(e['known_facts'])} facts)")
        return EXIT_OK, m, text
    try:
        entry = corpus_mod.get_entry(args.name)
    except KeyError as exc:  # its message, not the repr str(KeyError) gives
        raise ValueError(exc.args[0]) from None
    text = [f"{entry.name}: order {entry.operator.order}, {len(entry.known_facts)} known facts"]
    return EXIT_OK, corpus_entry_to_json(entry), text


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lacunary",
        description=(
            "Exact witnesses for infinite-dimensional solution spaces of "
            "linear difference equations with sequence coefficients."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, operator=True, sequence=False, window=False):
        p = sub.add_parser(name, help=help_text)
        if operator:
            p.add_argument("--operator", required=True, metavar="FILE")
        if sequence:
            p.add_argument("--sequence", required=True, metavar="FILE")
        if window:
            p.add_argument("--window", required=True, metavar="LO:HI")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", metavar="FILE")
        return p

    add("check", "verify a sequence solves the equation on a window", sequence=True, window=True)
    add("kernel", "basis of global solutions supported inside a window", window=True)
    p = add("certify", "prove a lower bound on the solution space dimension")
    p.add_argument("--k", required=True, type=int, metavar="INT")
    p.add_argument("--budget", type=int, default=1000, metavar="INT")
    p = add("split", "cut a windowed solution at long zero runs", sequence=True, window=True)
    p.add_argument("--max-pieces", type=int, default=None, metavar="INT")
    p = add("build", "assemble a solution with ever-growing support gaps")
    p.add_argument("--gap", required=True, type=int, metavar="INT")
    p.add_argument("--budget", type=int, default=1000, metavar="INT")
    p = add("verify", "re-check a serialized certificate against an operator")
    p.add_argument("--certificate", required=True, metavar="FILE")
    p = add("corpus", "emit a corpus entry, or the manifest without a name", operator=False)
    p.add_argument("name", nargs="?", default=None)
    return parser


_COMMANDS = {
    "check": _cmd_check,
    "kernel": _cmd_kernel,
    "certify": _cmd_certify,
    "split": _cmd_split,
    "build": _cmd_build,
    "verify": _cmd_verify,
    "corpus": _cmd_corpus,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, payload, text_lines = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (NotASolutionOnWindow, VerificationFailure) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.format == "json":
        rendered = dumps_canonical(payload)
    else:
        rendered = "\n".join(text_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
