"""Batch command line over the library.

Exit codes follow the semi-algorithm semantics: 0 is a definitive success,
2 means the budget ran out without a witness (Inconclusive), and 1 is an
error, including a certificate that fails verification.  JSON output is
canonical (sorted keys, fixed indentation, rationals as "p/q"), so two
runs over identical inputs produce byte-identical files.  Output streams
into the --out file or stdout, and a failed write is an error like any
other.  Every library object's wire format lives in jsonio, certificate
kinds and the file loaders included, and every certificate check in
engine; this module dispatches on the engine types and reports, and
builds only the two reports that hold no library object: the
{"command": ...} objects of check and verify.
"""

from __future__ import annotations

import re
import sys
from contextlib import nullcontext, suppress
from types import SimpleNamespace
from typing import Any, Optional, Sequence

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
    _load_certificate,
    _load_json,
    dump_canonical,
    manifest_to_json,
    operator_from_json,
    sequence_from_json,
    split_result_to_json,
    to_json,
)
from .linalg import KernelBasis, VerificationFailure, finite_support_kernel
from .sequences import Window

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


class UsageError(Exception):
    pass


_INTEGER = re.compile(r"[+-]?[0-9]+")  # int() also reads "1_0", " 1" and non-ASCII digits


def _parse_window(text: str) -> Window:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"window must be LO:HI, got {text!r}")
    if not all(map(_INTEGER.fullmatch, parts)):
        raise UsageError(f"window bounds must be integers, got {text!r}")
    return Window(int(parts[0]), int(parts[1]))


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
    return EXIT_OK, to_json(kb), text


def _inconclusive(outcome: Inconclusive) -> tuple[int, dict, list[str]]:
    """The reason a search stopped, and how far it got by whichever best_* it set."""
    text = [f"inconclusive: {outcome.reason}"]
    if outcome.best_kernel_dim is not None:
        text.append(f"  disjoint solutions found: {outcome.best_kernel_dim}")
    if outcome.best_gap is not None:
        text.append(f"  largest gap reached: {outcome.best_gap}")
    return EXIT_INCONCLUSIVE, to_json(outcome), text


def _cmd_certify(args) -> tuple[int, dict, list[str]]:
    op = operator_from_json(_load_json(args.operator))
    k = _positive(args.k, "k")
    budget = _positive(args.budget, "budget")
    outcome = certify_dimension(op, k, budget)
    if isinstance(outcome, Inconclusive):
        return _inconclusive(outcome)
    w = outcome.window
    text = [
        f"certificate: solution space dimension >= {outcome.k}",
        f"  {outcome.k} disjoint-support solutions inside [{w.lo}, {w.hi}]",
    ]
    return EXIT_OK, to_json(outcome), text


def _cmd_split(args) -> tuple[int, dict, list[str]]:
    op = operator_from_json(_load_json(args.operator))
    seq = sequence_from_json(_load_json(args.sequence))
    w = _parse_window(args.window)
    pieces = split_lacunary(op, seq, w)
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
        return _inconclusive(outcome)
    text = [
        f"partial lacunary solution on the {outcome.ray} ray: "
        f"{len(outcome.blocks)} blocks, gap profile {list(outcome.gap_profile)}"
    ]
    return EXIT_OK, to_json(outcome), text


def _cmd_verify(args) -> tuple[int, dict, list[str]]:
    op = operator_from_json(_load_json(args.operator))
    kind, cert = _load_certificate(args.certificate)
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
    from . import corpus as corpus_mod  # here, not at the top: no other command reads it

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
    return EXIT_OK, to_json(entry), text


_DESCRIPTION = ("Exact witnesses for infinite-dimensional solution spaces of linear "
                "difference equations with sequence coefficients.")
_HELP, _FORMATS = ("-h", "--help"), ("json", "text")
_REQUIRED = object()  # the default of an argument that must be given
_FILE, _WINDOW, _BUDGET = ("FILE", _REQUIRED), ("LO:HI", _REQUIRED), ("INT", "1000")
_OUTPUT = {"--format": ("{json,text}", "json"), "--out": ("FILE", None)}

# Each command's handler, help line and arguments, besides the _OUTPUT options
# every command takes.  An argument is an option "--name" or a positional
# "name", mapped to its metavar and its default; an INT value, default too, is read as an int.
_COMMANDS = {
    "check": (_cmd_check, "verify a sequence solves the equation on a window",
              {"--operator": _FILE, "--sequence": _FILE, "--window": _WINDOW}),
    "kernel": (_cmd_kernel, "basis of global solutions supported inside a window",
               {"--operator": _FILE, "--window": _WINDOW}),
    "certify": (_cmd_certify, "prove a lower bound on the solution space dimension",
                {"--operator": _FILE, "--k": ("INT", _REQUIRED), "--budget": _BUDGET}),
    "split": (_cmd_split, "cut a windowed solution at long zero runs",
              {"--operator": _FILE, "--sequence": _FILE, "--window": _WINDOW}),
    "build": (_cmd_build, "assemble a solution with ever-growing support gaps",
              {"--operator": _FILE, "--gap": ("INT", _REQUIRED), "--budget": _BUDGET}),
    "verify": (_cmd_verify, "re-check a serialized certificate against an operator",
               {"--operator": _FILE, "--certificate": _FILE}),
    "corpus": (_cmd_corpus, "emit a corpus entry, or the manifest without a name",
               {"name": ("NAME", None)}),
}


def _usage(command: Optional[str]) -> str:
    """The help of one command, or of the program when command is None."""
    if command is None:
        lines = [f"usage: lacunary {{{','.join(_COMMANDS)}}} ...", "", _DESCRIPTION, ""]
        return "\n".join(lines + [f"  {n:<8} {h}" for n, (_, h, _) in _COMMANDS.items()]) + "\n"
    _, line, options = _COMMANDS[command]
    labels = []
    for name, (metavar, default) in {**options, **_OUTPUT}.items():
        label = f"{name} {metavar}" if name.startswith("-") else metavar
        labels.append(label if default is _REQUIRED else f"[{label}]")
    return f"usage: lacunary {command} {' '.join(labels)}\n\n{line}\n"


def _parse_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The command and its arguments as attributes; None once -h printed its help.

    An option is --name VALUE or --name=VALUE: any order, full names, at most
    once.  VALUE is always the next token, so --window -50:50 reaches its check.
    """
    command = argv[0] if argv else None
    if command in _HELP:
        sys.stdout.write(_usage(None))
        return None
    if command not in _COMMANDS:
        what = f"unknown command {command!r}" if argv else "no command"
        raise UsageError(f"{what}; the commands are {', '.join(_COMMANDS)}")
    tokens, options = iter(argv[1:]), {**_COMMANDS[command][2], **_OUTPUT}
    positional = next((name for name in options if not name.startswith("-")), None)
    given: dict[str, Any] = {}
    for token in tokens:
        if token in _HELP:
            sys.stdout.write(_usage(command))
            return None
        name, eq, value = token.partition("=") if token[:1] == "-" else (positional, "=", token)
        if name not in options:
            raise UsageError(f"{command} takes no argument {token!r}")
        if name in given:
            raise UsageError(f"{name} given more than once")
        given[name] = value if eq else next(tokens, _REQUIRED)  # no next token: no value
    args = SimpleNamespace(command=command)
    for name, (metavar, default) in options.items():
        value = given.get(name, default)
        if value is _REQUIRED:
            raise UsageError(f"{command} needs a value for {name}")
        if metavar == "INT":
            if not _INTEGER.fullmatch(value):
                raise UsageError(f"{name} must be an integer, got {value!r}")
            value = int(value)
        if name == "--format" and value not in _FORMATS:
            raise UsageError(f"--format must be one of {', '.join(_FORMATS)}, got {value!r}")
        setattr(args, name.lstrip("-"), value)
    return args


def _close_broken_stdout() -> None:
    """Close stdout if what it holds cannot be written: Python flushes an open
    stdout again at exit, and a failure there prints a traceback and exits 120."""
    try:
        sys.stdout.flush()
    except OSError:
        with suppress(OSError):  # closing flushes once more, then closes anyway
            sys.stdout.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    # exact answers write and read integers of any length; from 3.10.7 on,
    # Python refuses int <-> str conversions past 4300 digits by default
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        code = EXIT_OK
        if args is not None:
            code, payload, text_lines = _COMMANDS[args.command][0](args)
            # opened only now, so a failed command leaves no file behind
            out = (
                nullcontext(sys.stdout) if args.out is None
                else open(args.out, "w", encoding="utf-8")
            )
            with out as fh:
                if args.format == "json":
                    dump_canonical(payload, fh)
                else:
                    fh.write("\n".join(text_lines) + "\n")
        sys.stdout.flush()  # a full disk or a closed pipe fails here, not at exit
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (NotASolutionOnWindow, VerificationFailure) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _close_broken_stdout()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
