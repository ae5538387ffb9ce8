"""Run one lacunary CLI command with the library's public functions traced.

Usage: python3 bench/shim.py SPANS_FILE -- LACUNARY_ARGS...

Every public function of the layer modules is wrapped and rebound in every
module that binds it by name (``engine``, ``cli`` and ``corpus`` import
``finite_support_kernel`` themselves, ``linalg`` imports ``window_matrix``,
``engine`` imports ``residual``), then ``lacunary.cli.main`` runs on the
arguments.  Spans (id, name, start, end, parent) stay in memory and are
written once, as JSON Lines, after the command has finished; the last line
holds the call counters, the import time and the exit code.  The library's
source is not modified.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from types import FunctionType

clock = time.perf_counter

LAYERS = ("cli", "jsonio", "engine", "linalg", "operators", "sequences")

# Called once per equation index: a span each would cost more than the call
# itself, so it is only counted.
COUNT_ONLY = {"operators.residual"}
# Called once per rational value and measured by no metric: left unwrapped,
# so their cost stays inside their callers' spans.
UNTRACED = {"sequences.as_fraction", "jsonio.format_rational", "jsonio.parse_rational"}


def _rank_stats(args, result) -> dict:
    matrix = args[0]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    _, basis = result
    bits = 0
    for v in basis:
        for x in v:
            bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return {
        "cells": rows * cols,
        "nonzeros": sum(1 for row in matrix for x in row if x),
        "nullity": len(basis),
        "max_coeff_bits": bits,
    }


def _kernel_stats(args, result) -> dict:
    return {"window_cols": args[1].size, "dimension": result.dimension}


def _search_stats(args, result) -> dict:
    used = getattr(result, "solutions", None) or getattr(result, "blocks", None) or ()
    return {"used": len(used)}


def _emit_stats(args, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


# Derived after the command returns, so the bookkeeping falls in no span.
STATS = {
    "linalg.rank_and_nullspace": _rank_stats,
    "linalg.finite_support_kernel": _kernel_stats,
    "engine.certify_dimension": _search_stats,
    "engine.build_lacunary": _search_stats,
    "jsonio.dumps_canonical": _emit_stats,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, itertools.count] = {}

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack
        keep = name in STATS

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, None)
            if keep:
                spans[sid] = (name, start, end, parent, (args, result))
            return result

        return traced

    def counter(self, name: str, fn):
        tick = self.counts[name] = itertools.count()

        def counted(*args, **kwargs):
            next(tick)
            return fn(*args, **kwargs)

        return counted

    def install(self, package) -> None:
        names = LAYERS + ("corpus",)
        modules = [package] + [getattr(package, m) for m in names if hasattr(package, m)]
        wrapped = {}
        for layer in LAYERS:
            module = getattr(package, layer, None)
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not isinstance(fn, FunctionType) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in UNTRACED:
                    continue
                wrap = self.counter if name in COUNT_ONLY else self.span
                wrapped[fn] = wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, FunctionType) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def dump(self, path: str, import_s: float, code: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, kept) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                if kept is not None:
                    try:
                        rec.update(STATS[name](*kept))
                    except (AttributeError, TypeError, IndexError, ValueError) as exc:
                        # A changed signature must not fail the traced command.
                        rec["stats_error"] = f"{type(exc).__name__}: {exc}"
                fh.write(json.dumps(rec) + "\n")
            counts = {name: next(tick) for name, tick in self.counts.items()}
            fh.write(json.dumps({"counts": counts, "import_s": import_s, "exit": code}) + "\n")


def main() -> int:
    spans_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: shim.py SPANS_FILE -- LACUNARY_ARGS...")
    argv = sys.argv[3:]
    start = clock()
    import lacunary
    import lacunary.cli

    import_s = clock() - start
    tracer = Tracer()
    tracer.install(lacunary)
    code = lacunary.cli.main(argv)
    tracer.dump(spans_path, import_s, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
