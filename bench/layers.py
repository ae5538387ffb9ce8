"""Per-layer metrics derived from the spans that bench/shim.py records.

A span's self time is its duration minus the durations of its direct
child spans.  Values of one operation are reduced over the traced passes
by the median, then summed over the workload's operations (the largest
coefficient bit length is a maximum instead), and the ratios are formed
from the summed bases.
"""

from __future__ import annotations

import math
from collections import defaultdict
from statistics import median

SEARCH = {"engine.certify_dimension", "engine.build_lacunary"}
CHECK = {
    "engine.verify_dimension_certificate",
    "engine.verify_partial_lacunary",
    "engine.verify_kernel_basis",
    "engine.split_lacunary",
    "engine.windowed_residual_check",
}

# name: unit, in report order; BENCHMARK.json lists the same metrics.
METRICS = {
    "linalg.rank_s": "s",
    "linalg.rank_calls": "count",
    "linalg.kernel_self_s": "s",
    "linalg.cells": "count",
    "linalg.nonzeros": "count",
    "linalg.fill": "ratio",
    "linalg.nullity": "count",
    "linalg.max_coeff_bits": "bits",
    "linalg.scaling_exp": "exponent",
    "linalg.scaling_n_s": "s",
    "linalg.scaling_2n_s": "s",
    "operators.window_matrix_s": "s",
    "operators.reverify_s": "s",
    "operators.reverify_calls": "count",
    "operators.residual_calls": "count",
    "engine.search_self_s": "s",
    "engine.kernel_calls": "count",
    "engine.window_cols": "count",
    "engine.vectors_used": "count",
    "engine.vectors_computed": "count",
    "engine.useful_ratio": "ratio",
    "engine.check_self_s": "s",
    "sequences.support_s": "s",
    "jsonio.emit_s": "s",
    "jsonio.bytes_out": "bytes",
    "jsonio.parse_s": "s",
    "jsonio.bytes_in": "bytes",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.traced_s": "ref_s",
    "trace.untraced_s": "ref_s",
}


def op_values(records: list[dict], trailer: dict) -> dict[str, float]:
    """Layer values of one traced operation from its spans and its trailer line."""
    by_id = {rec["id"]: rec for rec in records}
    child_s: dict[int, float] = defaultdict(float)
    for rec in records:
        if rec["parent"] >= 0:
            child_s[rec["parent"]] += rec["end"] - rec["start"]
    v: dict[str, float] = defaultdict(float)
    for rec in records:
        name = rec["name"]
        dur = rec["end"] - rec["start"]
        self_s = dur - child_s[rec["id"]]
        parent = by_id.get(rec["parent"], {}).get("name", "")
        if name == "linalg.rank_and_nullspace":
            v["linalg.rank_s"] += dur
            v["linalg.rank_calls"] += 1
            v["linalg.cells"] += rec.get("cells", 0)
            v["linalg.nonzeros"] += rec.get("nonzeros", 0)
            v["linalg.nullity"] += rec.get("nullity", 0)
            v["linalg.max_coeff_bits"] = max(v["linalg.max_coeff_bits"], rec.get("max_coeff_bits", 0))
        elif name == "linalg.finite_support_kernel":
            v["linalg.kernel_self_s"] += self_s
            v["linalg.kernel_s"] += dur
            if parent in SEARCH:
                v["engine.kernel_calls"] += 1
                v["engine.window_cols"] += rec.get("window_cols", 0)
                v["engine.vectors_computed"] += rec.get("dimension", 0)
        elif name == "operators.window_matrix":
            v["operators.window_matrix_s"] += dur
        elif name == "operators.is_global_solution_finite":
            v["operators.reverify_s"] += dur
            v["operators.reverify_calls"] += 1
        elif name in SEARCH:
            v["engine.search_self_s"] += self_s
            v["engine.vectors_used"] += rec.get("used", 0)
        elif name in CHECK:
            v["engine.check_self_s"] += self_s
        elif name == "sequences.support_in_window":
            v["sequences.support_s"] += dur
        elif name.startswith("jsonio.") and not parent.startswith("jsonio."):
            if name.endswith("_to_json") or name == "jsonio.dumps_canonical":
                v["jsonio.emit_s"] += dur
            elif name.endswith("_from_json"):
                v["jsonio.parse_s"] += dur
        elif name == "cli.main":
            v["cli.self_s"] += self_s
        if name == "jsonio.dumps_canonical":
            v["jsonio.bytes_out"] += rec.get("bytes", 0)
    v["operators.residual_calls"] = trailer["counts"].get("operators.residual", 0)
    v["cli.import_s"] = trailer["import_s"]
    return v


def workload_metrics(
    per_op: dict[str, list[dict[str, float]]],
    traced_s: dict[str, list[float]],
    untraced_s: dict[str, list[float]],
    roles: dict[str, str],
) -> dict[str, float]:
    """Reduce the traced passes of every operation to the per-layer metrics."""
    med = {
        op: {key: median(p.get(key, 0.0) for p in passes) for key in set().union(*passes)}
        for op, passes in per_op.items()
    }
    total: dict[str, float] = defaultdict(float)
    for values in med.values():
        for key, x in values.items():
            if key == "linalg.max_coeff_bits":
                total[key] = max(total[key], x)
            else:
                total[key] += x
    by_role = {roles[op]: values for op, values in med.items() if roles[op]}
    t_n = by_role.get("scaling_n", {}).get("linalg.kernel_s", 0.0)
    t_2n = by_role.get("scaling_2n", {}).get("linalg.kernel_s", 0.0)
    total["linalg.scaling_n_s"] = t_n
    total["linalg.scaling_2n_s"] = t_2n
    total["linalg.scaling_exp"] = math.log2(t_2n / t_n) if t_n and t_2n else 0.0
    total["linalg.fill"] = total["linalg.nonzeros"] / total["linalg.cells"] if total["linalg.cells"] else 0.0
    computed = total["engine.vectors_computed"]
    total["engine.useful_ratio"] = total["engine.vectors_used"] / computed if computed else 0.0
    total["trace.traced_s"] = sum(median(s) for s in traced_s.values())
    total["trace.untraced_s"] = sum(median(s) for s in untraced_s.values())
    total["trace.overhead_frac"] = total["trace.traced_s"] / total["trace.untraced_s"] - 1
    return {name: total[name] for name in METRICS}
