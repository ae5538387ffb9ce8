"""Layered benchmark of the lacunary command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload kernel|search|consume|all --seed N --seconds S --trace 0|1

Each operation of a workload runs as `python3 -m lacunary.cli ...` in a
fresh subprocess, one at a time: a closed loop with a single client.  The
workload's operations are repeated in passes until S seconds have elapsed;
each operation's median over the passes is reported.  Every output is
checked outside the timed interval, and a wrong exit code or a failed check
counts as a failed operation.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
alternates untraced passes with passes that run each command under
bench/shim.py, and reports the per-layer metrics derived from the spans.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
human-readable report.  Inputs and outputs live under .bench_work/ and are
removed at the end; the spans of a traced run are kept there as JSON Lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS, Op, Setup  # noqa: E402

# Set-up is timed at least this often in a run; setup_s is the median.
SETUP_REPEATS = 5
# Every run must end well within 180 s, whatever the program does.
HARD_LIMIT_S = 150.0
# Nominal duration of one speed probe; see probe().
PROBE_REF_S = 0.002

# The end-to-end metrics of BENCHMARK.json.  setup_s and total_ref_s are in
# reference seconds (see probe()); setup_s is listed with the unit "s" of a
# set-up time.  The report lines before the result also
# give the raw wall times and the time per subcommand; they are not results
# because raw wall time on a shared host swings by a third from run to run,
# and a subcommand's time is 0 on the workloads that skip it.
END_TO_END = {
    "setup_s": "s",
    "total_ref_s": "ref_s",
    "output_bytes": "bytes",
    "peak_rss_mb": "MB",
}


def probe() -> float:
    """Seconds this machine takes right now for a fixed piece of rational arithmetic.

    Shared hosts change speed by half or more over tens of seconds.  Probing
    before and after each operation and scaling its wall time by
    PROBE_REF_S / probe gives the operation's time in reference seconds,
    which moves far less than wall time when the host's speed changes.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 1000):
            acc += Fraction(1, i % 12 + 1)
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Sample:
    wall_s: float
    ref_s: float
    rss_kb: int
    out_bytes: int
    error: str | None


class Runner:
    """Runs operations through bench/spawn.py and checks their outputs.

    Create it before the inputs are built, while this process is small:
    spawn.py's peak RSS is the floor of every reported child peak RSS.
    """

    def __init__(self, root: Path, work: Path, started: float) -> None:
        self.root = root
        self.work = work
        self.out_dir = work / "out"
        self.out_dir.mkdir(parents=True)
        self.deadline = started + HARD_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.verdicts: dict[tuple[str, str], str | None] = {}
        self.timed_out = False
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], cwd=root, env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def run(self, op: Op, index: int, spans: Path | None = None) -> Sample:
        out = self.out_dir / f"op{index}.json"
        out.unlink(missing_ok=True)
        if spans is None:
            argv = [sys.executable, "-m", "lacunary.cli", *op.args, "--out", str(out)]
        else:
            argv = [sys.executable, str(HERE / "shim.py"), str(spans), "--", *op.args, "--out", str(out)]
        request = {
            "argv": argv,
            "stderr": str(self.work / "stderr.txt"),
            "timeout": max(1.0, self.deadline - time.monotonic()),
        }
        speed_before = probe()
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        wall, code = reply["wall_s"], reply["exit"]
        ref = wall * PROBE_REF_S / ((speed_before + probe()) / 2)
        size = out.stat().st_size if out.exists() else 0
        if time.monotonic() >= self.deadline:
            self.timed_out = True
            return Sample(wall, ref, reply["maxrss_kb"], size, "run time limit reached")
        return Sample(wall, ref, reply["maxrss_kb"], size, self.check(op, code, out))

    def check(self, op: Op, code: int, out: Path) -> str | None:
        if code != op.expect_exit:
            tail = (self.work / "stderr.txt").read_text(errors="replace").strip()[-300:]
            return f"exit {code}, expected {op.expect_exit}: {tail}"
        if not out.exists():
            return "no output written"
        key = (op.name, hashlib.sha256(out.read_bytes()).hexdigest())
        if key not in self.verdicts:
            try:
                self.verdicts[key] = op.check(out, json.loads(out.read_text(encoding="utf-8")))
            except (ValueError, KeyError, TypeError, AttributeError, OSError,
                    subprocess.SubprocessError) as exc:
                self.verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
        return self.verdicts[key]


def set_up(workload: str, seed: int, runner: Runner, inputs: Path) -> tuple[list[Op], tuple[float, float]]:
    """Build the workload's inputs under `inputs`.

    Returns the operations and the set-up's (wall, reference) seconds, the
    latter scaled by speed probes like an operation's time.
    """
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir()
    speed_before = probe()
    start = time.perf_counter()
    ops = WORKLOADS[workload](Setup(sys.executable, runner.root, runner.env, inputs), seed)
    wall = time.perf_counter() - start
    return ops, (wall, wall * PROBE_REF_S / ((speed_before + probe()) / 2))


def measure(workload: str, seed: int, runner: Runner, seconds: float, trace: bool):
    """Closed loop over passes of all operations until `seconds` have elapsed.

    The operations read the inputs of a first, untimed set-up.  Set-up is
    timed again after every pass, and at least SETUP_REPEATS times: repeats
    spread over the run follow the host's speed through the run, where
    back-to-back repeats would all land in one fast or one slow spell.  A
    traced run alternates untraced and traced passes, swapping which comes
    first each time.
    """
    ops, _ = set_up(workload, seed, runner, runner.work / "inputs")
    setup_times = []
    plain = {op.name: [] for op in ops}
    traced = {op.name: [] for op in ops}
    spans = {op.name: [] for op in ops}
    start = time.perf_counter()
    passes = 0
    while not runner.timed_out and (passes == 0 or time.perf_counter() - start < seconds):
        modes = [False, True] if passes % 2 == 0 else [True, False]
        for with_trace in modes if trace else [False]:
            for i, op in enumerate(ops):
                if runner.timed_out:
                    break
                span_file = runner.work / f"spans{i}.jsonl" if with_trace else None
                sample = runner.run(op, i, span_file)
                (traced if with_trace else plain)[op.name].append(sample)
                if with_trace and sample.error is None:
                    spans[op.name].append(read_spans(span_file))
        setup_times.append(set_up(workload, seed, runner, runner.work / "inputs-timed")[1])
        passes += 1
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(set_up(workload, seed, runner, runner.work / "inputs-timed")[1])
    return ops, setup_times, plain, traced, spans


def read_spans(path: Path) -> tuple[list[dict], dict]:
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return lines[:-1], lines[-1]


def end_to_end(ops: list[Op], plain: dict, setup_times: list[tuple[float, float]]) -> tuple[dict, list]:
    """The END_TO_END metrics and the report's extra lines."""
    by_op = {op: plain[op.name] for op in ops if plain[op.name]}
    wall = {op: median(s.wall_s for s in samples) for op, samples in by_op.items()}
    ref = {op: median(s.ref_s for s in samples) for op, samples in by_op.items()}
    metrics = {
        "setup_s": median(ref for _, ref in setup_times),
        "total_ref_s": sum(ref.values()),
        "output_bytes": sum(median(s.out_bytes for s in samples) for samples in by_op.values()),
        "peak_rss_mb": max(median(s.rss_kb for s in samples) for samples in by_op.values()) / 1024,
    }
    extra = [
        ("setup_wall_s", median(wall for wall, _ in setup_times), "s"),
        ("total_s", sum(wall.values()), "s"),
    ]
    for command in dict.fromkeys(op.command for op in by_op):
        extra.append((f"{command}_s", sum(t for op, t in wall.items() if op.command == command), "s"))
        extra.append((f"{command}_ref_s", sum(t for op, t in ref.items() if op.command == command), "ref_s"))
    return metrics, extra


def per_layer(ops: list[Op], plain: dict, traced: dict, spans: dict) -> dict:
    per_op = {}
    for op in ops:
        if not spans[op.name]:
            continue
        bytes_in = sum(os.path.getsize(f) for f in op.input_files())
        values = []
        for records, trailer in spans[op.name]:
            v = layers.op_values(records, trailer)
            v["jsonio.bytes_in"] = bytes_in
            values.append(v)
        per_op[op.name] = values
    timed = [op.name for op in ops if spans[op.name] and plain[op.name]]
    return layers.workload_metrics(
        per_op,
        {name: [s.ref_s for s in traced[name]] for name in timed},
        {name: [s.ref_s for s in plain[name]] for name in timed},
        {op.name: op.role for op in ops},
    )


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> None:
    """Set up, measure and check one workload; print its report and result line."""
    started = time.monotonic()
    load_before = os.getloadavg()
    work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(root, work, started)
    try:
        ops, setup_times, plain, traced, spans = measure(workload, seed, runner, seconds, trace)
        samples = [s for by in (plain, traced) for group in by.values() for s in group]
        failures = [(name, s.error) for by in (plain, traced) for name, group in by.items()
                    for s in group if s.error]
        if trace:
            metrics = per_layer(ops, plain, traced, spans)
            units = layers.METRICS
            extra = []
            write_trace(root / ".bench_work" / f"trace-{workload}-{seed}.jsonl", spans)
        else:
            metrics, extra = end_to_end(ops, plain, setup_times)
            units = END_TO_END
        extra.append(("ops_failed_frac", len(failures) / max(1, len(samples)), "ratio"))
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    stamp = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "passes": max(len(g) for g in plain.values()), "operations": len(ops),
    }
    print("run " + json.dumps(stamp))
    for op in ops:
        if plain[op.name]:
            walls = sorted(s.wall_s for s in plain[op.name])
            refs = sorted(s.ref_s for s in plain[op.name])
            print(f"  {op.name:<50} n={len(walls):<3} wall median {median(walls):.4f} s "
                  f"[{walls[0]:.4f}, {walls[-1]:.4f}]  ref median {median(refs):.4f} ref_s "
                  f"[{refs[0]:.4f}, {refs[-1]:.4f}]")
    for name, value, unit in [(n, v, units[n]) for n, v in metrics.items()] + extra:
        print(f"{name:<26} {value:14.4f} {unit}")
    for name, error in failures[:10]:
        print(f"FAILED {name}: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all three in turn, each with its own result line")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "lacunary" / "cli.py").is_file():
        print(f"error: {root} holds no lacunary source tree (src/lacunary)", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
    return 0


def write_trace(path: Path, spans: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, passes in spans.items():
            for n, (records, trailer) in enumerate(passes):
                for rec in records:
                    fh.write(json.dumps({"op": name, "pass": n, **rec}) + "\n")
                fh.write(json.dumps({"op": name, "pass": n, **trailer}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
