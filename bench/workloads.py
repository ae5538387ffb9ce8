"""The three workloads: how each builds its inputs and which operations it times.

Set-up writes JSON files only.  Corpus operators come from `lacunary corpus`
subprocesses and the seeded random operators from
`lacunary.corpus.random_residue_operator` in a subprocess, so set-up time
includes interpreter start and import cost.  The `consume` certificates are
written from closed forms, so set-up never runs the engine or linalg code
that the workloads time.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks

# Window scale of the kernel workload: vanish_on_multiples_r2 at [0, N] and
# [0, 2N].  Sizes are chosen so one pass of every workload takes a few
# seconds on one core and a run repeats each operation several times.
N = 100
RANDOM_ORDER, RANDOM_MODULUS = 3, 6
RANDOM_CANDIDATES = 16
# A random operator is used only if it has a solution supported in
# [0, PROBE_HI].  Its coefficients are 6-periodic, so shifts of that
# solution lie in every window of 32 indices: `build` then succeeds for
# any gap, and no operation of the workload fails.
PROBE_HI = 23

RANDOM_OPERATORS_PY = """
import json, sys
from lacunary.corpus import random_residue_operator
from lacunary.jsonio import operator_to_json
print(json.dumps([
    operator_to_json(random_residue_operator(%d, %d, int(s))) for s in sys.argv[1:]
]))
""" % (RANDOM_ORDER, RANDOM_MODULUS)

Check = Callable[[Path, dict], Optional[str]]


@dataclass(frozen=True)
class Op:
    """One `lacunary` invocation: its arguments (without --out) and expectations."""

    name: str
    args: tuple[str, ...]
    expect_exit: int
    check: Check
    role: str = ""

    @property
    def command(self) -> str:
        return self.args[0]

    def input_files(self) -> list[str]:
        flags = ("--operator", "--sequence", "--certificate")
        return [self.args[i + 1] for i, a in enumerate(self.args) if a in flags]


class Setup:
    """Writes one workload's inputs under `inputs` and lists its operations."""

    def __init__(self, python: str, root: Path, env: dict, inputs: Path) -> None:
        self.python = python
        self.root = root
        self.env = env
        self.inputs = inputs

    def _run(self, argv: list[str]) -> str:
        done = subprocess.run(
            argv, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=60
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up command failed: {argv[1:4]}: {done.stderr.strip()}")
        return done.stdout

    def write(self, name: str, data) -> str:
        path = self.inputs / name
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return str(path)

    def corpus(self, name: str) -> dict:
        entry = json.loads(self._run([self.python, "-m", "lacunary.cli", "corpus", name]))
        entry["operator_file"] = self.write(f"{name}.op.json", entry["operator"])
        if "sequence" in entry:
            entry["sequence_file"] = self.write(f"{name}.seq.json", entry["sequence"])
        return entry

    def random_operators(self, seed: int, count: int = 2) -> list[tuple[int, dict, str]]:
        rng = random.Random(seed)
        seeds = [rng.randrange(1 << 30) for _ in range(RANDOM_CANDIDATES)]
        ops = json.loads(self._run([self.python, "-c", RANDOM_OPERATORS_PY, *map(str, seeds)]))
        picked = [
            (s, op) for s, op in zip(seeds, ops) if checks.window_nullity(op, 0, PROBE_HI) > 0
        ][:count]
        if len(picked) < count:
            raise RuntimeError(f"seed {seed}: too few random operators with solutions")
        return [(s, op, self.write(f"random_{s}.op.json", op)) for s, op in picked]

    def verify(self, operator_file: str, certificate: Path, kind: str) -> Optional[str]:
        """Re-check a certify/build output with `lacunary verify`."""
        done = subprocess.run(
            [self.python, "-m", "lacunary.cli", "verify",
             "--operator", operator_file, "--certificate", str(certificate)],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            return f"lacunary verify exited {done.returncode}: {done.stderr.strip()}"
        return checks.check_valid(json.loads(done.stdout), kind)


def _digest(expected: str) -> Check:
    def check(path: Path, data: dict) -> Optional[str]:
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        return None if got == expected else f"output digest {got[:12]} differs from the seed's"

    return check


def _then_verify(setup: Setup, first: Callable[[dict], Optional[str]], operator_file: str, kind: str) -> Check:
    def check(path: Path, data: dict) -> Optional[str]:
        return first(data) or setup.verify(operator_file, path, kind)

    return check


def kernel_ops(setup: Setup, seed: int) -> list[Op]:
    """`lacunary kernel`: one banded window system per call, no engine.

    Nullity runs from 0 (fibonacci) to 2N/3 (vanish_on_multiples_r2), so both
    the elimination-bound and the back-substitution/output-bound cases show,
    and the dense outputs load jsonio emission.
    """
    v2 = setup.corpus("vanish_on_multiples_r2")["operator_file"]
    fib = setup.corpus("fibonacci")["operator_file"]
    ops = []
    for name, path, hi, role in (
        ("vanish_on_multiples_r2", v2, N, "scaling_n"),
        ("vanish_on_multiples_r2", v2, 2 * N, "scaling_2n"),
        ("fibonacci", fib, 4 * N, ""),
    ):
        ops.append(Op(
            f"kernel {name} [0,{hi}]",
            ("kernel", "--operator", path, "--window", f"0:{hi}"),
            0, _digest(checks.KERNEL_DIGESTS[(name, 0, hi)]), role,
        ))
    for s, op, path in setup.random_operators(seed):
        ops.append(Op(
            f"kernel random_{s} [0,{N}]",
            ("kernel", "--operator", path, "--window", f"0:{N}"),
            0, lambda path, data, op=op: checks.check_kernel_dimension(
                data, checks.window_nullity(op, 0, N)),
        ))
    return ops


def search_ops(setup: Setup, seed: int) -> list[Op]:
    """Budget-bounded `certify` and `build`: engine calls the kernel on growing windows.

    Both the success and the Inconclusive (fibonacci, exit 2) paths show.
    """
    v2 = setup.corpus("vanish_on_multiples_r2")["operator_file"]
    v1 = setup.corpus("vanish_on_multiples_r1")["operator_file"]
    fib = setup.corpus("fibonacci")["operator_file"]
    ops = []
    for name, path, k, budget in (
        ("vanish_on_multiples_r2", v2, 100, 200),
        ("vanish_on_multiples_r1", v1, 50, 200),
    ):
        ops.append(Op(
            f"certify {name} k={k} budget={budget}",
            ("certify", "--operator", path, "--k", str(k), "--budget", str(budget)),
            0, _then_verify(setup, lambda d, k=k: checks.check_certificate(d, k), path,
                            "dimension_certificate"),
        ))
    ops.append(Op(
        "certify fibonacci k=1 budget=200",
        ("certify", "--operator", fib, "--k", "1", "--budget", "200"),
        2, lambda path, data: checks.check_inconclusive(data),
    ))
    builds = [("vanish_on_multiples_r2", v2, 4096, 20000)]
    builds += [(f"random_{s}", path, 64, 1000) for s, _, path in setup.random_operators(seed)]
    for name, path, gap, budget in builds:
        ops.append(Op(
            f"build {name} gap={gap} budget={budget}",
            ("build", "--operator", path, "--gap", str(gap), "--budget", str(budget)),
            0, _then_verify(setup, lambda d, g=gap: checks.check_partial(d, g), path,
                            "partial_lacunary"),
        ))
    ops.append(Op(
        "build fibonacci gap=20 budget=200",
        ("build", "--operator", fib, "--gap", "20", "--budget", "200"),
        2, lambda path, data: checks.check_inconclusive(data),
    ))
    return ops


# consume sizes: unit solutions in the dimension certificate, blocks of the
# partial lacunary solution, and the window of the dense kernel basis and
# of split/check.
CERT_SOLUTIONS = 20000
PARTIAL_BLOCKS = 18
BASIS_HI = 300
SEQUENCE_HI = 200000


def consume_ops(setup: Setup, seed: int) -> list[Op]:
    """`verify`, `split` and `check`: certificates are read, not written.

    The load is jsonio parsing, operators residual checks and sequences
    evaluation; linalg runs only on the dense kernel-basis rank check, and
    no window system is built.  The seed does not change these inputs.
    """
    entry = setup.corpus("vanish_on_multiples_r2")
    op, seq = entry["operator_file"], entry["sequence_file"]
    m = len(entry["operator"]["coeffs"])  # vanish_on_multiples_r2 solutions vanish on multiples of m

    free = [n for n in range(1, CERT_SOLUTIONS * m) if n % m][:CERT_SOLUTIONS]
    cert = setup.write("dimension_certificate.json", {
        "kind": "dimension_certificate", "k": len(free), "window": [0, free[-1] + 1],
        "solutions": [{"anchor": n, "values": ["1/1"]} for n in free],
    })
    spec = entry["sequence"]
    points = [spec["scale"] * 2**i + spec["shift"] for i in range(PARTIAL_BLOCKS)]
    partial = setup.write("partial_lacunary.json", {
        "kind": "partial_lacunary", "ray": "positive",
        "blocks": [{"anchor": p, "values": ["1/1"]} for p in points],
        "gap_profile": [b - a for a, b in zip(points, points[1:])],
    })
    basis = setup.write("kernel_basis.json", {
        "window": [0, BASIS_HI],
        "vectors": [
            ["1/1" if j == c else "0/1" for j in range(BASIS_HI + 1)]
            for c in range(BASIS_HI + 1) if c % m
        ],
    })
    pieces = checks.doubling_pieces(spec["scale"], spec["shift"], m - 1, 0, SEQUENCE_HI)
    window = f"0:{SEQUENCE_HI}"
    ops = []
    for label, path, kind in (
        (f"dimension_certificate {len(free)} solutions", cert, "dimension_certificate"),
        (f"partial_lacunary {PARTIAL_BLOCKS} blocks", partial, "partial_lacunary"),
        (f"kernel_basis [0,{BASIS_HI}]", basis, "kernel_basis"),
    ):
        ops.append(Op(
            f"verify {label}",
            ("verify", "--operator", op, "--certificate", path),
            0, lambda path, data, kind=kind: checks.check_valid(data, kind),
        ))
    ops.append(Op(
        f"split geometric [{window}]",
        ("split", "--operator", op, "--sequence", seq, "--window", window),
        0, lambda path, data: checks.check_pieces(data, pieces),
    ))
    ops.append(Op(
        f"check geometric [{window}]",
        ("check", "--operator", op, "--sequence", seq, "--window", window),
        0, lambda path, data: checks.check_ok(data),
    ))
    return ops


WORKLOADS = {"kernel": kernel_ops, "search": search_ops, "consume": consume_ops}
