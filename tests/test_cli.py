"""End-to-end command line runs, in process, over temp files."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lacunary.cli import UsageError, _COMMANDS, _parse_args, main
from lacunary.corpus import (
    fibonacci_operator,
    geometric_lacunary_sequence,
    vanish_on_multiples_operator,
)
from lacunary.jsonio import certificate_from_json, dump_canonical, operator_to_json, to_json
from lacunary.operators import OperatorSpec
from lacunary.sequences import FiniteTable

from .oracles import build_parser


def write_canonical(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        dump_canonical(data, fh)


@pytest.fixture
def vanish_r2(tmp_path):
    path = tmp_path / "op_vanish_r2.json"
    write_canonical(path, operator_to_json(vanish_on_multiples_operator(2)))
    return str(path)


@pytest.fixture
def fibonacci(tmp_path):
    path = tmp_path / "op_fibonacci.json"
    write_canonical(path, operator_to_json(fibonacci_operator()))
    return str(path)


@pytest.fixture
def geometric_r2(tmp_path):
    path = tmp_path / "seq_geometric_r2.json"
    write_canonical(path, to_json(geometric_lacunary_sequence(2)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ROOT = Path(__file__).resolve().parent.parent


def run_process(*argv, stdout=subprocess.PIPE):
    """`python -m lacunary.cli ARGV` in a fresh interpreter on this checkout's
    source, its stdout block-buffered as it is unless PYTHONUNBUFFERED is set."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-m", "lacunary.cli", *argv], cwd=ROOT, env=env,
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )


def test_check_ok(capsys, vanish_r2, geometric_r2):
    code, out, err = run(
        capsys, "check", "--operator", vanish_r2, "--sequence", geometric_r2,
        "--window", "0:100",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["checked_range"] == [0, 98]


def test_window_left_of_zero_needs_no_equals_sign(capsys, tmp_path):
    op = tmp_path / "op_vanish_r1.json"
    write_canonical(op, operator_to_json(vanish_on_multiples_operator(1)))
    spaced = run(capsys, "kernel", "--operator", str(op), "--window", "-50:50")
    joined = run(capsys, "kernel", "--operator", str(op), "--window=-50:50")
    assert spaced[0] == 0
    assert spaced == joined


def test_check_failure_exit_code(capsys, fibonacci, tmp_path):
    bad = tmp_path / "seq_bad.json"
    write_canonical(bad, {
        "kind": "finite_table", "anchor": 0,
        "values": ["1/1", "1/1", "2/1", "3/1", "6/1"],
    })
    code, out, err = run(
        capsys, "check", "--operator", fibonacci, "--sequence", str(bad),
        "--window", "0:4",
    )
    assert code == 1
    assert "NotASolutionOnWindow" in err
    assert out == ""


def test_kernel_then_verify_round_trip(capsys, vanish_r2, tmp_path):
    basis_file = tmp_path / "basis.json"
    code, out, err = run(
        capsys, "kernel", "--operator", vanish_r2, "--window", "0:12",
        "--out", str(basis_file),
    )
    assert code == 0
    data = json.loads(basis_file.read_text())
    assert data["window"] == [0, 12]
    assert len(data["vectors"]) == 8
    code, out, err = run(
        capsys, "verify", "--operator", vanish_r2, "--certificate", str(basis_file),
    )
    assert code == 0
    assert json.loads(out) == {"command": "verify", "kind": "kernel_basis", "valid": True}


def test_verify_rejects_foreign_kernel(capsys, vanish_r2, fibonacci, tmp_path):
    basis_file = tmp_path / "basis.json"
    run(capsys, "kernel", "--operator", vanish_r2, "--window", "0:12",
        "--out", str(basis_file))
    code, out, err = run(
        capsys, "verify", "--operator", fibonacci, "--certificate", str(basis_file),
    )
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_certify_success(capsys, vanish_r2, tmp_path):
    cert_file = tmp_path / "cert.json"
    code, out, err = run(
        capsys, "certify", "--operator", vanish_r2, "--k", "10",
        "--budget", "100", "--out", str(cert_file),
    )
    assert code == 0
    data = json.loads(cert_file.read_text())
    assert data["kind"] == "dimension_certificate"
    assert data["k"] == 10
    code, out, err = run(
        capsys, "verify", "--operator", vanish_r2, "--certificate", str(cert_file),
    )
    assert code == 0


def test_certify_inconclusive_exit_2(capsys, fibonacci):
    code, out, err = run(
        capsys, "certify", "--operator", fibonacci, "--k", "1", "--budget", "100",
    )
    assert code == 2
    data = json.loads(out)
    assert data["kind"] == "inconclusive"
    assert data["best_kernel_dim"] == 0


def test_split_and_verify(capsys, vanish_r2, geometric_r2, tmp_path):
    split_file = tmp_path / "split.json"
    code, out, err = run(
        capsys, "split", "--operator", vanish_r2, "--sequence", geometric_r2,
        "--window", "0:1000", "--out", str(split_file),
    )
    assert code == 0
    data = json.loads(split_file.read_text())
    assert data["kind"] == "split_result"
    assert len(data["pieces"]) == 8
    assert data["pieces"][0] == {"anchor": 4, "values": ["1/1", "0/1", "0/1", "1/1"]}
    code, out, err = run(
        capsys, "verify", "--operator", vanish_r2, "--certificate", str(split_file),
    )
    assert code == 0
    assert json.loads(out) == {"command": "verify", "kind": "split_result", "valid": True}


# single points off the multiples of 3 solve vanish_on_multiples_r2
SPLIT_AT_400 = {"anchor": 400, "values": ["1/1"]}
BAD_SPLITS = {
    "no window": {"pieces": [SPLIT_AT_400]},
    "window not [lo, hi]": {"window": "garbage", "pieces": [SPLIT_AT_400]},
    "piece outside the window": {"window": [0, 1], "pieces": [SPLIT_AT_400]},
    "overlapping pieces": {
        "window": [0, 500],
        "pieces": [SPLIT_AT_400, {"anchor": 398, "values": ["1/1", "0/1", "1/1"]}],
    },
}


@pytest.mark.parametrize("case", sorted(BAD_SPLITS))
def test_verify_malformed_split_result_exit_1(capsys, vanish_r2, tmp_path, case):
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"kind": "split_result", **BAD_SPLITS[case]}))
    code, out, err = run(
        capsys, "verify", "--operator", vanish_r2, "--certificate", str(split),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_split_result_empty_or_not_a_solution(capsys, vanish_r2, tmp_path):
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"kind": "split_result", "window": [0, 10], "pieces": []}))
    code, out, err = run(
        capsys, "verify", "--operator", vanish_r2, "--certificate", str(split),
    )
    assert code == 0
    assert json.loads(out) == {"command": "verify", "kind": "split_result", "valid": True}
    # 3 is a multiple of 3: a well-formed split that fails verification
    split.write_text(json.dumps(
        {"kind": "split_result", "window": [0, 10], "pieces": [{"anchor": 3, "values": ["1/1"]}]}
    ))
    code, out, err = run(
        capsys, "verify", "--operator", vanish_r2, "--certificate", str(split),
    )
    assert code == 1
    assert json.loads(out) == {"command": "verify", "kind": "split_result", "valid": False}


def test_verify_split_result_without_pieces_exit_1(capsys, vanish_r2, tmp_path):
    bare = tmp_path / "split_bare.json"
    bare.write_text(json.dumps({"kind": "split_result"}))
    code, out, err = run(
        capsys, "verify", "--operator", vanish_r2, "--certificate", str(bare),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "pieces" in err
    assert err.count("\n") == 1


def test_build_and_verify(capsys, vanish_r2, tmp_path):
    built_file = tmp_path / "built.json"
    code, out, err = run(
        capsys, "build", "--operator", vanish_r2, "--gap", "20",
        "--budget", "200", "--out", str(built_file),
    )
    assert code == 0
    data = json.loads(built_file.read_text())
    assert data["kind"] == "partial_lacunary"
    assert data["ray"] == "positive"
    assert data["gap_profile"] == [3, 6, 12, 24]
    code, out, err = run(
        capsys, "verify", "--operator", vanish_r2, "--certificate", str(built_file),
    )
    assert code == 0


def test_build_inconclusive_exit_2(capsys, fibonacci):
    code, out, err = run(
        capsys, "build", "--operator", fibonacci, "--gap", "2", "--budget", "50",
    )
    assert code == 2
    assert json.loads(out)["kind"] == "inconclusive"


def test_inconclusive_text_says_how_far_the_search_got(capsys, vanish_r2, fibonacci):
    code, out, err = run(
        capsys, "build", "--operator", vanish_r2, "--gap", "4096", "--budget", "200",
        "--format", "text",
    )
    assert code == 2
    assert out == (
        "inconclusive: no gap of 4096 reached within budget 200 on either ray\n"
        "  largest gap reached: 96\n"
    )
    code, out, err = run(
        capsys, "certify", "--operator", fibonacci, "--k", "1", "--budget", "100",
        "--format", "text",
    )
    assert code == 2
    assert out.splitlines()[1:] == ["  disjoint solutions found: 0"]


def test_verify_zero_kernel_vector_exit_1(capsys, vanish_r2, tmp_path):
    basis = tmp_path / "basis_zero.json"
    basis.write_text(json.dumps({"window": [0, 2], "vectors": [["0/1", "0/1", "0/1"]]}))
    code, out, err = run(
        capsys, "verify", "--operator", vanish_r2, "--certificate", str(basis),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    # a dependent pair is read, and found invalid
    basis.write_text(json.dumps(
        {"window": [0, 2], "vectors": [["0/1", "1/1", "0/1"], ["0/1", "2/1", "0/1"]]}
    ))
    code, out, err = run(
        capsys, "verify", "--operator", vanish_r2, "--certificate", str(basis),
    )
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_verify_empty_kernel_basis_in_a_wide_window(capsys, vanish_r2, tmp_path):
    """An empty basis is independent, whatever its window: ranking the window's
    three million columns took 1.5 s and 221 MB."""
    basis = tmp_path / "basis_empty.json"
    basis.write_text(json.dumps({"window": [0, 3000000], "vectors": []}))
    code, out, err = run(
        capsys, "verify", "--operator", vanish_r2, "--certificate", str(basis),
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"command": "verify", "kind": "kernel_basis", "valid": True}


def test_integers_of_any_length_are_written_and_read(tmp_path):
    """x(n) = 10**(100 n) solves x(n + 1) = 10**100 x(n) on [0, 50]: its last
    entry has 5001 digits, past the 4300 that Python converts to and from
    text by default.  A fresh interpreter has that default."""
    op = tmp_path / "op_powers.json"
    write_canonical(op, operator_to_json(OperatorSpec((
        FiniteTable(0, [-10**100] * 50), FiniteTable(0, [1] * 50),
    ))))
    basis = tmp_path / "basis.json"
    kernel = ("kernel", "--operator", str(op), "--window", "0:50")
    proc = run_process(*kernel, "--out", str(basis))
    assert (proc.returncode, proc.stderr) == (0, "")
    vectors = json.loads(basis.read_text())["vectors"]
    assert vectors == [[f"{10 ** (100 * n)}/1" for n in range(51)]]
    proc = run_process("verify", "--operator", str(op), "--certificate", str(basis))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["valid"] is True
    proc = run_process(*kernel, "--format", "text")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("kernel dimension 1 on window [0, 50]\n")


def test_verify_tampered_certificate(capsys, vanish_r2, tmp_path):
    cert_file = tmp_path / "cert.json"
    run(capsys, "certify", "--operator", vanish_r2, "--k", "3",
        "--budget", "100", "--out", str(cert_file))
    data = json.loads(cert_file.read_text())
    # move a solution onto a multiple of 3 inside the certificate window,
    # where it is no solution (counting oracle: multiples of r+1 are not free)
    lo, hi = data["window"]
    data["solutions"][0]["anchor"] = next(n for n in range(lo, hi + 1) if n % 3 == 0)
    write_canonical(cert_file, data)
    code, out, err = run(
        capsys, "verify", "--operator", vanish_r2, "--certificate", str(cert_file),
    )
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_output_is_deterministic(capsys, vanish_r2):
    args = ("certify", "--operator", vanish_r2, "--k", "10", "--budget", "100")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert (code_a, out_a) == (code_b, out_b)


def test_text_format(capsys, vanish_r2, geometric_r2):
    code, out, err = run(
        capsys, "split", "--operator", vanish_r2, "--sequence", geometric_r2,
        "--window", "0:1000", "--format", "text",
    )
    assert code == 0
    assert "8 independent pieces" in out
    code, out, err = run(
        capsys, "certify", "--operator", vanish_r2, "--k", "5", "--format", "text",
    )
    assert code == 0
    assert "dimension >= 5" in out


def test_corpus_manifest_and_entry(capsys, tmp_path):
    code, out, err = run(capsys, "corpus")
    assert code == 0
    names = [e["name"] for e in json.loads(out)["entries"]]
    assert "vanish_on_multiples_r2" in names and "fibonacci" in names

    code, out, err = run(capsys, "corpus", "vanish_on_multiples_r2")
    assert code == 0
    entry = json.loads(out)
    # the emitted operator JSON is directly reusable as an --operator file
    op_file = tmp_path / "op_from_corpus.json"
    write_canonical(op_file, entry["operator"])
    seq_file = tmp_path / "seq_from_corpus.json"
    write_canonical(seq_file, entry["sequence"])
    code, out, err = run(
        capsys, "check", "--operator", str(op_file), "--sequence", str(seq_file),
        "--window", "0:50",
    )
    assert code == 0


def test_corpus_unknown_name(capsys):
    code, out, err = run(capsys, "corpus", "nope")
    assert code == 1
    assert out == ""
    assert err == (
        "error: no corpus entry named 'nope'; known entries: vanish_on_multiples_r1, "
        "vanish_on_multiples_r2, vanish_on_multiples_r3, fibonacci, zero_operator\n"
    )


def test_usage_errors_exit_1(capsys, vanish_r2, geometric_r2):
    cases = [
        ("check", "--operator", vanish_r2, "--sequence", geometric_r2,
         "--window", "zero:ten"),
        ("kernel", "--operator", vanish_r2, "--window", "5"),
        ("certify", "--operator", vanish_r2, "--k", "0"),
        ("certify", "--operator", vanish_r2, "--k", "3", "--budget", "-1"),
        ("frobnicate",),
        (),
    ]
    for argv in cases:
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1, argv
        assert "usage error:" in captured.err, argv


# The options of each command besides --format and --out, as the reference
# parser in tests/oracles.py builds them; the starred ones are optional.
COMMAND_OPTIONS = {
    "check": ("--operator", "--sequence", "--window"),
    "kernel": ("--operator", "--window"),
    "certify": ("--operator", "--k", "--budget*"),
    "split": ("--operator", "--sequence", "--window"),
    "build": ("--operator", "--gap", "--budget*"),
    "verify": ("--operator", "--certificate"),
    "corpus": (),
}
# no "-": a value that starts with one is an option to the reference parser
WORDS = st.text(alphabet="abz_./:=019 ", min_size=1, max_size=8)
INTS = st.integers(min_value=-10**6, max_value=10**6).map(str)
OPTION_VALUES = {
    "--window": st.tuples(INTS, INTS).map(":".join),
    "--k": INTS,
    "--gap": INTS,
    "--budget": INTS,
    "--format": st.sampled_from(["json", "text"]),
}
REFERENCE_PARSER = build_parser()


@st.composite
def valid_argv(draw):
    """A valid command line: options in any order, spaced or joined by '='."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    groups = []
    for option in COMMAND_OPTIONS[command] + ("--format*", "--out*"):
        name = option.rstrip("*")
        if name != option and not draw(st.booleans()):
            continue
        value = draw(OPTION_VALUES.get(name, WORDS))
        groups.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])
    if command == "corpus" and draw(st.booleans()):
        groups.append([draw(WORDS)])
    return [command] + [token for group in draw(st.permutations(groups)) for token in group]


@settings(max_examples=300, deadline=None)
@given(valid_argv())
@example(["kernel", "--window", "-50:50", "--operator", "op.json"])
@example(["build", "--budget", "-1", "--gap=-3", "--operator", "op.json"])
@example(["corpus", "--format", "text", "fibonacci", "--out", "o.txt"])
@example(["corpus"])
def test_parse_matches_the_reference_parser(argv):
    assert vars(_parse_args(argv)) == vars(REFERENCE_PARSER.parse_args(argv))


BAD_ARGV = {
    "no command": [],
    "unknown command": ["frobnicate", "--operator", "op.json"],
    "option before the command": ["--operator", "op.json", "kernel", "--window", "0:4"],
    "unknown option": ["kernel", "--operator", "op.json", "--window", "0:4", "--bogus", "1"],
    "short option": ["certify", "--operator", "op.json", "-k", "3"],
    "short option for corpus": ["corpus", "-x"],
    "missing value": ["kernel", "--window", "0:4", "--operator"],
    "missing value of an optional": ["kernel", "--window", "0:4", "--operator", "op.json", "--out"],
    "missing required option": ["kernel", "--operator", "op.json"],
    "missing command option": ["certify", "--operator", "op.json", "--budget", "5"],
    "bad int": ["certify", "--operator", "op.json", "--k", "two"],
    "bad int after '='": ["build", "--operator", "op.json", "--gap=1.5"],
    "bad format": ["kernel", "--operator", "op.json", "--window", "0:4", "--format", "yaml"],
    "stray positional": ["kernel", "extra", "--operator", "op.json", "--window", "0:4"],
    "two corpus names": ["corpus", "fibonacci", "zero_operator"],
    # the two narrowings: the argparse parser took an abbreviation, and the
    # last of a repeated option
    "abbreviated option": ["kernel", "--oper", "op.json", "--window", "0:4"],
    "repeated option": ["kernel", "--operator", "a.json", "--window", "0:4", "--operator=b.json"],
    "repeated int option": ["certify", "--operator", "op.json", "--k", "3", "--k", "4"],
    "repeated corpus format": ["corpus", "--format", "json", "--format", "text"],
}
NARROWED = {"abbreviated option", "repeated option", "repeated int option", "repeated corpus format"}


@pytest.mark.parametrize("argv", BAD_ARGV.values(), ids=BAD_ARGV.keys())
def test_bad_command_lines_exit_1_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# int() reads an underscore, surrounding spaces and non-ASCII digits; the command line does not
@pytest.mark.parametrize("argv,message", [
    (("kernel", "--window", "0:1_0"), "window bounds must be integers, got '0:1_0'"),
    (("kernel", "--window", " 0: 10"), "window bounds must be integers, got ' 0: 10'"),
    (("kernel", "--window", "0:10 "), "window bounds must be integers, got '0:10 '"),
    (("kernel", "--window", "\u0660:\u0661\u0660"),
     "window bounds must be integers, got '\u0660:\u0661\u0660'"),
    (("certify", "--k", "1_0"), "--k must be an integer, got '1_0'"),
    (("certify", "--k", "3", "--budget", " 2_0"), "--budget must be an integer, got ' 2_0'"),
    (("build", "--gap=\u0663"), "--gap must be an integer, got '\u0663'"),
])
def test_integers_are_ascii_digits_only(capsys, vanish_r2, argv, message):
    code, out, err = run(capsys, argv[0], "--operator", vanish_r2, *argv[1:])
    assert (code, out, err) == (1, "", f"usage error: {message}\n")


def test_signed_integers_still_read(capsys, vanish_r2):
    for window, bounds in (("-50:50", [-50, 50]), ("+0:10", [0, 10]), ("-0:+007", [0, 7])):
        code, out, _ = run(capsys, "kernel", "--operator", vanish_r2, "--window", window)
        assert code == 0 and json.loads(out)["window"] == bounds
    code, out, _ = run(capsys, "certify", "--operator", vanish_r2, "--k", "+2", "--budget", "+020")
    cert = json.loads(out)
    assert code == 0 and cert["k"] == 2 and cert["window"][0] == -20  # the sweep starts at -budget


def test_the_narrowings_were_accepted_by_the_reference_parser():
    for case in NARROWED:
        REFERENCE_PARSER.parse_args(BAD_ARGV[case])
    for case in BAD_ARGV.keys() - NARROWED:
        with pytest.raises(UsageError):
            REFERENCE_PARSER.parse_args(BAD_ARGV[case])


def test_help_lists_every_command_and_option():
    def lacunary(*argv):
        proc = run_process(*argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout

    # the help is built from the option table, which holds these
    assert list(_COMMANDS) == list(COMMAND_OPTIONS)
    assert list(_COMMANDS["kernel"][2]) == list(COMMAND_OPTIONS["kernel"])
    program = lacunary("-h")
    assert [c for c in COMMAND_OPTIONS if f"\n  {c} " not in program] == []
    kernel = lacunary("kernel", "--help")
    assert kernel.startswith("usage: lacunary kernel ")
    assert [o for o in ("--operator", "--window", "--format", "--out") if o not in kernel] == []


UNOPENABLE = {"a directory": ("", errno.EISDIR), "a missing directory": ("no/x.json", errno.ENOENT)}


@pytest.mark.parametrize("out, code", UNOPENABLE.values(), ids=UNOPENABLE.keys())
def test_unopenable_out_exits_1_one_line(capsys, fibonacci, tmp_path, out, code):
    path = str(tmp_path / out)
    result = run(capsys, "kernel", "--operator", fibonacci, "--window", "0:4", "--out", path)
    assert result == (1, "", f"error: [Errno {code}] {os.strerror(code)}: {path!r}\n")


def test_empty_out_is_an_error_not_stdout(capsys, fibonacci):
    # an unset variable in a scripted --out "$OUT" must not dump the output
    for argv in (("--out=",), ("--out", "")):
        result = run(capsys, "kernel", "--operator", fibonacci, "--window", "0:2", *argv)
        assert result == (1, "", "error: [Errno 2] No such file or directory: ''\n")


# a small output fails at the closing flush, a large one during the dump
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("window", ["0:4", "0:300"])
def test_full_disk_exits_1_one_line(vanish_r2, window):
    with open("/dev/full", "w") as full:
        proc = run_process("kernel", "--operator", vanish_r2, "--window", window, stdout=full)
    full_disk = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert (proc.returncode, proc.stderr) == (1, full_disk)


def test_writing_holds_no_copy_of_the_output(vanish_r2, tmp_path):
    """The output streams into its file, so the peak of a run that writes a
    dense basis stays below the size of what it writes: building the text as
    one string first peaked at seven times that size."""
    out = tmp_path / "basis.json"
    tracemalloc.start()
    try:
        code = main(["kernel", "--operator", vanish_r2, "--window", "0:300", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < out.stat().st_size


def test_missing_and_malformed_files(capsys, tmp_path, vanish_r2):
    code, out, err = run(
        capsys, "kernel", "--operator", str(tmp_path / "absent.json"),
        "--window", "0:4",
    )
    assert code == 1
    assert "error:" in err

    mangled = tmp_path / "mangled.json"
    mangled.write_text('{"order": 2,')
    code, out, err = run(capsys, "kernel", "--operator", str(mangled), "--window", "0:4")
    assert code == 1
    assert "mangled.json" in err

    # json's reader recurses once per level: too deep a nesting is an error
    # on one line, not a RecursionError traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code, out, err = run(capsys, "verify", "--operator", vanish_r2, "--certificate", str(deep))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {deep}: ") and err.count("\n") == 1


def test_duplicate_json_keys_exit_1_one_line(capsys, tmp_path, vanish_r2):
    # json's default reading keeps the later of two equal keys, silently
    # running on one of the two coefficients
    op = tmp_path / "duplicate_keys.json"
    op.write_text(
        '{"coeffs": [{"kind": "residue_poly", "modulus": 2,'
        ' "per_class": {"1": ["0/1"], "1": ["1/1"]}},'
        ' {"kind": "periodic", "period": 1, "values": ["1/1"]}]}'
    )
    code, out, err = run(capsys, "kernel", "--operator", str(op), "--window", "0:4")
    assert code == 1
    assert out == ""
    assert err == "error: duplicate key '1' in a JSON object\n"
    # of two repeated keys, the first to repeat is named
    cert = tmp_path / "two_repeats.json"
    cert.write_text('{"k": 1, "window": [1, 1], "window": [1, 1], "k": 1, "solutions": []}')
    code, out, err = run(capsys, "verify", "--operator", vanish_r2, "--certificate", str(cert))
    assert (code, out, err) == (1, "", "error: duplicate key 'window' in a JSON object\n")


def test_non_bool_flag_exit_1(capsys, tmp_path, vanish_r2):
    seq = tmp_path / "seq_string_flag.json"
    seq.write_text(json.dumps(
        {"kind": "geometric_support", "scale": 3, "allow_negative_m": "false"}
    ))
    code, out, err = run(
        capsys, "check", "--operator", vanish_r2, "--sequence", str(seq),
        "--window", "0:20",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "allow_negative_m" in err
    assert err.count("\n") == 1


MALFORMED = {
    "build": (
        {"coeffs": [{"kind": "periodic", "period": 1, "values": ["1e1000000000"]}]},
        None,
        None,
    ),
    "kernel": ({"coeffs": 5}, None, None),
    "verify": (None, None, {"window": [0, 2], "vectors": 5}),
    "check": (
        {"coeffs": [{"kind": "periodic", "period": 1, "values": ["1/0"]}]},
        None,
        None,
    ),
    # "1" and "01" name one residue class: one would overwrite the other
    "certify": (
        {"coeffs": [
            {"kind": "residue_poly", "modulus": 2, "per_class": {"1": ["0/1"], "01": ["1/1"]}},
            {"kind": "periodic", "period": 1, "values": ["1/1"]},
        ]},
        None,
        None,
    ),
}


@pytest.mark.parametrize("command", sorted(MALFORMED))
def test_malformed_json_exit_1_one_line(command):
    code, out, err = run_fuzzed(*MALFORMED[command], commands=(command,))[0]
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


ONE_POINT = {"anchor": 1, "values": ["1/1"]}
CONSTANT_ONE = {"kind": "periodic", "period": 1, "values": ["1/1"]}
# (command, file role, object name in the error line, a valid object of
# required keys only)
READERS = [
    ("kernel", "operator", "operator", {"coeffs": [CONSTANT_ONE]}),
    ("check", "sequence", "finite_table", {"kind": "finite_table", "anchor": 0, "values": ["1/1"]}),
    ("check", "sequence", "periodic", CONSTANT_ONE),
    ("check", "sequence", "residue_poly", {
        "kind": "residue_poly", "modulus": 3, "per_class": {"1": ["1/1"]},
    }),
    ("check", "sequence", "geometric_support", {"kind": "geometric_support", "scale": 3}),
    ("verify", "certificate", "dimension_certificate", {
        "kind": "dimension_certificate", "k": 1, "window": [1, 1], "solutions": [ONE_POINT],
    }),
    ("verify", "certificate", "partial_lacunary", {
        "kind": "partial_lacunary", "ray": "positive", "blocks": [ONE_POINT], "gap_profile": [],
    }),
    ("verify", "certificate", "split_result", {
        "kind": "split_result", "window": [0, 6], "pieces": [ONE_POINT],
    }),
    ("verify", "certificate", "kernel_basis", {"window": [1, 1], "vectors": [["1/1"]]}),
]
MISSING_KEYS = [
    (command, role, name, {k: v for k, v in obj.items() if k != key}, key)
    for command, role, name, obj in READERS
    for key in obj
    if key != "kind"
] + [
    # a finite solution inside a certificate
    ("verify", "certificate", "finite solution", {
        "kind": "dimension_certificate", "k": 1, "window": [1, 1], "solutions": [piece],
    }, key)
    for key, piece in (("anchor", {"values": ["1/1"]}), ("values", {"anchor": 1}))
]


@pytest.mark.parametrize(
    "command, role, name, data, key", MISSING_KEYS,
    ids=[f"{case[2].replace(' ', '_')}-{case[4]}" for case in MISSING_KEYS],
)
def test_missing_key_names_key_and_object(command, role, name, data, key):
    given_values = {"operator": None, "sequence": None, "certificate": None, role: data}
    code, out, err = run_fuzzed(**given_values, commands=(command,))[0]
    assert code == 1
    assert out == ""
    assert err == f"error: {name} has no key {key!r}\n"


# unchecked, a misspelled optional key would silently take its default, and
# an extra certificate key would be ignored by a valid verdict
UNKNOWN_KEYS = [
    (command, role, name, {**obj, key: value}, key)
    for (command, role, name, obj), (key, value) in zip(
        READERS,
        [("ordr", 0), ("defualt", "1/1"), ("ofset", 1), ("per_classes", {}),
         ("allow_negativ_m", True)] + [("zzz", 1)] * 4,
        strict=True,
    )
] + [
    # in each list of finite solutions: on the first, read in full, and on a
    # later one whose table repeats an earlier one's, read through that table
    ("verify", "certificate", "finite solution", {**head, field: pieces}, "zzz")
    for field, head in (
        ("solutions", {"kind": "dimension_certificate", "k": 2, "window": [0, 10]}),
        ("blocks", {"kind": "partial_lacunary", "ray": "positive", "gap_profile": [3]}),
        ("pieces", {"kind": "split_result", "window": [0, 10]}),
    )
    for pieces in (
        [{**ONE_POINT, "zzz": 1}, {"anchor": 4, "values": ["1/1"]}],
        [ONE_POINT, {"anchor": 4, "values": ["1/1"], "zzz": 1}],
    )
]


@pytest.mark.parametrize(
    "command, role, name, data, key", UNKNOWN_KEYS, ids=[case[2] for case in UNKNOWN_KEYS],
)
def test_unknown_spec_or_operator_key_exit_1(command, role, name, data, key):
    given_values = {"operator": None, "sequence": None, "certificate": None, role: data}
    code, out, err = run_fuzzed(**given_values, commands=(command,))[0]
    assert code == 1
    assert out == ""
    assert err == f"error: {name} has unknown key {key!r}\n"


def _dimension(*solutions, **extra):
    return {
        "kind": "dimension_certificate", "k": len(solutions), "window": [0, 30],
        "solutions": list(solutions), **extra,
    }


def _partial(**fields):
    return {
        "kind": "partial_lacunary", "ray": "positive", "blocks": [ONE_POINT, ONE_POINT],
        "gap_profile": [3], **fields,
    }


# Malformed certificates, as text, and the error line `verify` gives: that of
# certificate_from_json(json.loads(text)) where the message is None.  The
# certificate loader decodes finite solutions while it parses, so each case
# puts a bad solution after a good one, or a solution object where none is read.
CERTIFICATE_ERRORS = {
    "bad rational in the 2nd solution": (
        _dimension(ONE_POINT, {"anchor": 4, "values": ["1/1", "1/x"]}), None),
    "untrimmed table": (_dimension(ONE_POINT, {"anchor": 4, "values": ["1/1", "0/1"]}), None),
    "empty table": (_dimension(ONE_POINT, {"anchor": 4, "values": []}), None),
    "bool anchor": (_dimension(ONE_POINT, {"anchor": True, "values": ["1/1"]}), None),
    "[true] after [1]": (
        _dimension({"anchor": 1, "values": [1]}, {"anchor": 4, "values": [True]}), None),
    "unknown key in a solution": (
        _dimension(ONE_POINT, {"anchor": 4, "values": ["1/1"], "zzz": 1}), None),
    "duplicate key in a solution": (
        '{"kind": "dimension_certificate", "k": 2, "window": [0, 30], "solutions": '
        '[{"anchor": 1, "values": ["1/1"]}, {"anchor": 4, "anchor": 4, "values": ["1/1"]}]}',
        "duplicate key 'anchor' in a JSON object"),
    "unknown top-level key beside a bad solution": (
        _dimension(ONE_POINT, {"anchor": 4, "values": ["x"]}, zzz=1), None),
    "overlapping solutions": (_dimension(ONE_POINT, ONE_POINT), None),
    "a solution as the certificate": (ONE_POINT, None),
    "a solution as the kind": (_dimension(ONE_POINT, kind=ONE_POINT), None),
    "a solution as k": (_dimension(ONE_POINT, k=ONE_POINT), None),
    "a solution as the window": (_dimension(ONE_POINT, window=ONE_POINT), None),
    "a solution as a window bound": (_dimension(ONE_POINT, window=[ONE_POINT, 30]), None),
    "a solution as a value": (_dimension({"anchor": 1, "values": [ONE_POINT]}), None),
    "a solution as the ray": (_partial(ray=ONE_POINT), None),
    "a solution as a gap": (_partial(gap_profile=[ONE_POINT]), None),
    "a solution as a kernel vector": ({"window": [1, 1], "vectors": [ONE_POINT]}, None),
    "a solution as a kernel entry": ({"window": [1, 1], "vectors": [[ONE_POINT]]}, None),
    # a dense basis is trimmed vector by vector as it is read: the window,
    # which sorts after the vectors, is checked only once all are read
    "a short 1st vector before a bad entry in the 2nd": (
        {"vectors": [["1/1", "0/1"], ["1/1", "x", "0/1"]], "window": [0, 2]}, None),
    "a zero vector": ({"window": [0, 1], "vectors": [["1/1", "0/1"], ["0/1", "0/1"]]}, None),
    "a non-list among the vectors": ({"vectors": [["1/1", "0/1"], 5], "window": [0, 1]}, None),
    "a nested-list entry": ({"vectors": [["1/1", ["0/1"]]], "window": [0, 1]}, None),
    "duplicate vectors": (
        '{"vectors": [["1/1", "0/1"]], "window": [0, 1], "vectors": [["0/1", "1/1"]]}',
        "duplicate key 'vectors' in a JSON object"),
    "empty vectors beside a bad window": ({"vectors": [], "window": [0, "1"]}, None),
    "trailing data": ('{"vectors": [["1/1", "0/1"]], "window": [0, 1]} []', None),
    # a split's keys are read in the order pieces, window; each piece is an
    # object of exactly anchor and values
    "no pieces beside a bad window": (
        {"kind": "split_result", "window": "garbage"}, "split_result has no key 'pieces'"),
    "a number as a piece": (
        {"kind": "split_result", "window": [0, 10], "pieces": [ONE_POINT, 5]},
        "finite solution JSON must be an object"),
    "a kind in a piece": (
        {"kind": "split_result", "window": [0, 10],
         "pieces": [ONE_POINT, {"kind": "split_result", "anchor": 4, "values": ["1/1"]}]},
        "finite solution has unknown key 'kind'"),
    # the walk finds no ':' after a key, and the plain read reports the JSON error
    "no colon after a key": ('{"kind" "dimension_certificate"}', None),
    "a number as the solutions": (
        {"kind": "dimension_certificate", "k": 1, "window": [0, 30], "solutions": 5}, None),
}


@pytest.mark.parametrize(
    "data, message", CERTIFICATE_ERRORS.values(), ids=list(CERTIFICATE_ERRORS),
)
def test_verify_reports_what_reading_the_plain_json_raises(
    capsys, tmp_path, vanish_r2, data, message,
):
    text = data if isinstance(data, str) else json.dumps(data)
    path = tmp_path / "certificate.json"
    path.write_text(text)
    if message is None:
        with pytest.raises(ValueError) as caught:
            certificate_from_json(json.loads(text))
        message = str(caught.value)
        if isinstance(caught.value, json.JSONDecodeError):  # a read error names the file
            message = f"{path}: {message}"
    code, out, err = run(capsys, "verify", "--operator", vanish_r2, "--certificate", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


# an operator's keys are read before its coefficients, and its declared
# order is checked against them last
OPERATOR_ERRORS = {
    "a kind": ({"kind": "x", "coeffs": []}, "operator has unknown key 'kind'"),
    "no coeffs beside a bad order": ({"order": "x"}, "operator has no key 'coeffs'"),
    "a wrong order": (
        {"order": 3, "coeffs": [CONSTANT_ONE]}, "declared order 3 does not match 1 coefficients"),
    "no coefficients": ({"coeffs": []}, "an operator needs at least one coefficient"),
    "per_class a list": (
        {"coeffs": [{"kind": "residue_poly", "modulus": 2, "per_class": [1]}]},
        "per_class must be a JSON object, got [1]"),
}


@pytest.mark.parametrize("data, message", OPERATOR_ERRORS.values(), ids=list(OPERATOR_ERRORS))
def test_operator_errors_keep_their_reading_order(capsys, tmp_path, data, message):
    path = tmp_path / "operator.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "kernel", "--operator", str(path), "--window", "0:4")
    assert (code, out, err) == (1, "", f"error: {message}\n")


BAD_OPERATOR_LINE = "error: operator has unknown key 'kind'"
BAD_SEQUENCE_LINE = "error: unknown sequence kind: 'nope'"
EMPTY_WINDOW_LINE = "usage error: empty window: lo=5 > hi=3"

# Each command's inputs are read in one order: the files, --operator first,
# then --window, then --k or --gap, then --budget.  Each row gives two bad
# inputs and the error line of the one read first, or one bad input and its line.
READ_ORDER = {
    "check: operator before sequence": (
        ("check", "--window", "0:4", "--sequence", "{bad_sequence}",
         "--operator", "{bad_operator}"),
        BAD_OPERATOR_LINE),
    "check: sequence before window": (
        ("check", "--window", "5:3", "--sequence", "{bad_sequence}", "--operator", "{operator}"),
        BAD_SEQUENCE_LINE),
    "check: an empty window": (
        ("check", "--window", "5:3", "--sequence", "{sequence}", "--operator", "{operator}"),
        EMPTY_WINDOW_LINE),
    "kernel: operator before window": (
        ("kernel", "--window", "5:3", "--operator", "{bad_operator}"), BAD_OPERATOR_LINE),
    "kernel: an empty window": (
        ("kernel", "--window", "5:3", "--operator", "{operator}"), EMPTY_WINDOW_LINE),
    "certify: operator before k": (
        ("certify", "--k", "0", "--operator", "{bad_operator}"), BAD_OPERATOR_LINE),
    "certify: k before budget": (
        ("certify", "--budget", "0", "--k", "0", "--operator", "{operator}"),
        "usage error: --k must be positive, got 0"),
    "split: operator before window": (
        ("split", "--window", "5:3", "--sequence", "{sequence}", "--operator", "{bad_operator}"),
        BAD_OPERATOR_LINE),
    "split: sequence before window": (
        ("split", "--window", "5:3", "--sequence", "{bad_sequence}", "--operator", "{operator}"),
        BAD_SEQUENCE_LINE),
    "build: operator before gap": (
        ("build", "--gap", "0", "--operator", "{bad_operator}"), BAD_OPERATOR_LINE),
    "build: gap before budget": (
        ("build", "--budget", "0", "--gap", "0", "--operator", "{operator}"),
        "usage error: --gap must be positive, got 0"),
    "verify: operator before certificate": (
        ("verify", "--certificate", "{bad_certificate}", "--operator", "{bad_operator}"),
        BAD_OPERATOR_LINE),
}


@pytest.mark.parametrize("argv, line", READ_ORDER.values(), ids=list(READ_ORDER))
def test_each_command_reports_the_first_bad_input_it_reads(
    capsys, tmp_path, vanish_r2, geometric_r2, argv, line,
):
    files = {"operator": vanish_r2, "sequence": geometric_r2}
    for name, data in [("bad_operator", {"kind": "x", "coeffs": []}),
                       ("bad_sequence", {"kind": "nope"}), ("bad_certificate", {"kind": "nope"})]:
        files[name] = str(tmp_path / f"{name}.json")
        write_canonical(files[name], data)
    code, out, err = run(capsys, *(arg.format(**files) for arg in argv))
    assert (code, out, err) == (1, "", line + "\n")


# a command that reads the file each flag names
FILE_FLAGS = {
    "--operator": ("kernel", "--window", "0:4"),
    "--sequence": ("check", "--operator", "{operator}", "--window", "0:4"),
    "--certificate": ("verify", "--operator", "{operator}"),
}


# the start of a certificate, longer than the pieces it is read in
LONG_PREFIX = (
    '{"kind": "dimension_certificate", "k": 5000, "window": [0, 15000], "solutions": ['
    + "".join(f'{{"anchor": {3 * i + 1}, "values": ["1/1"]}}, ' for i in range(5000))
).encode()


@pytest.mark.parametrize("prefix", [b"", LONG_PREFIX], ids=["first byte", "past a piece"])
@pytest.mark.parametrize("flag", FILE_FLAGS)
def test_a_file_that_is_not_utf8_is_named_in_its_error(capsys, tmp_path, vanish_r2, flag, prefix):
    path = tmp_path / "input.json"
    path.write_bytes(prefix + b"\xff\xfe{}")
    argv = [arg.format(operator=vanish_r2) for arg in FILE_FLAGS[flag]]
    code, out, err = run(capsys, *argv, flag, str(path))
    assert (code, out) == (1, "")
    assert err == (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position {len(prefix)}: "
        "invalid start byte\n"
    )


def test_operator_and_sequence_files_keep_solution_objects_as_dicts(capsys, tmp_path, vanish_r2):
    cases = [
        ("sequence", ONE_POINT, "unknown sequence kind: None"),
        ("sequence", {"kind": "finite_table", "anchor": 0, "values": [ONE_POINT]},
         "expected a rational string 'p/q', got {'anchor': 1, 'values': ['1/1']}"),
        ("operator", {"coeffs": ONE_POINT},
         "coeffs must be a list, got {'anchor': 1, 'values': ['1/1']}"),
        ("operator", {"coeffs": [ONE_POINT]}, "unknown sequence kind: None"),
    ]
    for role, data, message in cases:
        path = tmp_path / f"{role}.json"
        path.write_text(json.dumps(data))
        files = {"operator": vanish_r2, "sequence": vanish_r2, role: str(path)}
        code, out, err = run(
            capsys, "check", "--operator", files["operator"], "--sequence", files["sequence"],
            "--window", "0:4",
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")


VALID = {
    "operator": operator_to_json(vanish_on_multiples_operator(2)),
    "sequence": to_json(geometric_lacunary_sequence(2)),
    "certificate": {
        "kind": "dimension_certificate",
        "k": 1,
        "window": [1, 1],
        "solutions": [{"anchor": 1, "values": ["1/1"]}],
    },
}

FUZZ_ARGS = {
    "check": ("--sequence", "{sequence}", "--window", "0:6"),
    "kernel": ("--window", "0:6"),
    "certify": ("--k", "2", "--budget", "6"),
    "split": ("--sequence", "{sequence}", "--window", "0:6"),
    "build": ("--gap", "2", "--budget", "6"),
    "verify": ("--certificate", "{certificate}"),
}


def run_fuzzed(operator, sequence, certificate, commands=tuple(FUZZ_ARGS)):
    """Run subcommands on the given JSON values (None: a valid stand-in)."""
    given_values = {"operator": operator, "sequence": sequence, "certificate": certificate}
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, value in given_values.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(VALID[name] if value is None else value, fh)
        for command in commands:
            argv = [command, "--operator", paths["operator"]]
            argv += [a.format(**paths) for a in FUZZ_ARGS[command]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
    return results


JSON_KEYS = st.sampled_from([
    "kind", "coeffs", "order", "values", "anchor", "default", "period", "offset",
    "modulus", "per_class", "scale", "shift", "value", "allow_negative_m",
    "window", "vectors", "k", "solutions", "blocks", "gap_profile", "ray", "pieces",
]) | st.text(max_size=4)
JSON_STRINGS = st.sampled_from([
    "finite_table", "periodic", "residue_poly", "geometric_support",
    "dimension_certificate", "partial_lacunary", "split_result", "positive",
    "1/1", "-2/3", "0/1", "1/0", "0", "1", "x",
]) | st.text(max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-8, max_value=8) | st.integers()
    | JSON_STRINGS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_KEYS, children, max_size=5),
    max_leaves=16,
)
maybe_valid = st.none() | json_values


@settings(max_examples=60, deadline=None)
@given(maybe_valid, maybe_valid, maybe_valid)
@example(*MALFORMED["build"])
@example(*MALFORMED["kernel"])
@example(*MALFORMED["verify"])
@example(*MALFORMED["check"])
@example(*MALFORMED["certify"])
@example(None, None, {"kind": ["x"]})
def test_arbitrary_json_never_escapes(operator, sequence, certificate):
    for code, out, err in run_fuzzed(operator, sequence, certificate):
        assert code in (0, 1, 2)
        assert err.count("\n") <= 1
