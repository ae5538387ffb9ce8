"""End-to-end command line runs, in process, over temp files."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from lacunary.cli import main
from lacunary.corpus import (
    fibonacci_operator,
    geometric_lacunary_sequence,
    vanish_on_multiples_operator,
)
from lacunary.jsonio import dumps_canonical, operator_to_json, sequence_to_json


@pytest.fixture
def vanish_r2(tmp_path):
    path = tmp_path / "op_vanish_r2.json"
    path.write_text(dumps_canonical(operator_to_json(vanish_on_multiples_operator(2))))
    return str(path)


@pytest.fixture
def fibonacci(tmp_path):
    path = tmp_path / "op_fibonacci.json"
    path.write_text(dumps_canonical(operator_to_json(fibonacci_operator())))
    return str(path)


@pytest.fixture
def geometric_r2(tmp_path):
    path = tmp_path / "seq_geometric_r2.json"
    path.write_text(dumps_canonical(sequence_to_json(geometric_lacunary_sequence(2))))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    op.write_text(dumps_canonical(operator_to_json(vanish_on_multiples_operator(1))))
    spaced = run(capsys, "kernel", "--operator", str(op), "--window", "-50:50")
    joined = run(capsys, "kernel", "--operator", str(op), "--window=-50:50")
    assert spaced[0] == 0
    assert spaced == joined


def test_check_failure_exit_code(capsys, fibonacci, tmp_path):
    bad = tmp_path / "seq_bad.json"
    bad.write_text(dumps_canonical({
        "kind": "finite_table", "anchor": 0,
        "values": ["1/1", "1/1", "2/1", "3/1", "6/1"],
    }))
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


def test_split_max_pieces(capsys, vanish_r2, geometric_r2):
    code, out, err = run(
        capsys, "split", "--operator", vanish_r2, "--sequence", geometric_r2,
        "--window", "0:1000", "--max-pieces", "3",
    )
    assert code == 0
    assert len(json.loads(out)["pieces"]) == 3


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


def test_verify_tampered_certificate(capsys, vanish_r2, tmp_path):
    cert_file = tmp_path / "cert.json"
    run(capsys, "certify", "--operator", vanish_r2, "--k", "3",
        "--budget", "100", "--out", str(cert_file))
    data = json.loads(cert_file.read_text())
    # move a solution onto a multiple of 3 inside the certificate window,
    # where it is no solution (counting oracle: multiples of r+1 are not free)
    lo, hi = data["window"]
    data["solutions"][0]["anchor"] = next(n for n in range(lo, hi + 1) if n % 3 == 0)
    cert_file.write_text(dumps_canonical(data))
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
    op_file.write_text(dumps_canonical(entry["operator"]))
    seq_file = tmp_path / "seq_from_corpus.json"
    seq_file.write_text(dumps_canonical(entry["sequence"]))
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


def test_duplicate_json_keys_exit_1_one_line(capsys, tmp_path):
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


# unchecked, a misspelled optional key would silently take its default
UNKNOWN_KEYS = [
    (command, role, name, {**obj, key: value}, key)
    for (command, role, name, obj), (key, value) in zip(
        READERS[:5],
        [("ordr", 0), ("defualt", "1/1"), ("ofset", 1), ("per_classes", {}),
         ("allow_negativ_m", True)],
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


VALID = {
    "operator": operator_to_json(vanish_on_multiples_operator(2)),
    "sequence": sequence_to_json(geometric_lacunary_sequence(2)),
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
