"""Round trips and canonical forms for the file formats."""

import gc
import io
import json
import os
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lacunary import (
    DimensionCertificate,
    FiniteSolution,
    FiniteTable,
    GeometricSupport,
    Inconclusive,
    PartialLacunarySolution,
    Periodic,
    ResiduePolynomial,
    SplitResult,
    Window,
    build_lacunary,
    certify_dimension,
    finite_support_kernel,
    split_lacunary,
    verify_dimension_certificate,
    verify_kernel_basis,
)
from lacunary import corpus, jsonio
from lacunary.cli import main
from lacunary.corpus import (
    fibonacci_operator,
    geometric_lacunary_sequence,
    vanish_on_multiples_operator,
)
from lacunary.jsonio import (
    certificate_from_json,
    dump_canonical,
    format_rational,
    operator_from_json,
    operator_to_json,
    parse_rational,
    sequence_from_json,
    to_json,
)

from .oracles import per_entry_certificate
from .strategies import (
    dimension_certificates,
    partial_lacunary_solutions,
    sequence_specs,
)


def canonical(data) -> str:
    fh = io.StringIO()
    dump_canonical(data, fh)
    return fh.getvalue()


def test_format_rational_canonical():
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(5)) == "5/1"
    assert format_rational(Fraction(2, -4)) == "-1/2"


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational("+2/6") == Fraction(1, 3)
    assert parse_rational("0/1") == 0
    with pytest.raises(ValueError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational(0.5)
    with pytest.raises(ValueError):
        parse_rational(None)
    # only "p/q" and "p" in ASCII digits: no decimals, blanks, underscores,
    # exponents, signed denominators or other digit scripts
    for text in ("0.5", " 1/2 ", "1/2\n", "1_000", "1e3", "1e1000000000",
                 "3/-4", "1/+2", "\uff11", "", "/2", "1/"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_parse_rational_cache_keeps_every_rejection():
    assert parse_rational(1) == 1
    with pytest.raises(ValueError):
        parse_rational(True)
    assert parse_rational("1") == 1
    with pytest.raises(ValueError):
        parse_rational(True)
    for _ in range(3):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("1/0")
        with pytest.raises(ValueError, match="expected a rational"):
            parse_rational(" 1/2")


def test_parse_rational_cache_past_its_bound():
    texts = [f"{p}/{q}" for p in range(-60, 61) for q in range(1, 21)]
    for _ in range(2):
        for text in texts:
            value = parse_rational(text)
            assert value == Fraction(text) and type(value) is Fraction


@pytest.mark.parametrize(
    "keys", [["01"], [" 1"], ["+1"], ["1_0"], ["\u0663"], ["-1"], ["3"], [""], [1], ["1", "01"]]
)
def test_residue_poly_class_keys_must_be_canonical_and_below_modulus(keys):
    # "1" and "01" would name one class, the later key silently winning
    per_class = {key: [f"{i + 1}/1"] for i, key in enumerate(keys)}
    data = {"kind": "residue_poly", "modulus": 3, "per_class": per_class}
    with pytest.raises(ValueError, match="residue class key"):
        sequence_from_json(data)


@pytest.mark.parametrize("modulus", [0, -3])
def test_residue_poly_modulus_is_checked_before_its_keys(modulus):
    # the key bound [0, modulus) is empty here: the modulus is what is wrong
    data = {"kind": "residue_poly", "modulus": modulus, "per_class": {"1": ["1/1"]}}
    with pytest.raises(ValueError, match="modulus must be positive"):
        sequence_from_json(data)


def test_residue_poly_modulus_is_read_before_per_class():
    # fields are read in their order, so a bad modulus is reported before a bad per_class
    data = {"kind": "residue_poly", "modulus": 1.5, "per_class": 7}
    with pytest.raises(ValueError) as caught:
        sequence_from_json(data)
    assert str(caught.value) == "modulus must be an integer, got 1.5"


def test_every_field_of_every_tagged_kind_has_a_reader():
    assert len(set(jsonio._KINDS.values())) == len(jsonio._KINDS)
    for cls in jsonio._KINDS:
        assert set(cls._fields) <= jsonio._FIELDS.keys(), cls.__name__


def test_sequence_round_trips_by_hand():
    specs = [
        FiniteTable(-3, (Fraction(1), Fraction(0), Fraction(-2, 3))),
        FiniteTable(0, (Fraction(1),), default=Fraction(7)),
        Periodic(3, (Fraction(1), Fraction(0), Fraction(2)), offset=1),
        ResiduePolynomial(4, {1: (Fraction(1), Fraction(1, 2)), 3: (Fraction(-1),)}),
        GeometricSupport(3, 1, Fraction(1)),
        GeometricSupport(12, 0, Fraction(2, 5), allow_negative_m=True),
    ]
    for spec in specs:
        data = to_json(spec)
        assert sequence_from_json(data) == spec
        # canonical text is stable across a decode/encode cycle
        assert canonical(to_json(sequence_from_json(data))) == canonical(data)


def test_sequence_json_defaults():
    table = sequence_from_json(
        {"kind": "finite_table", "anchor": 0, "values": ["1/1"]}
    )
    assert table.default == 0
    geo = sequence_from_json({"kind": "geometric_support", "scale": 2})
    assert geo.shift == 0 and geo.value == 1 and not geo.allow_negative_m
    with pytest.raises(ValueError):
        sequence_from_json({"kind": "mystery"})
    with pytest.raises(ValueError):
        sequence_from_json(["finite_table"])


def test_sequence_json_rejects_non_bool_flag():
    for flag in ("false", "true", 0, 1, None):
        with pytest.raises(ValueError, match="allow_negative_m"):
            sequence_from_json(
                {"kind": "geometric_support", "scale": 2, "allow_negative_m": flag}
            )
    geo = sequence_from_json(
        {"kind": "geometric_support", "scale": 2, "allow_negative_m": True}
    )
    assert geo.allow_negative_m


@settings(max_examples=60, deadline=None)
@given(sequence_specs)
def test_sequence_round_trip_property(spec):
    assert sequence_from_json(to_json(spec)) == spec


def test_operator_round_trip_and_order_check():
    op = vanish_on_multiples_operator(2)
    data = operator_to_json(op)
    assert data["order"] == 2
    assert operator_from_json(data) == op
    data["order"] = 3
    with pytest.raises(ValueError):
        operator_from_json(data)
    del data["order"]
    assert operator_from_json(data) == op
    # optional, but like every other optional key never null
    with pytest.raises(ValueError, match="order"):
        operator_from_json({**data, "order": None})
    with pytest.raises(ValueError):
        operator_from_json({"order": 2})


def test_finite_solution_round_trip():
    x = FiniteSolution(-4, (Fraction(1), Fraction(0), Fraction(-3, 7)))
    assert jsonio._finite_solutions([to_json(x)], "solutions") == (x,)
    with pytest.raises(ValueError):
        jsonio._finite_solutions([{"anchor": 0, "values": ["0/1"]}], "solutions")


def test_kernel_basis_round_trip():
    kb = finite_support_kernel(vanish_on_multiples_operator(2), Window(0, 12))
    data = to_json(kb)
    assert data["window"] == [0, 12]
    assert certificate_from_json(data) == ("kernel_basis", kb)
    # the dense rows are the solutions padded with zeros across the window
    assert all(len(vec) == 13 for vec in data["vectors"])
    assert data["vectors"][0] == ["0/1", "1/1"] + ["0/1"] * 11


@pytest.mark.parametrize("entry", corpus.entries(), ids=lambda e: e.name)
def test_to_json_writes_a_kernel_basis_that_reads_back(entry):
    for window in (Window(0, 5), Window(-9, 30)):
        kb = finite_support_kernel(entry.operator, window)
        dense = [[format_rational(s.value_at(n)) for n in window.indices()] for s in kb.solutions]
        assert to_json(kb) == {"window": [window.lo, window.hi], "vectors": dense}
        assert certificate_from_json(to_json(kb)) == ("kernel_basis", kb)


def test_kernel_basis_from_json_rejections():
    with pytest.raises(ValueError):
        certificate_from_json({"window": [0, 2], "vectors": [["1/1", "0/1"]]})
    with pytest.raises(ValueError):
        certificate_from_json({"window": [0, 2], "vectors": [["0/1", "0/1", "0/1"]]})
    kind, kb = certificate_from_json({"window": [3, 5], "vectors": [["0/1", "2/1", "0/1"]]})
    assert kind == "kernel_basis"
    assert kb.solutions == (FiniteSolution(4, (Fraction(2),)),)
    # each distinct string is parsed once, but the first bad entry is the one reported
    for vec, message in (
        (["0/1", "a", "1/0", "b", "c", "a"], "got 'a'"),
        (["0/1", "1/0", "a", "b", "c"], "zero denominator in rational '1/0'"),
        ([1, "0/1", True, "a"], "got True"),
    ):
        with pytest.raises(ValueError, match=message):
            certificate_from_json({"window": [0, len(vec) - 1], "vectors": [vec]})
    _, kb = certificate_from_json({"window": [0, 3], "vectors": [[0, "2/4", 1, "0/1"]]})
    assert kb.solutions == (FiniteSolution(1, (Fraction(1, 2), Fraction(1))),)


def test_certificate_round_trip():
    cert = certify_dimension(vanish_on_multiples_operator(2), 5, 100)
    assert isinstance(cert, DimensionCertificate)
    data = to_json(cert)
    assert data["kind"] == "dimension_certificate"
    assert certificate_from_json(data) == ("dimension_certificate", cert)


def test_partial_lacunary_round_trip():
    out = build_lacunary(vanish_on_multiples_operator(2), 10, 200)
    assert isinstance(out, PartialLacunarySolution)
    data = to_json(out)
    assert data["kind"] == "partial_lacunary"
    assert certificate_from_json(data) == ("partial_lacunary", out)


# sizes in bytes of the pieces a certificate file is read in: tiny ones put
# a boundary inside nearly every token
PIECES = [1, 3, 16, jsonio._PIECE]


def load_text(text, piece=jsonio._PIECE, read=jsonio._load_certificate):
    """read(path) of a file holding text, which it reads `piece` bytes at a time."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "certificate.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with mock.patch.object(jsonio, "_PIECE", piece):
            return read(path)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(dimension_certificates(), partial_lacunary_solutions()), st.booleans(),
    st.sampled_from(PIECES),
)
def test_certificate_round_trip_property(cert, as_split, piece):
    data = to_json(cert)
    if as_split and isinstance(cert, DimensionCertificate):
        data = to_json(SplitResult(cert.solutions, cert.window))
    assert certificate_from_json(data) == (data["kind"], cert)
    text = canonical(data)
    assert certificate_from_json(json.loads(text)) == (data["kind"], cert)
    with mock.patch.object(jsonio, "_load_json", side_effect=AssertionError("read again")):
        assert load_text(text, piece) == (data["kind"], cert)


# texts whose tokens a piece boundary may split: numbers (12|3, 1.|5, 1e|5
# and -|1, each as a member and as an element), true and null, keys, a
# string with escapes and one with a character of two bytes
BOUNDARY_TEXTS = [
    '{"k": 123, "window": [0, 123]}',
    '{"a": 1.5, "b": [2, 1.5]}',
    '{"a": 1e5, "b": [1e5]}',
    '{"a": -1, "window": [-1, 0]}',
    '{"a": true, "b": [true, false]}',
    '{"a": null, "b": [null]}',
    r'{"wi\u006edow": ["a\"\u00e9\n"], "reason": "\\"}',
    '{"reason": "\u00e9t\u00e9", "b": []}',
]


def test_a_piece_boundary_inside_any_token_reads_as_the_whole_text():
    for text in BOUNDARY_TEXTS:
        for piece in range(1, len(text.encode()) + 1):  # the first boundary at every byte
            assert load_text(text, piece, jsonio._walk_certificate) == json.loads(text)
    # integers longer than a piece, past the 4300 digits Python converts by default
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = '{"window": [0, %d], "k": %d}' % (9 ** 5240, 7 ** 5100)
        for piece in PIECES:
            assert load_text(text, piece, jsonio._walk_certificate) == json.loads(text)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("solution", [
    '{"anchor": 4, "anchor": 4, "values": ["1/1"]}',
    '{"anchor": 4, "anchor": 4}',
    '{"values": ["1/1"], "values": ["1/1"]}',
    '{"values": ["1/1"], "anchor": 4, "values": ["1/1"]}',
])
def test_a_repeated_key_in_a_solution_is_rejected_wherever_the_pieces_end(solution):
    text = (
        '{"kind": "dimension_certificate", "k": 2, "window": [0, 30], "solutions": '
        f'[{{"anchor": 1, "values": ["1/1"]}}, {solution}]}}'
    )
    for piece in PIECES:
        with pytest.raises(ValueError, match="^duplicate key '(anchor|values)' in a JSON object$"):
            load_text(text, piece)


def _nodes(data, path=()):
    """The path of every node of a JSON tree, the root's included."""
    yield path
    if isinstance(data, (dict, list)):
        for key, child in data.items() if isinstance(data, dict) else enumerate(data):
            yield from _nodes(child, (*path, key))


# objects of an anchor and a values list, in either key order: finite
# solutions, or almost; they may land anywhere in a certificate
solution_objects = st.builds(
    lambda anchor, values, flip: {"values": values, "anchor": anchor} if flip
    else {"anchor": anchor, "values": values},
    st.integers(min_value=-3, max_value=40) | st.booleans(),
    st.lists(st.sampled_from(["1/1", "0/1", "-1/2", "2/2", "x", 1, True, 1.0]), max_size=3),
    st.booleans(),
)


@st.composite
def dense_bases(draw):
    """A dense kernel basis's JSON, "window" first or last: vectors as long
    as the window, some of them zero."""
    lo, size = draw(st.integers(-3, 3)), draw(st.integers(1, 4))
    entry = st.sampled_from(["0/1", "0/1", "1/1", "-1/2"])
    vectors = draw(st.lists(st.lists(entry, min_size=size, max_size=size), max_size=3))
    window = [lo, lo + size - 1]
    if draw(st.booleans()):
        return {"window": window, "vectors": vectors}
    return {"vectors": vectors, "window": window}


@st.composite
def tampered_certificates(draw):
    """A certificate's JSON with up to three nodes replaced, by a solution
    object or a plain value."""
    data = draw(st.one_of(
        dimension_certificates().map(to_json), partial_lacunary_solutions().map(to_json),
        dimension_certificates().map(lambda c: to_json(SplitResult(c.solutions, c.window))),
        dense_bases(),
    ))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        path = draw(st.sampled_from(list(_nodes(data))))
        new = draw(
            solution_objects | st.none() | st.integers(-3, 3) | st.just("1/1")
            | st.just([["1/1", "0/1"]])  # read as a dense basis's vectors are, wherever it is
        )
        if not path:
            data = new
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = new
    return data


# json.dumps keywords: the default layout, the compact one, and the bench's
LAYOUTS = [{}, {"separators": (",", ":")}, {"indent": 2, "sort_keys": True}]


@settings(max_examples=150, deadline=None)
@given(tampered_certificates(), st.sampled_from(LAYOUTS), st.sampled_from(PIECES))
def test_certificate_loader_matches_the_plain_reader(data, layout, piece):
    def outcome(read):
        try:
            return read()
        except ValueError as e:
            return str(e)

    text = json.dumps(data, **layout)
    assert outcome(lambda: load_text(text, piece)) == outcome(
        lambda: certificate_from_json(json.loads(text))
    )


def unit_solutions_file(path, n):
    """The path of a dimension certificate of n unit solutions, written with indent=2."""
    free = [i for i in range(1, 3 * n) if i % 3][:n]  # vanish_on_multiples_r2 leaves these free
    path.write_text(json.dumps({
        "kind": "dimension_certificate", "k": n, "window": [0, free[-1] + 1],
        "solutions": [{"anchor": i, "values": ["1/1"]} for i in free],
    }, indent=2))
    return str(path)


def test_loading_and_verifying_a_certificate_file_costs_less_than_its_tree(tmp_path):
    """The peak of loading, reading and verifying a certificate file of unit
    solutions: 442 bytes per solution when the file is parsed into a tree of
    dicts first, 161 when each solution object is decoded as it is parsed
    from the whole text (76 bytes per solution), 101 when the file is read
    in pieces and its text is never held whole."""
    n = 20_000
    path = unit_solutions_file(tmp_path / "certificate.json", n)
    op = vanish_on_multiples_operator(2)
    tracemalloc.start()
    try:
        kind, cert = jsonio._load_certificate(path)
        assert kind == "dimension_certificate" and verify_dimension_certificate(op, cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 125 * n


def test_reading_a_certificate_file_runs_one_python_function_per_solution(tmp_path):
    """Counted by sys.setprofile, with no timing: the one Python function
    that runs per solution object is the hook that decodes it.  A piece that
    ends inside an object adds one more, the __init__ of the JSONDecodeError
    that the decoder raises there.  The collector is off while counting, as
    a callback it runs (hypothesis installs one) would count too."""
    def calls_and_pieces(n):
        path = unit_solutions_file(tmp_path / f"certificate_{n}.json", n)
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call"

        before, collecting = sys.getprofile(), gc.isenabled()
        gc.disable()
        sys.setprofile(profile)
        try:
            kind, cert = jsonio._load_certificate(path)
        finally:
            sys.setprofile(before)
            if collecting:
                gc.enable()
        assert (kind, len(cert.solutions)) == ("dimension_certificate", n)
        return count, -(-os.path.getsize(path) // jsonio._PIECE)

    (calls, pieces), (more_calls, more_pieces) = calls_and_pieces(1000), calls_and_pieces(2000)
    assert more_pieces > pieces
    assert more_calls - calls <= 1000 + (more_pieces - pieces)


def unit_basis_text(**layout):
    """The consume workload's dense kernel basis of vanish_on_multiples_r2 on
    [0, 300], one unit vector per column off the multiples of 3, as
    bench/workloads.py writes it but in the given json.dumps layout."""
    return json.dumps({
        "window": [0, 300],
        "vectors": [["1/1" if j == c else "0/1" for j in range(301)] for c in range(301) if c % 3],
    }, **layout) + "\n"


def test_certificate_loader_trims_kernel_vectors_without_a_second_read(tmp_path, monkeypatch):
    operator, kernel = tmp_path / "operator.json", tmp_path / "kernel.json"
    operator.write_text(json.dumps(operator_to_json(
        corpus.get_entry("vanish_on_multiples_r2").operator)))
    argv = ["kernel", "--operator", str(operator), "--window", "0:300", "--out", str(kernel)]
    assert main(argv) == 0
    texts = [
        kernel.read_text(),
        unit_basis_text(indent=2, sort_keys=True),
        unit_basis_text(separators=(",", ":")),
        '{"vectors": [], "window": [0, 1]}',
    ]

    def second_read(*args):
        raise AssertionError("the certificate was read again as plain JSON")

    expected = [certificate_from_json(json.loads(text)) for text in texts]
    monkeypatch.setattr(jsonio, "_load_json", second_read)
    for piece in PIECES:
        assert [load_text(text, piece) for text in texts] == expected
    assert [len(cert.solutions) for _, cert in expected] == [200, 200, 200, 0]


def test_loading_and_verifying_a_dense_kernel_basis_costs_about_its_text(tmp_path):
    """The peak of loading and verifying the consume workload's dense basis
    (785 056 bytes): 5.6 times the file when the vectors are parsed into
    lists before any is trimmed, 2.0 when each is trimmed as soon as it is
    parsed from the whole text, 0.45 when the file is read in pieces."""
    path = tmp_path / "kernel_basis.json"
    path.write_text(unit_basis_text(indent=2, sort_keys=True))
    op = vanish_on_multiples_operator(2)
    tracemalloc.start()
    try:
        kind, basis = jsonio._load_certificate(str(path))
        assert kind == "kernel_basis" and verify_kernel_basis(op, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * path.stat().st_size


def test_inconclusive_to_json_fields():
    out = certify_dimension(fibonacci_operator(), 1, 50)
    assert isinstance(out, Inconclusive)
    data = to_json(out)
    assert data["kind"] == "inconclusive"
    assert data["best_kernel_dim"] == 0
    assert "best_gap" not in data
    assert isinstance(data["reason"], str) and data["reason"]


def test_certificate_from_json_rejections():
    with pytest.raises(ValueError, match="unknown certificate kind"):
        certificate_from_json({"kind": "wat"})
    # an untagged object is read as a kernel basis, so a missing key is named
    with pytest.raises(ValueError, match="kernel_basis has no key 'vectors'"):
        certificate_from_json({"window": [0, 1]})
    with pytest.raises(ValueError, match="unrecognized certificate JSON shape"):
        certificate_from_json({})
    with pytest.raises(ValueError, match="expected a JSON object"):
        certificate_from_json(7)
    # a kind that is no string is an unknown kind, not a TypeError
    for data in ({"kind": ["x"]}, {"kind": 3}, {"kind": {}}):
        with pytest.raises(ValueError, match="unknown certificate kind"):
            certificate_from_json(data)
    with pytest.raises(ValueError, match="unrecognized certificate JSON shape"):
        certificate_from_json({"kind": None, "window": [0, 1]})


def test_split_result_reads_as_a_dimension_certificate():
    op, seq = vanish_on_multiples_operator(2), geometric_lacunary_sequence(2)
    w = Window(0, 1000)
    pieces = split_lacunary(op, seq, w)
    data = to_json(SplitResult(pieces, w))
    assert data["kind"] == "split_result"
    assert certificate_from_json(data) == ("split_result", DimensionCertificate(8, w, pieces))
    assert certificate_from_json(to_json(SplitResult([], w))) == ("split_result", None)
    piece = to_json(pieces[0])
    for bad in (
        {"window": "garbage", "pieces": [piece]},
        {"window": [0, 1], "pieces": [piece]},  # the piece lies at 4..7
        {"window": [0, 1000], "pieces": [piece, piece]},
    ):
        with pytest.raises(ValueError):
            certificate_from_json({"kind": "split_result", **bad})


def test_dump_canonical_is_byte_stable():
    a = canonical({"b": 1, "a": [1, 2]})
    b = canonical({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    # the bytes of the one-string encoder the command line used before
    kb = finite_support_kernel(vanish_on_multiples_operator(2), Window(0, 30))
    basis = to_json(kb)
    assert canonical(basis) == json.dumps(basis, indent=2, sort_keys=True) + "\n"


class CountingWrites(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_dump_canonical_writes_in_batches():
    # on an unbuffered stdout each write is a system call: json.dump makes
    # one per chunk, about 60 000 for this basis
    kb = finite_support_kernel(vanish_on_multiples_operator(2), Window(0, 300))
    basis = to_json(kb)
    fh = CountingWrites()
    dump_canonical(basis, fh)
    assert fh.getvalue() == json.dumps(basis, indent=2, sort_keys=True) + "\n"
    assert fh.writes <= len(fh.getvalue()) // 2000


SOLUTION_LIST_KINDS = ("dimension_certificate", "partial_lacunary", "split_result")


def _with_solutions(kind, tables):
    """A certificate of `kind` whose solutions hold `tables`, anchored at 1, 4, 10, ...

    The anchors miss the multiples of 3, so one-entry tables solve
    vanish_on_multiples_operator(2); the gaps 3, 6, 12 suit a partial.
    """
    anchors = [1, 4, 10, 22][: len(tables)]
    solutions = [{"anchor": a, "values": t} for a, t in zip(anchors, tables)]
    if kind == "dimension_certificate":
        return {"kind": kind, "k": len(solutions), "window": [0, 30], "solutions": solutions}
    if kind == "split_result":
        return {"kind": kind, "window": [0, 30], "pieces": solutions}
    gaps = [b - a for a, b in zip(anchors, anchors[1:])]
    return {"kind": kind, "ray": "positive", "blocks": solutions, "gap_profile": gaps}


def _verify(tmp_path, capsys, data):
    op = tmp_path / "op.json"
    with open(op, "w", encoding="utf-8") as fh:
        dump_canonical(operator_to_json(vanish_on_multiples_operator(2)), fh)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(data))
    code = main(["verify", "--operator", str(op), "--certificate", str(cert)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("kind", SOLUTION_LIST_KINDS)
@pytest.mark.parametrize(
    "good, bad, message",
    [
        (["1/1"], [True], "expected a rational string 'p/q', got True"),
        (["1/1"], [1.0], "expected a rational string 'p/q', got 1.0"),
        (["1/1"], ["1/0"], "zero denominator in rational '1/0'"),
        (["1/1"], [[1]], "expected a rational string 'p/q', got [1]"),
        (["1/1"], [], "empty value table"),
        # True == 1.0 == 1: a table of other entries than strings is never shared
        ([1], [True], "expected a rational string 'p/q', got True"),
        ([1], [1.0], "expected a rational string 'p/q', got 1.0"),
        # no list but what a list of strings turns into: never a table found
        (["1", "2"], "12", "values must be a list, got '12'"),
        (["1/1"], {"1/1": 1}, "values must be a list, got {'1/1': 1}"),
    ],
)
def test_a_bad_table_after_a_good_one_is_rejected(tmp_path, capsys, kind, good, bad, message):
    # the good table is parsed first and shared; the bad one must still be
    # read on its own, and reported before the later bad table ["x"]
    data = _with_solutions(kind, [good, bad, ["x"]])
    with pytest.raises(ValueError) as caught:
        certificate_from_json(data)
    assert str(caught.value) == message
    assert _verify(tmp_path, capsys, data) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("kind", SOLUTION_LIST_KINDS)
def test_equal_tables_read_alike_whatever_their_spelling(tmp_path, capsys, kind):
    data = _with_solutions(kind, [["1/1"], [1], ["2/2"], ["1/1"]])
    _, cert = certificate_from_json(data)
    solutions = cert.blocks if kind == "partial_lacunary" else cert.solutions
    assert [s.values for s in solutions] == [(Fraction(1),)] * 4
    code, out, err = _verify(tmp_path, capsys, data)
    assert (code, json.loads(out)["valid"], err) == (0, True, "")


SOLUTION_LIST_KEYS = {"dimension_certificate": "solutions", "split_result": "pieces",
                      "partial_lacunary": "blocks"}


@pytest.mark.parametrize("swapped", [{0, 1, 2}, {1}], ids=["all", "the 2nd"])
@pytest.mark.parametrize("kind", SOLUTION_LIST_KINDS)
def test_a_solution_written_values_first_reads_as_the_canonical_one(
    tmp_path, capsys, kind, swapped,
):
    # the loader decodes a solution only in the order to_json writes, anchor
    # then values; one written the other way is read in full, to the same value
    data = _with_solutions(kind, [["1/1"], ["1/1"], ["2/1"]])
    key = SOLUTION_LIST_KEYS[kind]
    other = {**data, key: [
        {"values": s["values"], "anchor": s["anchor"]} if i in swapped else s
        for i, s in enumerate(data[key])
    ]}
    text = json.dumps(other)
    assert text.count('{"values"') == len(swapped)
    assert load_text(text) == load_text(json.dumps(data)) == certificate_from_json(data)
    code, out, err = _verify(tmp_path, capsys, other)
    assert (code, json.loads(out)["valid"], err) == (0, True, "")


def test_reading_parses_each_distinct_table_once(monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return parse_rational(text)

    monkeypatch.setattr(jsonio, "parse_rational", counting)
    tables = (["1/1", "0/1", "-1/2"], ["2/3", "5/1", "7/1"])
    n = 1000
    data = {
        "kind": "dimension_certificate", "k": n, "window": [0, 4 * n],
        "solutions": [{"anchor": 4 * i, "values": tables[i % 2]} for i in range(n)],
    }
    _, cert = certificate_from_json(data)
    assert len(calls) <= 2 * 3 < n
    monkeypatch.undo()
    # each solution read on its own, with nothing shared between reads
    alone = (jsonio._finite_solutions([s], "solutions") for s in data["solutions"])
    assert cert.solutions == tuple(x for (x,) in alone)

    # a dense kernel vector parses each distinct string it holds once
    monkeypatch.setattr(jsonio, "parse_rational", counting)
    calls.clear()
    hi = 300
    vectors = [["0/1"] * c + ["1/1"] + ["0/1"] * (hi - c) for c in range(1, hi + 1)]
    _, kb = certificate_from_json({"window": [0, hi], "vectors": vectors})
    assert len(calls) <= 2 * len(vectors)
    assert kb.solutions == tuple(FiniteSolution(c, (Fraction(1),)) for c in range(1, hi + 1))


def test_reading_and_verifying_cost_per_distinct_table(monkeypatch):
    counts = {"__init__": 0, "__bool__": 0, "__hash__": 0}

    def counting(cls, name):
        original = getattr(cls, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(cls, name, counted)

    op = vanish_on_multiples_operator(2)
    r = op.order
    # supports 6j + 1 and {6j + 5, 6j + 8} miss the multiples of 3, and each other
    tables = (["1/1"], ["-1/2", "0/1", "0/1", "3/1"])
    length = max(map(len, tables))
    n = 1000
    data = {
        "kind": "dimension_certificate", "k": n, "window": [1, 3 * n + 2],
        "solutions": [{"anchor": 3 * i + 1 + i % 2, "values": tables[i % 2]} for i in range(n)],
    }
    counting(FiniteSolution, "__init__")
    counting(Fraction, "__bool__")
    counting(Fraction, "__hash__")
    _, cert = certificate_from_json(data)
    assert verify_dimension_certificate(op, cert)
    # per table: one checked table, one offset list, one hash and one residual
    # check, whose equations meet each entry at most (r + 1)^2 times
    assert counts["__init__"] <= len(tables)
    assert counts["__bool__"] <= 2 * len(tables) * length * (r + 1) ** 2 < n
    assert counts["__hash__"] <= len(tables) * length
    monkeypatch.undo()
    assert cert == per_entry_certificate(data)


def test_dense_vectors_are_trimmed_on_their_strings():
    lo = -2

    def read(*vectors):
        _, kb = certificate_from_json({"window": [lo, lo + 3], "vectors": list(vectors)})
        return kb.solutions

    half, two = Fraction(1, 2), Fraction(2)
    # zero is decided on the parsed strings, however zero is spelled
    assert read(["0/3", "2/4", "-0", "0/1"]) == (FiniteSolution(lo + 1, (half,)),)
    assert read(["2/1", "0/7", "-0/5", "1/2"]) == (FiniteSolution(lo, (two, 0, 0, half)),)
    # entries that are no strings are read each on its own, and trimmed alike
    assert read([0, "1/2", 0, 2]) == (FiniteSolution(lo + 1, (half, 0, two)),)
    # trimmed at either end, at both or at neither, at any anchor
    for at, vec, expected in (
        (0, [0, 2, 0], FiniteSolution(1, (two,))),
        (-3, [1, 0, 2], FiniteSolution(-3, (1, 0, 2))),
        (-3, [0, 0, 1, 0, 2, 0], FiniteSolution(-1, (1, 0, 2))),
    ):
        for spell in (str, int):
            data = {"window": [at, at + len(vec) - 1], "vectors": [list(map(spell, vec))]}
            assert certificate_from_json(data)[1].solutions == (expected,)
    # a bad entry, then a wrong length, then a zero vector
    for vectors, message in (
        ([["0/1", "x"]], "expected a rational string 'p/q', got 'x'"),
        ([["0/1", 0, True]], "expected a rational string 'p/q', got True"),
        ([["0/1", "1/1", "0/1"]], "kernel vector has 3 entries, window has 4"),
        ([[0, 1, 0, 0, 0]], "kernel vector has 5 entries, window has 4"),
        ([["1/1"] + ["0/1"] * 3, ["0/3", "-0", "0/1", "0/9"]], "zero vector in kernel basis"),
        ([[0, "0/1", 0, "-0"]], "zero vector in kernel basis"),
    ):
        with pytest.raises(ValueError) as caught:
            read(*vectors)
        assert str(caught.value) == message


# tables that parse, and tables that do not: equal values in other
# spellings, entries that are no strings (True == 1 == 1.0), untrimmed,
# empty and unhashable tables, and values that are no list at all
GOOD_TABLES = [["1/1"], ["2/2"], [1], ["-3/4", "0/1", "5/1"], ["-3/4", 0, "5"]]
BAD_TABLES = [
    ["1/1", "0/1"], ["0/1"], [], [True], [1.0], ["1/0"], [[1]], ["x"], [None], "1/1", {"1/1": 1},
]


@st.composite
def solution_lists(draw):
    """Solution objects anchored 10 apart, now and then malformed.

    Half of them open with a run of one table of strings, which the reader
    has stored by its second solution, and then a malformed item: one the
    stored table must not be used for.
    """
    items = []
    if draw(st.booleans()):
        good = draw(st.sampled_from([t for t in GOOD_TABLES if set(map(type, t)) == {str}]))
        run = draw(st.integers(min_value=1, max_value=4))
        items = [{"anchor": 10 * i + 1, "values": list(good)} for i in range(run)]
        anchor = 10 * run + 1
        items.append(draw(st.sampled_from([
            7,
            ["1/1"],
            {"anchor": True, "values": list(good)},
            {"anchor": False, "values": list(good)},
            {"anchor": anchor, "values": "".join(good)},
            {"anchor": anchor, "values": good[:-1] + [draw(st.sampled_from([3, True, 1.0]))]},
            {"anchor": anchor, "values": list(good) + ["0/1"]},
            {"anchor": anchor, "values": ["0/1"] + list(good)},
        ])))
    entries = st.sampled_from(["0/1", "1/1", "-1/2", "2/4", 3, "7", True, 1.0])
    tables = st.one_of(
        st.sampled_from(GOOD_TABLES * 3 + BAD_TABLES), st.lists(entries, max_size=4)
    )
    for i in range(len(items), len(items) + draw(st.integers(min_value=1, max_value=8))):
        item = {"anchor": 10 * i + 1, "values": draw(tables)}
        shape = draw(st.sampled_from(["ok"] * 12 + ["no anchor", "bad anchor", "no values", 7]))
        if shape == "no anchor":
            del item["anchor"]
        elif shape == "bad anchor":
            item["anchor"] = str(item["anchor"])
        elif shape == "no values":
            del item["values"]
        elif shape == 7:
            item = 7
        items.append(item)
    return items


@settings(max_examples=200, deadline=None)
@given(solution_lists())
def test_solution_reader_matches_the_per_entry_oracle(items):
    data = {
        "kind": "dimension_certificate", "k": len(items), "window": [0, 10 * len(items)],
        "solutions": items,
    }

    def outcome(read):
        try:
            return read()
        except ValueError as e:
            return str(e)

    assert outcome(lambda: certificate_from_json(data)[1]) == outcome(
        lambda: per_entry_certificate(data)
    )
