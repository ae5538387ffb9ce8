"""Round trips and canonical forms for the file formats."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from lacunary import (
    DimensionCertificate,
    FiniteSolution,
    FiniteTable,
    GeometricSupport,
    Inconclusive,
    PartialLacunarySolution,
    Periodic,
    ResiduePolynomial,
    Window,
    build_lacunary,
    certify_dimension,
    finite_support_kernel,
    split_lacunary,
)
from lacunary.corpus import (
    fibonacci_operator,
    geometric_lacunary_sequence,
    vanish_on_multiples_operator,
)
from lacunary.jsonio import (
    certificate_from_json,
    dumps_canonical,
    finite_solution_from_json,
    finite_solution_to_json,
    format_rational,
    kernel_basis_to_json,
    dimension_certificate_to_json,
    inconclusive_to_json,
    operator_from_json,
    operator_to_json,
    parse_rational,
    partial_lacunary_to_json,
    sequence_from_json,
    sequence_to_json,
    split_result_to_json,
)

from .strategies import sequence_specs


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
    assert parse_rational("4/6") is parse_rational("4/6")


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
        data = sequence_to_json(spec)
        assert sequence_from_json(data) == spec
        # canonical text is stable across a decode/encode cycle
        assert dumps_canonical(sequence_to_json(sequence_from_json(data))) == (
            dumps_canonical(data)
        )


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
    assert sequence_from_json(sequence_to_json(spec)) == spec


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
    with pytest.raises(ValueError):
        operator_from_json({"order": 2})


def test_finite_solution_round_trip():
    x = FiniteSolution(-4, (Fraction(1), Fraction(0), Fraction(-3, 7)))
    assert finite_solution_from_json(finite_solution_to_json(x)) == x
    with pytest.raises(ValueError):
        finite_solution_from_json({"anchor": 0, "values": ["0/1"]})


def test_kernel_basis_round_trip():
    kb = finite_support_kernel(vanish_on_multiples_operator(2), Window(0, 12))
    data = kernel_basis_to_json(kb)
    assert data["window"] == [0, 12]
    assert certificate_from_json(data) == ("kernel_basis", kb)
    # the dense rows are the solutions padded with zeros across the window
    assert all(len(vec) == 13 for vec in data["vectors"])
    assert data["vectors"][0] == ["0/1", "1/1"] + ["0/1"] * 11


def test_kernel_basis_from_json_rejections():
    with pytest.raises(ValueError):
        certificate_from_json({"window": [0, 2], "vectors": [["1/1", "0/1"]]})
    with pytest.raises(ValueError):
        certificate_from_json({"window": [0, 2], "vectors": [["0/1", "0/1", "0/1"]]})
    kind, kb = certificate_from_json({"window": [3, 5], "vectors": [["0/1", "2/1", "0/1"]]})
    assert kind == "kernel_basis"
    assert kb.solutions == (FiniteSolution(4, (Fraction(2),)),)


def test_certificate_round_trip():
    cert = certify_dimension(vanish_on_multiples_operator(2), 5, 100)
    assert isinstance(cert, DimensionCertificate)
    data = dimension_certificate_to_json(cert)
    assert data["kind"] == "dimension_certificate"
    assert certificate_from_json(data) == ("dimension_certificate", cert)


def test_partial_lacunary_round_trip():
    out = build_lacunary(vanish_on_multiples_operator(2), 10, 200)
    assert isinstance(out, PartialLacunarySolution)
    data = partial_lacunary_to_json(out)
    assert data["kind"] == "partial_lacunary"
    assert certificate_from_json(data) == ("partial_lacunary", out)


def test_inconclusive_to_json_fields():
    out = certify_dimension(fibonacci_operator(), 1, 50)
    assert isinstance(out, Inconclusive)
    data = inconclusive_to_json(out)
    assert data["kind"] == "inconclusive"
    assert data["best_kernel_dim"] == 0
    assert "best_gap" not in data
    assert isinstance(data["reason"], str) and data["reason"]


def test_certificate_from_json_rejections():
    with pytest.raises(ValueError, match="unknown certificate kind"):
        certificate_from_json({"kind": "wat"})
    with pytest.raises(ValueError, match="unrecognized certificate JSON shape"):
        certificate_from_json({"window": [0, 1]})
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
    data = split_result_to_json(w, pieces)
    assert data["kind"] == "split_result"
    assert certificate_from_json(data) == ("split_result", DimensionCertificate(8, w, pieces))
    assert certificate_from_json(split_result_to_json(w, [])) == ("split_result", None)
    piece = finite_solution_to_json(pieces[0])
    for bad in (
        {"window": "garbage", "pieces": [piece]},
        {"window": [0, 1], "pieces": [piece]},  # the piece lies at 4..7
        {"window": [0, 1000], "pieces": [piece, piece]},
    ):
        with pytest.raises(ValueError):
            certificate_from_json({"kind": "split_result", **bad})


def test_dumps_canonical_is_byte_stable():
    a = dumps_canonical({"b": 1, "a": [1, 2]})
    b = dumps_canonical({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
