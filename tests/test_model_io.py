"""Document parsing, canonical serialisation, the reference family, sweeps."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontext.errors import (
    DuplicatePointError,
    MalformedDocumentError,
    PartialAssignmentError,
    QOutOfRangeError,
    WeightSumNotOneError,
)
from qcontext.hilbert import is_double_stochastic, transition_matrix
from qcontext.model_io import (
    canonical_json,
    emit_report,
    format_float,
    format_rational,
    kq_model,
    parse_model,
    serialize_model,
    sweep,
)
from qcontext.prob import (
    MAX_DECIMAL_EXPONENT,
    as_fraction,
    probability,
    variables_incompatible,
)


MINIMAL = """
{
  "points": [
    {"id": "u", "weight": "1/3"},
    {"id": "v", "weight": 0.25},
    {"id": "w", "weight": "1/6"},
    {"id": "x", "weight": "1/4"}
  ],
  "variables": {
    "a": {"values": [1, -1], "assignment": {"u": 1, "v": 1, "w": 2, "x": 2}},
    "b": {"values": ["1/2", "-1/2"], "assignment": {"u": 1, "v": 2, "w": 1, "x": 2}}
  }
}
"""


class TestParse:
    def test_decimal_and_rational_literals_are_exact(self):
        spec = parse_model(MINIMAL)
        assert spec.space.weights["u"] == Fraction(1, 3)
        assert spec.space.weights["v"] == Fraction(1, 4)
        assert spec.variables["b"].values == (Fraction(1, 2), Fraction(-1, 2))

    def test_round_trip_is_byte_identical(self):
        canonical = serialize_model(parse_model(MINIMAL))
        assert serialize_model(parse_model(canonical)) == canonical

    def test_weight_sum_error(self):
        bad = MINIMAL.replace('"1/6"', '"1/7"')
        with pytest.raises(WeightSumNotOneError):
            parse_model(bad)

    def test_duplicate_point_error(self):
        bad = MINIMAL.replace('"id": "v"', '"id": "u"')
        with pytest.raises(DuplicatePointError):
            parse_model(bad)

    def test_partial_assignment_error(self):
        doc = json.loads(MINIMAL)
        del doc["variables"]["a"]["assignment"]["x"]
        with pytest.raises(PartialAssignmentError):
            parse_model(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(MalformedDocumentError, match="JSON"):
            parse_model("{nope")

    def test_bad_assignment_index(self):
        doc = json.loads(MINIMAL)
        doc["variables"]["a"]["assignment"]["u"] = 3
        with pytest.raises(MalformedDocumentError, match="1 or 2"):
            parse_model(json.dumps(doc))

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_assignment_index_rejected(self, flag):
        # JSON true equals the int 1 in Python, so it must be refused by type.
        doc = json.loads(MINIMAL)
        doc["variables"]["a"]["assignment"]["u"] = flag
        with pytest.raises(MalformedDocumentError, match="1 or 2"):
            parse_model(json.dumps(doc))

    def test_integer_literal_beyond_the_digit_limit(self):
        bad = MINIMAL.replace('"1/3"', "1" + "0" * 5000, 1)
        with pytest.raises(MalformedDocumentError) as info:
            parse_model(bad)
        message = str(info.value)
        assert "4300-digit limit" in message and len(message) < 120
        assert "set_int_max_str_digits" not in message

    def test_context_with_unknown_point(self):
        doc = json.loads(MINIMAL)
        doc["contexts"] = [["u", "zz"]]
        with pytest.raises(MalformedDocumentError, match="unknown point"):
            parse_model(json.dumps(doc))

    def test_negative_weight_rejected(self):
        doc = json.loads(MINIMAL)
        doc["points"][0]["weight"] = "-1/3"
        doc["points"][1]["weight"] = "11/12"
        with pytest.raises(MalformedDocumentError, match="positive"):
            parse_model(json.dumps(doc))

    def test_equal_values_rejected(self):
        doc = json.loads(MINIMAL)
        doc["variables"]["a"]["values"] = [2, 2]
        with pytest.raises(MalformedDocumentError, match="distinct"):
            parse_model(json.dumps(doc))


class TestDecimalExponentBound:
    def test_literals_within_the_bound_are_exact(self):
        assert as_fraction("1e-400") == Fraction(1, 10**400)
        assert as_fraction(f"1e-{MAX_DECIMAL_EXPONENT}") == Fraction(
            1, 10**MAX_DECIMAL_EXPONENT
        )
        assert as_fraction(" 25E-2 ") == Fraction(1, 4)
        assert as_fraction("1_0e0_1") == Fraction(100)
        assert as_fraction("3/8") == Fraction(3, 8)

    @pytest.mark.parametrize(
        "literal", ["1e-4301", "1E+4301", "1e43_01", "1e-4000000", "1e" + "9" * 5000]
    )
    def test_larger_exponents_are_rejected(self, literal):
        with pytest.raises(MalformedDocumentError, match="exponent"):
            as_fraction(literal)

    def test_a_long_literal_is_quoted_in_short(self):
        with pytest.raises(MalformedDocumentError) as info:
            as_fraction("1" * 5000 + "e-5000")
        assert len(str(info.value)) < 120 and "(5006 characters)" in str(info.value)

    def test_document_weight_with_a_huge_exponent(self):
        bad = MINIMAL.replace("0.25", "1e-5000")
        with pytest.raises(MalformedDocumentError, match="weight of 'v'.*exponent"):
            parse_model(bad)

    def test_sweep_parameter_with_a_huge_exponent(self):
        with pytest.raises(MalformedDocumentError, match="exponent"):
            sweep(["1/4", "1e-4000000"])


class TestReferenceFamily:
    def test_quarter_parameter(self):
        spec = kq_model(Fraction(1, 4))
        assert all(w == Fraction(1, 4) for w in spec.space.weights.values())
        trans = transition_matrix(
            spec.space, spec.variables["a"], spec.variables["b"]
        )
        assert trans.entries == (
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 2)),
        )

    def test_eighth_parameter_weights(self):
        spec = kq_model(Fraction(1, 8))
        got = [spec.space.weights[p] for p in spec.space.points]
        assert got == [
            Fraction(1, 8),
            Fraction(3, 8),
            Fraction(1, 8),
            Fraction(3, 8),
        ]

    def test_out_of_range(self):
        for bad in (Fraction(0), Fraction(1, 2), Fraction(-1, 4), Fraction(2, 3)):
            with pytest.raises(QOutOfRangeError):
                kq_model(bad)

    @given(
        st.fractions(
            min_value=Fraction(1, 1000),
            max_value=Fraction(499, 1000),
            max_denominator=1000,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_family_invariants_hold_for_every_parameter(self, q):
        spec = kq_model(q)
        space = spec.space
        a, b = spec.variables["a"], spec.variables["b"]
        assert sum(space.weights.values()) == 1
        assert variables_incompatible(space, a, b)
        for var in (a, b):
            for idx in (1, 2):
                assert probability(space, var.cell(space, idx)) == Fraction(1, 2)
        assert is_double_stochastic(transition_matrix(space, a, b))

    def test_round_trips_canonically(self):
        canonical = serialize_model(kq_model(Fraction(1, 4)))
        assert serialize_model(parse_model(canonical)) == canonical


class TestSweep:
    def test_endpoint_phases(self):
        result = sweep(["1/100", "1/4", "49/100"])
        rows = {row.q: row for row in result.rows}
        assert abs(rows[Fraction(1, 100)].theta_second - math.pi / 3) < 0.01
        assert abs(rows[Fraction(49, 100)].theta_second - math.pi / 2) < 0.08
        assert result.theta_monotone
        # Tighter parameters approach the limiting angles.
        fine = {row.q: row for row in sweep(["1/10000", "4999/10000"]).rows}
        assert abs(fine[Fraction(1, 10000)].theta_second - math.pi / 3) < 1e-4
        assert abs(fine[Fraction(4999, 10000)].theta_second - math.pi / 2) < 1e-2

    def test_single_parameter(self):
        result = sweep([Fraction(1, 8)])
        assert len(result.rows) == 1
        assert result.rows[0].distinct_states == 9
        assert result.theta_monotone

    def test_monotone_on_dense_grid(self):
        grid = [Fraction(k, 40) for k in range(1, 20)]
        assert sweep(grid).theta_monotone

    def test_out_of_range_parameter(self):
        with pytest.raises(QOutOfRangeError):
            sweep(["3/4"])


class TestEmission:
    def test_json_determinism(self):
        spec = kq_model(Fraction(1, 4))
        bundle = {"kind": "model", "model": json.loads(serialize_model(spec))}
        assert emit_report(bundle) == emit_report(bundle)

    def test_float_formatting(self):
        assert format_float(math.pi) == "3.1415926535897931"
        assert format_float(0.5) == "0.5"
        assert format_float(-0.0) == "0"

    def test_fraction_and_complex_normalisation(self):
        text = canonical_json(
            {"ratio": Fraction(3, 7), "amp": complex(0.5, -0.25)}
        )
        doc = json.loads(text)
        assert doc == {"ratio": "3/7", "amp": ["0.5", "-0.25"]}
        assert text.endswith("\n")

    def test_distribution_csv_header(self):
        bundle = {
            "kind": "distribution",
            "distributions": [
                {
                    "label": "demo",
                    "entries": [(Fraction(-2), Fraction(1, 7)), (0.5, 0.25)],
                }
            ],
        }
        text = emit_report(bundle, "csv")
        assert text.splitlines()[0] == "value,probability"
        assert "-2,1/7" in text

    @pytest.mark.parametrize(
        "value",
        [
            Fraction(0),
            Fraction(-2),
            Fraction(3, 7),
            Fraction(-1, 10**400),
            Fraction(2**61 - 1, 3),
        ],
    )
    def test_rational_formatting_is_str(self, value):
        assert format_rational(value) == str(value)

    def test_rational_formatting_beyond_the_digit_limit(self):
        digits = 9000
        value = Fraction(-(10**digits - 1), 10**digits)
        assert format_rational(value) == "-" + "9" * digits + "/1" + "0" * digits
        assert format_rational(Fraction(10**digits)) == "1" + "0" * digits
        assert "9" * digits in canonical_json({"ratio": value})

    def test_parsing_keeps_the_digit_limit(self):
        text = serialize_model(kq_model("1e-4300"))
        with pytest.raises(MalformedDocumentError, match="bad rational literal"):
            parse_model(text)

    def test_an_unparsable_literal_is_quoted_in_short(self):
        # w1 weighs "1/1" followed by 4300 zeros: one digit past the limit.
        with pytest.raises(MalformedDocumentError) as info:
            parse_model(serialize_model(kq_model("1e-4300")))
        message = str(info.value)
        assert len(message) < 120
        assert "'1/1000" in message and "(4303 characters)" in message

    def test_round_trip_within_the_digit_limit(self):
        text = serialize_model(kq_model("1e-4200"))
        assert serialize_model(parse_model(text)) == text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report({"kind": "distribution", "distributions": []}, "xml")
