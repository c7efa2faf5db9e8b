"""Document parsing, canonical serialisation, the reference family, sweeps."""

import json
import math
from collections import Counter
from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontext import cli, interference, model_io
from qcontext.errors import (
    DuplicatePointError,
    ForeignPointError,
    MalformedDocumentError,
    PartialAssignmentError,
    QOutOfRangeError,
    WeightSumNotOneError,
)
from qcontext.hilbert import (
    ContextAtlas,
    StateVector,
    is_double_stochastic,
    transition_matrix,
)
from qcontext.interference import Classification
from qcontext.model_io import (
    SweepRow,
    canonical_json,
    emit_report,
    format_float,
    format_rational,
    kq_model,
    model_document,
    parse_model,
    serialize_model,
    sweep,
)
from qcontext.prob import (
    MAX_DECIMAL_EXPONENT,
    Event,
    as_fraction,
    probability,
    variables_incompatible,
)
from qcontext.record import Record
from qcontext.verify import CheckResult


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


LONG = "u" * 5000


def _long_doc() -> dict:
    """MINIMAL with point "u" renamed to a 5000-character id."""
    return json.loads(MINIMAL.replace('"u"', json.dumps(LONG)))


def _message(doc: dict) -> str:
    with pytest.raises(MalformedDocumentError) as info:
        parse_model(json.dumps(doc))
    return str(info.value)


class TestLongIdsAndNames:
    """Every error line quotes a long point id or variable name by its first
    40 characters and its length; short ones read as before."""

    def _short(self, message: str) -> None:
        assert len(message) < 200 and "(5000 characters)" in message

    def test_duplicate_point(self):
        doc = _long_doc()
        doc["points"][1]["id"] = LONG
        with pytest.raises(DuplicatePointError) as info:
            parse_model(json.dumps(doc))
        self._short(str(info.value))

    def test_unknown_point_in_an_assignment(self):
        doc = json.loads(MINIMAL)
        doc["variables"]["b"]["assignment"][LONG] = 1
        self._short(_message(doc))

    def test_partial_assignment(self):
        doc = _long_doc()
        del doc["variables"]["a"]["assignment"][LONG]
        self._short(_message(doc))

    def test_weight_of_a_long_point(self):
        for weight in ("-1/3", "x", True):
            doc = _long_doc()
            doc["points"][0]["weight"] = weight
            self._short(_message(doc))

    def test_assignment_index_at_a_long_point(self):
        doc = _long_doc()
        doc["variables"]["a"]["assignment"][LONG] = 3
        self._short(_message(doc))

    def test_context_with_a_long_unknown_point(self):
        doc = json.loads(MINIMAL)
        doc["contexts"] = [["v", LONG]]
        self._short(_message(doc))

    @pytest.mark.parametrize(
        "body",
        [
            "not an object",
            {"values": [1, -1]},
            {"values": [1], "assignment": {}},
            {"values": ["x", -1], "assignment": {}},
            {"values": [1, -1], "assignment": []},
            {"values": [1, 1], "assignment": {p: 1 for p in "uvwx"}},
            {"values": [1, -1], "assignment": {p: 1 for p in "uvwx"}},
            {"values": [1, -1], "assignment": {"u": 1, "v": 2}},
        ],
    )
    def test_long_variable_name(self, body):
        doc = json.loads(MINIMAL)
        doc["variables"]["a" * 5000] = body
        self._short(_message(doc))

    def test_foreign_point_of_an_event(self):
        space = parse_model(MINIMAL).space
        with pytest.raises(ForeignPointError) as info:
            space.event(["u", LONG])
        self._short(str(info.value))

    def test_short_ids_and_names_read_as_before(self):
        doc = json.loads(MINIMAL)
        doc["points"][1]["id"] = "u"
        with pytest.raises(DuplicatePointError) as info:
            parse_model(json.dumps(doc))
        assert str(info.value) == "duplicate point identifier 'u'"
        doc = json.loads(MINIMAL)
        del doc["variables"]["a"]["assignment"]["x"]
        assert _message(doc) == "variable 'a' leaves points ['x'] unassigned"
        doc = json.loads(MINIMAL)
        doc["variables"]["b"]["assignment"]["zz"] = 1
        assert _message(doc) == "assignment of 'b' names unknown point 'zz'"
        doc = json.loads(MINIMAL)
        doc["contexts"] = [["u", "zz"]]
        assert _message(doc) == "context ['u', 'zz'] names an unknown point"


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
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
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


# ------------------------------------------- the two-step writer as oracle


def reference_to_jsonable(obj):
    """Plain JSON values of ``obj``, as the writer normalised them before
    it wrote in one walk."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, complex):
        return [format_float(obj.real), format_float(obj.imag)]
    if isinstance(obj, Event):
        return list(obj.members)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, Record):
        fields = obj._jsonable()
        if isinstance(fields, dict):
            return {name: reference_to_jsonable(v) for name, v in fields.items()}
        return [reference_to_jsonable(v) for v in fields]
    if isinstance(obj, Mapping):
        return {reference_key(k): reference_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [reference_to_jsonable(v) for v in seq]
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def reference_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, Event):
        return key.label()
    if isinstance(key, Fraction):
        return format_rational(key)
    if isinstance(key, float):
        return format_float(key)
    if isinstance(key, tuple):
        return ",".join(reference_key(k) for k in key)
    return str(key)


def reference_json(obj) -> str:
    text = json.dumps(
        reference_to_jsonable(obj), sort_keys=True, indent=2, ensure_ascii=False
    )
    return text + "\n"


def _bundle(*argv: str) -> dict:
    args = cli.build_parser().parse_args(list(argv))
    if args.command == "sweep":
        return model_io.sweep_bundle(args)
    return model_io.model_bundle(args)


DATA = Path(__file__).parent / "data"
HYPERBOLIC = str(DATA / "hyperbolic_witness.json")
# A doubly stochastic 8-point model with equal atoms in three of its four
# cells: of its 225 contexts, 204 share one of 67 tables with another and
# 21 have a table of their own, and 12 have no amplitude.  Its point ids
# need escaping: a quote, a backslash, a newline, a control character, a
# tab and non-ASCII text.
SHARED = str(DATA / "shared_tables.json")
# The same model with the id "日本" renamed "日\x00本": the writer marks a
# slot of a shared row with a NUL, which no text it writes may hold.
SHARED_NUL = str(DATA / "shared_tables_nul.json")
SHARED_CONTEXT = "ctl\x01,line\nbreak,ünï"
BUNDLES = {
    "analysis": ("analyze", "--kq", "1/4"),
    "analysis-hyperbolic": ("analyze", "--model", HYPERBOLIC),
    "representation": ("represent", "--kq", "1/8"),
    "operators": ("operators", "--kq", "3/8"),
    "distribution": ("compare-dist", "--kq", "1/4", "--align", "2,-1"),
    "distribution-product": ("compare-dist", "--kq", "1/8", "--observable", "product"),
    "verification": ("verify", "--kq", "1/4"),
    "verification-hyperbolic": ("verify", "--model", HYPERBOLIC),
    "dispersion": ("dispersion-free", "--kq", "1/4"),
    "sweep": ("sweep", "--grid", "1/8,1/4,3/8"),
    "shared-analysis": ("analyze", "--model", SHARED),
    "shared-representation": ("represent", "--model", SHARED),
    "shared-operators": ("operators", "--model", SHARED),
    "shared-distribution": ("compare-dist", "--model", SHARED),
    "shared-distribution-product": (
        "compare-dist", "--model", SHARED, "--observable", "product"
    ),
    "shared-distribution-align": ("compare-dist", "--model", SHARED, "--align", "2,-1"),
    "shared-distribution-context": (
        "compare-dist", "--model", SHARED, "--context", SHARED_CONTEXT
    ),
    "shared-nul-analysis": ("analyze", "--model", SHARED_NUL),
}


def _pair(q: str):
    spec = kq_model(q)
    return spec.space, spec.variable("a"), spec.variable("b")


class Colour(Enum):
    RED = "red"
    PAIR = (1, "two")


ODD_IDS = ['quote"d', "back\\slash", "line\nbreak", "\x00\x1f\x7f", "tab\t", " "]
EDGE_CASES = {
    "empty list": [],
    "empty dict": {},
    "empty event": Event([]),
    "nested empties": {"a": [], "b": {}, "c": [[], {}, [[]]], "d": [{}], "e": set()},
    "non-ascii": {"κλειδί": "ℵ₀ é 😀", "ünïcode": ["日本", "é"]},
    "odd ids": {"event": Event(ODD_IDS), "keys": {i: i for i in ODD_IDS}},
    "mixed keys": {
        (0, 1): "tuple",
        Event(["b", "a"]): "event",
        Fraction(1, 3): "fraction",
        0.5: "float",
        -0.0: "negative zero",
        7: "int",
        True: "bool",
        None: "none",
    },
    "keys alike": {(0, 1): "tuple", "0,1": "string", Event(["x"]): 1, "x": 2},
    "sets": [{3, 1, 2}, frozenset({"b", "a"}), {Fraction(1, 2), Fraction(1, 3)}],
    "scalars": [True, False, None, 0, -12, 10**300, 1.5, -0.0, math.inf, math.nan],
    "enums": [Classification.HYPERBOLIC, Colour.RED, Colour.PAIR],
    "complex": [complex(0.5, -0.25), 1j, complex(-0.0, 0.0)],
    "records": [
        StateVector((1 + 0j, 0.5j)),
        CheckResult("x", True, "d\n\"quoted\""),
        SweepRow(Fraction(1, 8), 3, 0.1, 0.2, 0.3),
    ],
    "named tuple": ContextAtlas(*_pair("1/4")).entries[0],
    "huge rational": {"ratio": Fraction(-(10**4400 + 1), 3), "int": 10**4000},
}


@pytest.mark.parametrize("kind", sorted(BUNDLES))
def test_writer_equals_the_two_step_form_on_every_bundle(kind):
    bundle = _bundle(*BUNDLES[kind])
    assert canonical_json(bundle) == reference_json(bundle)
    # A shared row's text depends on its indent: the same rows, written
    # again one level deeper, must not reuse the text of the first write.
    nested = {"nested": [bundle]}
    assert canonical_json(nested) == reference_json(nested)


def _plain(bundle: dict) -> dict:
    """``bundle`` with each shared row replaced by the dict it reads as."""
    return {
        key: [dict(row) if isinstance(row, Mapping) else row for row in value]
        if isinstance(value, list)
        else value
        for key, value in bundle.items()
    }


def test_the_shared_model_mixes_shared_and_single_tables():
    # The bundles above are only a test of shared rows if they hold both
    # kinds, and if two shared tables agree in their first row of masses
    # (a text keyed on less than the whole table would mix them up).
    rows = _bundle("analyze", "--model", SHARED)["analyses"]
    shared = [row for row in rows if isinstance(row, model_io.Shared)]
    assert 0 < len(shared) < len(rows)
    firsts = {}
    for row in shared:
        firsts.setdefault(row.key[0], set()).add(row.key)
    assert any(len(keys) > 1 for keys in firsts.values())
    labels = {"".join(row["context"].members) for row in rows}
    assert any('"' in x and "\\" in x and "\n" in x for x in labels)


@pytest.mark.parametrize(
    "kind",
    [
        "shared-analysis",
        "shared-distribution",
        "shared-distribution-product",
        "shared-distribution-align",
        "shared-distribution-context",
    ],
)
def test_csv_of_shared_rows_equals_that_of_their_plain_rows(kind):
    bundle = _bundle(*BUNDLES[kind])
    assert emit_report(bundle, "csv") == emit_report(_plain(bundle), "csv")


@pytest.mark.parametrize("kind", [k for k in sorted(BUNDLES) if k.startswith("shared")])
def test_out_file_holds_the_two_step_form_of_shared_rows(tmp_path, capsys, kind):
    argv = list(BUNDLES[kind])
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    expected = reference_json(_bundle(*argv))
    assert printed == out.read_text(encoding="utf-8") == expected


def _ds10() -> str:
    """The 10-point doubly stochastic model of the large digests, whose 961
    contexts have 289 distinct tables."""
    from test_report_bytes import _doubly_stochastic, _first, _shape_10

    return _first(_doubly_stochastic, _shape_10)


def test_each_shared_row_is_rendered_once_per_distinct_table(
    tmp_path, capsys, monkeypatch
):
    model = tmp_path / "ds10.json"
    model.write_text(_ds10(), encoding="utf-8")
    spec = parse_model(model.read_text(encoding="utf-8"))
    atlas = ContextAtlas(spec.space, spec.variables["a"], spec.variables["b"])
    tables = {e.table.local for e in atlas.entries}
    assert (len(atlas.entries), len(tables)) == (961, 289)

    analyses, renders = [], []
    of = interference.ContextAnalysis.of.__func__
    monkeypatch.setattr(
        interference.ContextAnalysis,
        "of",
        classmethod(lambda cls, *args: analyses.append(1) or of(cls, *args)),
    )
    text = model_io._text_of[Classification]
    monkeypatch.setitem(
        model_io._text_of,
        Classification,
        lambda obj, newline: renders.append(obj) or text(obj, newline),
    )
    events = []
    event_text = model_io._text_of[Event]
    monkeypatch.setitem(
        model_io._text_of,
        Event,
        lambda obj, newline: events.append((obj, newline)) or event_text(obj, newline),
    )
    assert cli.main(["analyze", "--model", str(model)]) == 0
    capsys.readouterr()
    # One analysis per table, and three classifications in its row: the
    # row's own and one per outcome.
    assert len(analyses) == len(tables)
    assert len(renders) == 3 * len(tables)
    # A context of a shared table is rendered once per indent: its row's
    # own place and the two outcomes' places, which share one indent, make
    # two.  A row that no other context shares is written as it is made.
    uses = Counter(e.table.local for e in atlas.entries)
    shared = {e.context for e in atlas.entries if uses[e.table.local] > 1}
    assert len(shared) > 900
    assert {c for c, _ in events} == {e.context for e in atlas.entries}
    assert Counter(c for c, _ in events if c in shared) == dict.fromkeys(shared, 2)

    states = []
    jsonable = StateVector._jsonable
    monkeypatch.setattr(
        StateVector, "_jsonable", lambda self: states.append(1) or jsonable(self)
    )
    assert cli.main(["represent", "--model", str(model)]) == 0
    capsys.readouterr()
    # One state per table of the represented family, and the two a-basis
    # vectors.
    assert len(states) == len({e.table.local for e in atlas.represented}) + 2


def test_csv_analysis_makes_one_analysis_per_distinct_table(capsys, monkeypatch):
    spec = parse_model(Path(SHARED).read_text(encoding="utf-8"))
    atlas = ContextAtlas(spec.space, spec.variables["a"], spec.variables["b"])
    tables = {e.table.local for e in atlas.entries}
    assert len(tables) < len(atlas.entries)
    analyses = []
    of = interference.ContextAnalysis.of.__func__
    monkeypatch.setattr(
        interference.ContextAnalysis,
        "of",
        classmethod(lambda cls, *args: analyses.append(1) or of(cls, *args)),
    )
    assert cli.main(["analyze", "--format", "csv", "--model", SHARED]) == 0
    assert len(analyses) == len(tables)
    plain = _plain(_bundle("analyze", "--model", SHARED))  # one per context
    assert capsys.readouterr().out == emit_report(plain, "csv")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_the_writer_evaluates_no_coefficient(capsys, monkeypatch, fmt):
    # Every coefficient value and phase of an analysis is read while the
    # bundle is built, so that one beyond the float range raises before the
    # first byte; the writer, shared rows included, only formats.
    built, written, writing = [], [], []
    signed_root, report_writer = interference._signed_root, model_io.report_writer

    def writer(*args):
        writing.append(True)
        return report_writer(*args)

    def evaluated(*args):
        (written if writing else built).append(args)
        return signed_root(*args)

    monkeypatch.setattr(model_io, "report_writer", writer)
    monkeypatch.setattr(interference, "_signed_root", evaluated)
    assert cli.main(["analyze", "--format", fmt, "--model", SHARED]) == 0
    capsys.readouterr()
    assert built and written == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_only_a_json_analysis_builds_the_checks(capsys, monkeypatch, fmt):
    # The reconstruction check reads each table's two reconstructions; the
    # CSV layout prints no checks, so it reads none.
    spec = parse_model(Path(SHARED).read_text(encoding="utf-8"))
    atlas = ContextAtlas(spec.space, spec.variables["a"], spec.variables["b"])
    tables = {e.table.local for e in atlas.entries}
    calls = []
    reconstructed = interference.TwoCellTable.reconstructed
    monkeypatch.setattr(
        interference.TwoCellTable,
        "reconstructed",
        lambda table, j: calls.append(j) or reconstructed(table, j),
    )
    assert cli.main(["analyze", "--format", fmt, "--model", SHARED]) == 0
    capsys.readouterr()
    assert 2 * len(tables) == 176
    assert len(calls) == (176 if fmt == "json" else 0)


@pytest.mark.parametrize("q", ["1/4", "1e-4200"])
def test_writer_equals_the_two_step_form_on_model_documents(q):
    doc = model_document(kq_model(q))
    assert serialize_model(kq_model(q)) == reference_json(doc)


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_writer_equals_the_two_step_form_on_edge_cases(name):
    value = EDGE_CASES[name]
    assert canonical_json(value) == reference_json(value)
    assert canonical_json([value, {"nested": value}]) == reference_json(
        [value, {"nested": value}]
    )


def test_writer_prints_rationals_past_the_digit_limit():
    value = Fraction(-(10**4400 + 1), 3)
    assert canonical_json(value) == '"-1' + "0" * 4399 + '1/3"\n'


@pytest.mark.parametrize("value", [object(), [1, object()], {"k": b"bytes"}])
def test_writer_rejects_what_the_two_step_form_rejects(value):
    with pytest.raises(TypeError):
        reference_json(value)
    with pytest.raises(TypeError, match="cannot serialise"):
        canonical_json(value)


_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=6)
    | st.fractions()
    | st.floats(allow_nan=True)
    | st.complex_numbers(allow_nan=False)
)
_trees = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(
        st.text(max_size=4) | st.fractions() | st.integers(), inner, max_size=4
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_trees)
def test_writer_equals_the_two_step_form_on_random_trees(tree):
    assert canonical_json(tree) == reference_json(tree)
