"""End-to-end CLI behaviour: exit codes, determinism, formats."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from qcontext import cli, hilbert, verify
from qcontext.interference import TwoCellTable
from qcontext.model_io import ModelSpec, kq_model, parse_model, serialize_model
from qcontext.prob import Event
from randmodels import first_draw, random_incompatible_model

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
MODEL_COMMANDS = (
    "analyze",
    "represent",
    "operators",
    "compare-dist",
    "verify",
    "dispersion-free",
)
OPERATOR_COMMANDS = ("operators", "compare-dist", "verify")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _overflow_model(tmp_path) -> str:
    """Valid five-point model whose squared coefficients exceed the float
    range: a point of weight 1e-400 alone in its a-cell intersection."""
    last = Fraction(1, 4) - Fraction(1, 10**400)
    weights = ["1e-400", "1/4", "1/4", "1/4", str(last)]
    doc = {
        "points": [{"id": f"p{i}", "weight": w} for i, w in enumerate(weights, 1)],
        "variables": {
            name: {
                "values": ["1", "-1"],
                "assignment": {
                    f"p{i}": 1 if i in first else 2 for i in range(1, 6)
                },
            }
            for name, first in (("a", {1, 2, 5}), ("b", {1, 3, 5}))
        },
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestAnalyze:
    def test_reference_family_json(self, capsys):
        code, out, err = run(capsys, "analyze", "--kq", "1/4", "--vars", "a,b")
        assert code == 0 and not err
        doc = json.loads(out)
        assert doc["kind"] == "analysis"
        assert len(doc["analyses"]) == 9
        contexts = {"+".join(a["context"]) for a in doc["analyses"]}
        assert "w1+w2+w3" in contexts

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "--kq", "1/8", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("context,outcome,classification,delta")

    def test_missing_model_file(self, capsys):
        code, out, err = run(capsys, "analyze", "--model", "missing.json")
        assert code == 1
        assert "not found" in err

    def test_model_source_required(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 1
        assert "exactly one" in err

    def test_both_sources_rejected(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(serialize_model(kq_model("1/4")))
        code, _, err = run(capsys, "analyze", "--model", str(path), "--kq", "1/4")
        assert code == 1

    def test_unknown_variable(self, capsys):
        code, _, err = run(capsys, "analyze", "--kq", "1/4", "--vars", "a,zzz")
        assert code == 1
        assert "zzz" in err

    def test_compatible_pair_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", "--kq", "1/4", "--vars", "a,a")
        assert code == 1
        assert "incompatible" in err

    def test_model_file_input(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze",
            "--model",
            str(DATA / "non_double_stochastic_witness.json"),
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["analyses"]) == 9
        classifications = {
            a["classification"] for a in doc["analyses"]
        }
        assert "hyperbolic" in classifications or "mixed" in classifications


class TestUsage:
    def test_no_arguments(self, capsys):
        code = cli.main([])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        code = cli.main(["frobnicate"])
        assert code == 1

    def test_bad_format_flag(self, capsys):
        code = cli.main(["analyze", "--kq", "1/4", "--format", "yaml"])
        assert code == 1


class TestVerify:
    def test_reference_family_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--kq", "1/8")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert doc["seed"] == 0
        names = {c["name"] for c in doc["checks"]}
        assert "born_rule_a_basis" in names
        assert "mean_preservation" in names

    def test_byte_identical_reruns(self, capsys, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        assert cli.main(["verify", "--kq", "1/4", "--out", str(first)]) == 0
        assert cli.main(["verify", "--kq", "1/4", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_witness_model_passes_applicable_checks(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--model",
            str(DATA / "non_double_stochastic_witness.json"),
        )
        assert code == 0
        doc = json.loads(out)
        names = {c["name"] for c in doc["checks"]}
        # Checks predicated on double stochasticity are not registered here.
        assert "born_rule_a_basis" not in names
        assert "unitarity_iff_double_stochastic" in names

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("CONTEXTUAL_SEED", "7")
        code, out, _ = run(capsys, "verify", "--kq", "1/8")
        assert code == 0
        assert json.loads(out)["seed"] == 7

    def test_bad_seed_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("CONTEXTUAL_SEED", "xyz")
        code, _, err = run(capsys, "verify", "--kq", "1/8")
        assert code == 1
        assert "CONTEXTUAL_SEED" in err

    def test_long_seed_is_quoted_in_short(self, capsys, monkeypatch):
        # 5000 digits: beyond int()'s default limit, so not an integer.
        monkeypatch.setenv("CONTEXTUAL_SEED", "1" * 5000)
        code, out, err = run(capsys, "verify", "--kq", "1/8")
        assert code == 1 and not out
        assert err.startswith("error: CONTEXTUAL_SEED") and err.count("\n") == 1
        assert len(err) < 120 and "(5000 characters)" in err

    def test_exit_two_on_failed_check(self, capsys, monkeypatch):
        failing = [verify.CheckResult(name="synthetic", passed=False, detail="x")]
        monkeypatch.setattr(verify, "run_checks", lambda *a, **k: failing)
        code, out, _ = run(capsys, "verify", "--kq", "1/4")
        assert code == 2
        assert json.loads(out)["all_passed"] is False

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--kq", "1/4", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "check,passed,detail"


class TestOtherCommands:
    def test_represent(self, capsys):
        code, out, _ = run(capsys, "represent", "--kq", "1/4")
        assert code == 0
        doc = json.loads(out)
        assert doc["double_stochastic"] is True
        assert doc["distinct_states"] == 9
        assert doc["collisions"] == [
            [["w1", "w3"], ["w2", "w4"], ["w1", "w2", "w3", "w4"]]
        ]
        # At q = 1/4 both radicals are 1/2, so the zero-disturbance two-point
        # state serialises with exact halves.
        by_context = {
            "+".join(entry["context"]): entry["state"]
            for entry in doc["states"]
        }
        first, second = by_context["w2+w4"]
        assert [float(x) for x in first] == [0.5, -0.5]
        assert [float(x) for x in second] == [0.5, 0.5]

    def test_operators(self, capsys):
        code, out, _ = run(capsys, "operators", "--kq", "1/8")
        assert code == 0
        doc = json.loads(out)
        assert "commutator" in doc and "means" in doc
        assert len(doc["means"]) == 11

    def test_compare_dist_single_context(self, capsys):
        code, out, _ = run(
            capsys,
            "compare-dist",
            "--kq",
            "1/8",
            "--context",
            "w2,w3,w4",
            "--align",
            "1.0,-1.0",
        )
        assert code == 0
        doc = json.loads(out)
        (block,) = doc["comparisons"]
        assert abs(float(block["total_variation"]) - 5 / 14) < 1e-12

    def test_compare_dist_product(self, capsys):
        code, out, _ = run(
            capsys, "compare-dist", "--kq", "1/8", "--observable", "product"
        )
        assert code == 0

    def test_compare_dist_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "compare-dist",
            "--kq",
            "1/8",
            "--context",
            "w2,w3,w4",
            "--format",
            "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "value,probability"

    def test_dispersion_free(self, capsys):
        code, out, _ = run(capsys, "dispersion-free", "--kq", "1/4")
        assert code == 0
        doc = json.loads(out)
        assert doc["dispersion_free"] == [["w1"], ["w2"], ["w3"], ["w4"]]
        assert doc["intersection"] == []

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--grid", "1/8,1/4")
        assert code == 0
        doc = json.loads(out)
        assert doc["theta_monotone"] is True
        assert len(doc["rows"]) == 2

    def test_sweep_bad_grid(self, capsys):
        code, _, err = run(capsys, "sweep", "--grid", "3/4")
        assert code == 1

    def test_csv_unavailable_for_representation(self, capsys):
        code, _, err = run(capsys, "represent", "--kq", "1/4", "--format", "csv")
        assert code == 1
        assert "no CSV layout" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = cli.main(["analyze", "--kq", "1/4", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["kind"] == "analysis"

    def test_out_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "x.json"
        code, out, err = run(capsys, "analyze", "--kq", "1/4", "--out", str(target))
        assert code == 1 and not out
        assert err.startswith("error:") and err.count("\n") == 1

    def test_same_argv_same_bytes(self, capsys):
        code1, out1, _ = run(capsys, "represent", "--kq", "3/8")
        code2, out2, _ = run(capsys, "represent", "--kq", "3/8")
        assert code1 == code2 == 0
        assert out1 == out2


class TestFloatRange:
    @pytest.mark.parametrize(
        "command",
        ["analyze", "verify", "analyze --format csv", "verify --format csv"],
    )
    def test_overflowing_coefficient_is_an_error(self, capsys, tmp_path, command):
        argv = [*command.split(), "--model", _overflow_model(tmp_path)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command", ["represent", "operators", "compare-dist", "dispersion-free"]
    )
    def test_other_commands_succeed(self, capsys, tmp_path, command):
        code, out, err = run(capsys, command, "--model", _overflow_model(tmp_path))
        assert code == 0 and out and not err

    # Values of the reference model (--kq 1/8) beyond the float range once
    # an operator, a support value, an eigenvector norm or the commutator's
    # closed form needs them as floats.  (a values, b values, the commands
    # that exit 1, extra compare-dist arguments.)
    VALUE_CASES = {
        "a-overflow": (["1e400", "-1"], None, OPERATOR_COMMANDS, ()),
        "b-overflow": (None, ["1e400", "-1"], OPERATOR_COMMANDS, ()),
        "product-support": (
            ["-1e200", "-1"],
            ["1e200", "1e160"],
            ("compare-dist", "verify"),
            ("--observable", "product"),
        ),
        "eigenvector-norm": (
            ["1e-320", "-1"],
            ["1e160", "1.7e308"],
            ("compare-dist", "verify"),
            ("--observable", "product"),
        ),
        "value-gap": (["-1e308", "1e308"], None, ("compare-dist", "verify"), ()),
        "b-squares": (None, ["1e200", "-1"], ("verify",), ()),
    }

    @pytest.mark.parametrize("case", sorted(VALUE_CASES))
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_values_beyond_the_float_range(self, capsys, tmp_path, case, command):
        a_values, b_values, failing, extra = self.VALUE_CASES[case]
        doc = json.loads(serialize_model(kq_model("1/8")))
        for name, values in (("a", a_values), ("b", b_values)):
            if values is not None:
                doc["variables"][name]["values"] = values
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--model", str(path)]
        if command == "compare-dist":
            argv += extra
        code, out, err = run(capsys, *argv)
        if command in failing:
            assert code == 1 and not out
            assert err.startswith("error:") and err.count("\n") == 1
        else:
            assert code == 0 and out and not err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_listed_contexts_sharing_an_overflowing_table(self, capsys, tmp_path, fmt):
        # [p1, s1, u] and [p1, s2, u] have equal masses in the four cells,
        # so they share one hyperbolic table, whose squared coefficient is
        # beyond the float range: its rows are shared, and the error must
        # still come before the first byte of the report.
        rest = Fraction(1, 4) - Fraction(1, 10**400)
        cells = {"p1": (1, 1), "p2": (1, 2), "s1": (2, 1), "s2": (2, 1), "u": (2, 2)}
        weights = {"p1": "1e-400", "p2": "1/4", "s1": "1/4", "s2": "1/4", "u": str(rest)}
        doc = {
            "points": [{"id": p, "weight": w} for p, w in weights.items()],
            "variables": {
                name: {
                    "values": ["1", "-1"],
                    "assignment": {p: cell[k] for p, cell in cells.items()},
                }
                for k, name in enumerate("ab")
            },
            "contexts": [["p1", "s1", "u"], ["p1", "s2", "u"]],
        }
        path = tmp_path / "listed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", "--format", fmt, "--model", str(path))
        assert (code, out) == (1, "")
        assert err == "error: squared coefficient beyond the float range\n"

    def test_verify_with_underflowing_cell_masses(self, capsys):
        # The closed form of cell_duality is compared exactly, so masses
        # that underflow a float leave every check passing.
        code, out, err = run(capsys, "verify", "--kq", "1e-400")
        assert code == 0 and not err
        assert json.loads(out)["all_passed"] is True


class TestCompareDistContext:
    """``compare-dist --context`` reports one event through the same path as
    the every-context report; outputs recorded before that merge."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--kq", "1/8", "--context", "w2,w3,w4", "--align", "1.0,-1.0"),
                "2184dda27f02d4f1f4a360f305a502df7c62141ef7804fe4cf583ef817ee8231",
            ),
            (
                ("--kq", "1/4", "--context", "w1,w2,w3", "--observable", "product"),
                "b791a03ebaa171a85a8ea1e0fd9e3bb4abfe4988605ce346287d3b5f504ef8ef",
            ),
        ],
    )
    def test_report_bytes(self, capsys, argv, digest):
        code, out, err = run(capsys, "compare-dist", *argv)
        assert code == 0 and not err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys, "compare-dist", "--kq", "1/8", "--context", "w2,w3,w4",
            "--align", "1.0,-1.0", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "value,probability",
            "-2,1/7",
            "0,6/7",
            "2,0",
            "-1,0.6428571428571429",
            "1,0.3571428571428571",
        ]

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ("--model", str(DATA / "hyperbolic_witness.json"), "--context", "p1,p3"),
                "error: p1+p3 carries a coefficient beyond the trigonometric range",
            ),
            (
                ("--kq", "1/8", "--context", "w1,w2"),
                "error: w1+w2 is not a context for the variable pair",
            ),
            (
                ("--kq", "1/8", "--context", "w1,w9"),
                "error: unknown point identifier 'w9'",
            ),
        ],
    )
    def test_errors(self, capsys, argv, line):
        code, out, err = run(capsys, "compare-dist", *argv)
        assert (code, out, err) == (1, "", line + "\n")


class TestCompareDistRefusal:
    """``compare-dist`` builds its operator from the whole-space table before
    it reads a context, as ``operators`` does, so a pair whose transition
    matrix is not doubly stochastic is refused with the same line."""

    @pytest.mark.parametrize("name", ["x12", "non_double_stochastic_witness"])
    def test_refused_before_any_context_is_read(
        self, capsys, monkeypatch, tmp_path, name
    ):
        path = DATA / f"{name}.json"
        if name == "x12":
            space, a, b = first_draw(random_incompatible_model, 12, max_points=12)
            path = tmp_path / "x12.json"
            path.write_text(serialize_model(ModelSpec(space, {"a": a, "b": b})))
        code, out, err = run(capsys, "operators", "--model", str(path))
        assert (code, out) == (1, "") and err.startswith("error:")
        tables, amplitudes = [], []
        init, amplitude = TwoCellTable.__init__, hilbert._amplitude
        monkeypatch.setattr(
            TwoCellTable, "__init__", lambda *a, **k: tables.append(1) or init(*a, **k)
        )
        monkeypatch.setattr(
            hilbert, "_amplitude", lambda t: amplitudes.append(t) or amplitude(t)
        )
        assert run(capsys, "compare-dist", "--model", str(path)) == (1, "", err)
        assert (len(tables), amplitudes) == (1, [])  # omega alone

    def test_listed_contexts_without_an_amplitude_are_refused_too(
        self, capsys, tmp_path
    ):
        spec = parse_model((DATA / "hyperbolic_witness.json").read_text())
        listed = ModelSpec(spec.space, spec.variables, (Event(["p1", "p3"]),))
        path = tmp_path / "listed.json"
        path.write_text(serialize_model(listed))
        refused = run(capsys, "operators", "--model", str(path))
        assert refused[0] == 1
        assert run(capsys, "compare-dist", "--model", str(path)) == refused


class TestHostileNumbers:
    @pytest.mark.parametrize("align", ["inf,1", "1,1e400", "-inf,0", "nan,1", "1,nan"])
    def test_non_finite_alignment_is_an_error(self, capsys, align):
        code, out, err = run(
            capsys, "compare-dist", "--kq", "1/4", f"--align={align}"
        )
        assert code == 1 and not out
        assert err.startswith("error:") and err.count("\n") == 1
        assert "finite" in err

    @pytest.mark.parametrize("align", ["1e308,1", "1e300,0", "1,1e300"])
    def test_alignment_beyond_the_grid_is_an_error(self, capsys, align):
        code, out, err = run(capsys, "compare-dist", "--kq", "1/4", "--align", align)
        assert code == 1 and not out
        assert err.startswith("error:") and err.count("\n") == 1
        assert "grid" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("compare-dist", "--kq", "1/4", "--align", "x" * 5000),
            ("compare-dist", "--kq", "1/4", "--align", "1," + "1" * 5000),
            ("analyze", "--kq", "1/4", "--vars", "a," + "b" * 5000),
            ("analyze", "--kq", "1/4", "--vars", "a,b," + "c" * 5000),
        ],
    )
    def test_long_arguments_are_quoted_in_short(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith("error:") and err.count("\n") == 1
        assert len(err) < 120 and "characters)" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--kq", "1e-4000000"),
            ("represent", "--kq", "1E+4301"),
            ("sweep", "--grid", "1/4,1e-4000000"),
        ],
    )
    def test_huge_decimal_exponent_is_an_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith("error:") and err.count("\n") == 1
        assert "exponent" in err

    def test_huge_decimal_exponent_in_a_model_file(self, capsys, tmp_path):
        text = serialize_model(kq_model(Fraction(1, 4)))
        path = tmp_path / "model.json"
        path.write_text(text.replace('"1/4"', "25e-4302", 1))
        code, out, err = run(capsys, "analyze", "--model", str(path))
        assert code == 1 and not out
        assert "exponent" in err and err.count("\n") == 1


class TestLongValuesInErrorLines:
    """Out-of-range and unparsable parameters, point ids and variable names
    longer than 40 characters are quoted by their first 40 characters and
    their length; shorter ones read as before."""

    NINES = "9" * 3000
    RANGE = "parameter must lie strictly in (0, 1/2)"

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--kq", "1e4300"),
            ("sweep", "--grid", "1e4300"),
            ("analyze", "--kq", NINES),
            ("sweep", "--grid", f"1/8,{NINES}"),
        ],
    )
    def test_out_of_range_parameter(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {self.RANGE}")
        assert err.count("\n") == 1 and len(err) < 120 and "characters)" in err

    @pytest.mark.parametrize("literal", ["x" * 3000, "1/" + "x" * 3000])
    def test_unparsable_sweep_parameter(self, capsys, literal):
        code, out, err = run(capsys, "sweep", "--grid", literal)
        assert (code, out) == (1, "")
        assert err.startswith("error: bad rational literal")
        assert err.count("\n") == 1 and len(err) < 120 and "characters)" in err

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("analyze", "--kq", "1/2"), f"{RANGE}, got 1/2"),
            (("sweep", "--grid", "3/4"), f"{RANGE}, got 3/4"),
            (("sweep", "--grid", "abc"), "bad rational literal 'abc'"),
            (("sweep", "--grid", "1/0"), "bad rational literal '1/0'"),
            (("analyze", "--kq", "abc"), "bad rational 'abc'"),
            (("analyze", "--kq", "1/0"), "bad rational '1/0'"),
        ],
    )
    def test_short_parameters(self, capsys, argv, line):
        assert run(capsys, *argv) == (1, "", f"error: {line}\n")

    def test_long_foreign_point_in_a_context(self, capsys):
        code, out, err = run(
            capsys, "compare-dist", "--kq", "1/8", "--context", "w1," + "w" * 5000
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: unknown point identifier")
        assert err.count("\n") == 1 and len(err) < 120 and "characters)" in err

    def test_long_names_of_a_compatible_pair(self, capsys, tmp_path):
        spec = kq_model("1/4")
        a = spec.variables["a"]
        names = ("a" * 5000, "b" * 5000)
        doc = json.loads(serialize_model(spec))
        doc["variables"] = {
            name: {"values": [1, -1], "assignment": dict(a.assignment)}
            for name in names
        }
        path = tmp_path / "compatible.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "analyze", "--model", str(path), "--vars", ",".join(names)
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: variables") and err.endswith("incompatible\n")
        assert err.count("\n") == 1 and len(err) < 200 and "characters)" in err


    @staticmethod
    def _long_id_list(tmp_path, case: str) -> str:
        """A 2000-point model whose variable b assigns only p0, or the
        reference family listing one context of 2000 unknown points."""
        if case == "unassigned":
            ids = [f"p{i}" for i in range(2000)]
            doc = {
                "points": [{"id": p, "weight": "1/2000"} for p in ids],
                "variables": {
                    "a": {
                        "values": [1, -1],
                        "assignment": {p: 1 + i % 2 for i, p in enumerate(ids)},
                    },
                    "b": {"values": [1, -1], "assignment": {"p0": 1}},
                },
            }
        else:
            doc = json.loads(serialize_model(kq_model("1/4")))
            doc["contexts"] = [[f"x{i}" for i in range(2000)]]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "case, count", [("unassigned", "1994 more"), ("unknown", "1995 more")]
    )
    def test_long_id_lists_are_cut_short(self, capsys, tmp_path, case, count):
        path = self._long_id_list(tmp_path, case)
        code, out, err = run(capsys, "analyze", "--model", path)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert len(err.encode("utf-8")) < 200 and count in err


class TestReportsBeyondTheDigitLimit:
    """Literals at the exponent bound parse, and the rationals the program
    computes from them (about twice as many digits) are emitted in full."""

    TINY = "1e-4300"
    # The reference-family weights of q = 10**-4300, written out exactly.
    W1 = "1/1" + "0" * 4300
    W2 = "4" + "9" * 4299 + "/1" + "0" * 4300

    @pytest.mark.parametrize(
        "command",
        [
            "analyze",
            "represent",
            "operators",
            "compare-dist",
            "verify",
            "dispersion-free",
        ],
    )
    def test_model_commands(self, capsys, command):
        code, out, err = run(capsys, command, "--kq", self.TINY)
        assert code == 0 and not err
        report = json.loads(out)
        weights = {p["id"]: p["weight"] for p in report["model"]["points"]}
        assert weights == {
            "w1": self.W1,
            "w2": self.W2,
            "w3": self.W1,
            "w4": self.W2,
        }
        if command == "verify":
            assert report["all_passed"] is True

    def test_analyze_csv(self, capsys):
        # CSV rows hold no model document: the long fields are computed.
        code, out, err = run(capsys, "analyze", "--kq", self.TINY, "--format", "csv")
        assert code == 0 and not err
        assert max(len(field) for field in out.replace("\n", ",").split(",")) > 8600

    def test_analyze_halfway_to_the_bound(self, capsys):
        code, out, err = run(capsys, "analyze", "--kq", "1e-2200")
        assert code == 0 and out and not err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sweep(self, capsys, fmt):
        code, out, err = run(
            capsys, "sweep", "--grid", f"1/8,{self.TINY}", "--format", fmt
        )
        assert code == 0 and not err
        assert self.W1 in out


class TestListedContexts:
    """A model that lists its contexts is reported on those contexts alone,
    by every subcommand."""

    # model file (None: the reference family at q = 1/4), listed contexts,
    # a-cells.  The first model is doubly stochastic, the second is not, so
    # operators and compare-dist exit 1 on it by design.
    CASES = {
        "ds": (None, [["w1", "w2", "w3"], ["w1", "w3"]], ["w1+w2", "w3+w4"]),
        "general": (
            "non_double_stochastic_witness.json",
            [["p1", "p4"], ["p1", "p2", "p3"]],
            ["p1+p2", "p3+p4"],
        ),
    }

    def _report(self, capsys, tmp_path, name, command):
        source, rows, _ = self.CASES[name]
        if source is None:
            spec = kq_model("1/4")
        else:
            spec = parse_model((DATA / source).read_text())
        listed = ModelSpec(
            spec.space, spec.variables, tuple(Event(r) for r in rows)
        )
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_model(listed))
        code, out, err = run(capsys, command, "--model", str(path))
        assert code == 0 and not err
        return json.loads(out)

    def _listed(self, name):
        rows = self.CASES[name][1]
        return sorted(("+".join(r) for r in rows), key=lambda r: (len(r), r))

    def _with_cells(self, name):
        labels = [r.split("+") for r in self._listed(name) + self.CASES[name][2]]
        return ["+".join(r) for r in sorted(labels, key=lambda r: (len(r), r))]

    @pytest.mark.parametrize("name", ["ds", "general"])
    def test_analyze(self, capsys, tmp_path, name):
        doc = self._report(capsys, tmp_path, name, "analyze")
        assert [_label(a["context"]) for a in doc["analyses"]] == self._listed(name)

    @pytest.mark.parametrize("name", ["ds", "general"])
    def test_represent(self, capsys, tmp_path, name):
        doc = self._report(capsys, tmp_path, name, "represent")
        assert [_label(s["context"]) for s in doc["states"]] == self._with_cells(name)
        assert [_label(g["context"]) for g in doc["phase_gaps"]] == self._listed(name)
        assert {_label(c) for c in doc["nonsensitive_contexts"]} <= set(
            self._listed(name)
        )

    def test_operators(self, capsys, tmp_path):
        doc = self._report(capsys, tmp_path, "ds", "operators")
        assert [_label(m["context"]) for m in doc["means"]] == self._with_cells("ds")

    def test_compare_dist(self, capsys, tmp_path):
        doc = self._report(capsys, tmp_path, "ds", "compare-dist")
        got = [_label(block["context"]) for block in doc["comparisons"]]
        assert got == self._listed("ds")

    @pytest.mark.parametrize("name", ["ds", "general"])
    def test_verify(self, capsys, tmp_path, name):
        doc = self._report(capsys, tmp_path, name, "verify")
        assert doc["all_passed"] is True
        details = {c["name"]: c["detail"] for c in doc["checks"]}
        assert details["disturbance_sums_to_zero"] == "contexts=2 nonzero_sums=0"
        assert details["equal_marginals_equal_states"] == "contexts=2 violations=0"
        assert "representable=4 " in details["dispersion_free_exactly_atoms"]

    @pytest.mark.parametrize("name", ["ds", "general"])
    def test_dispersion_free(self, capsys, tmp_path, name):
        doc = self._report(capsys, tmp_path, name, "dispersion-free")
        got = [_label(e) for e in doc["representable"]]
        assert got == self._with_cells(name)

    def test_a_context_listed_twice_is_reported_once(self, capsys, tmp_path):
        doc = json.loads(serialize_model(kq_model("1/8")))
        doc["contexts"] = [["w1", "w3"], ["w3", "w1"]]
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "represent", "--model", str(path))
        assert code == 0 and not err
        report = json.loads(out)
        assert report["model"]["contexts"] == [["w1", "w3"], ["w1", "w3"]]
        assert [_label(s["context"]) for s in report["states"]] == [
            "w1+w2", "w1+w3", "w3+w4"
        ]
        assert report["collisions"] == [] and report["distinct_states"] == 3
        code, out, err = run(capsys, "verify", "--model", str(path))
        details = {c["name"]: c["detail"] for c in json.loads(out)["checks"]}
        assert details["disturbance_sums_to_zero"] == "contexts=1 nonzero_sums=0"


def _label(members: list[str]) -> str:
    return "+".join(members)


def _cell_model(tmp_path, cells, contexts=None) -> str:
    """Path of a model document whose cell a = i, b = j holds one point per
    integer mass in ``cells[i, j]``, the masses normalised by their total."""
    points: list[dict] = []
    assignment: dict[str, dict[str, int]] = {"a": {}, "b": {}}
    total = sum(map(sum, cells.values()))
    for (i, j), masses in sorted(cells.items()):
        for mass in masses:
            pid = f"p{len(points) + 1}"
            points.append({"id": pid, "weight": f"{mass}/{total}"})
            assignment["a"][pid], assignment["b"][pid] = i, j
    doc = {
        "points": points,
        "variables": {
            name: {"values": ["1", "-1"], "assignment": cell}
            for name, cell in assignment.items()
        },
    }
    if contexts is not None:
        doc["contexts"] = contexts
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestOneEnumerationBound:
    """Every model subcommand enumerates contexts up to the one bound of
    prob.MAX_ENUMERATION_POINTS = 16 points; above it, a model that lists
    its contexts is reported on them, except by the brute-force search of
    dispersion-free events."""

    BOUND_LINE = "error: exhaustive enumeration supports at most 16 points\n"
    # 17 points with cell masses (t u, t v, s v, s u) = (3, 6, 8, 4): the
    # transition matrix is doubly stochastic.  A-cells p1..p8 and p9..p17.
    DS17 = {
        (1, 1): [1, 1, 1],
        (1, 2): [1, 1, 1, 1, 2],
        (2, 1): [2, 2, 2, 1, 1],
        (2, 2): [1, 1, 1, 1],
    }
    LISTED = [
        ["p1", "p9"],
        ["p1", "p4", "p9", "p14"],
        ["p2", "p5", "p10", "p15"],
        ["p1", "p2", "p3", "p4", "p9", "p10", "p14"],
    ]

    @pytest.mark.parametrize(
        "command", [c for c in MODEL_COMMANDS if c != "dispersion-free"]
    )
    def test_listed_contexts_above_the_bound(self, capsys, tmp_path, command):
        path = _cell_model(tmp_path, self.DS17, self.LISTED)
        code, out, err = run(capsys, command, "--model", path)
        assert code == 0 and not err
        if command == "verify":
            doc = json.loads(out)
            names = [c["name"] for c in doc["checks"]]
            assert "dispersion_free_exactly_atoms" not in names
            assert "mean_preservation" in names and doc["all_passed"] is True

    def test_dispersion_free_stops_above_the_bound(self, capsys, tmp_path):
        path = _cell_model(tmp_path, self.DS17, self.LISTED)
        code, out, err = run(capsys, "dispersion-free", "--model", path)
        assert (code, out, err) == (1, "", self.BOUND_LINE)

    def test_analyze_enumerates_below_the_bound(self, capsys, tmp_path):
        # a-cells of 2 and 11 points: 3 * 2047 = 6141 contexts.
        cells = {(1, 1): [1], (1, 2): [2], (2, 1): [1, 2, 3, 1, 2, 3]}
        cells[2, 2] = [1, 2, 3, 1, 2]
        path = _cell_model(tmp_path, cells)
        code, out, err = run(capsys, "analyze", "--model", path)
        assert code == 0 and not err
        assert len(json.loads(out)["analyses"]) == 6141

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_no_listed_contexts_above_the_bound(self, capsys, tmp_path, command):
        path = _cell_model(tmp_path, self.DS17)
        code, out, err = run(capsys, command, "--model", path)
        assert (code, out, err) == (1, "", self.BOUND_LINE)

    def test_the_bound_is_checked_before_any_subset_table(self, capsys, tmp_path):
        # 34 points in two 17-point a-cells: a table of either cell's subsets
        # would hold 2**17 entries.
        cells = {(1, 1): [1] * 9, (1, 2): [2] * 8, (2, 1): [3] * 8, (2, 2): [1] * 9}
        path = _cell_model(tmp_path, cells)
        assert run(capsys, "analyze", "--kq", "1/8")[0] == 0  # imports every layer
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "analyze", "--model", path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (1, "", self.BOUND_LINE)
        assert peak < 10 * 2**20


class TestReportDelivery:
    """Both sinks get the same bytes, a failed write ends in one error line,
    and an error found before the first byte leaves no trace."""

    CSV_COMMANDS = ("analyze", "compare-dist", "verify")

    @pytest.mark.parametrize(
        "argv",
        [
            *([command, "--kq", "1/4"] for command in MODEL_COMMANDS),
            *([c, "--kq", "1/4", "--format", "csv"] for c in CSV_COMMANDS),
            ["sweep", "--grid", "1/8,1/4"],
            ["sweep", "--grid", "1/8,1/4", "--format", "csv"],
        ],
        ids=" ".join,
    )
    def test_out_file_equals_stdout(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv)
        target = tmp_path / "report"
        assert run(capsys, *argv, "--out", str(target)) == (code, "", err)
        assert code in (0, 2) and out
        assert target.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("represent", "--kq", "1/4", "--format", "csv"), "no CSV layout"),
            (("analyze", "--model", "missing.json"), "model file not found"),
        ],
    )
    def test_an_error_before_the_first_byte_leaves_no_file(
        self, capsys, tmp_path, argv, message
    ):
        target = tmp_path / "report"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and message in err and err.count("\n") == 1
        assert not target.exists()

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("sink", ["stdout", "--out"])
    def test_a_full_device_ends_in_one_error_line(self, sink):
        argv = [sys.executable, "-m", "qcontext.cli", "analyze", "--kq", "1/4"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
        )
        if sink == "--out":
            done = subprocess.run(
                [*argv, "--out", "/dev/full"], capture_output=True, env=env, timeout=120
            )
        else:
            with open("/dev/full", "w") as full:
                done = subprocess.run(
                    argv, stdout=full, stderr=subprocess.PIPE, env=env, timeout=120
                )
        assert done.returncode == 1
        assert done.stderr.decode() == (
            "error: cannot write the report: [Errno 28] No space left on device\n"
        )

    @pytest.mark.parametrize("sink", ["stdout", "--out"])
    def test_an_unencodable_report_ends_in_one_error_line(
        self, capsys, tmp_path, sink
    ):
        # A lone surrogate is a valid JSON string escape but no UTF-8 text.
        doc = json.loads(serialize_model(kq_model("1/4")))
        doc["variables"]["\ud800"] = doc["variables"]["a"]
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(doc))
        argv = ["analyze", "--model", str(path)]
        if sink == "--out":
            argv += ["--out", str(tmp_path / "report")]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: cannot write the report: 'utf-8' codec")
        assert err.count("\n") == 1
