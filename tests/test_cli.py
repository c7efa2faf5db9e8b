"""End-to-end CLI behaviour: exit codes, determinism, formats."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from qcontext import cli, verify
from qcontext.model_io import ModelSpec, kq_model, parse_model, serialize_model
from qcontext.prob import Event

DATA = Path(__file__).parent / "data"


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
    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_overflowing_coefficient_is_an_error(self, capsys, tmp_path, command):
        code, out, err = run(capsys, command, "--model", _overflow_model(tmp_path))
        assert code == 1 and not out
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command", ["represent", "operators", "compare-dist", "dispersion-free"]
    )
    def test_other_commands_succeed(self, capsys, tmp_path, command):
        code, out, err = run(capsys, command, "--model", _overflow_model(tmp_path))
        assert code == 0 and out and not err

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
            spec.space, spec.variables, tuple(Event.of(r) for r in rows)
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


def _label(members: list[str]) -> str:
    return "+".join(members)
