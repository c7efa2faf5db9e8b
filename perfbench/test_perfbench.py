"""Self-tests of the benchmark, kept out of the repository's test suite.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys

import run
import tracer
import workloads as wl


def _bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.startswith(tracer.PACKAGE)
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_generator_is_deterministic_per_seed():
    for name in wl.BUILDERS:
        first = wl.generate(name, 5)
        assert wl.generate(name, 5) == first
        assert wl.generate(name, 5 + wl.POOL) == first
    assert wl.generate("large-distinct", 0) != wl.generate("large-distinct", 1)
    assert wl.generate("small-many", 0) != wl.generate("small-many", 1)


def test_model_stats_agree_with_the_program():
    from qcontext import hilbert
    from qcontext.model_io import parse_model
    from qcontext.prob import contexts_of

    workload = wl.generate("verify-ds", 0)
    for text in workload.models.values():
        spec = parse_model(text)
        a, b = spec.variables["a"], spec.variables["b"]
        stats = wl.model_stats(json.loads(text))
        assert stats.contexts == len(contexts_of(spec.space, a.partition(spec.space)))
        assert stats.mappable == len(hilbert.mappable_contexts(spec.space, a, b))
        assert stats.double_stochastic == hilbert.is_double_stochastic(
            hilbert.transition_matrix(spec.space, a, b)
        )


def test_tracer_wraps_cross_module_bindings_and_restores_them(capsys):
    from qcontext import cli, hilbert, verify

    before = _bindings()
    t = tracer.Tracer()
    with t.installed():
        assert cli.parse_model is not before[("qcontext.cli", "parse_model")]
        assert verify.contexts_of is not before[("qcontext.verify", "contexts_of")]
        assert hilbert.lambda_coefficient is not before[
            ("qcontext.hilbert", "lambda_coefficient")
        ]
        assert t.call(tracer.ROOT_SPAN, cli.main, ["verify", "--kq", "1/4"]) == 0
    capsys.readouterr()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    stats = tracer.summarize(t.dump(0))
    assert stats["operators.represented_states"]["calls"] == 21
    assert stats["verify.run_checks"]["calls"] == 1
    assert t.counts["model_io.report_bytes"] > 0


def test_summarize_splits_busy_and_self_time():
    record = {
        "names": ["root", "child"],
        "spans": {
            "name": [0, 1, 1, 1],
            "parent": [-1, 0, 1, 0],
            "start_ns": [0, 1_000, 2_000, 6_000],
            "end_ns": [10_000, 5_000, 3_000, 7_000],
        },
    }
    stats = tracer.summarize(record)
    assert stats["root"] == {"calls": 1, "busy_s": 10e-6, "self_s": 5e-6}
    # The nested child span counts once towards busy time.
    assert stats["child"]["calls"] == 3
    assert abs(stats["child"]["busy_s"] - 5e-6) < 1e-15
    assert abs(stats["child"]["self_s"] - 5e-6) < 1e-15


def test_recorded_digests_match():
    workload = wl.generate("small-many", 0)
    workload.write_models(run.WORK / workload.name)
    expected = run.load_expected(workload)
    assert expected is not None
    result = run.run_pass(workload, run.child_env(), expected)
    assert result.failures == []
    assert result.attempted == len(workload.invocations)


def test_benchmark_json_matches_the_runner():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(wl.BUILDERS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.layer_units()
