"""qcontext benchmark: CLI wall time per workload, or one traced per-layer pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Every invocation is a fresh
``python -m qcontext.cli`` process, started only after the previous one has
ended (a closed loop with one client), with ``CONTEXTUAL_SEED=0`` and the
checkout's ``src`` first on ``PYTHONPATH``.  Each invocation's exit code and
stdout sha256 are compared with the digests recorded in ``expected/``, and
every ``verify`` report must say ``all_passed``.

``--trace 0`` measures set-up time, then repeats passes over the workload's
invocation list until the next pass would end after ``--seconds``, and
reports medians over passes.  Between invocations, at least every
``REF_EVERY_S`` seconds, the runner times a fixed exact-rational loop in its
own process.  An invocation's wall time divided by the mean of the two
samples around it is its time in reference units (``ref``).  On the shared
2-vCPU machine this was sized on, each CPU flips between a fast and a
slower state every few seconds, and the ratio cancels most of that drift;
the runner and its children are kept on one CPU so that the loop measures
the CPU the invocations run on.

``--trace 1`` runs one untraced pass and one pass through ``traced_cli.py``
and reports per-layer calls, busy and self time.  The lines before the last
are a readable report; the last line is the JSON result.  Generated models
and spans go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads as wl
from tracer import COUNTERS, ROOT_SPAN, TRACED, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
EXPECTED = HERE / "expected"
SETUP_REPEATS = 9
REF_ITERATIONS = 30000
REF_EVERY_S = 1.5

E2E_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in (ROOT_SPAN, *TRACED):
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(
        {
            "prob.contexts": "count",
            "model_io.report_bytes": "B",
            "interference.lambda_coefficient.calls_per_context": "ratio",
            "operators.represented_states.calls_per_verify": "ratio",
            "workload.contexts": "count",
            "workload.distinct_tables": "count",
            "workload.reuse_ceiling": "ratio",
            "workload.verify_invocations": "count",
            "trace.untraced_wall_s": "s",
            "trace.traced_wall_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["CONTEXTUAL_SEED"] = "0"
    env["COLUMNS"] = "80"
    return env


@dataclass
class Outcome:
    wall_s: float
    exit_code: int
    stdout: bytes
    rss_mb: float
    stderr: str


def invoke(command: list[str], env: dict[str, str]) -> Outcome:
    """Run one child to completion; wall time covers start to reap."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT
        )
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", errors="replace")
    return Outcome(
        wall_s=wall,
        exit_code=proc.returncode,
        stdout=out,
        rss_mb=usage.ru_maxrss / 1024,
        stderr=stderr,
    )


def reference_sample() -> float:
    """Wall time of a fixed exact-rational loop in this process: the
    machine-speed yardstick for invocation times."""
    total = Fraction(0)
    start = time.perf_counter()
    for k in range(1, REF_ITERATIONS):
        total += Fraction(k % 97 + 1, k % 89 + 2) * Fraction(3, k % 7 + 1)
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the reference
    loop measures the CPU the invocations run on."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def cli_command(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "qcontext.cli", *args]


def traced_command(args: list[str], spans: Path, invocation: int) -> list[str]:
    return [
        sys.executable, str(HERE / "traced_cli.py"), str(spans), str(invocation),
        "--", *args,
    ]


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def record_entry(workload: wl.Workload, inv: wl.Invocation, out: Outcome) -> dict:
    return {
        "label": inv.label(),
        "input_sha256": sha256(workload.input_text(inv)),
        "exit": out.exit_code,
        "stdout_sha256": sha256(out.stdout),
    }


def load_expected(workload: wl.Workload) -> list[dict] | None:
    path = EXPECTED / f"{workload.name}.json"
    if not path.is_file():
        return None
    draws = json.loads(path.read_text(encoding="utf-8"))["draws"]
    return draws.get(str(workload.draw))


def problems(
    workload: wl.Workload, inv: wl.Invocation, want: dict | None, out: Outcome
) -> list[str]:
    """Why this outcome is wrong; empty when it is right."""
    got = record_entry(workload, inv, out)
    if want is None:
        return ["no recorded digest"]
    if want["input_sha256"] != got["input_sha256"]:
        return ["input differs from the recorded one (stale expected/)"]
    found = []
    if got["exit"] != want["exit"]:
        found.append(f"exit {got['exit']} != {want['exit']}: {out.stderr.strip()}")
    if got["stdout_sha256"] != want["stdout_sha256"]:
        found.append("stdout digest differs")
    if inv.subcommand == "verify":
        try:
            passed = json.loads(out.stdout)["all_passed"] is True
        except (ValueError, KeyError, TypeError):
            passed = False
        if not passed:
            found.append("verify did not report all_passed")
    return found


@dataclass
class PassResult:
    wall_s: float = 0.0
    wall_ref: float = 0.0
    by_subcommand: dict[str, float] = field(default_factory=dict)
    by_subcommand_ref: dict[str, float] = field(default_factory=dict)
    references: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def run_pass(
    workload: wl.Workload,
    env: dict[str, str],
    expected: list[dict] | None,
    spans_dir: Path | None = None,
) -> PassResult:
    """One pass over the invocation list; traced when ``spans_dir`` is set."""
    model_dir = WORK / workload.name
    result = PassResult(references=[reference_sample()])
    sampled_at = time.perf_counter()
    pending: list[tuple[str, float]] = []
    last = len(workload.invocations) - 1
    for i, inv in enumerate(workload.invocations):
        args = inv.argv(model_dir)
        if spans_dir is None:
            command = cli_command(args)
        else:
            command = traced_command(args, spans_dir / f"{i}.json", i)
        out = invoke(command, env)
        result.wall_s += out.wall_s
        _add(result.by_subcommand, inv.subcommand, out.wall_s)
        pending.append((inv.subcommand, out.wall_s))
        if i == last or time.perf_counter() - sampled_at >= REF_EVERY_S:
            result.references.append(reference_sample())
            sampled_at = time.perf_counter()
            scale = 2 / (result.references[-2] + result.references[-1])
            for cmd, wall in pending:
                result.wall_ref += wall * scale
                _add(result.by_subcommand_ref, cmd, wall * scale)
            pending.clear()
        result.peak_rss_mb = max(result.peak_rss_mb, out.rss_mb)
        result.attempted += 1
        want = expected[i] if expected and i < len(expected) else None
        result.failures += [
            f"{inv.label()}: {p}" for p in problems(workload, inv, want, out)
        ]
    return result


def _add(totals: dict[str, float], key: str, value: float) -> None:
    totals[key] = totals.get(key, 0.0) + value


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def describe(workload: wl.Workload) -> str:
    s = wl.summary(workload)
    big = s["largest_model"]
    return (
        f"workload {workload.name}, draw {workload.draw} of {wl.POOL}: "
        f"{s['invocations']} invocations; largest model {big.points} points, "
        f"{big.contexts} contexts, {big.distinct_tables} distinct tables, "
        f"{big.mappable} mappable, "
        f"{'doubly stochastic' if big.double_stochastic else 'not doubly stochastic'}"
    )


def timed_run(workload, env, expected, seconds: int) -> dict:
    deadline = time.perf_counter() + seconds
    setups, failures = [], []
    for _ in range(SETUP_REPEATS):
        out = invoke(cli_command(["--help"]), env)
        setups.append(out.wall_s)
        if out.exit_code != 0:
            failures.append(f"--help: exit {out.exit_code}")
    passes: list[PassResult] = []
    while True:
        started = time.perf_counter()
        passes.append(run_pass(workload, env, expected))
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    attempted = SETUP_REPEATS + sum(p.attempted for p in passes)
    failures += [f for p in passes for f in p.failures]

    rows = {
        "setup_s": setups,
        "wall_ref": [p.wall_ref for p in passes],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
        "wall_s": [p.wall_s for p in passes],
        "reference_s": [r for p in passes for r in p.references],
    }
    units = {**E2E_UNITS, "wall_s": "s", "reference_s": "s"}
    for cmd in wl.SUBCOMMANDS:
        if cmd in passes[0].by_subcommand:
            name = cmd.replace("-", "_")
            rows[f"{name}_s"] = [p.by_subcommand[cmd] for p in passes]
            rows[f"{name}_ref"] = [p.by_subcommand_ref[cmd] for p in passes]
            units[f"{name}_s"] = "s"
            units[f"{name}_ref"] = "ref"
    print(describe(workload))
    print(f"{'metric':<20} {'unit':<5} {'median':>10} {'q1':>10} {'q3':>10} {'n':>3}")
    for name, values in rows.items():
        med, q1, q3 = spread(values)
        print(
            f"{name:<20} {units[name]:<5} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} "
            f"{len(values):>3}"
        )
    print(
        f"failed_ratio         ratio {len(failures) / attempted:>10.4f} "
        f"({len(failures)} of {attempted} invocations)"
    )
    for f in failures:
        print(f"FAILED {f}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": spread(rows[name])[0], "unit": unit}
            for name, unit in E2E_UNITS.items()
        },
    }


def traced_run(workload, env, expected) -> dict:
    untraced = run_pass(workload, env, expected)
    spans_dir = WORK / "spans" / workload.name
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    traced = run_pass(workload, env, expected, spans_dir)

    names = (ROOT_SPAN, *TRACED)
    totals = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for n in names}
    counts = dict.fromkeys(COUNTERS, 0)
    per_invocation = []
    for i, inv in enumerate(workload.invocations):
        path = spans_dir / f"{i}.json"
        if not path.is_file():
            traced.failures.append(f"{inv.label()}: no spans written")
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        stats = summarize(record)
        for n in names:
            for key in totals[n]:
                totals[n][key] += stats[n][key]
        for key in counts:
            counts[key] += record["counts"][key]
        per_invocation.append((inv, stats))

    summary = wl.summary(workload)
    verifies = sum(inv.subcommand == "verify" for inv in workload.invocations)
    metrics: dict[str, float] = {}
    for n in names:
        for key, value in totals[n].items():
            metrics[f"{n}.{key}"] = value
    metrics.update(
        {
            "prob.contexts": counts["prob.contexts"],
            "model_io.report_bytes": counts["model_io.report_bytes"],
            "interference.lambda_coefficient.calls_per_context": (
                totals["interference.lambda_coefficient"]["calls"]
                / summary["contexts"]
            ),
            "operators.represented_states.calls_per_verify": (
                sum(
                    stats["operators.represented_states"]["calls"]
                    for inv, stats in per_invocation
                    if inv.subcommand == "verify"
                )
                / verifies
                if verifies
                else 0.0
            ),
            "workload.contexts": summary["contexts"],
            "workload.distinct_tables": summary["distinct_tables"],
            "workload.reuse_ceiling": (
                summary["distinct_tables"] / summary["contexts"]
            ),
            "workload.verify_invocations": verifies,
            "trace.untraced_wall_s": untraced.wall_s,
            "trace.traced_wall_s": traced.wall_s,
            "trace.overhead_s": traced.wall_s - untraced.wall_s,
        }
    )

    print(describe(workload))
    print(
        f"{'invocation':<44} {'wall_s':>8} {'lambda':>8} {'repr_st':>7} "
        f"{'ctx_of':>6} {'cli_self':>8}"
    )
    for inv, stats in per_invocation:
        print(
            f"{inv.label()[:44]:<44} {stats[ROOT_SPAN]['busy_s']:>8.3f} "
            f"{stats['interference.lambda_coefficient']['calls']:>8} "
            f"{stats['operators.represented_states']['calls']:>7} "
            f"{stats['prob.contexts_of']['calls']:>6} "
            f"{stats[ROOT_SPAN]['self_s']:>8.3f}"
        )
    units = layer_units()
    for name, value in metrics.items():
        print(f"{name:<56} {units[name]:<5} {value:.6g}")
    failures = untraced.failures + traced.failures
    for f in failures:
        print(f"FAILED {f}")
    return {
        "correct": not failures,
        "attempted": untraced.attempted + traced.attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qcontext" / "cli.py").is_file():
        sys.stderr.write(f"error: no qcontext sources under {ROOT / 'src'}\n")
        return 2
    workload = wl.generate(args.workload, args.seed)
    workload.write_models(WORK / workload.name)
    expected = load_expected(workload)
    env = child_env()
    pin_to_one_cpu()
    if args.trace:
        result = traced_run(workload, env, expected)
    else:
        result = timed_run(workload, env, expected, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
