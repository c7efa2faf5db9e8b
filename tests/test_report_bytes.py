"""Report bytes of every subcommand against recorded sha256 digests.

Each case runs ``cli.main`` in-process and hashes its exit code, stdout and
stderr.  The digests in ``data/report_digests.json`` pin the reports of the
seven subcommands in both formats on the reference family, the stored
witnesses and two generated 8-point models; a change that alters any report
byte fails here.  After a deliberate report change, re-record with

    PYTHONPATH=src python tests/test_report_bytes.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from qcontext import cli  # noqa: E402
from qcontext.model_io import ModelSpec, serialize_model  # noqa: E402
from randmodels import (  # noqa: E402
    random_double_stochastic_model,
    random_incompatible_model,
)

DATA = HERE / "data"
DIGESTS = DATA / "report_digests.json"
MODEL_COMMANDS = (
    "analyze",
    "represent",
    "operators",
    "compare-dist",
    "verify",
    "dispersion-free",
)
WITNESSES = (
    "hyperbolic_witness",
    "non_double_stochastic_witness",
    "cover_families_witness",
)
SWEEP_GRID = "1/8,1/4,3/8"


def _eight_points(draw) -> str:
    """Canonical document of the first 8-point model ``draw`` yields."""
    rng = random.Random(2024)
    while True:
        space, a, b = draw(rng)
        if len(space.points) == 8:
            return serialize_model(ModelSpec(space=space, variables={"a": a, "b": b}))


GENERATED = {
    "ds8": lambda: _eight_points(
        lambda rng: random_double_stochastic_model(rng, max_split=3)
    ),
    "general8": lambda: _eight_points(
        lambda rng: random_incompatible_model(rng, max_points=8)
    ),
}


def _sources(model_dir: Path) -> dict[str, list[str]]:
    """Model source name -> the argv fragment that selects it."""
    sources = {"kq-1/8": ["--kq", "1/8"], "kq-1/4": ["--kq", "1/4"]}
    for name in WITNESSES:
        sources[name] = ["--model", str(DATA / f"{name}.json")]
    for name, build in GENERATED.items():
        path = model_dir / f"{name}.json"
        path.write_text(build(), encoding="utf-8")
        sources[name] = ["--model", str(path)]
    return sources


def _cases(model_dir: Path) -> dict[str, list[str]]:
    cases = {}
    for fmt in ("json", "csv"):
        for source, args in _sources(model_dir).items():
            for command in MODEL_COMMANDS:
                cases[f"{command} {source} {fmt}"] = [command, *args, "--format", fmt]
        cases[f"sweep {fmt}"] = ["sweep", "--grid", SWEEP_GRID, "--format", fmt]
    return cases


def _digest(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    text = f"{code}\n{out.getvalue()}\n{err.getvalue()}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_reports_match_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("CONTEXTUAL_SEED", raising=False)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    cases = _cases(tmp_path)
    assert sorted(cases) == sorted(recorded)
    changed = [name for name, argv in cases.items() if _digest(argv) != recorded[name]]
    assert changed == []


def _record() -> None:
    os.environ.pop("CONTEXTUAL_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: _digest(argv) for name, argv in _cases(Path(tmp)).items()}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", "utf-8")
    print(f"recorded {len(digests)} digests in {DIGESTS}")


if __name__ == "__main__":
    _record()
