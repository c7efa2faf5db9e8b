"""Report bytes of every subcommand against recorded sha256 digests.

Each case runs ``cli.main`` in-process and hashes its exit code, stdout and
stderr.  The digests in ``data/report_digests.json`` pin the reports of the
seven subcommands in both formats on the reference family, the stored
witnesses and two generated 8-point models.  Those in
``data/report_digests_large.json`` pin the JSON reports of ``analyze``,
``represent``, ``operators``, ``compare-dist``, ``verify`` and
``dispersion-free`` (up to 1.4 MB each) on a generated 10-point doubly
stochastic model with 2, 3, 2 and 3 atoms in its four cells, whose 961
contexts have 289 distinct local mass tables, the CSV reports of
``analyze`` and ``compare-dist`` on that model, and the ``verify`` report of
a generated 10-point general model of the same shape.  A change that alters
any report byte fails here.  Five of the large reports are also run with
a stdout that records each write: the CLI must hand them out in more than
one piece of at most 64 KiB, which join to the recorded bytes.  After a deliberate report
change, re-record both files with

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

import pytest

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
LARGE_DIGESTS = DATA / "report_digests_large.json"
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
LARGE_COMMANDS = (
    "analyze",
    "represent",
    "operators",
    "compare-dist",
    "verify",
    "dispersion-free",
)
# Atoms per (a-cell, b-cell) intersection of the 10-point model.
SHAPE_10 = {(1, 1): 2, (1, 2): 3, (2, 1): 2, (2, 2): 3}


def _first(draw, accept) -> str:
    """Canonical document of the first model ``draw`` yields that ``accept``
    takes."""
    rng = random.Random(2024)
    while True:
        space, a, b = draw(rng)
        if accept(space, a, b):
            return serialize_model(ModelSpec(space=space, variables={"a": a, "b": b}))


def _eight_points(space, a, b) -> bool:
    return len(space.points) == 8


def _shape_10(space, a, b) -> bool:
    cells = [(a.assignment[p], b.assignment[p]) for p in space.points]
    return {key: cells.count(key) for key in set(cells)} == SHAPE_10


def _doubly_stochastic(rng):
    return random_double_stochastic_model(rng, max_split=3)


GENERATED = {
    "ds8": lambda: _first(_doubly_stochastic, _eight_points),
    "general8": lambda: _first(
        lambda rng: random_incompatible_model(rng, max_points=8), _eight_points
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


def _large_cases(model_dir: Path) -> dict[str, list[str]]:
    ds10, general10 = model_dir / "ds10.json", model_dir / "general10.json"
    ds10.write_text(_first(_doubly_stochastic, _shape_10), encoding="utf-8")
    general10.write_text(
        _first(lambda rng: random_incompatible_model(rng, max_points=10), _shape_10),
        encoding="utf-8",
    )
    cases = {
        f"{command} ds10 json": [command, "--model", str(ds10), "--format", "json"]
        for command in LARGE_COMMANDS
    }
    cases["verify general10 json"] = [
        "verify", "--model", str(general10), "--format", "json"
    ]
    for command in ("analyze", "compare-dist"):
        cases[f"{command} ds10 csv"] = [command, "--model", str(ds10), "--format", "csv"]
    return cases


def _digest(argv: list[str], out=None) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process run;
    ``out`` stands in for stdout if given."""
    out, err = out or io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    text = f"{code}\n{out.getvalue()}\n{err.getvalue()}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _assert_recorded(cases: dict[str, list[str]], path: Path) -> None:
    recorded = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(cases) == sorted(recorded)
    changed = [name for name, argv in cases.items() if _digest(argv) != recorded[name]]
    assert changed == []


def test_reports_match_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("CONTEXTUAL_SEED", raising=False)
    _assert_recorded(_cases(tmp_path), DIGESTS)


def test_large_reports_match_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("CONTEXTUAL_SEED", raising=False)
    _assert_recorded(_large_cases(tmp_path), LARGE_DIGESTS)


class _Recorder:
    """A stdout that keeps each piece written to it."""

    def __init__(self) -> None:
        self.pieces: list[str] = []

    def write(self, text: str) -> int:
        self.pieces.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def getvalue(self) -> str:
        return "".join(self.pieces)


@pytest.mark.parametrize(
    "case", ["analyze", "represent", "compare-dist", "analyze csv", "compare-dist csv"]
)
def test_large_reports_are_written_in_pieces(tmp_path, monkeypatch, case):
    """The CLI hands a report to stdout a row or line at a time, never
    whole: in more than one piece, each at most 64 KiB."""
    monkeypatch.delenv("CONTEXTUAL_SEED", raising=False)
    command, _, fmt = case.partition(" ")
    name = f"{command} ds10 {fmt or 'json'}"
    recorded = json.loads(LARGE_DIGESTS.read_text(encoding="utf-8"))
    stdout = _Recorder()
    assert _digest(_large_cases(tmp_path)[name], stdout) == recorded[name]
    assert len(stdout.pieces) > 1
    assert max(len(piece.encode("utf-8")) for piece in stdout.pieces) <= 64 * 1024


def _record() -> None:
    os.environ.pop("CONTEXTUAL_SEED", None)
    for build, path in ((_cases, DIGESTS), (_large_cases, LARGE_DIGESTS)):
        with tempfile.TemporaryDirectory() as tmp:
            digests = {name: _digest(argv) for name, argv in build(Path(tmp)).items()}
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", "utf-8")
        print(f"recorded {len(digests)} digests in {path}")


if __name__ == "__main__":
    _record()
