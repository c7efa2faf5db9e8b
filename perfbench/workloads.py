"""Seeded workload generator for the qcontext benchmark.

A workload is a list of CLI invocations over model documents that this module
writes itself.  The workload seed drives only this generator; the program
always runs with ``CONTEXTUAL_SEED=0``.  Seeds are folded into a pool of
``POOL`` model draws (``--seed n`` uses draw ``n % POOL``) because the output
check compares every report against a digest recorded for that draw.

Model statistics (contexts, distinct normalised 2x2 tables, mappable
contexts, double stochasticity) are computed here from the exact 2x2 mass
tables, independently of the program, so the generator can hold the amount
of work steady across seeds: a large model is redrawn until its mappable
context count falls inside a fixed band, because ``represent``,
``compare-dist`` and ``verify`` cost grows with that count.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

POOL = 16
HERE = Path(__file__).resolve().parent
WITNESSES = ("hyperbolic_witness", "non_double_stochastic_witness")
KQ_SMALL = ("1/8", "1/4", "3/8")
MODEL_COMMANDS = (
    "analyze",
    "represent",
    "operators",
    "compare-dist",
    "verify",
    "dispersion-free",
)
DS_ONLY = ("operators", "compare-dist")
SUBCOMMANDS = MODEL_COMMANDS + ("sweep",)

# Atoms per (a-cell, b-cell) intersection.
SHAPE_10 = {(1, 1): 2, (1, 2): 3, (2, 1): 2, (2, 2): 3}
SHAPE_8 = {(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 3}

# Accepted mappable-context counts; see the module docstring.
BAND_REUSE = (895, 915)
BAND_DISTINCT = (840, 870)
BAND_VERIFY = (182, 192)


@dataclass(frozen=True)
class ModelStats:
    points: int
    contexts: int
    distinct_tables: int
    mappable: int
    double_stochastic: bool


@dataclass(frozen=True)
class Invocation:
    """One CLI call.  ``model`` names a generated model file, whose path
    replaces the ``{model}`` placeholder in ``args``."""

    subcommand: str
    args: tuple[str, ...]
    model: str | None
    stats: ModelStats | None

    def argv(self, model_dir: Path) -> list[str]:
        return [
            str(model_dir / self.model) if a == "{model}" else a for a in self.args
        ]

    def label(self) -> str:
        return " ".join(self.model if a == "{model}" else a for a in self.args)


@dataclass(frozen=True)
class Workload:
    name: str
    draw: int
    models: dict[str, str]  # file name -> document text
    invocations: tuple[Invocation, ...]

    def write_models(self, model_dir: Path) -> None:
        model_dir.mkdir(parents=True, exist_ok=True)
        for fname, text in self.models.items():
            (model_dir / fname).write_text(text, encoding="utf-8")

    def input_text(self, inv: Invocation) -> str:
        """argv and model bytes of one invocation, for the stale-digest check."""
        body = self.models[inv.model] if inv.model else ""
        return inv.label() + "\n" + body


# ---------------------------------------------------------------- documents


def _document(cells: dict[tuple[int, int], list[int]]) -> dict:
    """Model document with integer atom masses normalised to one; points are
    numbered p1.. in (a-cell, b-cell) order."""
    total = sum(sum(masses) for masses in cells.values())
    points, a_assign, b_assign = [], {}, {}
    for (ai, bi), masses in sorted(cells.items()):
        for mass in masses:
            pid = f"p{len(points) + 1}"
            points.append({"id": pid, "weight": str(Fraction(mass, total))})
            a_assign[pid] = ai
            b_assign[pid] = bi
    return {
        "points": points,
        "variables": {
            "a": {"values": ["1", "-1"], "assignment": a_assign},
            "b": {"values": ["1", "-1"], "assignment": b_assign},
        },
    }


def kq_document(q: str) -> dict:
    """The four-point reference family at parameter q, as ``--kq`` builds it."""
    q = Fraction(q)
    rest = (1 - 2 * q) / 2
    weights = {"w1": q, "w2": rest, "w3": q, "w4": rest}
    return {
        "points": [{"id": p, "weight": str(w)} for p, w in weights.items()],
        "variables": {
            "a": {
                "values": ["1", "-1"],
                "assignment": {"w1": 1, "w2": 1, "w3": 2, "w4": 2},
            },
            "b": {
                "values": ["1", "-1"],
                "assignment": {"w1": 1, "w2": 2, "w3": 2, "w4": 1},
            },
        },
    }


def witness_document(name: str) -> dict:
    return json.loads((HERE / "models" / f"{name}.json").read_text("utf-8"))


def _text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------- statistics


def model_stats(doc: dict) -> ModelStats:
    """Exact statistics of the pair (a, b) from per-context 2x2 mass tables.

    For a context with masses m[i][j] on (a-cell i, b-cell j), total M and
    a-cell masses m_i, and the global transition matrix T:
    delta_j = sum_i (m[i][j] - m_i T[i][j]) / M and
    lambda_j^2 = delta_j^2 / (4 (m_1/M) T[1][j] (m_2/M) T[2][j]).
    A context is mappable when both squares are at most one.
    """
    weights = {p["id"]: Fraction(p["weight"]) for p in doc["points"]}
    a = doc["variables"]["a"]["assignment"]
    b = doc["variables"]["b"]["assignment"]
    key = {p: (a[p] - 1, b[p] - 1) for p in weights}
    glob = [[Fraction(0)] * 2 for _ in range(2)]
    for p, w in weights.items():
        i, j = key[p]
        glob[i][j] += w
    trans = [[glob[i][j] / sum(glob[i]) for j in range(2)] for i in range(2)]
    ds = all(trans[0][j] + trans[1][j] == 1 for j in range(2))

    halves = [[p for p in weights if key[p][0] == i] for i in range(2)]
    subsets = [
        [c for r in range(1, len(h) + 1) for c in combinations(h, r)]
        for h in halves
    ]
    tables = set()
    mappable = 0
    for s1 in subsets[0]:
        for s2 in subsets[1]:
            m = [[Fraction(0)] * 2 for _ in range(2)]
            for p in s1 + s2:
                i, j = key[p]
                m[i][j] += weights[p]
            total = sum(m[0]) + sum(m[1])
            tables.add(tuple(x / total for row in m for x in row))
            rows = [sum(m[0]), sum(m[1])]
            ok = True
            for j in range(2):
                delta = sum(m[i][j] - rows[i] * trans[i][j] for i in range(2)) / total
                radicand = 4 * rows[0] * rows[1] * trans[0][j] * trans[1][j]
                ok = ok and delta * delta * total * total <= radicand
            mappable += ok
    return ModelStats(
        points=len(weights),
        contexts=len(subsets[0]) * len(subsets[1]),
        distinct_tables=len(tables),
        mappable=mappable,
        double_stochastic=ds,
    )


# ---------------------------------------------------------------- model draws


def _ds_cells(rng: random.Random, shape: dict, equal_atoms: bool) -> dict:
    """Cell totals (t*u, t*v, s*v, s*u) make the forward transition matrix
    doubly stochastic for any positive u, v, s, t."""
    u, v, s, t = (rng.randint(1, 6) for _ in range(4))
    totals = {(1, 1): t * u, (1, 2): t * v, (2, 1): s * v, (2, 2): s * u}
    cells = {}
    for cell, count in shape.items():
        scaled = 60 * totals[cell]
        if equal_atoms:
            cells[cell] = [scaled // count] * count
        else:
            cuts = sorted(rng.sample(range(1, scaled), count - 1))
            bounds = [0] + cuts + [scaled]
            cells[cell] = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    return cells


def _general_cells(rng: random.Random, shape: dict) -> dict:
    return {
        cell: [rng.randint(1, 10**6) for _ in range(count)]
        for cell, count in shape.items()
    }


def _draw(name: str, draw: int, make, band, want_ds: bool, want_distinct: bool):
    rng = random.Random(f"{name}:{draw}")
    while True:
        doc = _document(make(rng))
        stats = model_stats(doc)
        if (
            band[0] <= stats.mappable <= band[1]
            and stats.double_stochastic == want_ds
            and (not want_distinct or stats.distinct_tables == stats.contexts)
        ):
            return doc, stats


def _sweep_grid(rng: random.Random, count: int = 40) -> list[str]:
    grid: list[Fraction] = []
    while len(grid) < count:
        den = rng.randint(3, 64)
        q = Fraction(rng.randint(1, (den - 1) // 2), den)
        if q not in grid:
            grid.append(q)
    return [str(q) for q in grid]


# ---------------------------------------------------------------- workloads


def _model_calls(commands, fname, stats) -> list[Invocation]:
    return [
        Invocation(cmd, (cmd, "--model", "{model}"), fname, stats)
        for cmd in commands
    ]


def _large_reuse(draw: int) -> Workload:
    doc, stats = _draw(
        "large-reuse",
        draw,
        lambda rng: _ds_cells(rng, SHAPE_10, equal_atoms=True),
        BAND_REUSE,
        want_ds=True,
        want_distinct=False,
    )
    calls = _model_calls(
        ("analyze", "represent", "operators", "compare-dist", "dispersion-free"),
        "large-reuse.json",
        stats,
    )
    return Workload("large-reuse", draw, {"large-reuse.json": _text(doc)}, tuple(calls))


def _large_distinct(draw: int) -> Workload:
    doc, stats = _draw(
        "large-distinct",
        draw,
        lambda rng: _general_cells(rng, SHAPE_10),
        BAND_DISTINCT,
        want_ds=False,
        want_distinct=True,
    )
    calls = _model_calls(
        ("analyze", "represent", "dispersion-free", "verify"),
        "large-distinct.json",
        stats,
    )
    return Workload(
        "large-distinct", draw, {"large-distinct.json": _text(doc)}, tuple(calls)
    )


def _verify_ds(draw: int) -> Workload:
    doc, stats = _draw(
        "verify-ds",
        draw,
        lambda rng: _ds_cells(rng, SHAPE_8, equal_atoms=False),
        BAND_VERIFY,
        want_ds=True,
        want_distinct=False,
    )
    witness = "hyperbolic_witness"
    models = {
        "verify-ds.json": _text(doc),
        f"{witness}.json": _text(witness_document(witness)),
    }
    calls = _model_calls(("verify",), "verify-ds.json", stats)
    for q in ("1/8", "1/4"):
        calls.append(
            Invocation("verify", ("verify", "--kq", q), None, model_stats(kq_document(q)))
        )
    calls += _model_calls(
        ("verify",), f"{witness}.json", model_stats(witness_document(witness))
    )
    return Workload("verify-ds", draw, models, tuple(calls))


def _small_many(draw: int) -> Workload:
    rng = random.Random(f"small-many:{draw}")
    models = {}
    calls: list[Invocation] = []
    for q in KQ_SMALL:
        stats = model_stats(kq_document(q))
        calls += [
            Invocation(cmd, (cmd, "--kq", q), None, stats) for cmd in MODEL_COMMANDS
        ]
    for witness in WITNESSES:
        doc = witness_document(witness)
        stats = model_stats(doc)
        fname = f"{witness}.json"
        models[fname] = _text(doc)
        # operators and compare-dist exit 1 by design on a non-DS model.
        commands = [
            c
            for c in MODEL_COMMANDS
            if stats.double_stochastic or c not in DS_ONLY
        ]
        calls += _model_calls(commands, fname, stats)
    grid = ",".join(_sweep_grid(rng))
    calls.append(Invocation("sweep", ("sweep", "--grid", grid), None, None))
    return Workload("small-many", draw, models, tuple(calls))


BUILDERS = {
    "large-reuse": _large_reuse,
    "large-distinct": _large_distinct,
    "verify-ds": _verify_ds,
    "small-many": _small_many,
}


def generate(name: str, seed: int) -> Workload:
    """The workload ``name`` for benchmark seed ``seed``."""
    return BUILDERS[name](seed % POOL)


def summary(workload: Workload) -> dict:
    """Input properties summed over the workload's model invocations."""
    with_model = [inv.stats for inv in workload.invocations if inv.stats]
    heavy = max(with_model, key=lambda s: s.contexts)
    return {
        "invocations": len(workload.invocations),
        "contexts": sum(s.contexts for s in with_model),
        "distinct_tables": sum(s.distinct_tables for s in with_model),
        "largest_model": heavy,
    }
