"""Metamorphic relations of the reports: changes of a model that must keep
its reports, checked on random models of at most eight points.

An order-preserving renaming of the point ids keeps the report of every
model subcommand, once both reports are parsed and each new id is mapped
back to its old one.  The contexts keep their (size, members) order and each
mass its place, so every value is computed from the same integers in the
same order: floats compare exactly.  Reports are compared as parsed values,
not as bytes, since an object keyed by context labels may order its keys
differently after a renaming.

Splitting a point into two points of the same cells, whose weights sum to
its weight, keeps every row of each old context under the new context that
holds both halves: the split changes the raw masses but not their ratios,
and every value a row prints is a function of those ratios, computed by
exact or correctly rounded arithmetic, so floats compare exactly here too.
The examples are derandomised so that the suite is repeatable.
"""

import csv
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qcontext import cli
from qcontext.model_io import ModelSpec, model_document
from randmodels import random_double_stochastic_model, random_incompatible_model

RUNS = [
    *(
        (command, "json")
        for command in (
            "analyze", "represent", "operators", "compare-dist", "verify",
            "dispersion-free",
        )
    ),
    *((command, "csv") for command in ("analyze", "compare-dist", "verify")),
]
# Characters of the new ids.  A label joins ids with "+" and a distribution's
# label appends ":classical" or ":quantum", so neither character is drawn;
# the leading "#" keeps every new id apart from the report's other strings.
ALPHABET = "09AZaz_-.éλ日本"


def _renaming(ids: list[str], rng: random.Random) -> dict[str, str]:
    """Old id -> new id, with the new ids sorted as the old ones are."""
    new: set[str] = set()
    while len(new) < len(ids):
        length = rng.randint(1, 4)
        new.add("#" + "".join(rng.choice(ALPHABET) for _ in range(length)))
    return dict(zip(sorted(ids), sorted(new)))


def _renamed(doc: dict, to_new: dict[str, str]) -> dict:
    variables = {}
    for name, var in doc["variables"].items():
        assignment = {to_new[p]: i for p, i in var["assignment"].items()}
        variables[name] = {**var, "assignment": assignment}
    points = [{**point, "id": to_new[point["id"]]} for point in doc["points"]]
    return {**doc, "points": points, "variables": variables}


def _mapped_back(value, back: dict[str, str]):
    """``value`` with every new id, alone or in a context label, replaced
    by its old id."""
    if isinstance(value, dict):
        return {_mapped_back(k, back): _mapped_back(v, back) for k, v in value.items()}
    if isinstance(value, list):
        return [_mapped_back(v, back) for v in value]
    if isinstance(value, str) and value.startswith("#"):
        label, colon, side = value.partition(":")
        return "+".join(back[p] for p in label.split("+")) + colon + side
    return value


def _run(path, command: str, fmt: str) -> tuple[int, object, str]:
    """The exit code, the parsed report and the error text of a run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([command, "--model", str(path), "--format", fmt])
    text = out.getvalue()
    if code == 1:  # the model has no such report, as a non-DS one has no operators
        return code, text, err.getvalue()
    if fmt == "json":
        return code, json.loads(text), err.getvalue()
    return code, list(csv.reader(io.StringIO(text))), err.getvalue()


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    double_stochastic=st.booleans(),
)
def test_an_order_preserving_renaming_of_the_points_keeps_every_report(
    tmp_path_factory, seed, double_stochastic
):
    rng = random.Random(seed)
    make = random_double_stochastic_model if double_stochastic else (
        random_incompatible_model
    )
    space, a, b = make(rng)
    doc = model_document(ModelSpec(space, {"a": a, "b": b}))
    to_new = _renaming(list(space.points), rng)
    back = {new: old for old, new in to_new.items()}
    work = tmp_path_factory.mktemp("renaming")
    original, renamed = work / "original.json", work / "renamed.json"
    original.write_text(json.dumps(doc), encoding="utf-8")
    renamed.write_text(json.dumps(_renamed(doc, to_new)), encoding="utf-8")
    for command, fmt in RUNS:
        code, report, err = _run(original, command, fmt)
        renamed_code, renamed_report, renamed_err = _run(renamed, command, fmt)
        assert renamed_code == code
        assert _mapped_back(renamed_report, back) == report
        for new in sorted(back, key=len, reverse=True):
            renamed_err = renamed_err.replace(new, back[new])
        assert renamed_err == err


# The reports and parts whose rows are keyed by a context: JSON lists of
# objects with a "context", CSV lines led by a context label.
SPLIT_ROWS = {
    ("analyze", "json"): ("analyses",),
    ("represent", "json"): ("states", "phase_gaps"),
    ("operators", "json"): ("means",),
    ("compare-dist", "json"): ("comparisons",),
    ("analyze", "csv"): (),
}


def _split(doc: dict, rng: random.Random) -> tuple[dict, str, tuple[str, str]]:
    """``doc`` with one point replaced by two of the same cells whose
    weights sum to its weight; the old id and the two new ones."""
    index = rng.randrange(len(doc["points"]))
    old = doc["points"][index]["id"]
    halves = (old + "x", old + "y")
    weight = Fraction(doc["points"][index]["weight"])
    first = weight * Fraction(rng.randint(1, 6), 7)
    points = list(doc["points"])
    points[index : index + 1] = [
        {"id": halves[0], "weight": str(first)},
        {"id": halves[1], "weight": str(weight - first)},
    ]
    variables = {}
    for name, var in doc["variables"].items():
        assignment = dict(var["assignment"])
        cell = assignment.pop(old)
        assignment.update(dict.fromkeys(halves, cell))
        variables[name] = {**var, "assignment": assignment}
    return {**doc, "points": points, "variables": variables}, old, halves


def _without_contexts(value):
    """``value`` with every "context" entry of its objects dropped."""
    if isinstance(value, dict):
        return {k: _without_contexts(v) for k, v in value.items() if k != "context"}
    if isinstance(value, list):
        return [_without_contexts(v) for v in value]
    return value


def _rows(report, parts: tuple[str, ...]) -> dict:
    """Each row of ``parts`` of a JSON report, or each line of a CSV one,
    keyed by its part, the point set of its context and, for a CSV line,
    its outcome."""
    if not parts:
        return {
            ("lines", frozenset(line[0].split("+")), line[1]): line[2:]
            for line in report[1:]
        }
    return {
        (part, frozenset(row["context"])): _without_contexts(row)
        for part in parts
        for row in report[part]
    }


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    double_stochastic=st.booleans(),
)
def test_splitting_a_point_keeps_every_row_of_each_old_context(
    tmp_path_factory, seed, double_stochastic
):
    rng = random.Random(seed)
    space = None
    while space is None or len(space.points) > 7:  # eight points once split
        if double_stochastic:
            space, a, b = random_double_stochastic_model(rng)
        else:
            space, a, b = random_incompatible_model(rng, max_points=7)
    doc = model_document(ModelSpec(space, {"a": a, "b": b}))
    split_doc, old, halves = _split(doc, rng)
    work = tmp_path_factory.mktemp("split")
    original, split = work / "original.json", work / "split.json"
    original.write_text(json.dumps(doc), encoding="utf-8")
    split.write_text(json.dumps(split_doc), encoding="utf-8")

    def moved(key):
        members = key[1]
        if old in members:
            members = (members - {old}) | set(halves)
        return (key[0], frozenset(members), *key[2:])

    for (command, fmt), parts in SPLIT_ROWS.items():
        code, report, err = _run(original, command, fmt)
        split_code, split_report, split_err = _run(split, command, fmt)
        assert (split_code, split_err) == (code, err)
        if code == 1:
            continue
        rows, split_rows = _rows(report, parts), _rows(split_report, parts)
        assert rows
        for key, row in rows.items():
            assert split_rows[moved(key)] == row, (command, fmt, key)
