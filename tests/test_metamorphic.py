"""Metamorphic relations of the reports: changes of a model that must keep
its reports, checked on random models of at most eight points.

An order-preserving renaming of the point ids keeps the report of every
model subcommand, once both reports are parsed and each new id is mapped
back to its old one.  The contexts keep their (size, members) order and each
mass its place, so every value is computed from the same integers in the
same order: floats compare exactly.  Reports are compared as parsed values,
not as bytes, since an object keyed by context labels may order its keys
differently after a renaming.  The examples are derandomised so that the
suite is repeatable.
"""

import csv
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

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
