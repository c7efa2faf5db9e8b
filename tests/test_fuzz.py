"""Bounded fuzzing of the CLI on small valid and near-valid model documents.

Every run must end in exit 0 (a report on stdout), exit 1 (exactly one
``error:`` line on stderr) or exit 2 (``verify`` with a failed check), write
no file and never raise.  Documents hold at most six points and mix valid
models with duplicate ids, non-positive weights, sums other than one,
partial assignments, boolean or out-of-range cell indices, listed
non-contexts and value literals up to +-1e400; the argv covers all seven
subcommands with ``--format``, ``--vars``, ``--observable``, ``--align`` and
``--context``.  The examples are derandomised so that the suite is
repeatable; raise ``max_examples`` or drop ``derandomize`` locally to search
further.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qcontext import cli

IDS = [f"p{i}" for i in range(1, 7)]
TINY = Fraction(1, 10**400)
LITERALS = [
    "1", "-1", "0", "2", "1/2", "-3/7", "0.25", "1e400", "-1e400", "1e-400",
    "1e308", "-1e308", "1e200", "-1e200", "1e160", "1.7e308", "1e-320",
]
MODEL_COMMANDS = [
    "analyze", "represent", "operators", "compare-dist", "verify", "dispersion-free",
]
ALIGNMENTS = ["1.0,-1.0", "2,0", "0.5,1e-3", "nan,0", "1e308,0", "1,1e300", "abc"]
GRIDS = ["1/8", "1/4,3/8", "1/3", "0", "1/2", "1e-400", "abc", "1/8,"]


FLAWS = [
    "duplicate id",
    "zero weight",
    "negative weight",
    "weight sum",
    "partial assignment",
    "boolean index",
    "index 3",
    "compatible pair",
    "few points",
]
CELLS = [(1, 1), (1, 2), (2, 1), (2, 2)]


@st.composite
def documents(draw) -> dict:
    """A model document: valid two times in three, else with one flaw."""
    flaw = draw(st.sampled_from([None] * 2 * len(FLAWS) + FLAWS))
    n = draw(st.integers(1, 3) if flaw == "few points" else st.integers(4, 6))
    ids = IDS[:n]
    if flaw == "duplicate id":
        ids[-1] = ids[0]
    # The first four points meet every cell A_i & B_j: an incompatible pair.
    extra = st.lists(st.sampled_from(CELLS), min_size=n - 4, max_size=n - 4)
    cells = (draw(st.permutations(CELLS)) + draw(extra) if n >= 4 else CELLS)[:n]
    if flaw == "compatible pair":
        cells = [(i, i) for i, _ in cells]
    masses = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    weights: list[object] = [Fraction(m, sum(masses)) for m in masses]
    if n > 1 and draw(st.integers(0, 3)) == 0:
        weights[0], weights[-1] = TINY, weights[-1] - TINY + weights[0]
    if flaw == "zero weight":
        weights[0] = 0
    elif flaw == "negative weight":
        weights[0] = -weights[0]
    elif flaw == "weight sum":
        weights[0] += Fraction(1, 7)
    doc = {
        "points": [
            {"id": p, "weight": w if isinstance(w, int) else str(w)}
            for p, w in zip(ids, weights)
        ],
        "variables": {},
    }
    for k, name in enumerate(("a", "b")):
        assignment = {p: cell[k] for p, cell in zip(ids, cells)}
        if flaw == "partial assignment" and k == 0:
            assignment.pop(ids[-1])
        elif flaw == "boolean index" and k == 1:
            assignment[ids[0]] = assignment[ids[0]] == 1
        elif flaw == "index 3":
            assignment[ids[-1]] = 3
        values = ["1", "-1"]
        if draw(st.booleans()):
            literals = st.sampled_from(LITERALS)
            values = draw(st.lists(literals, min_size=2, max_size=2, unique=True))
        doc["variables"][name] = {"values": values, "assignment": assignment}
    if draw(st.integers(0, 3)) == 0:
        listed = st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True)
        doc["contexts"] = draw(st.lists(listed, max_size=4))
    return doc


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(MODEL_COMMANDS + ["sweep"]))
    if command == "sweep":
        argv = ["sweep", "--grid", draw(st.sampled_from(GRIDS))]
    else:
        argv = [command, "--model", "{model}"]
        if draw(st.integers(0, 4)) == 0:
            argv += ["--vars", draw(st.sampled_from(["b,a", "a,a", "a,c", "a"]))]
    if command == "compare-dist":
        if draw(st.booleans()):
            argv += ["--observable", draw(st.sampled_from(["sum", "product"]))]
        if draw(st.booleans()):
            argv += ["--align", draw(st.sampled_from(ALIGNMENTS))]
        if draw(st.booleans()):
            ids = st.lists(st.sampled_from(IDS + ["zz"]), min_size=1, max_size=4)
            argv += ["--context", ",".join(draw(ids))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    return argv


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=documents(), argv=argvs())
def test_every_run_ends_in_a_report_or_one_error_line(tmp_path_factory, doc, argv):
    work = tmp_path_factory.mktemp("fuzz")
    model = work / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(model) if a == "{model}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(work)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(here)
    assert sorted(os.listdir(work)) == ["model.json"]
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1
    else:
        assert code == 0 or (code == 2 and argv[0] == "verify")
        assert out.getvalue() and err.getvalue() == ""
