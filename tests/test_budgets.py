"""Cost guards at 12 points: counts of per-context work, pinned on the ds12
and x12 models of the ROADMAP Snapshot.

``verify``'s context walk and its boundary check on the b-cells read each
event's masses from running subset sums, so ``verify`` makes no
``prob.conditional`` call and sums no reference objects over the points; the
dispersion-free search visits every event by bitmask and builds an ``Event``
only for each event it keeps.  The atlas builds at most one ``Event`` per
subset of the points and one table and amplitude per distinct table.  A
change that brings back per-context re-summing or per-context tables shows
here as a count, not as a time.
"""

import pytest

from qcontext import hilbert, interference, operators, prob, verify
from qcontext.hilbert import ContextAtlas, is_double_stochastic
from qcontext.interference import TwoCellTable
from qcontext.prob import Event
from randmodels import (
    first_draw,
    random_double_stochastic_model,
    random_incompatible_model,
)


# name: (builder, its size keyword, contexts of the 12-point draw)
MODELS = {
    "ds12": (random_double_stochastic_model, "max_split", 3577),
    "x12": (random_incompatible_model, "max_points", 3937),
}


@pytest.mark.parametrize("name", MODELS)
def test_verify_walk_and_dispersion_free_search_budgets(monkeypatch, name):
    make, size, contexts = MODELS[name]
    space, a, b = first_draw(make, 12, **{size: 12})
    atlas = ContextAtlas(space, a, b)
    assert len(atlas.entries) == contexts
    atlas.represented  # built before counting, as the search reads it
    conditionals, outcome_sums, built, found = [], [], [], []
    searching = False

    def counted(calls, fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)

        return wrapper

    def search(atlas):
        nonlocal searching
        searching = True
        try:
            found.append(search_events(atlas))
        finally:
            searching = False
        return found[-1]

    def event_init(self, members):
        if searching:
            built.append(self)
        init(self, members)

    search_events, init = operators.dispersion_free_search, Event.__init__
    monkeypatch.setattr(prob, "conditional", counted(conditionals, prob.conditional))
    monkeypatch.setattr(
        interference,
        "outcome_masses",
        counted(outcome_sums, interference.outcome_masses),
    )
    monkeypatch.setattr(operators, "dispersion_free_search", search)
    monkeypatch.setattr(Event, "__init__", event_init)
    results = verify.run_checks(atlas)
    assert all(r.passed for r in results)
    assert conditionals == []
    # boundary_coefficients_on_cells, which runs when the matrices of both
    # orders are doubly stochastic, reads the b-cells from the walk's sums.
    both_ds = is_double_stochastic(atlas.transition) and is_double_stochastic(
        atlas.reverse.transition
    )
    ran = "boundary_coefficients_on_cells" in {r.name for r in results}
    assert ran == both_ds and outcome_sums == []
    (report,) = found
    assert set(report.dispersion_free) == set(space.atoms())
    assert len(built) <= len(report.dispersion_free)


@pytest.mark.parametrize("name", MODELS)
def test_the_atlas_builds_each_event_once_and_each_table_once(monkeypatch, name):
    make, size, contexts = MODELS[name]
    space, a, b = first_draw(make, 12, **{size: 12})
    atlas = ContextAtlas(space, a, b)
    atlas.a_cells  # the partition's two cells, built before counting
    events, tables, amplitudes = [], [], []

    def counted(calls, fn):
        def wrapper(self, *args, **kwargs):
            calls.append(self)
            return fn(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(Event, "__init__", counted(events, Event.__init__))
    monkeypatch.setattr(
        TwoCellTable, "__init__", counted(tables, TwoCellTable.__init__)
    )
    monkeypatch.setattr(hilbert, "_amplitude", counted(amplitudes, hilbert._amplitude))
    entries = atlas.entries
    monkeypatch.undo()
    distinct = len({e.table.local for e in entries})
    assert len(entries) == contexts
    assert len(events) <= 2 ** len(space.points) - 1
    assert len(tables) == distinct + 1  # and omega, built on first use
    assert len(amplitudes) == distinct
