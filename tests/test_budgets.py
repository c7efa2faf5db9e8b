"""Cost guards at 12 points: counts of per-context work, pinned on the ds12
and x12 models of the ROADMAP Snapshot.

``verify``'s context walk reads each context's masses from running subset
sums, so it makes no ``prob.conditional`` call and sums no context's
reference objects over the points; the dispersion-free search visits every
event by bitmask and builds an ``Event`` only for each event it keeps.  A change that brings
back per-context re-summing shows here as a count, not as a time.
"""

import random

import pytest

from qcontext import interference, operators, prob, verify
from qcontext.hilbert import ContextAtlas, is_double_stochastic
from qcontext.prob import Event
from randmodels import random_double_stochastic_model, random_incompatible_model


def _first_draw(make, points, **kwargs):
    """The first ``points``-point draw of ``random.Random(7)`` from ``make``."""
    rng = random.Random(7)
    while True:
        space, a, b = make(rng, **kwargs)
        if len(space.points) == points:
            return space, a, b


# name: (builder, its size keyword, contexts of the 12-point draw)
MODELS = {
    "ds12": (random_double_stochastic_model, "max_split", 3577),
    "x12": (random_incompatible_model, "max_points", 3937),
}


@pytest.mark.parametrize("name", MODELS)
def test_verify_walk_and_dispersion_free_search_budgets(monkeypatch, name):
    make, size, contexts = MODELS[name]
    space, a, b = _first_draw(make, 12, **{size: 12})
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
    assert all(r.passed for r in verify.run_checks(atlas))
    assert conditionals == []
    # Only boundary_coefficients_on_cells sums outcomes over the points, one
    # call per b-cell, when the matrices of both orders are doubly stochastic.
    both_ds = is_double_stochastic(atlas.transition) and is_double_stochastic(
        atlas.reverse.transition
    )
    assert len(outcome_sums) == 2 * both_ds
    (report,) = found
    assert set(report.dispersion_free) == set(space.atoms())
    assert len(built) <= len(report.dispersion_free)
