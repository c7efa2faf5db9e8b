"""The context atlas against the per-context reference path.

An atlas is built once per model and read by every report.  On every
context of the first 50 models of each random-model stream of the
acceptance suite, and of the stored hyperbolic witness, it must give
exactly what the reference path gives context by context: the contexts of
``contexts_of`` in their order, the tables, coefficients and classification
of ``TwoCellTable.of`` (which ``test_acceptance.test_03`` checks against the
Event-level functions on the same models), amplitudes bit for bit equal to
the Fraction formula they replaced, and composite means, distributions and
dispersions equal to plain Fraction sums over the points.
"""

import cmath
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from qcontext.errors import NotAContextError, NotTrigonometricError
from qcontext.hilbert import (
    SIGNS,
    ContextAtlas,
    amplitude,
    born_in_a_basis_check,
    mappable_contexts,
    nonsensitive_contexts,
    phase_gap,
    represented_states,
)
from qcontext.interference import TwoCellTable
from qcontext.model_io import parse_model
from qcontext.operators import (
    CompositeObservable,
    ObservableKind,
    classical_distribution,
    classical_mean,
    dispersion,
)
from qcontext.prob import Event, contexts_of
from randmodels import random_double_stochastic_model, random_incompatible_model

DATA = Path(__file__).parent / "data"
FIRST = 50


def _models():
    rng = random.Random(1003)
    for _ in range(FIRST):
        cap = rng.choice([6, 7, 8, 8, 8, 10])
        yield random_incompatible_model(rng, max_points=cap)
    rng = random.Random(2003)
    for _ in range(FIRST):
        yield random_double_stochastic_model(rng)
    witness = parse_model((DATA / "hyperbolic_witness.json").read_text())
    yield witness.space, witness.variables["a"], witness.variables["b"]


MODELS = list(_models())


# ------------------------------------------------------------ references


def ref_amplitude(table):
    """The amplitude as built before the atlas, from a table of its own:
    square roots of the floats of the Fractions P(A_i|C) P(B_j|A_i)."""
    pa, trans = table.a_given_c, table.b_given_a
    theta = [k.phase for k in table.coefficients()]
    components = []
    for j in range(2):
        first = math.sqrt(float(pa[0] * trans[0][j]))
        second = math.sqrt(float(pa[1] * trans[1][j]))
        components.append(first + cmath.exp(1j * SIGNS[j] * theta[j]) * second)
    return tuple(components)


def bits(z: complex) -> tuple[str, str]:
    return (z.real.hex(), z.imag.hex())


def ref_value(obs, p):
    y = obs.b.values[obs.b.assignment[p] - 1]
    if obs.kind is ObservableKind.G_OF_B:
        return obs.g[y]
    x = obs.a.values[obs.a.assignment[p] - 1]
    if obs.kind is ObservableKind.F_OF_A:
        return obs.f[x]
    if obs.kind is ObservableKind.SUM:
        return obs.f[x] + obs.g[y]
    return x * y


def ref_law(space, values, c):
    """(mean, distribution, variance) of point ``values`` on ``c``, from the
    point weights summed per value as plain Fractions."""
    law = dict.fromkeys(values.values(), Fraction(0))
    for p in c.members:
        law[values[p]] += space.weights[p]
    weight = sum(law.values())
    mean = sum(v * w for v, w in law.items()) / weight
    variance = sum((v - mean) ** 2 * w for v, w in law.items()) / weight
    return mean, {v: w / weight for v, w in sorted(law.items())}, variance


def observables(rng, index, a, b):
    """A sum with random value maps and, in turn by model, a product, a
    function of a alone or one of b alone."""

    def values(var):
        return {v: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for v in var.values}

    other = (
        CompositeObservable.product_of(a, b),
        CompositeObservable.of_a(a, b, values(a)),
        CompositeObservable.of_b(b, values(b)),
    )
    return [CompositeObservable.sum_of(a, b, values(a), values(b)), other[index % 3]]


# ----------------------------------------------------------------- tests


@pytest.mark.parametrize("index", range(len(MODELS)))
def test_atlas_equals_the_per_context_path(index):
    space, a, b = MODELS[index]
    ap = a.partition(space)
    atlas = ContextAtlas(space, a, b)
    assert atlas.contexts == contexts_of(space, ap)
    for e in atlas.entries:
        table = TwoCellTable.of(space, a.assignment, b.assignment, e.context)
        assert e.table == table
        assert e.table.whole is atlas.omega.whole
        assert e.table.coefficients() == table.coefficients()
        assert e.table.classification == table.classification
        if table.mappable:
            assert [bits(z) for z in e.state.components] == [
                bits(z) for z in ref_amplitude(table)
            ]
        else:
            assert e.state is None
    assert mappable_contexts(space, a, b) == tuple(
        e.context for e in atlas.entries if e.state is not None
    )
    assert nonsensitive_contexts(space, a, b) == tuple(
        e.context for e in atlas.entries if e.table.delta(0) == e.table.delta(1) == 0
    )
    for c, gap in atlas.phase_gap_profile(-1, +1):
        assert gap == phase_gap(space, a, b, c, -1, +1)


@pytest.mark.parametrize("index", range(len(MODELS)))
def test_composite_laws_equal_point_sums(index):
    space, a, b = MODELS[index]
    atlas = ContextAtlas(space, a, b)
    rng = random.Random(index)
    entries = list(atlas.entries)
    if atlas.mappable:
        entries += [e for e in atlas.represented if e.context in atlas.a_cells]
    for obs in observables(rng, index, a, b):
        values = {p: ref_value(obs, p) for p in space.points}
        for e in entries:
            c = e.context
            mean, law, variance = ref_law(space, values, c)
            assert obs.mean_on(e.table.local) == mean
            assert classical_mean(space, obs, c) == mean
            assert obs.distribution_on(e.table.local, atlas.omega.whole) == law
            assert classical_distribution(space, obs, c) == law
            assert dispersion(space, obs, c) == variance


def test_the_represented_family_is_sorted_and_carries_the_cells():
    for space, a, b in MODELS[FIRST : FIRST + 10]:
        atlas = ContextAtlas(space, a, b)
        states = represented_states(space, a, b)
        events = [c for c, _ in states]
        assert events == sorted(events, key=lambda e: (len(e.members), e.members))
        assert set(events) == {e.context for e in atlas.mappable} | set(atlas.a_cells)
        by_event = dict(states)
        for cell, vector in zip(atlas.a_cells, atlas.basis.e_a):
            assert by_event[cell] == vector


def test_listed_contexts_keep_their_order_and_errors():
    space, a, b = MODELS[FIRST + 3]
    every = contexts_of(space, a.partition(space))
    listed = (every[-1], every[0], every[len(every) // 2])
    atlas = ContextAtlas(space, a, b, listed)
    assert atlas.contexts == listed
    for e in atlas.entries:
        assert e.table == TwoCellTable.of(space, a.assignment, b.assignment, e.context)
    cell = a.partition(space).cells[0]
    with pytest.raises(NotAContextError):
        ContextAtlas(space, a, b, (cell,)).entries
    with pytest.raises(NotAContextError):
        amplitude(space, a, b, cell)


def test_amplitude_and_born_rows_raise_on_a_hyperbolic_context():
    space, a, b = MODELS[-1]
    hyperbolic = next(
        e.context for e in ContextAtlas(space, a, b).entries if e.state is None
    )
    with pytest.raises(NotTrigonometricError, match=re.escape(hyperbolic.label())):
        amplitude(space, a, b, hyperbolic)
    with pytest.raises(NotTrigonometricError):
        born_in_a_basis_check(space, a, b, contexts=[hyperbolic])


def test_a_compatible_pair_has_contexts_but_no_amplitudes():
    space, a, _ = MODELS[0]
    atlas = ContextAtlas(space, a, a)
    assert all(e.state is None for e in atlas.entries)
    assert nonsensitive_contexts(space, a, a) == tuple(
        e.context for e in atlas.entries if e.table.delta(0) == e.table.delta(1) == 0
    )
    with pytest.raises(ValueError, match="incompatible pair"):
        mappable_contexts(space, a, a)
    c = Event.of(space.points)
    with pytest.raises(ValueError, match="incompatible variable pair"):
        amplitude(space, a, a, c)
