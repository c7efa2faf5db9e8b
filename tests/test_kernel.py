"""The integer-mass kernel against plain Fraction sums of point weights.

Every function below that sums point masses must return exactly the
Fraction the textbook definition gives when the weights themselves are
added, on small random models and on a model whose weight denominators are
huge and pairwise coprime.
"""

import random
from fractions import Fraction

import pytest

from qcontext.errors import ForeignPointError, NotAContextError, ZeroConditionError
from qcontext.interference import TwoCellTable
from qcontext.operators import (
    CompositeObservable,
    classical_distribution,
    classical_mean,
    conditional_variance,
)
from qcontext.prob import (
    DichotomousVariable,
    Event,
    FiniteProbabilitySpace,
    all_events,
    conditional,
    is_context,
    probability,
)
from randmodels import random_double_stochastic_model, random_incompatible_model

MERSENNE_61 = 2**61 - 1


# ------------------------------------------------ Fraction-sum reference


def ref_probability(space, evt):
    return sum((space.weights[p] for p in evt.members), start=Fraction(0))


def ref_conditional(space, a, c):
    return ref_probability(space, a.intersect(c)) / ref_probability(space, c)


def ref_is_context(space, c, partition):
    return all(
        ref_probability(space, cell.intersect(c)) > 0 for cell in partition.cells
    )


def ref_mean(space, values, c):
    weighted = sum(
        (values[p] * space.weights[p] for p in c.members), start=Fraction(0)
    )
    return weighted / ref_probability(space, c)


def ref_distribution(space, values, c):
    pc = ref_probability(space, c)
    dist = {values[p]: Fraction(0) for p in space.points}
    for p in c.members:
        dist[values[p]] += space.weights[p] / pc
    return dict(sorted(dist.items()))


def ref_variance(space, values, c):
    mean = ref_mean(space, values, c)
    spread = sum(
        ((values[p] - mean) ** 2 * space.weights[p] for p in c.members),
        start=Fraction(0),
    )
    return spread / ref_probability(space, c)


# ------------------------------------------------------------------ models


def huge_denominator_model():
    """Weights 1e-400, 1/3, 1/7, 1/(2^61 - 1) and the rest, one point in
    each cell intersection except the last, which holds two."""
    tiny = Fraction(1, 10**400)
    shares = [tiny, Fraction(1, 3), Fraction(1, 7), Fraction(1, MERSENNE_61)]
    shares.append(1 - sum(shares))
    space = FiniteProbabilitySpace.from_pairs(
        (f"p{i}", w) for i, w in enumerate(shares, 1)
    )
    values = (Fraction(1), Fraction(-1))
    a = DichotomousVariable("a", values, {"p1": 1, "p2": 1, "p3": 2, "p4": 2, "p5": 2})
    b = DichotomousVariable("b", values, {"p1": 1, "p2": 2, "p3": 1, "p4": 2, "p5": 2})
    return space, a, b


def models():
    rng = random.Random(1103)
    found = [huge_denominator_model()]
    found += [random_incompatible_model(rng, max_points=7) for _ in range(6)]
    found += [random_double_stochastic_model(rng) for _ in range(6)]
    return found


def _random_map(rng, keys):
    return {k: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for k in keys}


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("model", models())
def test_kernel_equals_fraction_sums(model):
    space, a, b = model
    rng = random.Random(len(space.points))
    a_part, b_part = a.partition(space), b.partition(space)
    events = list(all_events(space))
    observables = [
        CompositeObservable.sum_of(
            a, b, _random_map(rng, a.values), _random_map(rng, b.values)
        ),
        CompositeObservable.of_a(a, b, _random_map(rng, a.values)),
        CompositeObservable.product_of(a, b),
    ]
    point_map = _random_map(rng, space.points)
    for c in events:
        assert probability(space, c) == ref_probability(space, c)
        assert type(probability(space, c)) is Fraction
        for target in [*a_part.cells, *b_part.cells, rng.choice(events)]:
            got = conditional(space, target, c)
            assert type(got) is Fraction
            assert got == ref_conditional(space, target, c)
        context = is_context(space, c, a_part)
        assert context == ref_is_context(space, c, a_part)
        if context:
            table = TwoCellTable.of(space, a.assignment, b.assignment, c)
            assert table.a_given_c == tuple(
                ref_conditional(space, cell, c) for cell in a_part.cells
            )
            assert table.b_given_c == tuple(
                ref_conditional(space, cell, c) for cell in b_part.cells
            )
            assert table.b_given_a == tuple(
                tuple(ref_conditional(space, cb, ca) for cb in b_part.cells)
                for ca in a_part.cells
            )
        else:
            with pytest.raises(NotAContextError):
                TwoCellTable.of(space, a.assignment, b.assignment, c)
        for obs in observables:
            values = {p: obs.value_at(p) for p in space.points}
            assert classical_mean(space, obs, c) == ref_mean(space, values, c)
            assert classical_distribution(space, obs, c) == ref_distribution(
                space, values, c
            )
        assert conditional_variance(space, point_map, c) == ref_variance(
            space, point_map, c
        )


def test_kernel_error_cases():
    space, a, b = huge_denominator_model()
    foreign = Event.of(["p1", "zz"])
    obs = CompositeObservable.sum_of(a, b)
    point_map = {p: Fraction(1) for p in space.points}
    with pytest.raises(ForeignPointError, match="'zz'"):
        probability(space, foreign)
    with pytest.raises(ForeignPointError):
        conditional(space, space.omega(), foreign)
    with pytest.raises(ForeignPointError):
        is_context(space, foreign, a.partition(space))
    with pytest.raises(ForeignPointError):
        TwoCellTable.of(space, a.assignment, b.assignment, foreign)
    with pytest.raises(ForeignPointError):
        classical_mean(space, obs, foreign)
    with pytest.raises(ForeignPointError):
        classical_distribution(space, obs, foreign)
    with pytest.raises(ForeignPointError):
        conditional_variance(space, point_map, foreign)

    empty = Event.of([])
    with pytest.raises(ZeroConditionError):
        conditional(space, space.omega(), empty)
    with pytest.raises(ZeroConditionError):
        classical_mean(space, obs, empty)
    with pytest.raises(ZeroConditionError):
        classical_distribution(space, obs, empty)
    with pytest.raises(ZeroConditionError):
        conditional_variance(space, point_map, empty)
