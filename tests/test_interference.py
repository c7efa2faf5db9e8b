"""Disturbance decomposition, classification and reconstruction checks.

Closed-form expectations for the four-point reference family are asserted as
exact rationals; reconstruction and phase identities use the 1e-12 amplitude
tolerance.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontext.errors import DegenerateRadicalError, NotAContextError
from qcontext.interference import (
    Classification,
    classical_part,
    classify,
    delta,
    delta_outcome_sum,
    interference_cross_sum,
    lambda_coefficient,
    pairwise_delta,
    reconstruct_total_probability,
    analyze_context,
)
from qcontext.model_io import kq_model
from qcontext.prob import (
    FiniteProbabilitySpace,
    Partition,
    conditional,
    contexts_of,
)
from randmodels import random_incompatible_model

QS = [Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)]


def _kq(q):
    spec = kq_model(q)
    space = spec.space
    a, b = spec.variables["a"], spec.variables["b"]
    return space, a.partition(space), b.partition(space)


class TestDelta:
    @pytest.mark.parametrize("q", QS)
    def test_three_point_context_closed_form(self, q):
        space, ap, bp = _kq(q)
        c123 = space.event(["w1", "w2", "w3"])
        assert delta(space, bp.cells[0], ap, c123) == 2 * q * (2 * q - 1) / (
            2 * q + 1
        )

    @pytest.mark.parametrize("q", QS)
    def test_complementary_context_closed_form(self, q):
        space, ap, bp = _kq(q)
        c124 = space.event(["w1", "w2", "w4"])
        assert delta(space, bp.cells[0], ap, c124) == q * (1 - 2 * q) / (1 - q)

    def test_full_space_has_zero_disturbance(self):
        rng = random.Random(3)
        for _ in range(25):
            space, a, b = random_incompatible_model(rng)
            ap, bp = a.partition(space), b.partition(space)
            for cell in bp.cells:
                assert delta(space, cell, ap, space.omega()) == 0

    def test_non_context_raises(self):
        space, ap, bp = _kq(Fraction(1, 4))
        with pytest.raises(NotAContextError):
            delta(space, bp.cells[0], ap, space.event(["w1", "w2"]))

    def test_disturbance_is_gap_from_classical_expansion(self):
        # Independent route: P(B|C) - classical part must equal delta.
        rng = random.Random(11)
        for _ in range(25):
            space, a, b = random_incompatible_model(rng)
            ap, bp = a.partition(space), b.partition(space)
            for c in contexts_of(space, ap):
                for cell in bp.cells:
                    gap = conditional(space, cell, c) - classical_part(
                        space, cell, ap, c
                    )
                    assert delta(space, cell, ap, c) == gap


class TestPairwiseDelta:
    def test_dichotomous_single_pair_is_whole_delta(self):
        space, ap, bp = _kq(Fraction(1, 8))
        for c in contexts_of(space, ap):
            for cell in bp.cells:
                assert pairwise_delta(space, cell, ap, c, 0, 1) == delta(
                    space, cell, ap, c
                )

    def test_three_cell_partition_decomposition(self):
        # Six points in three a-cells; pair shares must reassemble exactly.
        space = FiniteProbabilitySpace.from_pairs(
            [
                ("p1", "1/12"),
                ("p2", "1/6"),
                ("p3", "1/4"),
                ("p4", "1/12"),
                ("p5", "1/6"),
                ("p6", "1/4"),
            ]
        )
        part = Partition.of(
            space,
            [
                space.event(["p1", "p4"]),
                space.event(["p2", "p5"]),
                space.event(["p3", "p6"]),
            ],
        )
        outcome = space.event(["p1", "p2", "p3"])
        for c in contexts_of(space, part):
            total = sum(
                (
                    pairwise_delta(space, outcome, part, c, n, m)
                    for n in range(3)
                    for m in range(n + 1, 3)
                ),
                start=Fraction(0),
            )
            assert total == delta(space, outcome, part, c)

    def test_full_space_pair_shares_vanish(self):
        space, ap, bp = _kq(Fraction(1, 4))
        assert pairwise_delta(space, bp.cells[0], ap, space.omega(), 0, 1) == 0


class TestLambdaCoefficient:
    @pytest.mark.parametrize("q", QS)
    def test_three_point_context_value(self, q):
        space, ap, bp = _kq(q)
        c123 = space.event(["w1", "w2", "w3"])
        coeff = lambda_coefficient(space, bp.cells[0], ap, c123)
        assert coeff.squared == (1 - 2 * q) / 4
        assert coeff.sign == -1
        assert abs(coeff.value + math.sqrt(float(1 - 2 * q)) / 2) < 1e-12

    @pytest.mark.parametrize("q", QS)
    def test_complementary_context_value(self, q):
        space, ap, bp = _kq(q)
        c124 = space.event(["w1", "w2", "w4"])
        coeff = lambda_coefficient(space, bp.cells[0], ap, c124)
        assert coeff.squared == q / 2
        assert coeff.sign == 1
        assert coeff.squared < 1

    def test_zero_disturbance_means_zero_coefficient(self):
        space, ap, bp = _kq(Fraction(1, 4))
        coeff = lambda_coefficient(space, bp.cells[0], ap, space.omega())
        assert coeff.squared == 0 and coeff.sign == 0 and coeff.value == 0.0

    def test_degenerate_radical_raises(self):
        # b equal to a: transition probabilities hit zero under the radical.
        space, ap, _ = _kq(Fraction(1, 4))
        same = Partition(ap.cells)
        c = space.event(["w1", "w3"])
        with pytest.raises(DegenerateRadicalError):
            lambda_coefficient(space, same.cells[0], ap, c)

    def test_cosine_of_phase_reproduces_value(self):
        rng = random.Random(5)
        for _ in range(30):
            space, a, b = random_incompatible_model(rng)
            ap, bp = a.partition(space), b.partition(space)
            for c in contexts_of(space, ap):
                for cell in bp.cells:
                    coeff = lambda_coefficient(space, cell, ap, c)
                    if coeff.squared <= 1:
                        assert abs(math.cos(coeff.phase) - coeff.value) < 1e-12
                    else:
                        assert (
                            abs(
                                math.cosh(coeff.phase)
                                - abs(coeff.value)
                            )
                            < 1e-9
                        )


class TestClassify:
    def test_three_point_contexts_are_trigonometric(self):
        space, ap, bp = _kq(Fraction(1, 4))
        for ids in (["w1", "w2", "w3"], ["w1", "w2", "w4"]):
            assert (
                classify(space, ap, bp, space.event(ids))
                is Classification.TRIGONOMETRIC
            )

    def test_b_cell_is_boundary(self):
        space, ap, bp = _kq(Fraction(1, 8))
        for i, cell in enumerate(bp.cells):
            assert classify(space, ap, bp, cell) is Classification.BOUNDARY
            own = lambda_coefficient(space, cell, ap, cell)
            assert own.squared == 1 and own.sign == 1
            assert own.phase == 0.0
            other = lambda_coefficient(space, bp.cells[1 - i], ap, cell)
            assert other.squared == 1 and other.sign == -1
            assert other.phase == math.pi

    def test_stored_hyperbolic_witness(self, hyperbolic_witness):
        space = hyperbolic_witness.space
        a = hyperbolic_witness.variables["a"]
        b = hyperbolic_witness.variables["b"]
        ap, bp = a.partition(space), b.partition(space)
        c = space.event(["p1", "p3"])
        squares = [
            lambda_coefficient(space, cell, ap, c).squared for cell in bp.cells
        ]
        assert squares == [Fraction(289, 8), Fraction(289, 288)]
        assert all(s > 1 for s in squares)
        assert classify(space, ap, bp, c) is Classification.HYPERBOLIC


class TestReconstruction:
    def test_quarter_family_three_point_context(self):
        space, ap, bp = _kq(Fraction(1, 4))
        c123 = space.event(["w1", "w2", "w3"])
        direct = conditional(space, bp.cells[0], c123)
        assert direct == Fraction(1, 3)
        rebuilt = reconstruct_total_probability(space, bp.cells[0], ap, c123)
        assert abs(rebuilt - float(direct)) < 1e-12

    def test_zero_disturbance_reduces_to_classical(self):
        space, ap, bp = _kq(Fraction(3, 8))
        omega = space.omega()
        rebuilt = reconstruct_total_probability(space, bp.cells[0], ap, omega)
        assert abs(rebuilt - float(classical_part(space, bp.cells[0], ap, omega))) < 1e-12

    def test_hyperbolic_witness_reconstructs(self, hyperbolic_witness):
        space = hyperbolic_witness.space
        a = hyperbolic_witness.variables["a"]
        b = hyperbolic_witness.variables["b"]
        ap, bp = a.partition(space), b.partition(space)
        c = space.event(["p1", "p3"])
        for cell in bp.cells:
            rebuilt = reconstruct_total_probability(space, cell, ap, c)
            assert abs(rebuilt - float(conditional(space, cell, c))) < 1e-12

    def test_reconstruction_on_random_models(self):
        rng = random.Random(17)
        for _ in range(25):
            space, a, b = random_incompatible_model(rng)
            ap, bp = a.partition(space), b.partition(space)
            for c in contexts_of(space, ap):
                for cell in bp.cells:
                    rebuilt = reconstruct_total_probability(space, cell, ap, c)
                    assert abs(rebuilt - float(conditional(space, cell, c))) < 1e-12


class TestOutcomeSum:
    @pytest.mark.parametrize("q", QS)
    def test_reference_family_contexts(self, q):
        space, ap, bp = _kq(q)
        for c in contexts_of(space, ap):
            assert delta_outcome_sum(space, ap, bp, c) == 0

    def test_opposite_disturbances(self):
        space, ap, bp = _kq(Fraction(1, 8))
        c123 = space.event(["w1", "w2", "w3"])
        assert delta(space, bp.cells[0], ap, c123) == -delta(
            space, bp.cells[1], ap, c123
        )

    def test_cross_sum_vanishes(self):
        rng = random.Random(23)
        for _ in range(20):
            space, a, b = random_incompatible_model(rng)
            ap, bp = a.partition(space), b.partition(space)
            for c in contexts_of(space, ap):
                assert abs(interference_cross_sum(space, ap, bp, c)) < 1e-12


@st.composite
def incompatible_models(draw):
    seed = draw(st.integers(min_value=0, max_value=10**9))
    return random_incompatible_model(random.Random(seed), max_points=7)


@given(incompatible_models(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_outcome_sum_vanishes_everywhere(model, pick):
    space, a, b = model
    ap, bp = a.partition(space), b.partition(space)
    contexts = contexts_of(space, ap)
    c = contexts[pick % len(contexts)]
    assert delta_outcome_sum(space, ap, bp, c) == 0


@given(incompatible_models(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_weighted_balance_between_outcomes(model, pick):
    # The two outcome coefficients always carry opposite signs and exactly
    # balanced squares after weighting by their transition products.
    space, a, b = model
    ap, bp = a.partition(space), b.partition(space)
    p11 = conditional(space, bp.cells[0], ap.cells[0])
    p21 = conditional(space, bp.cells[0], ap.cells[1])
    p12 = conditional(space, bp.cells[1], ap.cells[0])
    p22 = conditional(space, bp.cells[1], ap.cells[1])
    contexts = contexts_of(space, ap)
    c = contexts[pick % len(contexts)]
    first = lambda_coefficient(space, bp.cells[0], ap, c)
    second = lambda_coefficient(space, bp.cells[1], ap, c)
    assert first.squared * p11 * p21 == second.squared * p12 * p22
    assert first.sign == -second.sign


def test_analysis_bundle_consistency():
    spec = kq_model(Fraction(1, 8))
    space = spec.space
    a, b = spec.variables["a"], spec.variables["b"]
    analysis = analyze_context(space, a, b, space.event(["w1", "w2", "w3"]))
    assert analysis.classification is Classification.TRIGONOMETRIC
    for rep in analysis.outcomes:
        assert rep.delta == sum(rep.pairwise.values())
        assert (rep.lambda_squared < 1) == (
            rep.classification is Classification.TRIGONOMETRIC
        )
