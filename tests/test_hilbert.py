"""Amplitude construction, bases, Born checks and image structure."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontext.errors import (
    NotAContextError,
    NotDoubleStochasticError,
    NotTrigonometricError,
    SingularBasisError,
)
from qcontext.hilbert import (
    SIGNS,
    STATE_TOL,
    BasisPair,
    ContextAtlas,
    StateVector,
    amplitude,
    context_basis,
    dual_inner_products,
    group_states,
    image_set,
    is_double_stochastic,
    mappable_contexts,
    nonsensitive_contexts,
    phase_gap,
    phase_normalized,
    states_close,
    transition_matrix,
    TransitionMatrix,
)
from qcontext.model_io import format_float, kq_model
from qcontext.prob import DichotomousVariable, FiniteProbabilitySpace, conditional
from qcontext.verify import (
    _gram_error,
    born_in_a_basis_check,
    cell_duality_check,
    phase_gap_constancy_check,
    run_checks,
    unitarity_check,
)
from randmodels import random_double_stochastic_model, random_incompatible_model

QS = [Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)]


def _kq(q):
    spec = kq_model(q)
    return spec.space, spec.variables["a"], spec.variables["b"]


class TestTransitionMatrix:
    @pytest.mark.parametrize("q", QS)
    def test_reference_family_entries(self, q):
        space, a, b = _kq(q)
        trans = transition_matrix(space, a, b)
        assert trans.entries == (
            (2 * q, 1 - 2 * q),
            (1 - 2 * q, 2 * q),
        )
        assert is_double_stochastic(trans)

    def test_symmetry_of_reference_family(self):
        space, a, b = _kq(Fraction(1, 8))
        assert (
            transition_matrix(space, a, b).entries
            == transition_matrix(space, b, a).entries
        )

    def test_a_variable_with_one_value_on_the_space_has_none(self):
        space = FiniteProbabilitySpace(("w1", "w2"), {"w1": "1/2", "w2": "1/2"})
        a = DichotomousVariable("a", ("0", "1"), {"w1": 1, "w2": 1, "x": 2})
        b = DichotomousVariable("b", ("0", "1"), {"w1": 1, "w2": 2, "x": 1})
        for view in (transition_matrix, lambda *pair: ContextAtlas(*pair).basis):
            with pytest.raises(NotAContextError, match="w1\\+w2 is not a context"):
                view(space, a, b)

    def test_geometry_checks_name_the_variable_that_takes_one_value(self):
        # Each variable's second value is assigned only to a point outside
        # the space: where a takes one value the pair has no context, where b
        # does it is compatible.
        space = FiniteProbabilitySpace(("w1", "w2"), {"w1": "1/2", "w2": "1/2"})
        one = DichotomousVariable("a", ("0", "1"), {"w1": 1, "w2": 1, "x": 2})
        two = DichotomousVariable("b", ("0", "1"), {"w1": 1, "w2": 2, "x": 1})
        for check in (unitarity_check, born_in_a_basis_check):
            with pytest.raises(NotAContextError, match="w1\\+w2 is not a context"):
                check(ContextAtlas(space, one, two))
        checks = (unitarity_check, born_in_a_basis_check, phase_gap_constancy_check)
        for check in checks:
            with pytest.raises(ValueError) as raised:
                check(ContextAtlas(space, two, one))
            assert raised.type is ValueError
            assert str(raised.value) == (
                "context enumeration requires an incompatible pair"
            )

    def test_column_failure_detected(self):
        uneven = TransitionMatrix(
            a_values=(Fraction(1), Fraction(-1)),
            b_values=(Fraction(1), Fraction(-1)),
            entries=(
                (Fraction(1, 3), Fraction(2, 3)),
                (Fraction(1, 3), Fraction(2, 3)),
            ),
        )
        assert not is_double_stochastic(uneven)

    def test_symmetric_stochastic_is_double_stochastic(self):
        sym = TransitionMatrix(
            a_values=(Fraction(1), Fraction(-1)),
            b_values=(Fraction(1), Fraction(-1)),
            entries=(
                (Fraction(2, 5), Fraction(3, 5)),
                (Fraction(3, 5), Fraction(2, 5)),
            ),
        )
        assert is_double_stochastic(sym)


def test_signs_are_the_opposite_pair_of_the_paper():
    assert SIGNS == (-1, 1)


class TestAmplitude:
    @pytest.mark.parametrize("q", QS)
    def test_zero_disturbance_two_point_context(self, q):
        space, a, b = _kq(q)
        state = amplitude(space, a, b, space.event(["w2", "w4"]))
        qf = float(q)
        rest = float((1 - 2 * q) / 2)
        expected = (
            complex(math.sqrt(qf), -math.sqrt(rest)),
            complex(math.sqrt(rest), math.sqrt(qf)),
        )
        for got, want in zip(state.components, expected):
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("q", QS)
    def test_b_cell_maps_to_canonical_basis(self, q):
        space, a, b = _kq(q)
        bp = b.partition(space)
        for i, cell in enumerate(bp.cells):
            state = amplitude(space, a, b, cell)
            target = [0j, 0j]
            target[i] = 1 + 0j
            for got, want in zip(state.components, target):
                assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("q", QS)
    def test_three_point_context_closed_form(self, q):
        # Components written directly from the construction recipe.
        space, a, b = _kq(q)
        state = amplitude(space, a, b, space.event(["w1", "w2", "w3"]))
        theta = math.acos(math.sqrt(float(1 - 2 * q)) / 2)
        expected_b1 = math.sqrt(float(2 * q / (2 * q + 1))) - cmath.exp(
            1j * theta
        ) * math.sqrt(float(2 * q * (1 - 2 * q) / (2 * q + 1)))
        expected_b2 = math.sqrt(float((1 - 2 * q) / (2 * q + 1))) + cmath.exp(
            1j * theta
        ) * float(2 * q) / math.sqrt(float(2 * q + 1))
        assert abs(state.components[0] - expected_b1) < 1e-12
        assert abs(state.components[1] - expected_b2) < 1e-12

    def test_hyperbolic_context_rejected(self, hyperbolic_witness):
        space = hyperbolic_witness.space
        a = hyperbolic_witness.variables["a"]
        b = hyperbolic_witness.variables["b"]
        with pytest.raises(NotTrigonometricError):
            amplitude(space, a, b, space.event(["p1", "p3"]))

    def test_born_rule_on_random_models(self):
        rng = random.Random(29)
        for _ in range(20):
            space, a, b = random_incompatible_model(rng)
            bp = b.partition(space)
            for c in mappable_contexts(space, a, b):
                state = amplitude(space, a, b, c)
                probs = state.probabilities()
                assert abs(sum(probs) - 1.0) < 1e-12
                for j, cell in enumerate(bp.cells):
                    assert abs(probs[j] - float(conditional(space, cell, c))) < 1e-12


class TestABasis:
    @pytest.mark.parametrize("q", QS)
    def test_reference_family_basis(self, q):
        space, a, b = _kq(q)
        basis = ContextAtlas(space, a, b).basis
        q1 = math.sqrt(float(2 * q))
        q2 = math.sqrt(float(1 - 2 * q))
        assert abs(basis.e_a[0].components[0] - q1) < 1e-12
        assert abs(basis.e_a[0].components[1] - q2) < 1e-12
        assert abs(basis.e_a[1].components[0] + q2) < 1e-12
        assert abs(basis.e_a[1].components[1] - q1) < 1e-12
        assert _gram_error(basis.e_a) <= STATE_TOL
        assert abs(abs(basis.stripped_phase) - 1.0) < 1e-12

    def test_balanced_matrix_gives_rotation_by_quarter(self):
        space, a, b = _kq(Fraction(1, 4))
        basis = ContextAtlas(space, a, b).basis
        r = 1 / math.sqrt(2)
        flat = [z for vec in basis.e_a for z in vec.components]
        for got, want in zip(flat, [r, r, -r, r]):
            assert abs(got - want) < 1e-12

    def test_witness_basis_keeps_its_phases(self, non_ds_witness):
        # Without a doubly stochastic matrix the atlas's basis is the raw
        # whole-space basis: nothing is stripped.
        space, variables = non_ds_witness.space, non_ds_witness.variables
        atlas = ContextAtlas(space, variables["a"], variables["b"])
        assert atlas.basis.stripped_phase is None
        assert atlas.basis == context_basis(atlas.omega)

    def test_cells_take_basis_vectors(self):
        space, a, b = _kq(Fraction(1, 8))
        atlas = ContextAtlas(space, a, b)
        basis = atlas.basis
        states = {e.context: e.state for e in atlas.represented}
        ap = a.partition(space)
        assert states[ap.cells[0]] is basis.e_a[0]
        assert states[ap.cells[1]] is basis.e_a[1]
        # Born in the a-basis on the cells themselves.
        assert abs(abs(basis.e_a[0].inner(basis.e_a[0])) ** 2 - 1.0) < 1e-12


class TestBornInABasis:
    @pytest.mark.parametrize("q", QS)
    def test_reference_family_passes(self, q):
        space, a, b = _kq(q)
        rows = born_in_a_basis_check(ContextAtlas(space, a, b))
        assert rows and max(row.error for row in rows) < 1e-12

    def test_random_double_stochastic_models_pass(self):
        rng = random.Random(31)
        for _ in range(15):
            space, a, b = random_double_stochastic_model(rng)
            rows = born_in_a_basis_check(ContextAtlas(space, a, b))
            assert max(row.error for row in rows) < 1e-12

    def test_stored_witness_fails(self, non_ds_witness):
        space = non_ds_witness.space
        rows = born_in_a_basis_check(
            ContextAtlas(
                space,
                non_ds_witness.variables["a"],
                non_ds_witness.variables["b"],
            )
        )
        assert max(row.error for row in rows) > 1e-3


class TestPhaseGap:
    @pytest.mark.parametrize("q", QS)
    def test_constant_at_pi_with_opposite_signs(self, q):
        space, a, b = _kq(q)
        worst, profile = phase_gap_constancy_check(ContextAtlas(space, a, b))
        assert worst <= STATE_TOL
        assert all(abs(gap - math.pi) < 1e-12 for _, gap in profile)

    def test_right_angle_case(self):
        space, a, b = _kq(Fraction(1, 4))
        gap = phase_gap(ContextAtlas(space, a, b).omega, -1, +1)
        assert abs(gap - math.pi) < 1e-12

    def test_equal_signs_drift(self):
        space, a, b = _kq(Fraction(1, 8))
        events = (space.event(["w1", "w2", "w3"]), space.event(["w1", "w2", "w4"]))
        atlas = ContextAtlas(space, a, b, events)
        g1, g2 = (phase_gap(e.table, +1, +1) for e in atlas.entries)
        assert abs(g1 - g2) > 1e-6

    def test_random_double_stochastic_models(self):
        rng = random.Random(37)
        for _ in range(15):
            space, a, b = random_double_stochastic_model(rng)
            worst, _ = phase_gap_constancy_check(ContextAtlas(space, a, b))
            assert worst <= STATE_TOL


class TestNonsensitive:
    @pytest.mark.parametrize("q", QS)
    def test_reference_family_set(self, q):
        space, a, b = _kq(q)
        got = {c.members for c in nonsensitive_contexts(space, a, b)}
        assert got == {("w1", "w3"), ("w2", "w4"), ("w1", "w2", "w3", "w4")}

    def test_full_space_always_member(self):
        rng = random.Random(41)
        for _ in range(15):
            space, a, b = random_incompatible_model(rng)
            assert space.omega() in nonsensitive_contexts(space, a, b)

    def test_witness_has_only_full_space(self, non_ds_witness):
        space = non_ds_witness.space
        got = nonsensitive_contexts(
            space,
            non_ds_witness.variables["a"],
            non_ds_witness.variables["b"],
        )
        assert got == (space.omega(),)

    def test_second_term_purely_imaginary(self):
        space, a, b = _kq(Fraction(1, 8))
        trans = transition_matrix(space, a, b)
        for c in nonsensitive_contexts(space, a, b):
            state = amplitude(space, a, b, c)
            pa1 = conditional(space, a.partition(space).cells[0], c)
            for j, z in enumerate(state.components):
                real_term = math.sqrt(float(pa1 * trans.entries[0][j]))
                assert abs(z.real - real_term) < 1e-12


class TestImageSet:
    def test_reference_family_collision_group(self):
        space, a, b = _kq(Fraction(1, 4))
        image = image_set(space, a, b)
        groups = {tuple(e.label() for e in g) for g in image.collisions}
        assert groups == {("w1+w3", "w2+w4", "w1+w2+w3+w4")}

    @pytest.mark.parametrize("q", QS)
    def test_reference_family_distinct_count(self, q):
        space, a, b = _kq(q)
        image = image_set(space, a, b)
        # 9 mappable contexts plus 2 cells, with a single three-way collision.
        assert len(image.entries) == 11
        assert image.distinct_count == 9

    def test_equal_marginals_share_states(self):
        rng = random.Random(43)
        for _ in range(15):
            space, a, b = random_incompatible_model(rng, max_points=6)
            ap, bp = a.partition(space), b.partition(space)
            seen = {}
            for c in mappable_contexts(space, a, b):
                key = tuple(
                    conditional(space, cell, c) for cell in ap.cells + bp.cells
                )
                state = amplitude(space, a, b, c)
                if key in seen:
                    assert states_close(seen[key], state)
                else:
                    seen[key] = state


def _scan_groups(states):
    """The O(N^2) first-member scan that group_states must reproduce; each
    state is phase-normalised once, as states_close would on every call."""
    norms = [phase_normalized(state) for state in states]
    groups = []
    for idx, norm in enumerate(norms):
        for group in groups:
            if states_close(norms[group[0]], norm, up_to_phase=False):
                group.append(idx)
                break
        else:
            groups.append([idx])
    return tuple(tuple(group) for group in groups)


class TestGroupStates:
    def test_image_groups_match_the_scan_on_random_models(self):
        rng = random.Random(47)
        collisions = 0
        for make in (random_incompatible_model, random_double_stochastic_model):
            for _ in range(120):
                space, a, b = make(rng)
                image = image_set(space, a, b)
                states = [state for _, state in image.entries]
                expected = tuple(
                    tuple(image.entries[i][0] for i in group)
                    for group in _scan_groups(states)
                )
                assert image.groups == expected
                collisions += len(image.collisions)
        assert collisions > 0

    def test_close_states_across_a_key_boundary_merge(self):
        width = 4 * STATE_TOL
        boundary = (math.floor(0.6 / width) + 1) * width
        rotation = cmath.exp(0.7j)
        left = StateVector((boundary - 0.3 * STATE_TOL, 0.8 + 0j))
        right = StateVector(
            (rotation * (boundary + 0.3 * STATE_TOL), rotation * 0.8)
        )
        keys = {
            math.floor(phase_normalized(s).components[0].real / width)
            for s in (left, right)
        }
        assert len(keys) == 2
        assert states_close(left, right)
        assert group_states([left, right]) == ((0, 1),)
        # Almost a full tolerance apart: still in adjacent keys only because
        # the key width exceeds the tolerance.
        far = StateVector((0.6 + 0.99 * STATE_TOL, 0.8 + 0j))
        assert group_states([StateVector((0.6 + 0j, 0.8 + 0j)), far]) == ((0, 1),)

    def test_earliest_group_wins_across_keys(self):
        width = 4 * STATE_TOL
        boundary = (math.floor(0.6 / width) + 1) * width
        probe = StateVector((boundary - 0.2 * STATE_TOL, 0.8 + 0j))
        upper = StateVector((boundary + 0.6 * STATE_TOL, 0.8 + 0j))
        lower = StateVector((boundary - 1.0 * STATE_TOL, 0.8 + 0j))
        assert not states_close(upper, lower)
        # Both leaders accept the probe; the one created first wins, in
        # whichever of the two keys it sits.
        assert group_states([upper, lower, probe]) == ((0, 2), (1,))
        assert group_states([lower, upper, probe]) == ((0, 2), (1,))

    def test_groups_are_led_by_their_first_member(self):
        a = StateVector((0.6 + 0j, 0.8 + 0j))
        b = StateVector((0.6 + 0.8 * STATE_TOL, 0.8 + 0j))
        c = StateVector((0.6 + 1.6 * STATE_TOL, 0.8 + 0j))
        assert states_close(a, b) and states_close(b, c)
        assert not states_close(a, c)
        # c is close to b but not to the leader a, so it starts a group; b
        # joins the earliest-created group that accepts it.
        assert group_states([a, b, c]) == ((0, 1), (2,))
        assert group_states([a, c, b]) == ((0, 2), (1,))
        assert group_states([c, b, a]) == ((0, 1), (2,))
        for order in ([a, b, c], [a, c, b], [c, a, b], [b, c, a]):
            assert group_states(order) == _scan_groups(order)


class TestDualInnerProducts:
    @pytest.mark.parametrize("q", QS)
    def test_orthonormal_case_matches_projections(self, q):
        space, a, b = _kq(q)
        basis = ContextAtlas(space, a, b).basis
        c124 = space.event(["w1", "w2", "w4"])
        state = amplitude(space, a, b, c124)
        coords = dual_inner_products(a, b, state, basis)
        for coeff, e in zip(coords.a_coords, basis.e_a):
            assert abs(coeff - state.inner(e)) < 1e-12

    @pytest.mark.parametrize("q", QS)
    def test_complementary_context_coefficients(self, q):
        # Expansion coefficients in the stripped real basis, closed form.
        space, a, b = _kq(q)
        basis = ContextAtlas(space, a, b).basis
        state = amplitude(space, a, b, space.event(["w1", "w2", "w4"]))
        coords = dual_inner_products(a, b, state, basis)
        theta = math.acos(math.sqrt(float(q) / 2.0))
        first = 1.0 / math.sqrt(2.0 * float(1 - q))
        second = -cmath.exp(-1j * theta) * math.sqrt(
            float((1 - 2 * q) / (2 * (1 - q)))
        )
        assert abs(coords.a_coords[0] - first) < 1e-12
        assert abs(coords.a_coords[1] - second) < 1e-12

    def test_witness_per_context_coordinates_recover_marginals(
        self, non_ds_witness
    ):
        space = non_ds_witness.space
        a = non_ds_witness.variables["a"]
        b = non_ds_witness.variables["b"]
        ap = a.partition(space)
        for e in ContextAtlas(space, a, b).mappable:
            coords = dual_inner_products(a, b, e.state, context_basis(e.table))
            for j, cell in enumerate(ap.cells):
                assert (
                    abs(coords.a_probs[j] - float(conditional(space, cell, e.context)))
                    < 1e-12
                )

    def test_singular_basis_rejected(self):
        space, a, b = _kq(Fraction(1, 4))
        state = amplitude(space, a, b, space.omega())
        broken = BasisPair(
            e_a=(
                StateVector((1 + 0j, 1 + 0j)),
                StateVector((2 + 0j, 2 + 0j)),
            )
        )
        with pytest.raises(SingularBasisError):
            dual_inner_products(a, b, state, broken)

    def test_means_match_exact_conditionals(self):
        space, a, b = _kq(Fraction(1, 8))
        basis = ContextAtlas(space, a, b).basis
        c = space.event(["w1", "w2", "w3"])
        coords = dual_inner_products(a, b, amplitude(space, a, b, c), basis)
        ap, bp = a.partition(space), b.partition(space)
        mean_b = sum(
            float(v) * float(conditional(space, cell, c))
            for v, cell in zip(b.values, bp.cells)
        )
        mean_a = sum(
            float(v) * float(conditional(space, cell, c))
            for v, cell in zip(a.values, ap.cells)
        )
        assert abs(coords.mean_b - mean_b) < 1e-12
        assert abs(coords.mean_a - mean_a) < 1e-12


class TestUnitarity:
    @pytest.mark.parametrize("q", QS)
    def test_reference_family_unitary(self, q):
        space, a, b = _kq(q)
        assert unitarity_check(ContextAtlas(space, a, b)) == (True, True)

    def test_witness_not_unitary(self, non_ds_witness):
        space = non_ds_witness.space
        got = unitarity_check(
            ContextAtlas(
                space,
                non_ds_witness.variables["a"],
                non_ds_witness.variables["b"],
            )
        )
        assert got == (False, False)

    def test_agreement_on_random_models(self):
        rng = random.Random(47)
        for _ in range(25):
            space, a, b = random_incompatible_model(rng)
            unitary, ds = unitarity_check(ContextAtlas(space, a, b))
            assert unitary == ds

    def test_gram_against_numpy(self):
        space, a, b = _kq(Fraction(3, 8))
        basis = context_basis(ContextAtlas(space, a, b).omega)
        m = np.array(
            [list(vec.components) for vec in basis.e_a], dtype=complex
        ).T
        gram = m.conj().T @ m
        assert np.allclose(gram, np.eye(2), atol=1e-12)


class TestCellDuality:
    @pytest.mark.parametrize("q", QS + ["1e-400"])
    def test_reference_family(self, q):
        space, a, b = _kq(q)
        assert cell_duality_check(ContextAtlas(space, a, b))

    def test_requires_double_stochastic(self, non_ds_witness):
        space, variables = non_ds_witness.space, non_ds_witness.variables
        with pytest.raises(NotDoubleStochasticError):
            cell_duality_check(ContextAtlas(space, variables["a"], variables["b"]))

    def test_forward_only_double_stochastic(self):
        # Forward matrix doubly stochastic, reverse not; both sides of the
        # biconditional must fail together.
        rng = random.Random(53)
        for _ in range(15):
            space, a, b = random_double_stochastic_model(rng, uniform=False)
            assert not is_double_stochastic(transition_matrix(space, b, a))
            assert cell_duality_check(ContextAtlas(space, a, b))

    def test_uniform_random_models(self):
        rng = random.Random(59)
        for _ in range(15):
            space, a, b = random_double_stochastic_model(rng, uniform=True)
            assert is_double_stochastic(transition_matrix(space, b, a))
            assert cell_duality_check(ContextAtlas(space, a, b))


@pytest.mark.parametrize(
    "make", [random_double_stochastic_model, random_incompatible_model]
)
def test_run_checks_reports_what_the_geometry_checks_return(make):
    rng = random.Random(61)
    seen = set()
    for _ in range(6):
        space, a, b = make(rng)
        forward = ContextAtlas(space, a, b)
        results = {r.name: r for r in run_checks(forward)}
        unitary, ds = unitarity_check(forward)
        seen.add(ds)
        got = results["unitarity_iff_double_stochastic"]
        assert got.detail == f"unitary={unitary} double_stochastic={ds}"
        assert got.passed == (unitary == ds)
        if not ds:
            assert "born_rule_a_basis" not in results
            continue
        worst = max(row.error for row in born_in_a_basis_check(forward))
        got = results["born_rule_a_basis"]
        assert got.detail == f"max_abs_error={format_float(worst)}"
        worst, _ = phase_gap_constancy_check(forward)
        got = results["phase_gap_constant"]
        assert got.detail == f"max_gap_from_pi={format_float(worst)}"
        assert got.passed == (worst <= STATE_TOL)
        assert results["cell_duality"].passed == cell_duality_check(forward)
    assert seen == {make is random_double_stochastic_model}


@st.composite
def ds_models(draw):
    seed = draw(st.integers(min_value=0, max_value=10**9))
    uniform = draw(st.sampled_from([None, True, False]))
    return random_double_stochastic_model(random.Random(seed), uniform=uniform)


@given(ds_models(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_born_rule_both_bases_property(model, pick):
    space, a, b = model
    contexts = mappable_contexts(space, a, b)
    c = contexts[pick % len(contexts)]
    state = amplitude(space, a, b, c)
    bp = b.partition(space)
    for j, cell in enumerate(bp.cells):
        assert (
            abs(state.probabilities()[j] - float(conditional(space, cell, c)))
            < 1e-12
        )
    rows = born_in_a_basis_check(ContextAtlas(space, a, b, [c]))
    assert max(row.error for row in rows) < 1e-12


def test_phase_normalization_idempotent():
    vec = StateVector((0.3 - 0.4j, -0.5 + 0.7j))
    once = phase_normalized(vec)
    twice = phase_normalized(once)
    assert states_close(once, twice, up_to_phase=False)
    assert once.components[0].imag == pytest.approx(0.0, abs=1e-15)
    assert once.components[0].real > 0
