"""Operator matrices, commutator, means, distributions and dispersion."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qcontext.errors import (
    ForeignPointError,
    NotAContextError,
    NotDoubleStochasticError,
)
from qcontext import verify
from qcontext.hilbert import (
    ContextAtlas,
    StateVector,
    TransitionMatrix,
    amplitude,
    transition_matrix,
)
from qcontext.interference import mass_table
from qcontext.model_io import kq_model
from qcontext.operators import (
    CompositeObservable,
    HermitianOperator,
    MismatchReport,
    ObservableKind,
    a_operator,
    b_operator,
    commutator,
    dispersion_free_search,
    distribution_mismatch,
    function_of_a,
    function_of_b,
    hamiltonian_observable,
    mean_gap,
    mean_preservation_gap,
    op_add,
    quantum_mean,
    represented_states,
    spectral_decomposition,
    symmetrized_product,
)
from qcontext.prob import DichotomousVariable, Event, FiniteProbabilitySpace
from randmodels import random_double_stochastic_model, random_incompatible_model

QS = [Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)]


def _kq(q):
    spec = kq_model(q)
    return spec.space, spec.variables["a"], spec.variables["b"]


def _identity(var):
    return {v: v for v in var.values}


def _zero(var):
    return {v: Fraction(0) for v in var.values}


def _local(space, a, b, c):
    """The masses of the event ``c`` in the four cells of (a, b), which
    need not be a context: those a listed atlas holds for a context."""
    return mass_table(space, a.assignment, b.assignment, c.members)


def _listed(space, a, b, c):
    """The masses of the context ``c`` from an atlas of ``c`` alone, and
    the atlas's whole-space masses."""
    atlas = ContextAtlas(space, a, b, (c,))
    return atlas.entries[0].table.local, atlas.omega.whole


def _operator(space, a, b, obs=None):
    """The operator of ``obs`` (a + b by default) on the pair's atlas."""
    obs = obs or CompositeObservable.sum_of(a, b)
    return obs.operator(ContextAtlas(space, a, b).transition)


class TestFundamentalOperators:
    def test_b_is_diagonal_multiplication(self):
        _, _, b = _kq(Fraction(1, 4))
        op = b_operator(b)
        assert op.entries == ((1 + 0j, 0j), (0j, -1 + 0j))
        e1 = StateVector((1 + 0j, 0j))
        assert op.apply(e1).components == (1 + 0j, 0j)

    def test_binary_values(self):
        var = DichotomousVariable(
            "x", (Fraction(0), Fraction(1)), {"u": 1, "v": 2}
        )
        assert b_operator(var).entries == ((0j, 0j), (0j, 1 + 0j))

    @pytest.mark.parametrize("q", QS)
    def test_a_entries_closed_form(self, q):
        space, a, b = _kq(q)
        op = a_operator(a, transition_matrix(space, a, b))
        gamma = 1.0
        off = 2.0 * gamma * math.sqrt(float(2 * q * (1 - 2 * q)))
        assert abs(op.entries[0][0] - gamma * float(4 * q - 1)) < 1e-12
        assert abs(op.entries[1][1] + gamma * float(4 * q - 1)) < 1e-12
        assert abs(op.entries[0][1] - off) < 1e-12

    def test_identity_transition_gives_diagonal(self):
        var = DichotomousVariable(
            "x", (Fraction(5), Fraction(-3)), {"u": 1, "v": 2}
        )
        trans = TransitionMatrix(
            a_values=var.values,
            b_values=(Fraction(1), Fraction(-1)),
            entries=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        )
        op = a_operator(var, trans)
        assert op.entries == ((5 + 0j, 0j), (0j, -3 + 0j))

    def test_requires_double_stochastic(self, non_ds_witness):
        space = non_ds_witness.space
        a = non_ds_witness.variables["a"]
        b = non_ds_witness.variables["b"]
        with pytest.raises(NotDoubleStochasticError):
            a_operator(a, transition_matrix(space, a, b))

    def test_hermiticity_enforced(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator(((0j, 1 + 0j), (2 + 0j, 0j)))


class TestCommutator:
    @pytest.mark.parametrize("q", QS)
    def test_off_diagonal_closed_form(self, q):
        space, a, b = _kq(q)
        com = commutator(b_operator(b), a_operator(a, transition_matrix(space, a, b)))
        q1q2 = math.sqrt(float(2 * q * (1 - 2 * q)))
        expected = float(a.values[0] - a.values[1]) * float(
            b.values[1] - b.values[0]
        ) * q1q2
        assert expected == pytest.approx(-4.0 * q1q2)
        assert abs(com[0][0]) < 1e-12 and abs(com[1][1]) < 1e-12
        assert abs(com[1][0] - expected) < 1e-12
        assert abs(com[0][1] + expected) < 1e-12
        assert any(abs(com[i][j]) > 1e-9 for i in range(2) for j in range(2))

    def test_identity_transition_commutes(self):
        var_a = DichotomousVariable(
            "x", (Fraction(2), Fraction(-1)), {"u": 1, "v": 2}
        )
        var_b = DichotomousVariable(
            "y", (Fraction(1), Fraction(-1)), {"u": 1, "v": 2}
        )
        trans = TransitionMatrix(
            a_values=var_a.values,
            b_values=var_b.values,
            entries=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        )
        com = commutator(b_operator(var_b), a_operator(var_a, trans))
        assert all(abs(com[i][j]) < 1e-12 for i in range(2) for j in range(2))

    def test_self_commutator_vanishes(self):
        _, _, b = _kq(Fraction(1, 8))
        op = b_operator(b)
        com = commutator(op, op)
        assert all(abs(com[i][j]) == 0 for i in range(2) for j in range(2))


class TestMeans:
    def test_eigenstate_mean(self):
        _, _, b = _kq(Fraction(1, 4))
        assert quantum_mean(b_operator(b), StateVector((1 + 0j, 0j))) == 1.0

    def test_mean_over_three_point_context(self):
        space, a, b = _kq(Fraction(1, 4))
        state = amplitude(space, a, b, space.event(["w1", "w2", "w3"]))
        got = quantum_mean(b_operator(b), state)
        want = 1.0 * (1.0 / 3.0) + (-1.0) * (2.0 / 3.0)
        assert abs(got - want) < 1e-12

    def test_a_mean_over_full_space(self):
        space, a, b = _kq(Fraction(3, 8))
        state = amplitude(space, a, b, space.omega())
        op = a_operator(a, transition_matrix(space, a, b))
        assert abs(quantum_mean(op, state)) < 1e-12

    def test_classical_mean_examples(self):
        space, a, b = _kq(Fraction(1, 4))
        c123 = space.event(["w1", "w2", "w3"])
        local, _ = _listed(space, a, b, c123)
        obs_b = CompositeObservable.of_b(b, _identity(b))
        assert obs_b.mean_on(local) == Fraction(1, 3) - Fraction(2, 3)
        const = CompositeObservable.of_b(b, {v: Fraction(7) for v in b.values})
        assert const.mean_on(local) == 7
        atom = space.event(["w1"])
        both = CompositeObservable.sum_of(a, b)
        assert both.mean_on(_local(space, a, b, atom)) == 2

    def test_zero_condition(self):
        # An empty event is no context: an atlas of it refuses it as it
        # refuses every event that misses a cell, so no mean is taken.
        space, a, b = _kq(Fraction(1, 4))
        with pytest.raises(NotAContextError):
            _listed(space, a, b, space.event([]))


class TestMeanPreservation:
    @pytest.mark.parametrize("q", QS)
    def test_identity_pair(self, q):
        space, a, b = _kq(q)
        assert mean_preservation_gap(space, a, b, _identity(a), _identity(b)) < 1e-10

    def test_squared_values(self):
        # Distinct squares so the a-part is not a constant operator.
        space, _, b = _kq(Fraction(1, 8))
        rich = DichotomousVariable(
            "a", (Fraction(2), Fraction(-1)), {"w1": 1, "w2": 1, "w3": 2, "w4": 2}
        )
        f = {v: v * v for v in rich.values}
        assert mean_preservation_gap(space, rich, b, f, _zero(b)) < 1e-10
        op = _operator(
            space, rich, b, CompositeObservable.sum_of(rich, b, f, _zero(b))
        )
        c = space.event(["w1", "w3", "w4"])
        state = amplitude(space, rich, b, c)
        obs = CompositeObservable.of_a(rich, b, f)
        direct = obs.mean_on(_listed(space, rich, b, c)[0])
        assert abs(quantum_mean(op, state) - float(direct)) < 1e-10

    def test_random_value_tables(self):
        rng = random.Random(61)
        space, a, b = _kq(Fraction(1, 4))
        for _ in range(40):
            f = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for v in a.values}
            g = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for v in b.values}
            assert mean_preservation_gap(space, a, b, f, g) < 1e-10

    def test_random_double_stochastic_models(self):
        rng = random.Random(67)
        for _ in range(10):
            space, a, b = random_double_stochastic_model(rng)
            f = {v: Fraction(rng.randint(-9, 9)) for v in a.values}
            g = {v: Fraction(rng.randint(-9, 9)) for v in b.values}
            assert mean_preservation_gap(space, a, b, f, g) < 1e-10

    @pytest.mark.parametrize("points", [8, 10])
    def test_mean_gap_equals_the_per_entry_gap(self, points):
        # mean_gap, which verify prints, evaluates the means once per
        # distinct table, with one integer division per exact mean; the
        # floats must be those of the per-entry oracle, because the report
        # prints 17 digits.
        rng = random.Random(2024)
        space, a, b = random_double_stochastic_model(rng, max_split=3)
        while len(space.points) != points:
            space, a, b = random_double_stochastic_model(rng, max_split=3)
        atlas = ContextAtlas(space, a, b)
        pairs = []
        for _ in range(20):
            f, g = (
                {v: Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for v in x.values}
                for x in (a, b)
            )
            obs = CompositeObservable.sum_of(a, b, f, g)
            pairs.append((obs, obs.operator(atlas.transition)))
        gaps = [
            max(
                abs(quantum_mean(op, e.state) - float(obs.mean_on(e.table.local)))
                for e in atlas.represented
            )
            for obs, op in pairs
        ]
        assert max(gaps) > 0
        assert [mean_gap(atlas, [pair]) for pair in pairs] == gaps
        assert mean_gap(atlas, pairs) == max(gaps)
        first = pairs[0][0]
        assert mean_preservation_gap(space, a, b, first.f, first.g) == gaps[0]

    @pytest.mark.parametrize("q", QS)
    def test_functions_of_one_variable(self, q):
        # The paper's mean claim for f(a) and g(b) alone: each operator is
        # the function of its variable's operator, and its quantum mean is
        # the exact conditional mean on every represented context.
        space, a, b = _kq(q)
        f = {v: 3 * v + 1 for v in a.values}
        g = {v: v * v - 2 * v for v in b.values}
        trans = transition_matrix(space, a, b)
        for obs, want in (
            (CompositeObservable.of_a(a, b, f), function_of_a(a, trans, f)),
            (CompositeObservable.of_b(b, g), function_of_b(b, g)),
        ):
            op = obs.operator(trans)
            assert op.entries == want.entries
            for e in ContextAtlas(space, a, b).represented:
                exact = float(obs.mean_on(e.table.local))
                assert abs(quantum_mean(op, e.state) - exact) <= verify.OPERATOR_TOL

    def test_the_builder_reads_the_atlas_transition_matrix(self):
        # For every kind of observable, the operator built from the atlas's
        # transition matrix, which every report passes, is exactly the one
        # built from the matrix summed directly over the points, on the
        # reference family and on random DS models; g(b) reads neither.
        rng = random.Random(79)
        models = [_kq(q) for q in QS]
        models += [random_double_stochastic_model(rng) for _ in range(10)]
        for space, a, b in models:
            trans = transition_matrix(space, a, b)
            f = {v: v * v - v for v in a.values}
            g = {v: 3 * v + 1 for v in b.values}
            observables = (
                CompositeObservable.of_a(a, b, f),
                CompositeObservable.of_b(b, g),
                CompositeObservable.sum_of(a, b, f, g),
                CompositeObservable.product_of(a, b),
            )
            assert {obs.kind for obs in observables} == set(ObservableKind)
            atlas_trans = ContextAtlas(space, a, b).transition
            for obs in observables:
                assert obs.operator(atlas_trans).entries == obs.operator(trans).entries
            assert observables[1].operator(None) == observables[1].operator(trans)

    def test_symmetrized_product_breaks_preservation(self):
        # The product observable maps to the symmetrised operator product;
        # its mean is constant across states while the exact conditional mean
        # moves with the context.
        space, a, b = _kq(Fraction(1, 8))
        obs = CompositeObservable.product_of(a, b)
        op = _operator(space, a, b, obs)
        assert abs(op.entries[0][1]) < 1e-12
        assert abs(op.entries[0][0] - op.entries[1][1]) < 1e-12
        c234 = space.event(["w2", "w3", "w4"])
        state = amplitude(space, a, b, c234)
        quantum = quantum_mean(op, state)
        classical = obs.mean_on(_listed(space, a, b, c234)[0])
        assert classical == Fraction(-5, 7)
        assert abs(quantum - (-0.5)) < 1e-12
        assert abs(quantum - float(classical)) > 0.2


class TestSpectral:
    def test_against_numpy_oracle(self):
        rng = random.Random(71)
        for _ in range(200):
            alpha = rng.uniform(-5, 5)
            dlt = rng.uniform(-5, 5)
            beta = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if rng.random() < 0.15:
                beta = 0j
            if rng.random() < 0.1:
                dlt = alpha
            op = HermitianOperator(
                ((alpha + 0j, beta), (beta.conjugate(), dlt + 0j))
            )
            spec = spectral_decomposition(op)
            m = np.array(op.entries)
            want = np.linalg.eigvalsh(m)
            assert np.allclose(spec.eigenvalues, want, atol=1e-10)
            # Orthonormality and reconstruction.
            vecs = np.array(
                [list(v.components) for v in spec.eigenvectors]
            ).T
            assert np.allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-10)
            rebuilt = vecs @ np.diag(spec.eigenvalues) @ vecs.conj().T
            assert np.allclose(rebuilt, m, atol=1e-9)

    def test_sum_operator_eigenvalues(self):
        for q in QS:
            space, a, b = _kq(q)
            spec = spectral_decomposition(_operator(space, a, b))
            k = 2.0 * math.sqrt(float(2 * q))
            assert spec.eigenvalues == pytest.approx((-k, k), abs=1e-12)

    def test_degenerate_spectrum_merges(self):
        space, a, b = _kq(Fraction(1, 8))
        op = symmetrized_product(
            a_operator(a, transition_matrix(space, a, b)), b_operator(b)
        )
        state = amplitude(space, a, b, space.omega())
        dist = spectral_decomposition(op).distribution(state)
        assert len(dist) == 1
        value, mass = next(iter(dist.items()))
        assert abs(value - float(4 * Fraction(1, 8) - 1)) < 1e-12
        assert abs(mass - 1.0) < 1e-12


class TestDistributions:
    def test_quantum_weights_on_witness_context(self):
        q = Fraction(1, 8)
        space, a, b = _kq(q)
        op = _operator(space, a, b)
        state = amplitude(space, a, b, space.event(["w2", "w3", "w4"]))
        dist = spectral_decomposition(op).distribution(state)
        root = math.sqrt(float(2 * q))
        lo = (1 + root) * (2 - root) / float(4 * (1 - q))
        hi = (1 - root) * (2 + root) / float(4 * (1 - q))
        values = sorted(dist)
        assert values == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert dist[values[0]] == pytest.approx(lo, abs=1e-12)
        assert dist[values[1]] == pytest.approx(hi, abs=1e-12)
        assert lo == pytest.approx(9 / 14)
        assert hi == pytest.approx(5 / 14)

    def test_eigenstate_distribution_is_point_mass(self):
        _, _, b = _kq(Fraction(1, 4))
        spectrum = spectral_decomposition(b_operator(b))
        dist = spectrum.distribution(StateVector((1 + 0j, 0j)))
        assert sorted(dist) == [-1.0, 1.0]
        assert dist[-1.0] == pytest.approx(0.0, abs=1e-15)
        assert dist[1.0] == pytest.approx(1.0, abs=1e-15)

    def test_distribution_sums_to_one(self):
        rng = random.Random(73)
        for _ in range(10):
            space, a, b = random_double_stochastic_model(rng)
            spectrum = spectral_decomposition(_operator(space, a, b))
            for _, state in represented_states(space, a, b):
                dist = spectrum.distribution(state)
                assert abs(sum(dist.values()) - 1.0) < 1e-12

    def test_classical_pushforward_on_witness_context(self):
        q = Fraction(1, 8)
        space, a, b = _kq(q)
        obs = CompositeObservable.sum_of(a, b)
        got = obs.distribution_on(*_listed(space, a, b, space.event(["w2", "w3", "w4"])))
        assert got == {
            Fraction(-2): q / (1 - q),
            Fraction(0): (1 - 2 * q) / (1 - q),
            Fraction(2): Fraction(0),
        }

    def test_constant_observable_point_mass(self):
        space, a, b = _kq(Fraction(1, 4))
        const = CompositeObservable.of_b(b, {v: Fraction(3) for v in b.values})
        got = const.distribution_on(*_listed(space, a, b, space.omega()))
        assert got == {Fraction(3): Fraction(1)}

    def test_b_on_own_cell(self):
        space, a, b = _kq(Fraction(1, 4))
        obs = CompositeObservable.of_b(b, _identity(b))
        got = obs.distribution_on(*_listed(space, a, b, b.cell(space, 1)))
        assert got == {Fraction(-1): Fraction(0), Fraction(1): Fraction(1)}


class TestMismatch:
    def test_witness_gap_after_alignment(self):
        q = Fraction(1, 8)
        space, a, b = _kq(q)
        report = distribution_mismatch(
            space,
            a,
            b,
            CompositeObservable.sum_of(a, b),
            space.event(["w2", "w3", "w4"]),
            alignment=(2.0 * math.sqrt(float(2 * q)), -1.0),
        )
        assert report.total_variation == pytest.approx(5 / 14, abs=1e-12)

    def test_pure_function_of_b_matches(self):
        space, a, b = _kq(Fraction(1, 8))
        obs = CompositeObservable.sum_of(
            a, b, f=_zero(a), g={v: 2 * v + 1 for v in b.values}
        )
        for c in (space.event(["w1", "w2", "w3"]), space.omega()):
            report = distribution_mismatch(space, a, b, obs, c)
            assert report.total_variation < 1e-12

    def test_pure_function_of_a_matches(self):
        space, a, b = _kq(Fraction(1, 4))
        obs = CompositeObservable.sum_of(
            a, b, f={v: 3 * v for v in a.values}, g=_zero(b)
        )
        for c in (space.event(["w1", "w2", "w4"]), space.omega()):
            report = distribution_mismatch(space, a, b, obs, c)
            assert report.total_variation < 1e-10

    def test_functions_of_one_variable_are_rejected(self):
        space, a, b = _kq(Fraction(1, 4))
        obs = CompositeObservable.of_a(a, b, _identity(a))
        with pytest.raises(ValueError, match="sum and product"):
            distribution_mismatch(space, a, b, obs, space.omega())

    def test_is_the_report_compare_dist_composes(self):
        # The view reads one atlas of the context alone, bit for bit the
        # report built from the masses and amplitude of the full atlas.
        space, a, b = _kq(Fraction(1, 8))
        atlas = ContextAtlas(space, a, b)
        spectrum = spectral_decomposition(_operator(space, a, b))
        obs = CompositeObservable.sum_of(a, b)
        for e in atlas.mappable:
            report = distribution_mismatch(space, a, b, obs, e.context, (2.0, -1.0))
            law = obs.distribution_on(e.table.local, atlas.omega.whole)
            assert report == MismatchReport.of(
                law, spectrum.distribution(e.state), (2.0, -1.0)
            )

    def test_foreign_and_empty_events(self):
        # A foreign point raises ForeignPointError and an empty event, like
        # every event that misses a cell, NotAContextError: the types an
        # atlas of the event raises.
        space, a, b = _kq(Fraction(1, 4))
        obs = CompositeObservable.sum_of(a, b)
        for c, error in (
            (Event(["w1", "zz"]), ForeignPointError),
            (Event([]), NotAContextError),
            (space.event(["w1"]), NotAContextError),
        ):
            with pytest.raises(error):
                distribution_mismatch(space, a, b, obs, c)
            with pytest.raises(error):
                ContextAtlas(space, a, b, (c,)).entries


class TestHamiltonian:
    def test_scale_must_be_positive(self):
        space, a, b = _kq(Fraction(1, 4))
        for h in (0, -1, "-1/2"):
            with pytest.raises(ValueError, match="must be positive"):
                hamiltonian_observable(a, b, h, _identity(b))

    def test_is_the_scaled_sum_of_the_two_functions_exactly(self):
        # The energy operator is the builder's operator of the energy
        # observable: bit for bit f(a-op) + g(b-op) with f and g the squares
        # and the potential scaled by h/2 exactly, and within rounding h/2
        # times the unscaled sum.
        rng = random.Random(83)
        models = [_kq(q) for q in QS]
        models += [random_double_stochastic_model(rng) for _ in range(10)]
        for space, a, b in models:
            trans = transition_matrix(space, a, b)
            squared = {v: v * v for v in a.values}
            for h, pot in (
                (1, {v: v * v for v in b.values}),
                (Fraction(3, 7), {v: 5 * v - Fraction(2, 3) for v in b.values}),
            ):
                op = hamiltonian_observable(a, b, h, pot).operator(trans)
                half = Fraction(h) / 2
                scaled = op_add(
                    function_of_a(a, trans, {v: half * w for v, w in squared.items()}),
                    function_of_b(b, {v: half * w for v, w in pot.items()}),
                )
                assert op.entries == scaled.entries
                unscaled = op_add(
                    function_of_a(a, trans, squared), function_of_b(b, pot)
                )
                for row, rows in zip(op.entries, unscaled.entries):
                    for z, w in zip(row, rows):
                        assert abs(z - float(half) * w) <= 1e-12 * max(1.0, abs(z))

    def test_zero_potential_scales_squared_momentum(self):
        space, _, b = _kq(Fraction(1, 8))
        rich = DichotomousVariable(
            "a", (Fraction(2), Fraction(-1)), {"w1": 1, "w2": 1, "w3": 2, "w4": 2}
        )
        h = Fraction(3)
        trans = transition_matrix(space, rich, b)
        op = hamiltonian_observable(rich, b, h, _zero(b)).operator(trans)
        expected = function_of_a(rich, trans, {v: v * v for v in rich.values})
        for i in range(2):
            for j in range(2):
                assert abs(op.entries[i][j] - 1.5 * expected.entries[i][j]) < 1e-12

    def test_unit_values_make_kinetic_part_scalar(self):
        space, a, b = _kq(Fraction(1, 4))
        pot = {v: 5 * v for v in b.values}
        op = _operator(space, a, b, hamiltonian_observable(a, b, 2, pot))
        kinetic = (
            op.entries[0][0] - pot[b.values[0]],
            op.entries[1][1] - pot[b.values[1]],
        )
        assert abs(kinetic[0] - kinetic[1]) < 1e-12
        assert abs(op.entries[0][1]) < 1e-12

    def test_mean_matches_exact_energy(self):
        space, _, b = _kq(Fraction(3, 8))
        rich = DichotomousVariable(
            "a", (Fraction(2), Fraction(-1)), {"w1": 1, "w2": 1, "w3": 2, "w4": 2}
        )
        pot = {v: v * v + 1 for v in b.values}
        obs = hamiltonian_observable(rich, b, "1/2", pot)
        atlas = ContextAtlas(space, rich, b)
        op = obs.operator(atlas.transition)
        for e in atlas.represented:
            gap = abs(quantum_mean(op, e.state) - float(obs.mean_on(e.table.local)))
            assert gap < 1e-10
        assert mean_gap(atlas, [(obs, op)]) < 1e-10

    def test_energy_distribution_differs_somewhere(self):
        space, _, b = _kq(Fraction(1, 8))
        rich = DichotomousVariable(
            "a", (Fraction(2), Fraction(-1)), {"w1": 1, "w2": 1, "w3": 2, "w4": 2}
        )
        pot = {v: v for v in b.values}
        obs = hamiltonian_observable(rich, b, 2, pot)
        report = distribution_mismatch(
            space, rich, b, obs, space.event(["w2", "w3", "w4"])
        )
        assert report.total_variation > 0.1


class TestDispersion:
    def test_atom_has_zero_dispersion(self):
        space, a, b = _kq(Fraction(1, 4))
        obs = CompositeObservable.sum_of(a, b)
        assert obs.variance_on(_local(space, a, b, space.event(["w1"]))) == 0

    def test_constant_on_cell(self):
        space, a, b = _kq(Fraction(1, 4))
        obs = CompositeObservable.of_b(b, _identity(b))
        local, _ = _listed(space, a, b, b.cell(space, 1))
        assert obs.variance_on(local) == 0

    def test_bernoulli_variance(self):
        space, a, b = _kq(Fraction(1, 4))
        obs = CompositeObservable.of_b(b, _identity(b))
        local, _ = _listed(space, a, b, space.event(["w1", "w2", "w3"]))
        got = obs.variance_on(local)
        spread = (b.values[0] - b.values[1]) ** 2
        assert got == spread * Fraction(1, 3) * Fraction(2, 3)

    def test_compatible_pair_cells(self):
        space, a, _ = _kq(Fraction(1, 4))
        obs = CompositeObservable.of_a(a, a, _identity(a))
        for idx in (1, 2):
            assert obs.variance_on(_local(space, a, a, a.cell(space, idx))) == 0

    def test_single_point_space(self):
        # The one point holds the whole mass, in one cell: no spread.
        space = FiniteProbabilitySpace.from_pairs([("only", 1)])
        local = mass_table(space, {"only": 1}, {"only": 2}, space.points)
        assert local == ((0, 1), (0, 0))
        _, a, b = _kq(Fraction(1, 4))
        obs = CompositeObservable.sum_of(a, b, {v: 9 * v for v in a.values})
        assert obs.variance_on(local) == 0


class TestDispersionFreeSearch:
    @pytest.mark.parametrize("q", QS)
    def test_reference_family_atoms_only(self, q):
        space, a, b = _kq(q)
        report = dispersion_free_search(ContextAtlas(space, a, b))
        assert set(report.dispersion_free) == set(space.atoms())
        assert report.intersection == ()
        assert len(report.representable) == 11

    def test_exhaustive_atomicity(self):
        rng = random.Random(79)
        for _ in range(5):
            space, a, b = random_double_stochastic_model(rng)
            report = dispersion_free_search(ContextAtlas(space, a, b))
            assert set(report.dispersion_free) == set(space.atoms())
            assert report.intersection == ()

    def test_representable_events_are_the_represented_family(self):
        rng = random.Random(83)
        for _ in range(10):
            space, a, b = random_incompatible_model(rng)
            report = dispersion_free_search(ContextAtlas(space, a, b))
            expected = tuple(evt for evt, _ in represented_states(space, a, b))
            assert report.representable == expected
