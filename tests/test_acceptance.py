"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one pass line (visible with ``pytest -s`` or ``-rP``); a
failing criterion fails its test.  Exact statements compare rationals,
amplitude-level statements use 1e-12, operator-level statements 1e-10.
"""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from qcontext import cli
from qcontext.hilbert import (
    ContextAtlas,
    amplitude,
    is_double_stochastic,
    mappable_contexts,
    nonsensitive_contexts,
    phase_gap,
    transition_matrix,
)
from qcontext.interference import (
    Classification,
    TwoCellTable,
    classify,
    delta,
    delta_outcome_sum,
    lambda_coefficient,
)
from qcontext.model_io import kq_model, parse_model
from qcontext.operators import (
    CompositeObservable,
    a_operator,
    b_operator,
    commutator,
    dispersion_free_search,
    distribution_mismatch,
    quantum_mean,
    spectral_decomposition,
)
from qcontext.prob import (
    conditional,
    contexts_of,
    cover_overlap_report,
    probability,
)
from qcontext.verify import born_in_a_basis_check, phase_gap_constancy_check
from randmodels import random_double_stochastic_model, random_incompatible_model

DATA = Path(__file__).parent / "data"
QS = [Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)]
AMPLITUDE_TOL = 1e-12
OPERATOR_TOL = 1e-10


def _kq(q):
    spec = kq_model(q)
    return spec.space, spec.variables["a"], spec.variables["b"]


def _passed(line: str) -> None:
    print(f"[acceptance] {line}: PASS")


def _mixed_random_model(rng):
    cap = rng.choice([6, 7, 8, 8, 8, 10])
    return random_incompatible_model(rng, max_points=cap)


def _assert_table_matches_reference(space, a, b, c, first, second):
    """The two-cell table of ``c`` equals the Event-level delta and
    coefficients exactly, and so do its mappability and classification."""
    ap, bp = a.partition(space), b.partition(space)
    table = TwoCellTable.of(space, a.assignment, b.assignment, c)
    for j, coeff in enumerate((first, second)):
        assert table.delta(j) == delta(space, bp.cells[j], ap, c)
        assert table.coefficient(j) == coeff
    squares = [first.squared, second.squared]
    assert table.mappable == all(s <= 1 for s in squares)
    if all(s < 1 for s in squares):
        expected = Classification.TRIGONOMETRIC
    elif all(s > 1 for s in squares):
        expected = Classification.HYPERBOLIC
    elif 1 in squares:
        expected = Classification.BOUNDARY
    else:
        expected = Classification.MIXED
    assert table.classification is expected
    assert classify(space, ap, bp, c) is expected


def test_01_reference_family_closed_forms():
    """Exact disturbances, coefficients, amplitudes and the quiet-context set
    of the four-point family at three parameter values."""
    for q in QS:
        space, a, b = _kq(q)
        ap, bp = a.partition(space), b.partition(space)
        c123 = space.event(["w1", "w2", "w3"])
        c124 = space.event(["w1", "w2", "w4"])
        assert delta(space, bp.cells[0], ap, c123) == 2 * q * (2 * q - 1) / (2 * q + 1)
        first = lambda_coefficient(space, bp.cells[0], ap, c123)
        assert first.squared == (1 - 2 * q) / 4 and first.sign == -1
        assert abs(first.value + math.sqrt(float(1 - 2 * q)) / 2) <= AMPLITUDE_TOL
        assert (
            abs(first.phase - math.acos(-math.sqrt(float(1 - 2 * q)) / 2))
            <= AMPLITUDE_TOL
        )
        second = lambda_coefficient(space, bp.cells[0], ap, c124)
        assert second.squared == q / 2 and second.sign == 1
        assert abs(second.value - math.sqrt(float(q) / 2)) <= AMPLITUDE_TOL

        state = amplitude(space, a, b, space.event(["w2", "w4"]))
        sq = math.sqrt(float(q))
        sr = math.sqrt(float((1 - 2 * q) / 2))
        assert abs(state.components[0] - complex(sq, -sr)) <= AMPLITUDE_TOL
        assert abs(state.components[1] - complex(sr, sq)) <= AMPLITUDE_TOL

        cell_state = amplitude(space, a, b, bp.cells[0])
        assert abs(cell_state.components[0] - 1.0) <= AMPLITUDE_TOL
        assert abs(cell_state.components[1]) <= AMPLITUDE_TOL

        cells = {e.context: e.state for e in ContextAtlas(space, a, b).represented}
        q1, q2 = math.sqrt(float(2 * q)), math.sqrt(float(1 - 2 * q))
        got_first = cells[ap.cells[0]].components
        got_second = cells[ap.cells[1]].components
        assert abs(got_first[0] - q1) <= AMPLITUDE_TOL
        assert abs(got_first[1] - q2) <= AMPLITUDE_TOL
        assert abs(got_second[0] + q2) <= AMPLITUDE_TOL
        assert abs(got_second[1] - q1) <= AMPLITUDE_TOL

        quiet = {c.members for c in nonsensitive_contexts(space, a, b)}
        assert quiet == {("w1", "w3"), ("w2", "w4"), ("w1", "w2", "w3", "w4")}
    _passed("01 reference-family closed forms")


def test_02_disturbance_sum_vanishes_on_random_models():
    """Sum of outcome disturbances is exactly zero for every context of 500
    randomized rational models with at most ten points."""
    rng = random.Random(1002)
    total_contexts = 0
    for _ in range(500):
        space, a, b = _mixed_random_model(rng)
        assert len(space.points) <= 10
        ap, bp = a.partition(space), b.partition(space)
        for c in contexts_of(space, ap):
            total_contexts += 1
            assert delta_outcome_sum(space, ap, bp, c) == 0
    assert total_contexts > 10_000
    _passed(f"02 disturbance sums vanish ({total_contexts} contexts)")


def test_03_weighted_balance_and_cosine_antisymmetry():
    """Outcome coefficients carry opposite signs with exactly balanced
    weighted squares; under doubly stochastic transitions the cosines are
    antisymmetric within 1e-12.  On every context of the first models of each
    kind, and of the hyperbolic witness, the two-cell table agrees exactly
    with the Event-level reference."""
    table_models = 50
    rng = random.Random(1003)
    for i in range(500):
        space, a, b = _mixed_random_model(rng)
        ap, bp = a.partition(space), b.partition(space)
        p11 = conditional(space, bp.cells[0], ap.cells[0])
        p21 = conditional(space, bp.cells[0], ap.cells[1])
        p12 = conditional(space, bp.cells[1], ap.cells[0])
        p22 = conditional(space, bp.cells[1], ap.cells[1])
        for c in contexts_of(space, ap):
            first = lambda_coefficient(space, bp.cells[0], ap, c)
            second = lambda_coefficient(space, bp.cells[1], ap, c)
            assert first.squared * p11 * p21 == second.squared * p12 * p22
            assert first.sign == -second.sign
            if i < table_models:
                _assert_table_matches_reference(space, a, b, c, first, second)
    rng = random.Random(2003)
    for i in range(250):
        space, a, b = random_double_stochastic_model(rng)
        ap, bp = a.partition(space), b.partition(space)
        for c in contexts_of(space, ap):
            first = lambda_coefficient(space, bp.cells[0], ap, c)
            second = lambda_coefficient(space, bp.cells[1], ap, c)
            if first.squared <= 1:
                assert abs(
                    math.cos(first.phase) + math.cos(second.phase)
                ) <= AMPLITUDE_TOL
            if i < table_models:
                _assert_table_matches_reference(space, a, b, c, first, second)
    witness = parse_model((DATA / "hyperbolic_witness.json").read_text())
    space, a, b = witness.space, witness.variables["a"], witness.variables["b"]
    ap, bp = a.partition(space), b.partition(space)
    for c in contexts_of(space, ap):
        first = lambda_coefficient(space, bp.cells[0], ap, c)
        second = lambda_coefficient(space, bp.cells[1], ap, c)
        _assert_table_matches_reference(space, a, b, c, first, second)
    _passed("03 weighted coefficient balance and cosine antisymmetry")


def test_04_born_rule_in_both_bases():
    """Squared amplitudes return conditional probabilities in the b-basis,
    and projections onto the fixed a-basis return those of a within 1e-12 on
    doubly stochastic models; the stored witness model fails the a-basis
    check by more than 1e-3."""
    rng = random.Random(1004)
    models = [random_double_stochastic_model(rng) for _ in range(60)]
    models.extend(_kq(q) for q in QS)
    for space, a, b in models:
        bp = b.partition(space)
        rows = born_in_a_basis_check(ContextAtlas(space, a, b))
        assert max(row.error for row in rows) <= AMPLITUDE_TOL
        for c in mappable_contexts(space, a, b):
            probs = amplitude(space, a, b, c).probabilities()
            assert abs(sum(probs) - 1.0) <= AMPLITUDE_TOL
            for j, cell in enumerate(bp.cells):
                assert (
                    abs(probs[j] - float(conditional(space, cell, c)))
                    <= AMPLITUDE_TOL
                )
    witness = parse_model(
        (DATA / "non_double_stochastic_witness.json").read_text()
    )
    rows = born_in_a_basis_check(
        ContextAtlas(witness.space, witness.variables["a"], witness.variables["b"])
    )
    worst = max(row.error for row in rows)
    assert worst > 1e-3
    _passed(f"04 Born rule in both bases (witness failure {worst:.4f})")


def test_05_phase_gap_constancy():
    """With opposite signs the sign-weighted phase gap is pi (mod 2 pi)
    within 1e-12 on every mappable context of doubly stochastic models; with
    equal signs two contexts exhibit different gaps."""
    rng = random.Random(1005)
    models = [random_double_stochastic_model(rng) for _ in range(60)]
    models.extend(_kq(q) for q in QS)
    for space, a, b in models:
        worst, profile = phase_gap_constancy_check(ContextAtlas(space, a, b))
        assert worst <= AMPLITUDE_TOL and profile
    space, a, b = _kq(Fraction(1, 8))
    events = (space.event(["w1", "w2", "w3"]), space.event(["w1", "w2", "w4"]))
    g1, g2 = (
        phase_gap(e.table, +1, +1) for e in ContextAtlas(space, a, b, events).entries
    )
    assert abs(g1 - g2) > 1e-6
    _passed("05 phase gap constancy and equal-sign violation")


def test_06_commutator_closed_form():
    """The commutator of the fundamental pair has zero diagonal and
    off-diagonal entries +/- (a1-a2)(b2-b1) q1 q2 within 1e-12, nonzero at
    every tested parameter."""
    for q in QS:
        space, a, b = _kq(q)
        trans = transition_matrix(space, a, b)
        com = commutator(b_operator(b), a_operator(a, trans))
        q1q2 = math.sqrt(float(trans.entries[0][0] * trans.entries[0][1]))
        expected = (
            float(a.values[0] - a.values[1])
            * float(b.values[1] - b.values[0])
            * q1q2
        )
        assert abs(com[0][0]) <= AMPLITUDE_TOL
        assert abs(com[1][1]) <= AMPLITUDE_TOL
        assert abs(com[1][0] - expected) <= AMPLITUDE_TOL
        assert abs(com[0][1] + expected) <= AMPLITUDE_TOL
        assert abs(expected) > 1e-6
    _passed("06 commutator closed form")


def test_07_mean_preservation_random_observables():
    """Quantum means of f(a)+g(b) agree with exact conditional means within
    1e-10 for 100 random value tables across all represented contexts."""
    rng = random.Random(1007)
    for q in QS:
        space, a, b = _kq(q)
        atlas = ContextAtlas(space, a, b)
        assert len(atlas.represented) == 11
        for _ in range(100):
            f = {v: Fraction(rng.randint(-30, 30), rng.randint(1, 11)) for v in a.values}
            g = {v: Fraction(rng.randint(-30, 30), rng.randint(1, 11)) for v in b.values}
            obs = CompositeObservable.sum_of(a, b, f, g)
            op = obs.operator(atlas.transition)
            for e in atlas.represented:
                gap = abs(
                    quantum_mean(op, e.state)
                    - float(obs.mean_on(e.table.local))
                )
                assert gap <= OPERATOR_TOL
    _passed("07 mean preservation for random sum observables")


def test_08_distribution_mismatch_witness():
    """At q = 1/8 the sum observable on the three-point context has exact
    classical law {-2: 1/7, 0: 6/7, 2: 0}, spectral weights matching the
    closed forms within 1e-12, and total variation above 0.1 after the
    affine support alignment."""
    q = Fraction(1, 8)
    space, a, b = _kq(q)
    c234 = space.event(["w2", "w3", "w4"])
    obs = CompositeObservable.sum_of(a, b)
    atlas = ContextAtlas(space, a, b, (c234,))
    classical = obs.distribution_on(atlas.entries[0].table.local, atlas.omega.whole)
    assert classical == {
        Fraction(-2): Fraction(1, 7),
        Fraction(0): Fraction(6, 7),
        Fraction(2): Fraction(0),
    }
    (state,) = atlas.amplitudes()
    dist = spectral_decomposition(obs.operator(atlas.transition)).distribution(state)
    root = math.sqrt(float(2 * q))
    spread = 2.0 * root
    lo_weight = (1 + root) * (2 - root) / float(4 * (1 - q))
    hi_weight = (1 - root) * (2 + root) / float(4 * (1 - q))
    values = sorted(dist)
    assert abs(values[0] + spread) <= AMPLITUDE_TOL
    assert abs(values[1] - spread) <= AMPLITUDE_TOL
    assert abs(dist[values[0]] - lo_weight) <= AMPLITUDE_TOL
    assert abs(dist[values[1]] - hi_weight) <= AMPLITUDE_TOL
    report = distribution_mismatch(
        space, a, b, obs, c234, alignment=(2.0 * root, -1.0)
    )
    assert report.total_variation > 0.1
    assert abs(report.total_variation - 5.0 / 14.0) <= AMPLITUDE_TOL
    _passed(
        f"08 distribution mismatch witness (gap {report.total_variation:.4f})"
    )


def test_09_duality_equivalences_on_random_models():
    """Over 500 random models with doubly stochastic forward transitions:
    the b-cells admit amplitudes iff the reverse matrix is doubly stochastic
    iff transitions are symmetric iff both marginals are uniform (all exact);
    in the doubly-doubly stochastic subfamily the cell coefficients are
    exactly +1 on the own cell and -1 on the other."""
    rng = random.Random(1009)
    double_double = 0
    for i in range(500):
        uniform = [None, True, False][i % 3]
        space, a, b = random_double_stochastic_model(rng, uniform=uniform)
        ap, bp = a.partition(space), b.partition(space)
        trans = transition_matrix(space, a, b)
        assert is_double_stochastic(trans)
        reverse_ds = is_double_stochastic(transition_matrix(space, b, a))
        cells_ok = all(
            lambda_coefficient(space, cj, ap, ci).squared <= 1
            for ci in bp.cells
            for cj in bp.cells
        )
        symmetric = all(
            trans.entries[i_][j_]
            == conditional(space, ap.cells[i_], bp.cells[j_])
            for i_ in range(2)
            for j_ in range(2)
        )
        uniform_marginals = all(
            probability(space, cell) == Fraction(1, 2)
            for cell in ap.cells + bp.cells
        )
        assert cells_ok == reverse_ds == symmetric == uniform_marginals
        if reverse_ds:
            double_double += 1
            for i_, ci in enumerate(bp.cells):
                for j_, cj in enumerate(bp.cells):
                    coeff = lambda_coefficient(space, cj, ap, ci)
                    assert coeff.squared == 1
                    assert coeff.sign == (1 if i_ == j_ else -1)
    assert double_double >= 150
    _passed(f"09 duality equivalences ({double_double} doubly-doubly models)")


def test_10_dispersion_free_events_are_atoms():
    """Exhaustive enumeration over the four-point family: exactly the atoms
    have zero variance for every random variable, and none of them is a
    represented context."""
    for q in QS:
        space, a, b = _kq(q)
        report = dispersion_free_search(ContextAtlas(space, a, b))
        assert set(report.dispersion_free) == set(space.atoms())
        assert len(report.dispersion_free) == 4
        assert report.intersection == ()
    _passed("10 dispersion-free events are exactly the atoms")


def test_11_two_cell_overlap_equivalence_exhaustive():
    """For every pair of 2-cell partitions of ground sets with up to six
    points, full pairwise overlap holds iff no cell includes another; the
    stored seven-point three-cell witness has no inclusions yet misses one
    intersection."""
    checked = 0
    for n in range(1, 7):
        points = [f"p{i}" for i in range(n)]
        partitions = []
        anchor, rest = points[0], points[1:]
        for r in range(len(points)):
            for combo in itertools.combinations(rest, r):
                first = (anchor, *combo)
                second = tuple(p for p in points if p not in first)
                if second:
                    partitions.append((first, second))
        for fam_a in partitions:
            for fam_b in partitions:
                report = cover_overlap_report(points, fam_a, fam_b)
                assert report.nonempty_intersections == report.no_inclusions
                checked += 1
    witness = json.loads((DATA / "cover_families_witness.json").read_text())
    report = cover_overlap_report(
        witness["universe"], witness["family_a"], witness["family_b"]
    )
    assert report.no_inclusions and not report.nonempty_intersections
    _passed(f"11 two-cell overlap equivalence ({checked} partition pairs)")


def test_12_verification_is_deterministic(tmp_path, capsys):
    """Running the full check suite twice on the same model produces byte
    identical reports and exit code zero."""
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert cli.main(["verify", "--kq", "1/4", "--out", str(first)]) == 0
    assert cli.main(["verify", "--kq", "1/4", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["all_passed"] is True
    _passed("12 verification determinism")
