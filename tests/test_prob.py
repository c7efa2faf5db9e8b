"""Exact-arithmetic behaviour of spaces, events, contexts and cover reports."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontext.errors import (
    ForeignPointError,
    PartialAssignmentError,
    ZeroConditionError,
)
from qcontext.model_io import kq_model
from qcontext.prob import (
    DichotomousVariable,
    Event,
    FiniteProbabilitySpace,
    Partition,
    all_events,
    conditional,
    contexts_of,
    cover_overlap_report,
    is_context,
    probability,
    variables_incompatible,
)
from randmodels import random_incompatible_model

QS = [Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)]


def _kq(q):
    spec = kq_model(q)
    return spec.space, spec.variables["a"], spec.variables["b"]


class TestSpaceInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum exactly to one"):
            FiniteProbabilitySpace.from_pairs([("x", "1/2"), ("y", "1/3")])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            FiniteProbabilitySpace.from_pairs([("x", 1), ("y", 0)])

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            FiniteProbabilitySpace(
                points=("x", "x"), weights={"x": Fraction(1)}
            )

    def test_event_members_are_sorted_and_unique(self):
        evt = Event(["b", "a", "b"])
        assert evt.members == ("a", "b")


class TestProbability:
    @pytest.mark.parametrize("q", QS)
    def test_uniform_marginals(self, q):
        space, a, b = _kq(q)
        for var in (a, b):
            for idx in (1, 2):
                assert probability(space, var.cell(space, idx)) == Fraction(1, 2)

    def test_total_measure(self):
        space, _, _ = _kq(Fraction(1, 4))
        assert probability(space, space.omega()) == 1

    def test_paired_atoms(self):
        space, _, _ = _kq(Fraction(1, 4))
        assert probability(space, space.event(["w1", "w3"])) == Fraction(1, 2)
        space, _, _ = _kq(Fraction(1, 8))
        assert probability(space, space.event(["w1", "w3"])) == Fraction(1, 4)

    def test_foreign_point_rejected(self):
        space, _, _ = _kq(Fraction(1, 4))
        with pytest.raises(ForeignPointError):
            probability(space, Event(["nope"]))


class TestConditional:
    @pytest.mark.parametrize("q", QS)
    def test_three_point_context_closed_form(self, q):
        space, a, b = _kq(q)
        c123 = space.event(["w1", "w2", "w3"])
        b1 = b.cell(space, 1)
        a2 = a.cell(space, 2)
        assert conditional(space, b1, c123) == 2 * q / (2 * q + 1)
        assert conditional(space, a2, c123) == 2 * q / (2 * q + 1)

    def test_conditioning_on_full_space_is_marginal(self):
        space, a, _ = _kq(Fraction(3, 8))
        cell = a.cell(space, 1)
        assert conditional(space, cell, space.omega()) == probability(space, cell)

    def test_complementary_three_point_context(self):
        space, _, b = _kq(Fraction(1, 8))
        c124 = space.event(["w1", "w2", "w4"])
        assert conditional(space, b.cell(space, 1), c124) == Fraction(4, 7)

    def test_zero_condition_raises(self):
        space, _, _ = _kq(Fraction(1, 4))
        with pytest.raises(ZeroConditionError):
            conditional(space, space.omega(), Event([]))


class TestContexts:
    def test_three_point_set_is_context(self):
        space, a, _ = _kq(Fraction(1, 4))
        part = a.partition(space)
        assert is_context(space, space.event(["w1", "w2", "w3"]), part)

    def test_cell_is_not_context_for_own_partition(self):
        space, a, _ = _kq(Fraction(1, 4))
        part = a.partition(space)
        assert not is_context(space, a.cell(space, 1), part)

    def test_full_space_is_always_context(self):
        rng = random.Random(7)
        for _ in range(20):
            space, a, _ = random_incompatible_model(rng)
            assert is_context(space, space.omega(), a.partition(space))

    def test_enumeration_matches_definition(self):
        space, a, _ = _kq(Fraction(1, 8))
        part = a.partition(space)
        expected = {
            evt for evt in all_events(space) if is_context(space, evt, part)
        }
        assert set(contexts_of(space, part)) == expected
        assert len(expected) == 9

    def test_events_and_contexts_come_sorted_by_size_then_members(self):
        # Ids given out of order, and "p10" sorts before "p2".
        ids = ("p2", "p10", "p1", "p3", "p11")
        space = FiniteProbabilitySpace(ids, {p: "1/5" for p in ids})
        a = DichotomousVariable(
            "a", ("0", "1"), {"p2": 1, "p10": 2, "p1": 2, "p3": 1, "p11": 1}
        )
        events = list(all_events(space))
        contexts = list(contexts_of(space, a.partition(space)))
        assert (len(events), len(contexts)) == (31, 21)
        for found in (events, contexts):
            assert found == sorted(found, key=lambda e: (len(e.members), e.members))


class TestIncompatibility:
    @pytest.mark.parametrize("q", QS)
    def test_reference_family_pair(self, q):
        space, a, b = _kq(q)
        assert variables_incompatible(space, a, b)

    def test_variable_with_itself(self):
        space, a, _ = _kq(Fraction(1, 4))
        assert not variables_incompatible(space, a, a)

    def test_partial_assignment_detected(self):
        space, a, _ = _kq(Fraction(1, 4))
        other = FiniteProbabilitySpace.from_pairs(
            [("w1", "1/2"), ("zz", "1/2")]
        )
        with pytest.raises(PartialAssignmentError):
            a.partition(other)

    def test_shared_cell_breaks_incompatibility(self):
        space, a, _ = _kq(Fraction(1, 4))
        clone = DichotomousVariable(
            "c", (Fraction(5), Fraction(7)), dict(a.assignment)
        )
        assert not variables_incompatible(space, a, clone)


def _two_cell_partitions(points):
    """All unordered 2-cell partitions of ``points`` as (cell, complement)."""
    pts = sorted(points)
    anchor = pts[0]
    rest = pts[1:]
    out = []
    for r in range(len(pts)):
        for combo in itertools.combinations(rest, r):
            first = (anchor, *combo)
            second = tuple(p for p in pts if p not in first)
            if second:
                out.append((first, second))
    return out


class TestCoverOverlap:
    def test_two_cell_partitions_with_full_overlap(self):
        space, a, b = _kq(Fraction(1, 4))
        report = cover_overlap_report(
            space.points,
            [a.cell(space, 1).members, a.cell(space, 2).members],
            [b.cell(space, 1).members, b.cell(space, 2).members],
        )
        assert report.nonempty_intersections and report.no_inclusions

    def test_stored_seven_point_witness(self, cover_witness):
        report = cover_overlap_report(
            cover_witness["universe"],
            cover_witness["family_a"],
            cover_witness["family_b"],
        )
        assert report.no_inclusions
        assert not report.nonempty_intersections
        sets_a = [set(s) for s in cover_witness["family_a"]]
        sets_b = [set(s) for s in cover_witness["family_b"]]
        assert any(not (sa & sb) for sa in sets_a for sb in sets_b)

    def test_inclusion_is_detected(self):
        report = cover_overlap_report(
            ["x", "y", "z"],
            [["x"], ["y", "z"]],
            [["x", "y"], ["z"]],
        )
        assert not report.no_inclusions

    def test_must_cover_universe(self):
        with pytest.raises(ValueError, match="cover"):
            cover_overlap_report(["x", "y"], [["x"]], [["x", "y"]])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_two_cell_equivalence_small_spaces(self, n):
        points = [f"p{i}" for i in range(n)]
        partitions = _two_cell_partitions(points)
        for fam_a in partitions:
            for fam_b in partitions:
                report = cover_overlap_report(points, fam_a, fam_b)
                assert report.nonempty_intersections == report.no_inclusions


@st.composite
def small_spaces(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    masses = draw(
        st.lists(
            st.integers(min_value=1, max_value=20), min_size=n, max_size=n
        )
    )
    total = sum(masses)
    return FiniteProbabilitySpace.from_pairs(
        (f"p{i}", Fraction(m, total)) for i, m in enumerate(masses)
    )


@given(small_spaces(), st.randoms(use_true_random=False))
def test_bayes_consistency(space, rng):
    pts = list(space.points)
    pick = lambda: Event(p for p in pts if rng.random() < 0.5)
    c = pick()
    a = pick()
    if probability(space, c) == 0:
        c = space.omega()
    assert conditional(space, a, c) * probability(space, c) == probability(
        space, a.intersect(c)
    )


@given(small_spaces())
@settings(max_examples=60, derandomize=True, database=None)
def test_context_conditionals_sum_to_one(space):
    if len(space.points) < 2:
        return
    pts = sorted(space.points)
    part = Partition.of(
        space, [Event(pts[:1]), Event(pts[1:])]
    )
    for c in contexts_of(space, part):
        total = sum(
            (conditional(space, cell, c) for cell in part.cells),
            start=Fraction(0),
        )
        assert total == 1


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100, derandomize=True, database=None)
def test_full_overlap_implies_no_inclusions(seed):
    # Random pairs of partitions into 2..4 nonempty cells: whenever every
    # pairwise intersection is nonempty, no cell can sit inside another,
    # because the included cell would miss the remaining partner cells.
    rng = random.Random(seed)
    points = [f"p{i}" for i in range(rng.randint(4, 8))]

    def partition_family():
        k = rng.randint(2, min(4, len(points)))
        while True:
            cells = [[] for _ in range(k)]
            for p in points:
                cells[rng.randrange(k)].append(p)
            if all(cells):
                return cells

    fam_a, fam_b = partition_family(), partition_family()
    report = cover_overlap_report(points, fam_a, fam_b)
    if report.nonempty_intersections:
        assert report.no_inclusions
