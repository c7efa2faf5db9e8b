"""The integer-mass kernel against plain Fraction sums of point weights.

Every function below that sums point masses must return exactly the
Fraction the textbook definition gives when the weights themselves are
added, on small random models and on a model whose weight denominators are
huge and pairwise coprime.  That includes the disturbance algebra: delta,
the pairwise shares, the squared coefficients with their signs and the
classical expansion, from both the two-cell table and the Event-level path.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcontext import interference, operators, prob, verify
from qcontext.errors import (
    DegenerateRadicalError,
    FloatRangeError,
    ForeignPointError,
    NotAContextError,
    ZeroConditionError,
)
from qcontext.hilbert import ContextAtlas
from qcontext.interference import (
    Classification,
    LambdaCoefficient,
    TwoCellTable,
    classical_part,
    delta,
    interference_cross_sum,
    lambda_coefficient,
    pairwise_delta,
    reconstruct_total_probability,
)
from qcontext.model_io import kq_model
from qcontext.operators import CompositeObservable
from qcontext.prob import (
    DichotomousVariable,
    Event,
    FiniteProbabilitySpace,
    Partition,
    all_events,
    conditional,
    contexts_of,
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


def ref_classical_part(space, b, partition, c):
    return sum(
        (
            ref_conditional(space, cell, c) * ref_conditional(space, b, cell)
            for cell in partition.cells
        ),
        start=Fraction(0),
    )


def ref_delta(space, b, partition, c):
    """P(B|C) minus its classical total-probability expansion."""
    return ref_conditional(space, b, c) - ref_classical_part(space, b, partition, c)


def ref_pairwise_delta(space, b, partition, c, n, m):
    def term(cell):
        return ref_conditional(space, cell, c) * (
            ref_conditional(space, b, cell.intersect(c))
            - ref_conditional(space, b, cell)
        )

    cells = partition.cells
    return (term(cells[n]) + term(cells[m])) / (len(cells) - 1)


def ref_radicand(space, b, partition, c, n, m):
    cells = partition.cells
    return (
        ref_conditional(space, cells[n], c)
        * ref_conditional(space, b, cells[n])
        * ref_conditional(space, cells[m], c)
        * ref_conditional(space, b, cells[m])
    )


def ref_lambda(space, b, partition, c, n, m):
    """(squared coefficient, sign), or None where the radicand vanishes."""
    share = ref_pairwise_delta(space, b, partition, c, n, m)
    radicand = ref_radicand(space, b, partition, c, n, m)
    if radicand == 0:
        return None
    return share**2 / (4 * radicand), (share > 0) - (share < 0)


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


def three_cell_partition(space, a):
    """The a-partition with its largest cell split in two, or None."""
    cells = list(a.partition(space).cells)
    big = max(cells, key=len)
    if len(big) < 2:
        return None
    i = cells.index(big)
    cells[i : i + 1] = [Event(big.members[:1]), Event(big.members[1:])]
    return Partition.of(space, cells)


def _random_map(rng, keys):
    return {k: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for k in keys}


def _variance_maps(rng, space):
    """Every point indicator, maps with negative values over mixed and huge
    denominators, and a constant map."""
    denominators = [1, 2, 3, 7, MERSENNE_61, 10**40]
    maps = [{p: Fraction(int(p == q)) for p in space.points} for q in space.points]
    maps += [
        {
            p: Fraction(rng.randint(-(10**6), 10**6), rng.choice(denominators))
            for p in space.points
        },
        {p: Fraction(-rng.randint(1, 9), rng.randint(1, 9)) for p in space.points},
        dict.fromkeys(space.points, Fraction(-5, 3)),
    ]
    return maps


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
    point_maps = [_random_map(rng, space.points), *_variance_maps(rng, space)]
    observables.append(CompositeObservable.of_b(b, _random_map(rng, b.values)))
    # The masses of each context from one listed atlas, those of any other
    # event summed directly, as an atlas holds them for a-cells.
    contexts = [c for c in events if is_context(space, c, a_part)]
    listed = ContextAtlas(space, a, b, contexts)
    held = {e.context: e.table.local for e in listed.entries}
    whole = listed.omega.whole
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
        local = held.get(c) or interference.mass_table(
            space, a.assignment, b.assignment, c.members
        )
        for obs in observables:
            values = {p: obs.value_at(p) for p in space.points}
            assert obs.mean_on(local) == ref_mean(space, values, c)
            assert obs.distribution_on(local, whole) == ref_distribution(
                space, values, c
            )
            assert obs.variance_on(local) == ref_variance(space, values, c)
        for point_map in point_maps:
            pairs = [(point_map[p], space._masses[p]) for p in c.members]
            got = Fraction(*operators._variance_terms(pairs))
            assert got == ref_variance(space, point_map, c)


def test_kernel_error_cases():
    space, a, b = huge_denominator_model()
    foreign = Event(["p1", "zz"])
    obs = CompositeObservable.sum_of(a, b)
    with pytest.raises(ForeignPointError, match="'zz'"):
        probability(space, foreign)
    with pytest.raises(ForeignPointError):
        conditional(space, space.omega(), foreign)
    with pytest.raises(ForeignPointError):
        is_context(space, foreign, a.partition(space))
    with pytest.raises(ForeignPointError):
        TwoCellTable.of(space, a.assignment, b.assignment, foreign)
    # The masses of a composite observable's laws come from an atlas, which
    # refuses a foreign point and an empty event (no context) as the table
    # does.
    with pytest.raises(ForeignPointError):
        ContextAtlas(space, a, b, (foreign,)).entries
    with pytest.raises(ForeignPointError):
        operators.distribution_mismatch(space, a, b, obs, foreign)

    empty = Event([])
    with pytest.raises(ZeroConditionError):
        conditional(space, space.omega(), empty)
    with pytest.raises(NotAContextError):
        ContextAtlas(space, a, b, (empty,)).entries
    with pytest.raises(NotAContextError):
        operators.distribution_mismatch(space, a, b, obs, empty)
    # Masses with no weight have no law.
    nothing = ((0, 0), (0, 0))
    for law in (obs.mean_on, obs.variance_on):
        with pytest.raises(ZeroDivisionError):
            law(nothing)


def _assert_event_level_matches_reference(space, b, partition, c):
    k = len(partition)
    assert classical_part(space, b, partition, c) == ref_classical_part(
        space, b, partition, c
    )
    assert delta(space, b, partition, c) == ref_delta(space, b, partition, c)
    for n in range(k):
        for m in range(k):
            if n == m:
                continue
            want = ref_pairwise_delta(space, b, partition, c, n, m)
            assert pairwise_delta(space, b, partition, c, n, m) == want
            expected = ref_lambda(space, b, partition, c, n, m)
            if expected is None:
                with pytest.raises(DegenerateRadicalError):
                    lambda_coefficient(space, b, partition, c, n, m)
            else:
                got = lambda_coefficient(space, b, partition, c, n, m)
                assert (got.squared, got.sign) == expected


@pytest.mark.parametrize("model", models())
def test_disturbance_algebra_equals_the_textbook(model):
    space, a, b = model
    a_part, b_part = a.partition(space), b.partition(space)
    for c in contexts_of(space, a_part):
        table = TwoCellTable.of(space, a.assignment, b.assignment, c)
        for j, outcome in enumerate(b_part.cells):
            want_delta = ref_delta(space, outcome, a_part, c)
            assert table.delta(j) == want_delta
            assert ref_pairwise_delta(space, outcome, a_part, c, 0, 1) == want_delta
            squared, sign = ref_lambda(space, outcome, a_part, c, 0, 1)
            coeff = table.coefficient(j)
            assert (coeff.squared, coeff.sign) == (squared, sign)
            assert coeff is table.coefficient(j)
            _assert_event_level_matches_reference(space, outcome, a_part, c)


@pytest.mark.parametrize("model", models())
def test_three_cell_partition_equals_the_textbook(model):
    space, a, b = model
    partition = three_cell_partition(space, a)
    if partition is None:
        pytest.skip("no a-cell with two points to split")
    for c in contexts_of(space, partition):
        for outcome in b.partition(space).cells:
            _assert_event_level_matches_reference(space, outcome, partition, c)
            if all(
                ref_radicand(space, outcome, partition, c, n, m) > 0
                for n in range(3)
                for m in range(n + 1, 3)
            ):
                rebuilt = reconstruct_total_probability(space, outcome, partition, c)
                direct = float(ref_conditional(space, outcome, c))
                assert math.isclose(rebuilt, direct, abs_tol=1e-12)


def test_disturbance_error_paths():
    space, a, b = huge_denominator_model()
    a_part, b_part = a.partition(space), b.partition(space)
    outcome = b_part.cells[0]
    c = space.omega()
    non_context = a_part.cells[0]

    # A compatible pair (b = a): a cell intersection is empty.
    with pytest.raises(DegenerateRadicalError):
        TwoCellTable.of(space, a.assignment, a.assignment, c).coefficient(0)
    with pytest.raises(DegenerateRadicalError):
        lambda_coefficient(space, a_part.cells[0], a_part, c)

    # A partition built directly, past Partition.of, with a foreign point.
    foreign = Partition((Event(a_part.cells[0].members + ("zz",)), a_part.cells[1]))
    for call in (
        lambda: classical_part(space, outcome, foreign, c),
        lambda: delta(space, outcome, foreign, c),
        lambda: pairwise_delta(space, outcome, foreign, c, 1, 0),
        lambda: lambda_coefficient(space, outcome, foreign, c),
        lambda: reconstruct_total_probability(space, outcome, foreign, c),
        lambda: interference_cross_sum(space, foreign, b_part, c),
    ):
        with pytest.raises(ForeignPointError, match="'zz'"):
            call()

    # Three cells, the foreign point in the one that pair (0, 1) does not
    # read: every cell is validated all the same.
    first, *rest = a_part.cells[1].members
    third = Partition((a_part.cells[0], Event([first]), Event([*rest, "zz"])))
    for call in (
        lambda: pairwise_delta(space, outcome, third, c, 0, 1),
        lambda: lambda_coefficient(space, outcome, third, c, 0, 1),
    ):
        with pytest.raises(ForeignPointError, match="'zz'"):
            call()

    # A non-context comes first, before a bad cell pair or a foreign point.
    for n, m in ((0, 0), (0, 2), (-1, 1)):
        with pytest.raises(NotAContextError):
            pairwise_delta(space, outcome, a_part, non_context, n, m)
        with pytest.raises(NotAContextError):
            lambda_coefficient(space, outcome, a_part, non_context, n, m)
        with pytest.raises(ValueError, match="invalid cell pair"):
            pairwise_delta(space, outcome, a_part, c, n, m)
    with pytest.raises(NotAContextError):
        delta(space, Event(["zz"]), foreign, non_context)

    # A foreign outcome.
    with pytest.raises(ForeignPointError, match="'zz'"):
        delta(space, Event(["p1", "zz"]), a_part, c)


# ----------------------------------- verify reads the Event-level reference

EVENT_LEVEL_CHECKS = (
    "disturbance_sums_to_zero",
    "pairwise_decomposition_exact",
    "interference_cross_sum_vanishes",
    "interference_reconstruction",
    "weighted_coefficient_balance",
    "zero_disturbance_right_angles",
    "cosine_antisymmetry",
)


def first_double_stochastic_model(accept):
    """The first doubly stochastic draw, up to three atoms in each cell
    intersection, that ``accept`` takes; the ds8 and ds10 models of
    ``test_report_bytes.py`` are drawn the same way."""
    rng = random.Random(2024)
    while True:
        space, a, b = random_double_stochastic_model(rng, max_split=3)
        if accept(space, a, b):
            return space, a, b


def ds8():
    return first_double_stochastic_model(lambda space, a, b: len(space.points) == 8)


def ds10():
    """Two, three, two and three atoms in the cells A_i & B_j."""
    shape = [2, 3, 2, 3]
    return first_double_stochastic_model(
        lambda space, a, b: [
            sum(1 for p in space.points if (a.assignment[p], b.assignment[p]) == cell)
            for cell in ((1, 1), (1, 2), (2, 1), (2, 2))
        ]
        == shape
    )


def _event_level(results):
    return [r for r in results if r.name in EVENT_LEVEL_CHECKS]


@pytest.mark.parametrize(
    "method, perturb, broken",
    [
        ("share", lambda share: share + 1, {"pairwise_decomposition_exact"}),
        (
            "expansion",
            lambda expansion: expansion + Fraction(1, 10**6),
            {"interference_reconstruction"},
        ),
        ("delta", lambda d: d + 1, {"disturbance_sums_to_zero"}),
        ("cross_sum", lambda total: total + 1e-6, {"interference_cross_sum_vanishes"}),
        (
            "coefficient",
            lambda coeff: LambdaCoefficient.of(1, 4),
            {
                "weighted_coefficient_balance",
                "zero_disturbance_right_angles",
                "cosine_antisymmetry",
            },
        ),
    ],
)
def test_a_perturbed_reference_object_fails_its_check(
    monkeypatch, method, perturb, broken
):
    space, a, b = ds8()
    original = getattr(interference._CellMasses, method)
    monkeypatch.setattr(
        interference._CellMasses,
        method,
        lambda self, *args: perturb(original(self, *args)),
    )
    failed = {
        r.name for r in verify.run_checks(ContextAtlas(space, a, b)) if not r.passed
    }
    assert broken <= failed


def test_event_level_checks_never_read_the_table(monkeypatch):
    space, a, b = ds8()
    clean = verify.run_checks(ContextAtlas(space, a, b))
    assert all(r.passed for r in clean)
    monkeypatch.setattr(TwoCellTable, "delta", lambda self, j: Fraction(7, 3))
    monkeypatch.setattr(TwoCellTable, "reconstructed", lambda self, j: 7.0)
    garbage = verify.run_checks(ContextAtlas(space, a, b))
    assert len(_event_level(clean)) == len(EVENT_LEVEL_CHECKS)
    assert _event_level(garbage) == _event_level(clean)


def test_verify_builds_one_reference_object_per_context_and_outcome(monkeypatch):
    space, a, b = ds10()
    built, calls = [], []
    build = interference._CellMasses.__init__

    def counted_build(self, *args):
        built.append(args)
        build(self, *args)

    def counted_conditional(*args):
        calls.append(args)
        return conditional(*args)

    monkeypatch.setattr(interference._CellMasses, "__init__", counted_build)
    monkeypatch.setattr(prob, "conditional", counted_conditional)
    monkeypatch.setattr(verify, "conditional", counted_conditional)
    atlas = ContextAtlas(space, a, b)
    assert all(r.passed for r in verify.run_checks(atlas))
    contexts, mappable = len(atlas.entries), len(atlas.mappable)
    assert contexts == 961
    # Two more, one per b-cell, come from verify.cell_duality_check.
    assert 0 < len(built) <= 2 * contexts + 2
    assert 0 < len(calls) <= 2 * contexts + 2 * mappable


# ------------------------- the table's integer kernel against the records


def _records(table):
    """Both coefficients as :meth:`LambdaCoefficient.of` builds them from
    the masses, None where the radicand vanishes."""
    (l00, l01), (l10, l11) = table.local
    (W00, W01), (W10, W11) = table.whole
    r0, r1, R0, R1 = l00 + l01, l10 + l11, W00 + W01, W10 + W11
    records = []
    for l0, l1, w0, w1 in ((l00, l10, W00, W10), (l01, l11, W01, W11)):
        share = (l0 + l1) * R0 * R1 - r0 * w0 * R1 - r1 * w1 * R0
        try:
            records.append(LambdaCoefficient.of(share, R0 * R1 * r0 * r1 * w0 * w1))
        except DegenerateRadicalError:
            records.append(None)
    return records


def _textbook_class(squares):
    if all(s < 1 for s in squares):
        return Classification.TRIGONOMETRIC
    if all(s > 1 for s in squares):
        return Classification.HYPERBOLIC
    return Classification.BOUNDARY if 1 in squares else Classification.MIXED


def _check_kernel(table):
    records = _records(table)
    for j, record in enumerate(records):
        if record is None:
            with pytest.raises(DegenerateRadicalError):
                table.coefficient(j)
        else:
            assert table.coefficient(j) == record
    if None in records:
        for read in ("mappable", "classification", "phases"):
            with pytest.raises(DegenerateRadicalError):
                getattr(table, read)
        return
    squares = [k.squared for k in records]
    assert table.mappable == all(s <= 1 for s in squares)
    assert table.classification is _textbook_class(squares)
    assert table.nonsensitive == (squares == [0, 0])
    for (N, D), record in zip(table._radicals, records):
        sign = (N > 0) - (N < 0)
        try:
            value = record.value
        except FloatRangeError:
            with pytest.raises(FloatRangeError):
                interference._signed_root(sign, N * N, D)
        else:
            assert interference._signed_root(sign, N * N, D) == value
    try:
        phases = tuple(k.phase for k in records)
    except FloatRangeError:
        for _ in range(2):
            with pytest.raises(FloatRangeError):
                table.phases  # noqa: B018
    else:
        assert table.phases == phases
        assert not table.mappable or all(0.0 <= t <= math.pi for t in phases)


MASSES = st.one_of(
    st.integers(0, 12),
    st.integers(1, 10**6),
    st.builds(lambda m, e: m * 10**e, st.integers(1, 9), st.integers(100, 330)),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[MASSES] * 8))
@example((10**320, 1, 1, 1, 1, 1, 1, 1))  # squared coefficients beyond floats
@example((1, 1, 10**160, 1, 1, 10**160, 10**320, 1))  # a subnormal square
@example((1, 0, 3, 0, 1, 3, 3, 1))  # a b-cell of --kq 1/8: both squares are 1
@example((0, 0, 1, 1, 1, 1, 1, 1))  # r_0 = 0: both radicands vanish
@example((1, 1, 1, 1, 0, 2, 3, 4))  # W_00 W_10 = 0: only the first vanishes
def test_table_kernel_equals_the_coefficient_records(masses):
    l00, l01, l10, l11, W00, W01, W10, W11 = masses
    _check_kernel(TwoCellTable(((l00, l01), (l10, l11)), ((W00, W01), (W10, W11))))


@pytest.mark.parametrize("q", ["1/8", "1/4", "3/8"])
def test_table_kernel_puts_the_cells_on_the_boundary(q):
    # The b-cells of a doubly stochastic pair whose reverse matrix is doubly
    # stochastic too have both squared coefficients exactly 1: a comparison
    # that is off at equality reads them as hyperbolic.
    spec = kq_model(q)
    space, a, b = spec.space, spec.variables["a"], spec.variables["b"]
    atlas = ContextAtlas(space, a, b, b.partition(space).cells)
    for e in atlas.entries:
        _check_kernel(e.table)
        assert e.table.classification is Classification.BOUNDARY
        assert e.table.mappable and e.state is not None
