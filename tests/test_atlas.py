"""The context atlas against the per-context reference path.

An atlas is built once per model and read by every report.  On every
context of the first 50 models of each random-model stream of the
acceptance suite, and of the stored hyperbolic witness, it must give
exactly what the reference path gives context by context: the contexts of
``contexts_of`` in their order, the tables, coefficients and classification
of ``TwoCellTable.of`` (which ``test_acceptance.test_03`` checks against the
Event-level functions on the same models), amplitudes bit for bit equal to
the Fraction formula they replaced, the checks ``analyze`` reads from each
table equal to the Event-level ``reconstruct_total_probability`` (bit for
bit) and ``delta_outcome_sum``, and composite means, distributions and
dispersions equal to plain Fraction sums over the points.  Contexts with
equal local masses share one table and one amplitude, which must equal
what a table of their own gives.  Only ``analyze`` builds coefficient
records from its tables (at most two per table); every other report decides
and takes its floats from the tables' integers.
"""

import cmath
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qcontext import cli, interference, verify
from qcontext.errors import NotAContextError, NotTrigonometricError
from qcontext.hilbert import (
    SIGNS,
    ContextAtlas,
    ImageSet,
    StateVector,
    _amplitude,
    amplitude,
    group_states,
    image_set,
    mappable_contexts,
    nonsensitive_contexts,
    phase_gap,
    represented_states,
)
from qcontext.interference import (
    TwoCellTable,
    delta_outcome_sum,
    reconstruct_total_probability,
)
from qcontext.model_io import kq_model, parse_model
from qcontext.operators import (
    CompositeObservable,
    ObservableKind,
    mean_preservation_gap,
)
from qcontext.prob import Event, contexts_of
from qcontext.record import derived
from randmodels import (
    _assemble,
    random_double_stochastic_model,
    random_incompatible_model,
)

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

# 10 points with equal atoms in each cell (2, 3, 2 and 3 of them): a
# context's local masses depend only on how many atoms it takes from each
# cell, so its 961 contexts have 11 * 11 = 121 distinct tables.
EQUAL_ATOMS = _assemble(
    {(1, 1): [3, 3], (1, 2): [3, 3, 3], (2, 1): [9, 9], (2, 2): [4, 4, 4]}
)


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
    ap, bp = a.partition(space), b.partition(space)
    atlas = ContextAtlas(space, a, b)
    assert tuple(e.context for e in atlas.entries) == contexts_of(space, ap)
    for e in atlas.entries:
        table = TwoCellTable.of(space, a.assignment, b.assignment, e.context)
        assert e.table == table
        assert e.table.whole is atlas.omega.whole
        assert e.table.coefficients() == table.coefficients()
        assert e.table.classification == table.classification
        assert [e.table.reconstructed(j).hex() for j in (0, 1)] == [
            reconstruct_total_probability(space, cell, ap, e.context).hex()
            for cell in bp.cells
        ]
        assert e.table.delta(0) + e.table.delta(1) == delta_outcome_sum(
            space, ap, bp, e.context
        )
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
        table = TwoCellTable.of(space, a.assignment, b.assignment, c)
        assert gap == phase_gap(table, -1, +1)


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
            assert obs.distribution_on(e.table.local, atlas.omega.whole) == law
            assert obs.variance_on(e.table.local) == variance


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
    assert tuple(e.context for e in atlas.entries) == listed
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
    # The Born rows of a listed atlas cover its mappable entries; asked for
    # every amplitude, it raises.
    with pytest.raises(NotTrigonometricError):
        ContextAtlas(space, a, b, [hyperbolic]).amplitudes()


def test_a_compatible_pair_has_contexts_but_no_amplitudes():
    space, a, _ = MODELS[0]
    atlas = ContextAtlas(space, a, a)
    assert all(e.state is None for e in atlas.entries)
    assert nonsensitive_contexts(space, a, a) == tuple(
        e.context for e in atlas.entries if e.table.delta(0) == e.table.delta(1) == 0
    )
    for view in (mappable_contexts, represented_states, image_set):
        with pytest.raises(ValueError, match="incompatible pair"):
            view(space, a, a)
    c = Event(space.points)
    with pytest.raises(ValueError, match="incompatible variable pair"):
        amplitude(space, a, a, c)


def _derived(table):
    return [(k.value, k.phase, k.classification) for k in table.coefficients()]


@pytest.mark.parametrize("listed", [False, True], ids=["enumerated", "listed"])
def test_contexts_with_equal_masses_share_one_table_and_amplitude(listed):
    space, a, b = EQUAL_ATOMS
    every = contexts_of(space, a.partition(space))
    # Every third context, last first: equal masses recur among them.
    contexts = every[::-3] if listed else None
    atlas = ContextAtlas(space, a, b, contexts)
    entries = atlas.entries
    assert tuple(e.context for e in atlas.entries) == (
        every[::-3] if listed else every
    )
    locals_ = {e.table.local for e in entries}
    assert len({id(e.table) for e in entries}) == len(locals_) < len(entries)
    if not listed:
        assert len(locals_) == 121
    first = {}
    for e in entries:
        seen = first.setdefault(e.table.local, e)
        assert e.table is seen.table and e.state is seen.state
        ref = TwoCellTable.of(space, a.assignment, b.assignment, e.context)
        assert e.table == ref
        assert e.table.coefficients() == ref.coefficients()
        assert e.table.classification == ref.classification
        assert _derived(e.table) == _derived(ref)
        assert e.state == _amplitude(ref)
    assert sum(e.state is None for e in entries) > 0  # hyperbolic ones too


def test_errors_on_listed_contexts_name_that_context():
    space, a, b = EQUAL_ATOMS
    every = contexts_of(space, a.partition(space))
    cell = a.partition(space).cells[0]
    with pytest.raises(NotAContextError, match=f"^{re.escape(cell.label())} is not"):
        ContextAtlas(space, a, b, (*every[:5], cell)).entries
    beyond = [e for e in ContextAtlas(space, a, b).entries if e.state is None]
    first = beyond[0]
    twin = next(e for e in beyond[1:] if e.table is first.table)
    for pair in ((first.context, twin.context), (twin.context, first.context)):
        atlas = ContextAtlas(space, a, b, (every[0], *pair))
        assert atlas.entries[1].table is atlas.entries[2].table
        with pytest.raises(
            NotTrigonometricError, match=f"^{re.escape(pair[0].label())} carries"
        ):
            atlas.amplitudes()


@pytest.fixture
def whole_space_sums(monkeypatch):
    """A function that wraps ``mass_table`` at every binding in the loaded
    ``qcontext`` modules and returns the list it appends to on each call:
    True for a sum over every point of the space."""
    original, calls = interference.mass_table, []

    def counted(space, a_cell, b_cell, points):
        calls.append(tuple(points) == space.points)
        return original(space, a_cell, b_cell, points)

    def count():
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qcontext":
                for binding, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, binding, counted)
        return calls

    return count


# Whole-space sums per report on --kq 1/4, or on the stored model named; a
# sweep reads one atlas per grid value.
# verify reads the reversed pair and the cells as contexts from atlases that
# share its atlas's one whole-space table.
WHOLE_SPACE_SUMS = {
    "analyze": 1,
    "represent": 1,
    "operators": 1,
    "dispersion-free": 1,
    "compare-dist": 1,
    "compare-dist --context w1,w2,w3": 1,
    "verify": 1,
    "verify --model hyperbolic_witness.json": 1,
    "sweep --grid 1/8,1/4,3/8": 3,
}


@pytest.mark.parametrize("command", list(WHOLE_SPACE_SUMS))
def test_a_report_sums_the_whole_space_once(capsys, whole_space_sums, command):
    # The transition matrix, the a-basis and every operator come from the
    # atlas's one whole-space table, so a report adds up every point's mass
    # only once; verify's checks of other pairs and tables add the rest.
    argv = command.split()
    warm = argv[:2] + ["1/8"] if argv[0] == "sweep" else [argv[0], "--kq", "1/8"]
    cli.main(warm)  # loads every layer the command runs
    calls = whole_space_sums()
    if "--model" in argv:
        argv[-1] = str(DATA / argv[-1])
    elif argv[0] != "sweep":
        argv += ["--kq", "1/4"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls.count(True) == WHOLE_SPACE_SUMS[command]


@pytest.mark.parametrize(
    "command",
    [
        "analyze",
        "represent",
        "operators",
        "compare-dist",
        "dispersion-free",
        "verify",
        "sweep --grid 1/8,1/4",
    ],
)
def test_only_verify_builds_event_level_objects(capsys, monkeypatch, command):
    # Every other report reads its atlas's tables; the Event-level
    # reference objects are the oracle of verify's per-context checks.
    built = []
    build = interference._CellMasses.__init__

    def counted_build(self, *args):
        built.append(args)
        build(self, *args)

    monkeypatch.setattr(interference._CellMasses, "__init__", counted_build)
    argv = command.split()
    assert cli.main(argv if argv[0] == "sweep" else [*argv, "--kq", "1/4"]) == 0
    capsys.readouterr()
    assert bool(built) == (command == "verify")


# Whole-space sums of each geometry check on --kq 1/4, its atlas built in
# the counting window: one, as each reads its raw basis and transition
# matrices from the atlas, and the duality check reads the reversed pair
# and the b-cells from atlases that share the atlas's whole-space table.
GEOMETRY_SUMS = {
    "unitarity_check": 1,
    "born_in_a_basis_check": 1,
    "phase_gap_constancy_check": 1,
    "cell_duality_check": 1,
}


@pytest.mark.parametrize("name", list(GEOMETRY_SUMS))
def test_a_geometry_check_sums_the_whole_space_once_per_atlas(whole_space_sums, name):
    spec = kq_model("1/4")
    a, b = spec.variables["a"], spec.variables["b"]
    calls = whole_space_sums()
    assert getattr(verify, name)(ContextAtlas(spec.space, a, b))
    assert calls.count(True) == GEOMETRY_SUMS[name]


@pytest.mark.parametrize(
    "make", [random_double_stochastic_model, random_incompatible_model]
)
def test_derived_atlases_equal_fresh_ones_and_add_no_sum(whole_space_sums, make):
    # The reversed atlas and an atlas over given events read this atlas's
    # whole-space table; the events leave out the whole space, whose own
    # local masses are a sum over every point.
    rng = random.Random(67)
    calls = whole_space_sums()
    for _ in range(20):
        space, a, b = make(rng)
        contexts = contexts_of(space, a.partition(space))
        calls.clear()
        atlas = ContextAtlas(space, a, b)
        reverse = atlas.reverse
        events = rng.sample(contexts[:-1], 6) + list(reverse.a_cells)
        derived = (reverse.omega, reverse.transition, reverse.a_cells)
        entries = atlas.over(events).entries
        assert calls.count(True) == 1
        fresh = ContextAtlas(space, b, a)
        assert derived == (fresh.omega, fresh.transition, fresh.a_cells)
        assert entries == ContextAtlas(space, a, b, events).entries


def test_verify_derives_each_cells_atlas_once(capsys, monkeypatch):
    # The b-cells as contexts of (a, b), read by the duality check and by
    # cells_map_to_basis_states, and the a-cells as contexts of (b, a).
    over, calls = ContextAtlas.over, []

    def counted(self, events):
        calls.append((self.a_var.name, tuple(events)))
        return over(self, events)

    monkeypatch.setattr(ContextAtlas, "over", counted)
    assert cli.main(["verify", "--kq", "1/4"]) == 0
    capsys.readouterr()
    assert [name for name, _ in calls] == ["a", "b"]


def test_mean_preservation_gap_sums_the_whole_space_once(whole_space_sums):
    spec = kq_model("1/4")
    a, b = spec.variables["a"], spec.variables["b"]
    calls = whole_space_sums()
    f, g = ({v: v * v for v in x.values} for x in (a, b))
    assert mean_preservation_gap(spec.space, a, b, f, g) < 1e-10
    assert calls.count(True) == 1


# ---------------------------------- coefficient records and shared states


def _coefficient_counts(monkeypatch):
    """Lists that grow with every coefficient record built, and with every
    one a two-cell table builds."""
    built, by_tables = [], []
    init = interference.LambdaCoefficient.__init__
    pair = TwoCellTable.__dict__["_pair"]

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counted_pair(table):
        found = pair.method(table)
        by_tables.extend(k for k in found if k is not None)
        return found

    kept = derived(counted_pair)
    kept.__set_name__(TwoCellTable, "_pair")
    monkeypatch.setattr(interference.LambdaCoefficient, "__init__", counted_init)
    monkeypatch.setattr(TwoCellTable, "_pair", kept)
    return built, by_tables


@pytest.mark.parametrize("model", ["--kq 1/4", "shared_tables.json"])
@pytest.mark.parametrize(
    "command",
    ["analyze", "represent", "operators", "compare-dist", "dispersion-free", "verify"],
)
def test_only_analyze_builds_coefficient_records_from_tables(
    capsys, monkeypatch, command, model
):
    if model.startswith("--"):
        argv, spec = [command, *model.split()], kq_model(model.split()[1])
    else:
        argv = [command, "--model", str(DATA / model)]
        spec = parse_model((DATA / model).read_text(encoding="utf-8"))
    atlas = ContextAtlas(spec.space, spec.variables["a"], spec.variables["b"])
    tables = {e.table.local for e in atlas.entries}
    built, by_tables = _coefficient_counts(monkeypatch)
    deltas, delta = [], TwoCellTable.delta
    monkeypatch.setattr(
        TwoCellTable, "delta", lambda table, j: deltas.append(j) or delta(table, j)
    )
    assert cli.main(argv) == 0
    capsys.readouterr()
    # A table's disturbances, like its coefficients, are built at most once.
    if command == "analyze":
        assert 0 < len(by_tables) <= 2 * len(tables)
        assert 0 < len(deltas) <= 2 * len(tables)
    else:
        assert by_tables == deltas == []
    # Only verify's Event-level reference objects build records of their own.
    assert (len(built) > len(by_tables)) == (command == "verify")


def _parsed(text):
    spec = parse_model(text)
    return spec.space, spec.variables["a"], spec.variables["b"]


def _ds10():
    from test_report_bytes import _doubly_stochastic, _first, _shape_10

    return _parsed(_first(_doubly_stochastic, _shape_10))  # 289 tables


SHARED_MODELS = {
    "shared_tables": lambda: _parsed(
        (DATA / "shared_tables.json").read_text(encoding="utf-8")
    ),
    "equal_atoms": lambda: EQUAL_ATOMS,
    "ds10": _ds10,
}


@pytest.mark.parametrize("name", sorted(SHARED_MODELS))
def test_shared_states_give_the_image_set_of_their_copies(name):
    space, a, b = SHARED_MODELS[name]()
    atlas = ContextAtlas(space, a, b)
    entries = tuple((e.context, e.state) for e in atlas.represented)
    states = [state for _, state in entries]
    assert len({id(state) for state in states}) < len(states)
    # Copies are distinct objects, so each is compared with the leaders.
    copies = group_states([StateVector(state.components) for state in states])
    groups = tuple(tuple(entries[i][0] for i in group) for group in copies)
    assert atlas.image_set() == ImageSet(entries=entries, groups=groups)


def test_a_repeated_state_with_a_nan_component_is_close_to_nothing():
    odd = StateVector((1 + 0j, complex(math.nan, 0.0)))
    fine = StateVector((1 + 0j, 0j))
    assert group_states([odd, fine, odd, fine]) == ((0,), (1, 3), (2,))


def test_every_atlas_state_is_finite():
    # group_states and verify's equal_marginals_equal_states compare a
    # repeated state object with itself by identity; that needs finite
    # components, which a modulus of at most 2 gives.
    for space, a, b in [*MODELS, EQUAL_ATOMS]:
        atlas = ContextAtlas(space, a, b)
        if not atlas.omega.incompatible:
            continue
        for e in atlas.represented:
            assert all(cmath.isfinite(z) and abs(z) <= 2 for z in e.state.components)
