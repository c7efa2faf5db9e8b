"""The record contract and the lazily loaded package exports.

Every record class compares and hashes by its field values, rejects
attribute assignment and builds from positional or keyword fields with
defaults; ``Event`` also orders by its members.  The package exports the
names it exported when it imported every layer eagerly, less the per-call
operator functions that the atlas path replaced.
"""

import importlib
import json
import math
from fractions import Fraction

import pytest

import qcontext
from qcontext import hilbert, interference, model_io, operators, prob, verify
from qcontext.errors import DegenerateRadicalError, FloatRangeError
from qcontext.record import Record

# qcontext.__all__ as listed when the package imported all of its layers,
# less the per-call operator functions that the atlas path replaced.
EXPORTS = [
    "BasisPair", "Classification", "CompositeObservable", "ContextAnalysis",
    "ContextAtlas", "CoverOverlapReport", "DegenerateRadicalError",
    "DichotomousVariable", "DispersionFreeReport", "DisturbanceReport",
    "DuplicatePointError", "Event", "FiniteProbabilitySpace", "FloatRangeError",
    "ForeignPointError", "HermitianOperator", "LambdaCoefficient",
    "MalformedDocumentError", "MismatchReport", "ModelError", "ModelSpec",
    "NotAContextError", "NotDoubleStochasticError", "NotTrigonometricError",
    "PartialAssignmentError", "Partition", "QOutOfRangeError",
    "SingularBasisError", "SpectralDecomposition", "StateVector", "SweepResult",
    "SweepRow", "TransitionMatrix", "WeightSumNotOneError",
    "ZeroConditionError", "a_basis", "a_operator", "amplitude",
    "analyze_context", "b_operator", "born_in_a_basis_check",
    "cell_duality_check", "classify", "commutator", "conditional",
    "context_basis", "contexts_of", "cover_overlap_report", "delta",
    "delta_outcome_sum", "dispersion_free_search", "distribution_mismatch",
    "dual_inner_products", "emit_report", "errors", "extend_to_cells",
    "hamiltonian_observable", "hilbert", "image_set", "interference",
    "is_context", "is_double_stochastic", "kq_model", "lambda_coefficient",
    "mappable_contexts", "mean_preservation_gap", "model_io",
    "nonsensitive_contexts", "operators", "pairwise_delta", "parse_model",
    "phase_gap", "phase_gap_constancy_check", "prob", "probability",
    "quantum_mean", "reconstruct_total_probability", "serialize_model",
    "spectral_decomposition", "sweep", "symmetrized_product",
    "transition_matrix", "unitarity_check", "variables_incompatible",
    "CheckResult", "run_checks", "verify",
]


class TestExports:
    def test_all_is_unchanged(self):
        assert qcontext.__all__ == EXPORTS

    def test_every_name_resolves_to_its_definition(self):
        for name in EXPORTS:
            value = getattr(qcontext, name)
            if name in ("errors", "hilbert", "interference", "model_io",
                        "operators", "prob", "verify"):
                assert value is importlib.import_module(f"qcontext.{name}")
            else:
                assert value.__name__ == name
                assert value.__module__ == "qcontext." + qcontext._MODULE_OF[name]

    def test_star_import(self):
        namespace: dict = {}
        exec("from qcontext import *", namespace)
        assert set(EXPORTS) <= set(namespace)
        assert namespace["run_checks"] is verify.run_checks
        assert namespace["Event"] is prob.Event

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            qcontext.nope  # noqa: B018

    def test_dir_lists_every_export(self):
        assert set(EXPORTS) <= set(dir(qcontext))


def _instances() -> list:
    """One instance of every record class, built through the library."""
    spec = model_io.kq_model("1/4")
    space = spec.space
    a, b = spec.variable("a"), spec.variable("b")
    a_part, b_part = a.partition(space), b.partition(space)
    c = space.event(["w1", "w2", "w3"])
    atlas = hilbert.ContextAtlas(space, a, b)
    state = hilbert.amplitude(space, a, b, c)
    basis = hilbert.a_basis(space, a, b)
    analysis = interference.analyze_context(space, a, b, c)
    obs = operators.CompositeObservable.sum_of(a, b)
    return [
        spec,
        space,
        a,
        a_part,
        prob.cover_overlap_report(space.points, [space.points], [space.points]),
        interference.lambda_coefficient(space, b_part.cells[0], a_part, c),
        atlas.entries[0].table,
        analysis,
        analysis.outcomes[0],
        hilbert.transition_matrix(space, a, b),
        state,
        basis,
        verify.born_in_a_basis_check(atlas)[0],
        hilbert.image_set(space, a, b),
        hilbert.dual_inner_products(space, a, b, state, basis),
        model_io.sweep(["1/4"]),
        model_io.sweep(["1/4"]).rows[0],
        operators.b_operator(b),
        operators.spectral_decomposition(operators.b_operator(b)),
        obs,
        operators.distribution_mismatch(space, a, b, obs, c),
        operators.dispersion_free_search(space, a, b),
        verify.run_checks(space, a, b)[0],
    ]


def _record_classes() -> set[type]:
    found, stack = set(), [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__.startswith("qcontext."):
                found.add(sub)
                stack.append(sub)
    return found


class TestRecords:
    def test_every_record_class_is_covered(self):
        assert {type(r) for r in _instances()} == _record_classes()
        assert len(_record_classes()) == 23

    @pytest.mark.parametrize("record", _instances(), ids=lambda r: type(r).__name__)
    def test_frozen(self, record):
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)

    @pytest.mark.parametrize("record", _instances(), ids=lambda r: type(r).__name__)
    def test_rebuilt_from_its_fields_it_is_equal(self, record):
        values = {name: getattr(record, name) for name in record._fields}
        copy = type(record)(**values)
        assert copy == record and not copy != record
        assert type(record)(*values.values()) == record
        assert repr(copy) == repr(record)
        assert repr(record).startswith(f"{type(record).__name__}(")

    def test_equality_is_by_every_field_and_class(self):
        check = verify.CheckResult("x", True, "detail")
        assert check == verify.CheckResult(name="x", passed=True, detail="detail")
        assert check != verify.CheckResult("x", False, "detail")
        assert check != verify.CheckResult("x", True, "other")
        assert check != verify.CheckResult("y", True, "detail")
        assert check != ("x", True, "detail")
        coeff = interference.LambdaCoefficient(Fraction(1, 4), 1)
        assert coeff != interference.LambdaCoefficient(Fraction(1, 4), -1)

    def test_hash_follows_equality(self):
        first = interference.LambdaCoefficient(Fraction(1, 4), -1)
        second = interference.LambdaCoefficient(squared=Fraction(1, 4), sign=-1)
        assert hash(first) == hash(second)
        third = interference.LambdaCoefficient(Fraction(1, 4), 1)
        assert len({first, second, third}) == 2
        with pytest.raises(TypeError):
            hash(model_io.kq_model("1/4").variable("a"))  # holds a mapping

    def test_repr(self):
        coeff = interference.LambdaCoefficient(Fraction(1, 4), -1)
        assert repr(coeff) == "LambdaCoefficient(squared=Fraction(1, 4), sign=-1)"
        space = model_io.kq_model("1/4").space
        assert "_masses" not in repr(space)
        assert repr(space).startswith("FiniteProbabilitySpace(points=('w1',")

    def test_defaults(self):
        spec = model_io.kq_model("1/4")
        listed = model_io.ModelSpec(spec.space, spec.variables)
        assert listed.contexts is None
        assert listed == model_io.ModelSpec(
            space=spec.space, variables=spec.variables, contexts=None
        )
        state = hilbert.StateVector((1 + 0j, 0j))
        assert hilbert.BasisPair((state, state)).stripped_phase is None
        a, b = spec.variable("a"), spec.variable("b")
        obs = operators.CompositeObservable(operators.ObservableKind.PRODUCT, a, b)
        assert obs.f is None and obs.g is None

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((), {}),
            (("x",), {}),
            (("x", True, "d", "extra"), {}),
            (("x",), {"name": "y", "passed": True, "detail": "d"}),
            (("x", True), {"detail": "d", "colour": "red"}),
            ((), {"name": "x", "passed": True, "colour": "red"}),
            ((), {"name": "x", "passed": True}),
        ],
    )
    def test_bad_construction(self, args, kwargs):
        with pytest.raises(TypeError):
            verify.CheckResult(*args, **kwargs)

    def test_post_init_runs(self):
        with pytest.raises(ValueError, match="Hermitian"):
            operators.HermitianOperator(((1 + 0j, 1j), (1j, 0j)))
        variable = prob.DichotomousVariable("v", ("1", "2"), {"p": 1, "q": 2})
        assert variable.values == (Fraction(1), Fraction(2))

    def test_table_memoises_its_coefficients(self):
        spec = model_io.kq_model("1/4")
        a, b = spec.variable("a"), spec.variable("b")
        table = hilbert.ContextAtlas(spec.space, a, b).entries[-1].table
        twin = interference.TwoCellTable(table.local, table.whole)
        first = table.coefficient(0)
        assert table.coefficient(0) is first
        assert table == twin and hash(table) == hash(twin)  # memo not compared
        assert twin.coefficient(0) == first and twin.coefficient(0) is not first
        assert table.a_given_c == twin.a_given_c  # cached_property still works

    def test_a_table_raises_only_for_its_degenerate_coefficient(self):
        # W_00 W_10 = 0, W_01 W_11 > 0: only coefficient 0 is undefined.
        table = interference.TwoCellTable(((1, 1), (1, 1)), ((0, 2), (3, 4)))
        for _ in range(2):
            with pytest.raises(DegenerateRadicalError):
                table.coefficient(0)
        assert table.coefficient(1) is table.coefficient(1)
        # R_0 R_1 r_0 r_1 W_01 W_11 under the radical.
        assert table.coefficient(1) == interference.LambdaCoefficient.of(
            table._share(1), 2 * 7 * 2 * 2 * 2 * 4
        )

    def test_kept_coefficient_values_are_no_fields(self):
        kept = interference.LambdaCoefficient(Fraction(9, 16), -1)
        fresh = interference.LambdaCoefficient(Fraction(9, 16), -1)
        assert (kept.value, kept.phase) == (-0.75, math.acos(-0.75))
        assert kept.classification is interference.Classification.TRIGONOMETRIC
        assert kept.value is kept.value and kept.phase is kept.phase
        assert kept == fresh and hash(kept) == hash(fresh)
        assert repr(kept) == repr(fresh)
        assert repr(kept) == "LambdaCoefficient(squared=Fraction(9, 16), sign=-1)"
        assert kept._jsonable() == fresh._jsonable()
        assert kept._jsonable() == {"squared": Fraction(9, 16), "sign": -1}
        assert model_io.canonical_json(kept) == model_io.canonical_json(fresh)
        for name in ("value", "phase", "classification"):
            with pytest.raises(AttributeError):
                setattr(kept, name, None)

    def test_a_value_beyond_the_float_range_raises_on_every_read(self):
        huge = interference.LambdaCoefficient(Fraction(10**400), 1)
        for _ in range(3):
            with pytest.raises(FloatRangeError):
                huge.value  # noqa: B018
            with pytest.raises(FloatRangeError):
                huge.phase  # noqa: B018
        assert huge.classification is interference.Classification.HYPERBOLIC
        assert huge == interference.LambdaCoefficient(Fraction(10**400), 1)

    def test_reports_write_fields_by_name(self):
        check = verify.CheckResult("x", True, "d")
        assert json.loads(model_io.canonical_json(check)) == {
            "name": "x", "passed": True, "detail": "d",
        }
        state = hilbert.StateVector((1 + 0j, 0.5j))
        assert json.loads(model_io.canonical_json(state)) == [["1", "0"], ["0", "0.5"]]


class TestEvent:
    def test_members_are_sorted_and_unique(self):
        assert prob.Event(("b", "a", "b")).members == ("a", "b")
        assert prob.Event(members=["b", "a"]) == prob.Event("ab")

    def test_equality_and_hashing(self):
        first, second = prob.Event(("a", "b")), prob.Event(["b", "a"])
        assert first == second and hash(first) == hash(second)
        assert first != prob.Event(("a",)) and first != ("a", "b")
        assert len({first, second, prob.Event(("a",))}) == 2

    def test_ordering(self):
        events = [prob.Event(m) for m in (["b"], ["a", "c"], ["a"], ["a", "b"])]
        assert [e.members for e in sorted(events)] == [
            ("a",), ("a", "b"), ("a", "c"), ("b",),
        ]
        low, high = prob.Event(("a",)), prob.Event(("b",))
        assert low < high and low <= high and high > low and high >= low
        assert low <= prob.Event(("a",)) and not low < prob.Event(("a",))
        with pytest.raises(TypeError):
            low < ("b",)  # noqa: B015

    def test_frozen(self):
        event = prob.Event(("a",))
        for name in ("members", "extra"):
            with pytest.raises(AttributeError):
                setattr(event, name, ("b",))
            with pytest.raises(AttributeError):
                delattr(event, name)
        assert event.members == ("a",)

    def test_repr(self):
        assert repr(prob.Event(("a", "b"))) == "Event(members=('a', 'b'))"
