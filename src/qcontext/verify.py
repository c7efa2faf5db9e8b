"""Registered consistency checks run by the ``verify`` CLI subcommand.

Every check is a universal statement about one model and one incompatible
variable pair; checks whose hypotheses the model does not satisfy (for
example doubly stochastic transitions) are not registered for it.  Exact
statements compare rationals, floating statements use the pinned tolerances
``hilbert.STATE_TOL`` = 1e-12 (amplitude level) and ``OPERATOR_TOL`` = 1e-10
(operator level).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable

from . import hilbert, interference, operators
from .hilbert import STATE_TOL
from .model_io import format_float
from .prob import (
    DichotomousVariable,
    FiniteProbabilitySpace,
    conditional,
    cover_overlap_report,
    probability,
    variables_incompatible,
)
from .record import Record

OPERATOR_TOL = 1e-10


class CheckResult(Record):
    name: str
    passed: bool
    detail: str


def _worst(label: str, value: float) -> str:
    return f"{label}={format_float(value)}"


def run_checks(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    seed: int = 0,
    atlas: hilbert.ContextAtlas | None = None,
) -> list[CheckResult]:
    """Every check that applies to the pair, over the contexts of ``atlas``
    (every context when it is not given).  ``mean_preservation`` draws 20
    random (f, g) pairs from ``seed``."""
    if not variables_incompatible(space, a_var, b_var):
        raise ValueError("verification requires an incompatible variable pair")

    a_part = a_var.partition(space)
    b_part = b_var.partition(space)
    if atlas is None:
        atlas = hilbert.ContextAtlas(space, a_var, b_var)
    contexts = atlas.contexts
    mappable = atlas.mappable
    trans = atlas.transition
    forward_ds = hilbert.is_double_stochastic(trans)
    reverse_ds = hilbert.is_double_stochastic(
        hilbert.transition_matrix(space, b_var, a_var)
    )
    results: list[CheckResult] = []

    def check(name: str, fn: Callable[[], tuple[bool, str]]) -> None:
        passed, detail = fn()
        results.append(CheckResult(name=name, passed=passed, detail=detail))

    def disturbance_sums_to_zero() -> tuple[bool, str]:
        bad = sum(
            1
            for c in contexts
            if interference.delta_outcome_sum(space, a_part, b_part, c) != 0
        )
        return bad == 0, f"contexts={len(contexts)} nonzero_sums={bad}"

    check("disturbance_sums_to_zero", disturbance_sums_to_zero)

    def pairwise_decomposition() -> tuple[bool, str]:
        bad = 0
        for c in contexts:
            for cell in b_part.cells:
                whole = interference.delta(space, cell, a_part, c)
                part = interference.pairwise_delta(space, cell, a_part, c, 0, 1)
                if whole != part:
                    bad += 1
        return bad == 0, f"contexts={len(contexts)} mismatches={bad}"

    check("pairwise_decomposition_exact", pairwise_decomposition)

    def cross_sum() -> tuple[bool, str]:
        worst = max(
            (
                abs(interference.interference_cross_sum(space, a_part, b_part, c))
                for c in contexts
            ),
            default=0.0,
        )
        return worst <= STATE_TOL, _worst("max_abs", worst)

    check("interference_cross_sum_vanishes", cross_sum)

    def reconstruction() -> tuple[bool, str]:
        worst = 0.0
        for c in contexts:
            for cell in b_part.cells:
                direct = float(conditional(space, cell, c))
                rebuilt = interference.reconstruct_total_probability(
                    space, cell, a_part, c
                )
                worst = max(worst, abs(direct - rebuilt))
        return worst <= STATE_TOL, _worst("max_abs_error", worst)

    check("interference_reconstruction", reconstruction)

    def opposite_sign_balance() -> tuple[bool, str]:
        p = trans.entries
        bad = 0
        for c in contexts:
            first = interference.lambda_coefficient(space, b_part.cells[0], a_part, c)
            second = interference.lambda_coefficient(space, b_part.cells[1], a_part, c)
            balanced = (
                first.squared * p[0][0] * p[1][0]
                == second.squared * p[0][1] * p[1][1]
            )
            if not balanced or first.sign != -second.sign:
                bad += 1
        return bad == 0, f"contexts={len(contexts)} violations={bad}"

    check("weighted_coefficient_balance", opposite_sign_balance)

    def born_b_basis() -> tuple[bool, str]:
        worst = 0.0
        for e in mappable:
            probs = e.state.probabilities()
            worst = max(worst, abs(sum(probs) - 1.0))
            for j, cell in enumerate(b_part.cells):
                direct = float(conditional(space, cell, e.context))
                worst = max(worst, abs(probs[j] - direct))
        return worst <= STATE_TOL, _worst("max_abs_error", worst)

    check("born_rule_b_basis", born_b_basis)

    def nonsensitive_right_angles() -> tuple[bool, str]:
        worst = 0.0
        quiet = atlas.nonsensitive_contexts()
        for c in quiet:
            for cell in b_part.cells:
                coeff = interference.lambda_coefficient(space, cell, a_part, c)
                worst = max(worst, abs(coeff.phase - math.pi / 2.0))
        return worst <= STATE_TOL, f"count={len(quiet)} " + _worst(
            "max_phase_gap", worst
        )

    check("zero_disturbance_right_angles", nonsensitive_right_angles)

    def unitarity_iff_ds() -> tuple[bool, str]:
        unitary, ds = hilbert.unitarity_check(space, a_var, b_var)
        return unitary == ds, f"unitary={unitary} double_stochastic={ds}"

    check("unitarity_iff_double_stochastic", unitarity_iff_ds)

    def equal_marginals_equal_states() -> tuple[bool, str]:
        groups: dict[tuple, hilbert.StateVector] = {}
        bad = 0
        for e in mappable:
            key = tuple(
                conditional(space, cell, e.context)
                for cell in a_part.cells + b_part.cells
            )
            if key in groups:
                if not hilbert.states_close(e.state, groups[key]):
                    bad += 1
            else:
                groups[key] = e.state
        return bad == 0, f"contexts={len(mappable)} violations={bad}"

    check("equal_marginals_equal_states", equal_marginals_equal_states)

    if forward_ds:

        def cosine_antisymmetry() -> tuple[bool, str]:
            worst = 0.0
            for c in contexts:
                first = interference.lambda_coefficient(
                    space, b_part.cells[0], a_part, c
                )
                second = interference.lambda_coefficient(
                    space, b_part.cells[1], a_part, c
                )
                worst = max(worst, abs(first.value + second.value))
            return worst <= STATE_TOL, _worst("max_abs", worst)

        check("cosine_antisymmetry", cosine_antisymmetry)

        def born_a_basis() -> tuple[bool, str]:
            rows = atlas.born_rows(hilbert.context_basis(space, a_var, b_var))
            worst = max((row.error for row in rows), default=0.0)
            return worst <= STATE_TOL, _worst("max_abs_error", worst)

        check("born_rule_a_basis", born_a_basis)

        def phase_gap_constant() -> tuple[bool, str]:
            profile = atlas.phase_gap_profile(*hilbert.SIGNS)
            worst = max((abs(gap - math.pi) for _, gap in profile), default=0.0)
            return worst <= STATE_TOL, _worst("max_gap_from_pi", worst)

        check("phase_gap_constant", phase_gap_constant)

        def cell_duality() -> tuple[bool, str]:
            ok = hilbert.cell_duality_check(space, a_var, b_var)
            return ok, f"reverse_double_stochastic={reverse_ds}"

        check("cell_duality", cell_duality)

        def symmetry_uniformity() -> tuple[bool, str]:
            symmetric = all(
                trans.entries[i][j]
                == conditional(
                    space, a_part.cells[i], b_part.cells[j]
                )
                for i in range(2)
                for j in range(2)
            )
            uniform = all(
                probability(space, cell) == Fraction(1, 2)
                for cell in a_part.cells + b_part.cells
            )
            both_ds = forward_ds and reverse_ds
            agree = symmetric == uniform == both_ds
            return agree, (
                f"symmetric={symmetric} uniform={uniform} both_ds={both_ds}"
            )

        check("symmetry_uniformity_equivalence", symmetry_uniformity)

        def mean_preservation() -> tuple[bool, str]:
            rng = random.Random(seed)
            entries = atlas.represented
            worst = 0.0
            for _ in range(20):
                f = {
                    v: Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                    for v in a_var.values
                }
                g = {
                    v: Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                    for v in b_var.values
                }
                obs = operators.CompositeObservable.sum_of(a_var, b_var, f, g)
                op = operators.to_operator(space, obs)
                worst = max(worst, operators.max_mean_gap(obs, op, entries))
            return worst <= OPERATOR_TOL, _worst("max_abs_gap", worst)

        check("mean_preservation", mean_preservation)

        def commutator_closed_form() -> tuple[bool, str]:
            a_op = operators.a_operator(a_var, trans)
            b_op = operators.b_operator(b_var)
            com = operators.commutator(b_op, a_op)
            q1q2 = math.sqrt(float(trans.entries[0][0] * trans.entries[0][1]))
            expected = (
                float(a_var.values[0] - a_var.values[1])
                * float(b_var.values[1] - b_var.values[0])
                * q1q2
            )
            worst = max(
                abs(com[0][0]),
                abs(com[1][1]),
                abs(com[1][0] - expected),
                abs(com[0][1] + expected),
            )
            return worst <= STATE_TOL, _worst("max_abs_error", worst)

        check("commutator_closed_form", commutator_closed_form)

        def operator_hermiticity() -> tuple[bool, str]:
            # Construction already validates; build the standard trio to make
            # the guarantee explicit in the report.
            operators.b_operator(b_var)
            operators.a_operator(a_var, trans)
            operators.hamiltonian(
                space, a_var, b_var, 1, {v: v * v for v in b_var.values}
            )
            return True, "b, a and energy operators are Hermitian"

        check("operator_hermiticity", operator_hermiticity)

        def spectral_reconstruction() -> tuple[bool, str]:
            obs = operators.CompositeObservable.sum_of(a_var, b_var)
            op = operators.to_operator(space, obs)
            spec = operators.spectral_decomposition(op)
            worst = 0.0
            for i in range(2):
                for j in range(2):
                    rebuilt = sum(
                        k
                        * vec.components[i]
                        * vec.components[j].conjugate()
                        for k, vec in zip(spec.eigenvalues, spec.eigenvectors)
                    )
                    worst = max(worst, abs(rebuilt - op.entries[i][j]))
            gram_worst = max(
                abs(
                    spec.eigenvectors[i].inner(spec.eigenvectors[j])
                    - (1.0 if i == j else 0.0)
                )
                for i in range(2)
                for j in range(2)
            )
            ok = worst <= OPERATOR_TOL and gram_worst <= STATE_TOL
            return ok, (
                _worst("max_entry_error", worst)
                + " "
                + _worst("max_gram_error", gram_worst)
            )

        check("spectral_reconstruction", spectral_reconstruction)

        if reverse_ds:

            def boundary_cells() -> tuple[bool, str]:
                ok = True
                for i, ci in enumerate(b_part.cells):
                    for j, cj in enumerate(b_part.cells):
                        coeff = interference.lambda_coefficient(
                            space, cj, a_part, ci
                        )
                        want = 1 if i == j else -1
                        if coeff.squared != 1 or coeff.sign != want:
                            ok = False
                return ok, "squared coefficients on cells are exactly one"

            check("boundary_coefficients_on_cells", boundary_cells)

            def cells_map_to_basis() -> tuple[bool, str]:
                worst = 0.0
                for x_var, y_var in ((a_var, b_var), (b_var, a_var)):
                    basis = hilbert.a_basis(space, x_var, y_var)
                    for i, cell in enumerate(y_var.partition(space).cells):
                        state = hilbert.amplitude(space, x_var, y_var, cell)
                        target = basis.e_b[i]
                        worst = max(
                            worst,
                            max(
                                abs(x - y)
                                for x, y in zip(state.components, target.components)
                            ),
                        )
                return worst <= STATE_TOL, _worst("max_abs_error", worst)

            check("cells_map_to_basis_states", cells_map_to_basis)

    def overlap_equivalence() -> tuple[bool, str]:
        report = cover_overlap_report(
            space.points,
            [cell.members for cell in a_part.cells],
            [cell.members for cell in b_part.cells],
        )
        agree = report.nonempty_intersections == report.no_inclusions
        return agree, (
            f"nonempty_intersections={report.nonempty_intersections} "
            f"no_inclusions={report.no_inclusions}"
        )

    check("two_cell_overlap_equivalence", overlap_equivalence)

    def dispersion_free_atoms() -> tuple[bool, str]:
        report = operators.dispersion_free_search(space, a_var, b_var, atlas)
        atoms = set(space.atoms())
        ok = (
            set(report.dispersion_free) == atoms
            and len(report.intersection) == 0
        )
        return ok, (
            f"dispersion_free={len(report.dispersion_free)} "
            f"representable={len(report.representable)} "
            f"overlap={len(report.intersection)}"
        )

    check("dispersion_free_exactly_atoms", dispersion_free_atoms)

    return results
