"""Registered consistency checks run by the ``verify`` CLI subcommand, four
of them the exported checks of the pair's two-basis geometry.

Every check is a universal statement about one model and one incompatible
variable pair; checks whose hypotheses the model does not satisfy (for
example doubly stochastic transitions) are not registered for it.
``dispersion_free_exactly_atoms`` searches every event of the space, so it
is registered only for a space within ``prob.MAX_ENUMERATION_POINTS``
points; above that bound, a model that lists its contexts gets every other
check.  Exact statements compare rationals, floating statements use the
pinned tolerances ``hilbert.STATE_TOL`` = 1e-12 (amplitude level) and
``OPERATOR_TOL`` = 1e-10 (operator level).

:func:`unitarity_check`, :func:`born_in_a_basis_check`,
:func:`phase_gap_constancy_check` and :func:`cell_duality_check` test the
pair geometry of :mod:`hilbert` on an atlas; :func:`run_checks` calls them
with its one atlas, and ``qcontext`` exports them.  ``mean_preservation``
is :func:`operators.mean_gap`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Sequence

from . import hilbert, interference, operators
from .errors import NotDoubleStochasticError
from .hilbert import STATE_TOL, is_double_stochastic
from .interference import Masses
from .model_io import format_float
from .prob import (
    MAX_ENUMERATION_POINTS,
    Event,
    FiniteProbabilitySpace,
    Partition,
    cover_overlap_report,
    probability,
)
from .record import Record

OPERATOR_TOL = 1e-10


class CheckResult(Record):
    name: str
    passed: bool
    detail: str


def _worst(label: str, value: float) -> str:
    return f"{label}={format_float(value)}"


def _gram_error(vectors: Sequence[hilbert.StateVector]) -> float:
    """Largest entry of the Gram matrix of ``vectors`` minus the identity."""
    return max(
        abs(x.inner(y) - (1.0 if i == j else 0.0))
        for i, x in enumerate(vectors)
        for j, y in enumerate(vectors)
    )


def _raw_basis(atlas: hilbert.ContextAtlas) -> hilbert.BasisPair:
    """The a-basis read off the whole space of ``atlas``; raises
    :class:`NotAContextError` where a takes one value, ValueError where b does."""
    atlas.transition  # where a takes one value: NotAContextError comes first
    if not atlas.omega.incompatible:
        raise ValueError("context enumeration requires an incompatible pair")
    return hilbert.context_basis(atlas.omega)


def unitarity_check(atlas: hilbert.ContextAtlas) -> tuple[bool, bool]:
    """(basis change is unitary within ``STATE_TOL``, transition matrix is
    exactly doubly stochastic) for the pair of ``atlas``; the two agree for
    every incompatible pair."""
    unitary = _gram_error(_raw_basis(atlas).e_a) <= STATE_TOL
    return unitary, is_double_stochastic(atlas.transition)


class BornRow(Record):
    context: Event
    value: Fraction
    projected: float
    expected: Fraction

    @property
    def error(self) -> float:
        return abs(self.projected - float(self.expected))


def born_in_a_basis_check(atlas: hilbert.ContextAtlas) -> tuple[BornRow, ...]:
    """Squared projections of every mappable amplitude of ``atlas`` onto the
    a-basis read off the whole space, against the exact P(a_j|C).

    The rows agree within tolerance exactly when the transition matrix is
    doubly stochastic; failures are reported, never raised.
    """
    e_a = _raw_basis(atlas).e_a
    return tuple(
        BornRow(e.context, a_j, abs(e.state.inner(v)) ** 2, e.table.a_given_c[j])
        for e in atlas.mappable
        for j, (a_j, v) in enumerate(zip(atlas.a_var.values, e_a))
    )


def phase_gap_constancy_check(
    atlas: hilbert.ContextAtlas,
) -> tuple[float, tuple[tuple[Event, float], ...]]:
    """With the opposite :data:`hilbert.SIGNS` and a doubly stochastic matrix
    the gap is pi (mod 2 pi) on every mappable context of ``atlas``; returns
    (the largest distance of a gap from pi, 0 with none, profile), the
    distance to compare with ``STATE_TOL``."""
    profile = atlas.phase_gap_profile(*hilbert.SIGNS)
    return max((abs(gap - math.pi) for _, gap in profile), default=0.0), profile


def cell_duality_check(atlas: hilbert.ContextAtlas) -> bool:
    """With a doubly stochastic matrix of the pair (a, b) of ``atlas``, the
    b-cells admit amplitudes exactly when the matrix of (b, a), read from
    :attr:`~hilbert.ContextAtlas.reverse`, is doubly stochastic as well.

    Returns True when the biconditional holds on this model and the closed
    form -(m_1 + m_2) / (2 sqrt(m_1 m_2)), m_n = P(A_n|C) P(B_other|A_n),
    reproduces the directly computed coefficient of the opposite cell; both
    are compared exactly, as sign and square.
    """
    if not is_double_stochastic(atlas.transition):
        raise NotDoubleStochasticError(
            "the duality check presumes a doubly stochastic forward matrix"
        )
    space, reverse = atlas.space, atlas.reverse
    a_part, b_cells = atlas.a_var.partition(space), reverse.a_cells
    cells_mappable = closed_form_ok = True
    tables = [e.table for e in atlas.over_b_cells.entries]
    for i, (b_cell, table) in enumerate(zip(b_cells, tables)):
        cells_mappable &= table.mappable
        m = [table.a_given_c[n] * table.b_given_a[n][1 - i] for n in range(2)]
        direct = interference.lambda_coefficient(space, b_cells[1 - i], a_part, b_cell)
        squared = (m[0] + m[1]) ** 2 / (4 * m[0] * m[1])
        closed_form_ok &= direct.sign == -1 and direct.squared == squared
    return closed_form_ok and cells_mappable == is_double_stochastic(reverse.transition)


def _cell_sums(
    space: FiniteProbabilitySpace, a_part: Partition, b_part: Partition
) -> Callable[[Event], Masses]:
    """The masses l_ij of an event in the cells A_i & B_j, read by the
    event's bitmask (bit k for the k-th point) from running subset sums,
    never from an atlas's tables.

    The points go in chunks of eight.  For each of its 256 subsets a chunk
    keeps the subset's four cell masses, each subset's being a smaller
    subset's plus one point; an event's masses add one entry per chunk."""
    row = {p: i for i, cell in enumerate(a_part.cells) for p in cell.members}
    col = {p: j for j, cell in enumerate(b_part.cells) for p in cell.members}
    bit = {p: 1 << k for k, p in enumerate(space.points)}
    chunks = []
    for start in range(0, len(space.points), 8):
        sums = [(0, 0, 0, 0)]
        for p in space.points[start : start + 8]:
            n, k = space._masses[p], 2 * row[p] + col[p]
            sums += [s[:k] + (s[k] + n,) + s[k + 1 :] for s in sums]
        chunks.append(sums)

    def masses_of(c: Event) -> Masses:
        mask, found = sum(map(bit.__getitem__, c.members)), [0, 0, 0, 0]
        for sums in chunks:
            for k, n in enumerate(sums[mask & 0xFF]):
                found[k] += n
            mask >>= 8
        return ((found[0], found[1]), (found[2], found[3]))

    return masses_of


def run_checks(atlas: hilbert.ContextAtlas, seed: int = 0) -> list[CheckResult]:
    """Every check that applies to the pair of ``atlas``, over its contexts;
    (b, a) is ``atlas.reverse``, so the space is summed once.
    ``mean_preservation`` draws 20 random (f, g) pairs from ``seed``."""
    if not atlas.omega.incompatible:
        raise ValueError("verification requires an incompatible variable pair")

    space, a_var, b_var = atlas.space, atlas.a_var, atlas.b_var
    a_part, b_part = a_var.partition(space), b_var.partition(space)
    count = len(atlas.entries)
    mappable = atlas.mappable
    trans = atlas.transition
    unitary, forward_ds = unitarity_check(atlas)
    reverse = atlas.reverse
    reverse_ds = is_double_stochastic(reverse.transition)
    results: list[CheckResult] = []

    def check(name: str, passed: bool, detail: str) -> None:
        results.append(CheckResult(name=name, passed=passed, detail=detail))

    def bounded(name: str, label: str, worst: float, tol: float = STATE_TOL) -> None:
        check(name, worst <= tol, _worst(label, worst))

    def counted(name: str, label: str, found: int, total: int = count) -> None:
        check(name, found == 0, f"contexts={total} {label}={found}")

    # One walk over the contexts feeds every per-context check: one
    # Event-level reference object per context and outcome, built from the
    # context's own cell masses (_cell_sums), never from its table, and each
    # direct P(B_j|C) and P(A_i|C) taken once from the same masses.
    # Both outcomes' disturbances and shares are integers over M R_0 R_1,
    # and lambda_0^2 p_00 p_10 = lambda_1^2 p_01 p_11 is tested crosswise.
    p = trans.entries
    u, v = p[0][0] * p[1][0], p[0][1] * p[1][1]
    uv, vu = u.numerator * v.denominator, v.numerator * u.denominator
    nonzero_sums = mismatches = violations = quiet = collisions = 0
    cross = rebuilt = right_angle = antisymmetry = born = 0.0
    groups: dict[tuple[int, ...], hilbert.StateVector] = {}
    masses_of = _cell_sums(space, a_part, b_part)
    whole = masses_of(space.omega())
    for e in atlas.entries:
        c = e.context
        local = masses_of(c)
        outcomes = interference.outcome_masses_from(c, local, whole)
        mass = outcomes[0].total
        b_given_c = [Fraction(l0 + l1, mass) for l0, l1 in zip(*local)]
        deltas = [m.delta() for m in outcomes]
        nonzero_sums += sum(deltas) != 0
        mismatches += sum(d != m.share(0, 1) for d, m in zip(deltas, outcomes))
        total = 0.0
        for m in outcomes:
            total = m.cross_sum(total)
        cross = max(cross, abs(total))
        for direct, m in zip(b_given_c, outcomes):
            rebuilt = max(rebuilt, abs(float(direct) - m.reconstructed()))
        first, second = (m.coefficient(0, 1) for m in outcomes)
        x, y = first.squared, second.squared
        balanced = x.numerator * y.denominator * uv == y.numerator * x.denominator * vu
        violations += not balanced or first.sign != -second.sign
        if not any(deltas):
            quiet += 1
            for coeff in (first, second):
                right_angle = max(right_angle, abs(coeff.phase - math.pi / 2.0))
        antisymmetry = max(antisymmetry, abs(first.value + second.value))
        if e.state is None:
            continue
        probs = e.state.probabilities()
        born = max(born, abs(sum(probs) - 1.0))
        for prob, direct in zip(probs, b_given_c):
            born = max(born, abs(prob - float(direct)))
        marginals = [Fraction(sum(row), mass) for row in local] + b_given_c
        key = tuple(n for q in marginals for n in (q.numerator, q.denominator))
        if key in groups:
            # One state object is close to itself: its components are finite.
            same = groups[key] is e.state
            collisions += not same and not hilbert.states_close(e.state, groups[key])
        else:
            groups[key] = e.state

    counted("disturbance_sums_to_zero", "nonzero_sums", nonzero_sums)
    counted("pairwise_decomposition_exact", "mismatches", mismatches)
    bounded("interference_cross_sum_vanishes", "max_abs", cross)
    bounded("interference_reconstruction", "max_abs_error", rebuilt)
    counted("weighted_coefficient_balance", "violations", violations)
    bounded("born_rule_b_basis", "max_abs_error", born)
    check(
        "zero_disturbance_right_angles",
        right_angle <= STATE_TOL,
        f"count={quiet} " + _worst("max_phase_gap", right_angle),
    )
    check(
        "unitarity_iff_double_stochastic",
        unitary == forward_ds,
        f"unitary={unitary} double_stochastic={forward_ds}",
    )
    counted("equal_marginals_equal_states", "violations", collisions, len(mappable))

    if forward_ds:
        bounded("cosine_antisymmetry", "max_abs", antisymmetry)

        worst = max((row.error for row in born_in_a_basis_check(atlas)), default=0.0)
        bounded("born_rule_a_basis", "max_abs_error", worst)
        worst, _ = phase_gap_constancy_check(atlas)
        bounded("phase_gap_constant", "max_gap_from_pi", worst)
        check(
            "cell_duality",
            cell_duality_check(atlas),
            f"reverse_double_stochastic={reverse_ds}",
        )

        back = reverse.transition.entries
        symmetric = all(p[i][j] == back[j][i] for i in range(2) for j in range(2))
        uniform = all(
            probability(space, cell) == Fraction(1, 2)
            for cell in a_part.cells + b_part.cells
        )
        both_ds = forward_ds and reverse_ds
        check(
            "symmetry_uniformity_equivalence",
            symmetric == uniform == both_ds,
            f"symmetric={symmetric} uniform={uniform} both_ds={both_ds}",
        )

        rng = random.Random(seed)
        pairs = []
        for _ in range(20):
            f, g = (
                {v: Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for v in x.values}
                for x in (a_var, b_var)
            )
            obs = operators.CompositeObservable.sum_of(a_var, b_var, f, g)
            pairs.append((obs, obs.operator(trans)))
        worst = operators.mean_gap(atlas, pairs)
        bounded("mean_preservation", "max_abs_gap", worst, OPERATOR_TOL)

        a_op = operators.a_operator(a_var, trans)
        com = operators.commutator(operators.b_operator(b_var), a_op)
        q1q2 = math.sqrt(float(p[0][0] * p[0][1]))
        (a1, a2), (b1, b2) = a_var.values, b_var.values
        expected = (
            operators.to_float(a1 - a2, "gap between the a-values")
            * operators.to_float(b2 - b1, "gap between the b-values")
            * q1q2
        )
        worst = max(
            abs(com[0][0]),
            abs(com[1][1]),
            abs(com[1][0] - expected),
            abs(com[0][1] + expected),
        )
        bounded("commutator_closed_form", "max_abs_error", worst)

        # Construction already validates, and the b and a operators were
        # built above; the energy operator (h = 1) is half that of a^2 + b^2,
        # whose squared values can raise FloatRangeError where no others do.
        squares = ({v: v * v for v in x.values} for x in (a_var, b_var))
        operators.CompositeObservable.sum_of(a_var, b_var, *squares).operator(trans)
        check("operator_hermiticity", True, "b, a and energy operators are Hermitian")

        obs = operators.CompositeObservable.sum_of(a_var, b_var)
        op = obs.operator(trans)
        spec = operators.spectral_decomposition(op)
        worst = 0.0
        for i in range(2):
            for j in range(2):
                entry = sum(
                    k * vec.components[i] * vec.components[j].conjugate()
                    for k, vec in zip(spec.eigenvalues, spec.eigenvectors)
                )
                worst = max(worst, abs(entry - op.entries[i][j]))
        gram_worst = _gram_error(spec.eigenvectors)
        check(
            "spectral_reconstruction",
            worst <= OPERATOR_TOL and gram_worst <= STATE_TOL,
            _worst("max_entry_error", worst)
            + " "
            + _worst("max_gram_error", gram_worst),
        )

        if reverse_ds:
            ok = True
            for i, ci in enumerate(b_part.cells):
                outcomes = interference.outcome_masses(space, a_part, b_part, ci)
                for j, m in enumerate(outcomes):
                    coeff = m.coefficient(0, 1)
                    ok &= coeff.squared == 1 and coeff.sign == (1 if i == j else -1)
            check(
                "boundary_coefficients_on_cells",
                ok,
                "squared coefficients on cells are exactly one",
            )

            # Each cell's state from its table over the whole-space masses
            # of each order of the pair.
            worst = 0.0
            for states in (
                atlas.over_b_cells.amplitudes(),
                reverse.over_b_cells.amplitudes(),
            ):
                for state, target in zip(states, atlas.basis.e_b):
                    gaps = zip(state.components, target.components)
                    worst = max(worst, max(abs(x - y) for x, y in gaps))
            bounded("cells_map_to_basis_states", "max_abs_error", worst)

    report = cover_overlap_report(
        space.points,
        [cell.members for cell in a_part.cells],
        [cell.members for cell in b_part.cells],
    )
    check(
        "two_cell_overlap_equivalence",
        report.nonempty_intersections == report.no_inclusions,
        f"nonempty_intersections={report.nonempty_intersections} "
        f"no_inclusions={report.no_inclusions}",
    )

    if len(space.points) <= MAX_ENUMERATION_POINTS:
        found = operators.dispersion_free_search(atlas)
        check(
            "dispersion_free_exactly_atoms",
            set(found.dispersion_free) == set(space.atoms())
            and len(found.intersection) == 0,
            f"dispersion_free={len(found.dispersion_free)} "
            f"representable={len(found.representable)} "
            f"overlap={len(found.intersection)}",
        )
    return results
