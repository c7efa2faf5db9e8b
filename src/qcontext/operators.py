"""Operator representations of the fundamental pair and observable calculus.

In the b-basis the variable b acts by multiplication, diag(b1, b2).  With a
doubly stochastic transition matrix the variable a is represented by the real
symmetric matrix obtained by rotating diag(a1, a2) with the orthogonal basis
change (q1, q2), (-q2, q1), q_i being square roots of transition
probabilities.  The two operators never commute for genuinely incompatible
pairs with distinct values.

Quantum means of f(a-op) + g(b-op) match the exact conditional expectations
of f(a) + g(b) on all represented contexts; probability *distributions* match
only for pure functions of a single variable.  Eigendecompositions use the
closed-form 2x2 quadratic, not an iterative solver.

A composite observable takes one value v_ij on each cell A_i & B_j, so its
conditional law on an event C depends only on the integer masses l_ij of C
in the four cells: the mean is sum l_ij v_ij / M, one Fraction over a common
denominator, and the distribution and the variance group the cells by
value.  Reports pass the masses an atlas already holds
(:class:`hilbert.ContextAtlas`); the functions that take an event sum them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping

from .errors import FloatRangeError, NotDoubleStochasticError, ZeroConditionError
from .hilbert import (
    AtlasEntry,
    ContextAtlas,
    StateVector,
    TransitionMatrix,
    amplitude,
    is_double_stochastic,
    phase_normalized,
    represented_states,
    transition_matrix,
)
from .interference import Masses, mass_table
from .prob import (
    DichotomousVariable,
    Event,
    FiniteProbabilitySpace,
    all_events,
    as_fraction,
)

HERMITIAN_TOL = 1e-12

# Support values closer than this count as one value in a total variation.
SUPPORT_GRID = 1e-9

Matrix = tuple[tuple[complex, complex], tuple[complex, complex]]


@dataclass(frozen=True)
class HermitianOperator:
    """A 2x2 complex matrix equal to its conjugate transpose, expressed in
    the b-basis."""

    entries: Matrix

    def __post_init__(self) -> None:
        e = self.entries
        if (
            abs(e[0][0].imag) > HERMITIAN_TOL
            or abs(e[1][1].imag) > HERMITIAN_TOL
            or abs(e[0][1] - e[1][0].conjugate()) > HERMITIAN_TOL
        ):
            raise ValueError("matrix is not Hermitian within tolerance")

    def apply(self, state: StateVector) -> StateVector:
        e = self.entries
        x, y = state.components
        return StateVector((e[0][0] * x + e[0][1] * y, e[1][0] * x + e[1][1] * y))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _mat_add(a: Matrix, b: Matrix, sb: complex = 1.0) -> Matrix:
    return tuple(
        tuple(a[i][j] + sb * b[i][j] for j in range(2)) for i in range(2)
    )


def op_add(x: HermitianOperator, y: HermitianOperator) -> HermitianOperator:
    return HermitianOperator(_mat_add(x.entries, y.entries))


def op_scale(s: float, x: HermitianOperator) -> HermitianOperator:
    return HermitianOperator(
        tuple(tuple(s * z for z in row) for row in x.entries)
    )


def b_operator(b_var: DichotomousVariable) -> HermitianOperator:
    """Multiplication operator diag(b1, b2): each canonical basis vector is an
    eigenvector for its own value."""
    return function_of_b(b_var, {v: v for v in b_var.values})


def function_of_b(
    b_var: DichotomousVariable, g: Mapping[Fraction, Fraction]
) -> HermitianOperator:
    g1, g2 = (float(g[v]) for v in b_var.values)
    return HermitianOperator(((g1 + 0j, 0j), (0j, g2 + 0j)))


def a_operator(
    a_var: DichotomousVariable, transition: TransitionMatrix
) -> HermitianOperator:
    """Real symmetric representation of a in the b-basis; requires an exactly
    doubly stochastic transition matrix."""
    return function_of_a(a_var, transition, {v: v for v in a_var.values})


def function_of_a(
    a_var: DichotomousVariable,
    transition: TransitionMatrix,
    f: Mapping[Fraction, Fraction],
) -> HermitianOperator:
    """f applied on the spectrum of the a-operator (same eigenvectors)."""
    if not is_double_stochastic(transition):
        raise NotDoubleStochasticError(
            "representing a in the b-basis needs a doubly stochastic matrix"
        )
    # Conjugation of diag(f(a1), f(a2)) by the real orthogonal matrix with
    # columns (q1, q2) and (-q2, q1).
    q1sq = float(transition.entries[0][0])
    q2sq = float(transition.entries[0][1])
    q1q2 = math.sqrt(q1sq * q2sq)
    v1, v2 = (float(f[v]) for v in a_var.values)
    d11 = v1 * q1sq + v2 * q2sq
    d22 = v1 * q2sq + v2 * q1sq
    d12 = (v1 - v2) * q1q2
    return HermitianOperator(((d11 + 0j, d12 + 0j), (d12 + 0j, d22 + 0j)))


def commutator(x: HermitianOperator, y: HermitianOperator) -> Matrix:
    """x y - y x; anti-Hermitian, so returned as a plain matrix."""
    return _mat_add(
        _mat_mul(x.entries, y.entries), _mat_mul(y.entries, x.entries), sb=-1.0
    )


def symmetrized_product(
    x: HermitianOperator, y: HermitianOperator
) -> HermitianOperator:
    half = _mat_add(
        _mat_mul(x.entries, y.entries), _mat_mul(y.entries, x.entries)
    )
    return HermitianOperator(
        tuple(tuple(0.5 * z for z in row) for row in half)
    )


def quantum_mean(op: HermitianOperator, state: StateVector) -> float:
    value = op.apply(state).inner(state)
    if abs(value.imag) > 1e-12 * max(1.0, abs(value.real)):
        raise ValueError("mean of a Hermitian operator must be real")
    return value.real


@dataclass(frozen=True)
class SpectralDecomposition:
    """Closed-form eigensystem of a 2x2 Hermitian matrix.

    Eigenvalues ascend; each eigenvector is normalised with its first
    non-negligible component made real positive.  ``degenerate`` flags a
    collapsed spectrum, in which case distribution weights are merged.
    """

    eigenvalues: tuple[float, float]
    eigenvectors: tuple[StateVector, StateVector]
    degenerate: bool

    def distribution(self, state: StateVector) -> dict[float, float]:
        """Spectral probabilities |<state, eigenvector>|^2, merged per
        eigenvalue when the spectrum is degenerate; they sum to one."""
        dist: dict[float, float] = {}
        for k, vec in zip(self.eigenvalues, self.eigenvectors):
            weight = abs(state.inner(vec)) ** 2
            if self.degenerate:
                k = self.eigenvalues[0]
            dist[k] = dist.get(k, 0.0) + weight
        return dict(sorted(dist.items()))


def spectral_decomposition(op: HermitianOperator) -> SpectralDecomposition:
    e = op.entries
    alpha = e[0][0].real
    dlt = e[1][1].real
    beta = e[0][1]
    mid = 0.5 * (alpha + dlt)
    radius = math.hypot(0.5 * (alpha - dlt), abs(beta))
    lo, hi = mid - radius, mid + radius
    scale = max(1.0, abs(lo), abs(hi))
    degenerate = (hi - lo) <= 1e-12 * scale

    if abs(beta) <= 1e-14 * scale:
        canonical = (
            StateVector((1.0 + 0j, 0j)),
            StateVector((0j, 1.0 + 0j)),
        )
        if degenerate or alpha <= dlt:
            vectors = canonical
        else:
            vectors = (canonical[1], canonical[0])
    else:

        def eigenvector(k: float) -> StateVector:
            raw = (beta, complex(k - alpha))
            norm = math.sqrt(sum(abs(z) ** 2 for z in raw))
            return phase_normalized(StateVector(tuple(z / norm for z in raw)))

        vectors = (eigenvector(lo), eigenvector(hi))

    return SpectralDecomposition(
        eigenvalues=(lo, hi), eigenvectors=vectors, degenerate=degenerate
    )


def observable_distribution(
    op: HermitianOperator, state: StateVector
) -> dict[float, float]:
    return spectral_decomposition(op).distribution(state)


class ObservableKind(Enum):
    F_OF_A = "f_of_a"
    G_OF_B = "g_of_b"
    SUM = "sum"
    PRODUCT = "product"


@dataclass(frozen=True)
class CompositeObservable:
    """A random variable built from the fundamental pair.

    Supported shapes: f(a), g(b), f(a) + g(b) and the product a*b.  The first
    three admit operator counterparts with matched means on every represented
    context; the product maps to the symmetrised operator product, whose mean
    is generally different.
    """

    kind: ObservableKind
    a: DichotomousVariable | None
    b: DichotomousVariable | None
    f: Mapping[Fraction, Fraction] | None = None
    g: Mapping[Fraction, Fraction] | None = None

    @staticmethod
    def of_a(
        a: DichotomousVariable,
        b: DichotomousVariable,
        f: Mapping[Fraction, Fraction],
    ) -> "CompositeObservable":
        """f(a); the partner b fixes the basis of the operator counterpart."""
        return CompositeObservable(ObservableKind.F_OF_A, a, b, f=dict(f))

    @staticmethod
    def of_b(
        b: DichotomousVariable, g: Mapping[Fraction, Fraction]
    ) -> "CompositeObservable":
        return CompositeObservable(ObservableKind.G_OF_B, None, b, g=dict(g))

    @staticmethod
    def sum_of(
        a: DichotomousVariable,
        b: DichotomousVariable,
        f: Mapping[Fraction, Fraction] | None = None,
        g: Mapping[Fraction, Fraction] | None = None,
    ) -> "CompositeObservable":
        f = dict(f) if f is not None else {v: v for v in a.values}
        g = dict(g) if g is not None else {v: v for v in b.values}
        return CompositeObservable(ObservableKind.SUM, a, b, f=f, g=g)

    @staticmethod
    def product_of(
        a: DichotomousVariable, b: DichotomousVariable
    ) -> "CompositeObservable":
        return CompositeObservable(ObservableKind.PRODUCT, a, b)

    @cached_property
    def cell_values(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """v_ij, the value on the cell A_i & B_j, 0-based."""
        kind, f, g = self.kind, self.f, self.g
        xs = self.a.values if self.a is not None else (None, None)
        return tuple(
            tuple(
                f[x] if kind is ObservableKind.F_OF_A
                else g[y] if kind is ObservableKind.G_OF_B
                else f[x] + g[y] if kind is ObservableKind.SUM
                else x * y
                for y in self.b.values
            )
            for x in xs
        )

    def value_at(self, point: str) -> Fraction:
        i = 0 if self.kind is ObservableKind.G_OF_B else self.a.assignment[point] - 1
        j = 0 if self.kind is ObservableKind.F_OF_A else self.b.assignment[point] - 1
        return self.cell_values[i][j]

    @cached_property
    def _scaled(self) -> tuple[int, Masses]:
        """(d, n) with the value on cell (i, j) equal to n[i][j] / d."""
        values = self.cell_values
        scale = math.lcm(*(v.denominator for row in values for v in row))
        return scale, tuple(
            tuple(v.numerator * (scale // v.denominator) for v in row)
            for row in values
        )

    def mean_on(self, local: Masses) -> Fraction:
        """Exact mean given the masses of the event in the four cells:
        sum l_ij v_ij / M, as one Fraction."""
        scale, scaled = self._scaled
        cells = zip((*local[0], *local[1]), (*scaled[0], *scaled[1]))
        weighted = sum(n * v for n, v in cells)
        return Fraction(weighted, sum(map(sum, local)) * scale)

    @cached_property
    def _levels(self) -> tuple[list[Fraction], Masses]:
        """The distinct cell values, ascending, and each cell's index among
        them."""
        levels = sorted(set(self.cell_values[0] + self.cell_values[1]))
        index = tuple(tuple(map(levels.index, row)) for row in self.cell_values)
        return levels, index

    def masses_by_value(self, masses: Masses) -> list[tuple[Fraction, int]]:
        """(value, mass) for each distinct value, ascending, given the masses
        of an event in the four cells."""
        levels, index = self._levels
        found = [0] * len(levels)
        for row, marks in zip(masses, index):
            for n, k in zip(row, marks):
                found[k] += n
        return list(zip(levels, found))

    def distribution_on(
        self, local: Masses, whole: Masses
    ) -> dict[Fraction, Fraction]:
        """Exact law given the masses of the event and of the whole space,
        over every value the space takes."""
        total, spread = sum(map(sum, local)), self.masses_by_value(whole)
        found = zip(self.masses_by_value(local), spread)
        return {v: Fraction(n, total) for (v, n), (_, w) in found if w}


def to_operator(
    space: FiniteProbabilitySpace, obs: CompositeObservable
) -> HermitianOperator:
    """Operator counterpart of a composite observable in the b-basis."""
    if obs.kind is ObservableKind.G_OF_B:
        return function_of_b(obs.b, obs.g)
    trans = transition_matrix(space, obs.a, obs.b)
    if obs.kind is ObservableKind.F_OF_A:
        return function_of_a(obs.a, trans, obs.f)
    if obs.kind is ObservableKind.SUM:
        return op_add(
            function_of_a(obs.a, trans, obs.f), function_of_b(obs.b, obs.g)
        )
    return symmetrized_product(a_operator(obs.a, trans), b_operator(obs.b))


def _masses_by_value(
    space: FiniteProbabilitySpace, value_of: Callable[[str], Fraction], c: Event
) -> tuple[dict[Fraction, int], int]:
    """Integer point masses of ``c`` summed per value, and their total;
    raises :class:`ZeroConditionError` when ``c`` is empty."""
    space.validate_event(c)
    masses = space._masses
    grouped: dict[Fraction, int] = {}
    for p in c.members:
        value = value_of(p)
        grouped[value] = grouped.get(value, 0) + masses[p]
    total = sum(grouped.values())
    if total == 0:
        raise ZeroConditionError(f"{c.label()} has measure zero")
    return grouped, total


def _cell_masses(
    space: FiniteProbabilitySpace, obs: CompositeObservable, c: Event
) -> Masses:
    """Integer masses of ``c`` in the cells of the variables the observable
    reads; raises :class:`ZeroConditionError` when ``c`` is empty."""
    space.validate_event(c)
    one = dict.fromkeys(space.points, 1)
    a_cell = one if obs.kind is ObservableKind.G_OF_B else obs.a.assignment
    b_cell = one if obs.kind is ObservableKind.F_OF_A else obs.b.assignment
    local = mass_table(space, a_cell, b_cell, c.members)
    if not any(map(any, local)):
        raise ZeroConditionError(f"{c.label()} has measure zero")
    return local


def _variance(grouped: Iterable[tuple[Fraction, int]], total: int) -> Fraction:
    grouped = list(grouped)
    mean = sum((v * n for v, n in grouped), start=Fraction(0)) / total
    return (
        sum(((v - mean) ** 2 * n for v, n in grouped), start=Fraction(0)) / total
    )


def classical_mean(
    space: FiniteProbabilitySpace, obs: CompositeObservable, c: Event
) -> Fraction:
    """Exact conditional expectation of the observable: sum of values weighted
    by the conditional cell masses."""
    return obs.mean_on(_cell_masses(space, obs, c))


def classical_distribution(
    space: FiniteProbabilitySpace, obs: CompositeObservable, c: Event
) -> dict[Fraction, Fraction]:
    """Exact pushforward of the conditional measure under the observable."""
    local = _cell_masses(space, obs, c)
    return obs.distribution_on(local, _cell_masses(space, obs, space.omega()))


def max_mean_gap(
    obs: CompositeObservable, op: HermitianOperator, entries: Iterable[AtlasEntry]
) -> float:
    """Largest |quantum mean of ``op`` - exact conditional mean of ``obs``|
    over atlas entries."""
    worst = 0.0
    for e in entries:
        gap = abs(quantum_mean(op, e.state) - float(obs.mean_on(e.table.local)))
        worst = max(worst, gap)
    return worst


def mean_preservation_gap(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    f: Mapping[Fraction, Fraction],
    g: Mapping[Fraction, Fraction],
) -> float:
    """Largest |quantum mean - exact conditional mean| of f(a) + g(b) over
    every represented context, including the two a-cells."""
    obs = CompositeObservable.sum_of(a_var, b_var, f, g)
    op = to_operator(space, obs)
    return max_mean_gap(obs, op, ContextAtlas(space, a_var, b_var).represented)


@dataclass(frozen=True)
class MismatchReport:
    """Classical versus spectral distribution of one observable in one
    context, with the total-variation gap computed after an optional affine
    re-scaling value -> scale * value + offset of the classical support."""

    classical: dict[Fraction, Fraction]
    quantum: dict[float, float]
    alignment: tuple[float, float] | None
    total_variation: float

    @classmethod
    def of(
        cls,
        classical: dict[Fraction, Fraction],
        quantum: dict[float, float],
        alignment: tuple[float, float] | None = None,
    ) -> "MismatchReport":
        if alignment is None:
            mapped = {float(v): float(m) for v, m in classical.items()}
        else:
            scale, offset = alignment
            mapped = {
                scale * float(v) + offset: float(m) for v, m in classical.items()
            }
        return cls(classical, quantum, alignment, _total_variation(mapped, quantum))


def _total_variation(p: Mapping[float, float], q: Mapping[float, float]) -> float:
    def key(value: float) -> float:
        steps = value / SUPPORT_GRID
        if not math.isfinite(steps):
            raise FloatRangeError(
                f"support value {value!r} overflows the {SUPPORT_GRID:g} "
                "comparison grid"
            )
        return round(steps) * SUPPORT_GRID

    keys: dict[float, tuple[float, float]] = {}
    for value, mass in p.items():
        k = key(value)
        acc = keys.get(k, (0.0, 0.0))
        keys[k] = (acc[0] + mass, acc[1])
    for value, mass in q.items():
        k = key(value)
        acc = keys.get(k, (0.0, 0.0))
        keys[k] = (acc[0], acc[1] + mass)
    return 0.5 * sum(abs(a - b) for a, b in keys.values())


def distribution_mismatch(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    obs: CompositeObservable,
    c: Event,
    alignment: tuple[float, float] | None = None,
) -> MismatchReport:
    if obs.kind not in (ObservableKind.SUM, ObservableKind.PRODUCT):
        raise ValueError("mismatch reports cover sum and product observables")
    classical = classical_distribution(space, obs, c)
    state = amplitude(space, a_var, b_var, c)
    quantum = observable_distribution(to_operator(space, obs), state)
    return MismatchReport.of(classical, quantum, alignment)


def hamiltonian(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    h: Fraction | int | str | float,
    potential: Mapping[Fraction, Fraction],
) -> HermitianOperator:
    """Energy-style operator (h/2) (a-op squared + potential(b-op))."""
    h = as_fraction(h)
    if h <= 0:
        raise ValueError("the scale constant must be positive")
    trans = transition_matrix(space, a_var, b_var)
    squared = {v: v * v for v in a_var.values}
    return op_scale(
        float(h) / 2.0,
        op_add(
            function_of_a(a_var, trans, squared),
            function_of_b(b_var, potential),
        ),
    )


def hamiltonian_observable(
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    h: Fraction | int | str | float,
    potential: Mapping[Fraction, Fraction],
) -> CompositeObservable:
    """The random variable (h/2) (a^2 + potential(b)) matching
    :func:`hamiltonian` by construction."""
    h = as_fraction(h)
    f = {v: h / 2 * v * v for v in a_var.values}
    g = {v: h / 2 * potential[v] for v in b_var.values}
    return CompositeObservable.sum_of(a_var, b_var, f, g)


def conditional_variance(
    space: FiniteProbabilitySpace, values: Mapping[str, Fraction], c: Event
) -> Fraction:
    """Exact conditional variance of an arbitrary point-valued map."""
    grouped, total = _masses_by_value(space, values.__getitem__, c)
    return _variance(grouped.items(), total)


def dispersion(
    space: FiniteProbabilitySpace, obs: CompositeObservable, c: Event
) -> Fraction:
    """Exact conditional variance of the observable, from its cell masses."""
    local = _cell_masses(space, obs, c)
    return _variance(obs.masses_by_value(local), sum(map(sum, local)))


@dataclass(frozen=True)
class DispersionFreeReport:
    """Events of zero conditional variance for *every* random variable.

    Point indicators separate any two points, so exactly the atoms qualify.
    ``representable`` lists the events of the represented family (mappable
    contexts plus the two a-cells); for an incompatible pair the intersection
    is empty because each cell of a dichotomous pair needs two points and an
    atom meets only one cell.
    """

    dispersion_free: tuple[Event, ...]
    representable: tuple[Event, ...]
    intersection: tuple[Event, ...]


def dispersion_free_search(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    atlas: ContextAtlas | None = None,
) -> DispersionFreeReport:
    """Brute force over every event; the represented family comes from
    ``atlas``, built for the pair when not given."""
    indicators = [
        {p: Fraction(1 if p == q else 0) for p in space.points}
        for q in space.points
    ]
    free = [
        evt
        for evt in all_events(space)
        if all(conditional_variance(space, ind, evt) == 0 for ind in indicators)
    ]
    free.sort(key=lambda e: (len(e.members), e.members))
    if atlas is None:
        atlas = ContextAtlas(space, a_var, b_var)
    represented = [*(e.context for e in atlas.mappable), *atlas.a_cells]
    represented.sort(key=lambda e: (len(e.members), e.members))
    membership = set(represented)
    inter = [evt for evt in free if evt in membership]
    return DispersionFreeReport(
        dispersion_free=tuple(free),
        representable=tuple(represented),
        intersection=tuple(inter),
    )
