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
in the four cells: the mean is sum l_ij v_ij / M, the variance
(T sum n x^2 - (sum n x)^2) / (T L)^2 over the values x scaled by their
common denominator L and the total mass T, and the distribution groups the
cells by value.  Callers pass the masses their atlas holds.

:meth:`CompositeObservable.operator` is the one operator builder, given the
pair's transition matrix from an atlas, and :func:`mean_gap` the one
mean-preservation gap; :func:`mean_preservation_gap` and
:func:`distribution_mismatch` are views over one atlas built for the call.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import FloatRangeError, NotDoubleStochasticError
from .hilbert import (
    ContextAtlas,
    StateVector,
    TransitionMatrix,
    is_double_stochastic,
    phase_normalized,
    # Unused here: perfbench/tracer.py traces operators.represented_states.
    represented_states,
)
from .interference import Masses, TwoCellTable
from .prob import (
    DichotomousVariable,
    Event,
    FiniteProbabilitySpace,
    as_fraction,
    require_enumerable,
)
from .record import Record, derived

HERMITIAN_TOL = 1e-12

# Support values closer than this count as one value in a total variation.
SUPPORT_GRID = 1e-9

Matrix = tuple[tuple[complex, complex], tuple[complex, complex]]


class HermitianOperator(Record):
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


def to_float(value: Fraction, what: str) -> float:
    """``value`` as a float; :class:`FloatRangeError` names ``what`` when it
    lies beyond the float range."""
    try:
        return float(value)
    except OverflowError as exc:
        raise FloatRangeError(f"{what} beyond the float range") from exc


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


def b_operator(b_var: DichotomousVariable) -> HermitianOperator:
    """Multiplication operator diag(b1, b2): each canonical basis vector is an
    eigenvector for its own value."""
    return function_of_b(b_var, {v: v for v in b_var.values})


def function_of_b(
    b_var: DichotomousVariable, g: Mapping[Fraction, Fraction]
) -> HermitianOperator:
    g1, g2 = (to_float(g[v], "b-operator eigenvalue") for v in b_var.values)
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
    v1, v2 = (to_float(f[v], "a-operator eigenvalue") for v in a_var.values)
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


class SpectralDecomposition(Record):
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
            try:
                norm = math.sqrt(sum(abs(z) ** 2 for z in raw))
            except OverflowError as exc:
                raise FloatRangeError(
                    "eigenvector norm beyond the float range"
                ) from exc
            return phase_normalized(StateVector(tuple(z / norm for z in raw)))

        vectors = (eigenvector(lo), eigenvector(hi))

    return SpectralDecomposition(
        eigenvalues=(lo, hi), eigenvectors=vectors, degenerate=degenerate
    )


class ObservableKind(Enum):
    F_OF_A = "f_of_a"
    G_OF_B = "g_of_b"
    SUM = "sum"
    PRODUCT = "product"


class CompositeObservable(Record):
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

    @derived
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

    @derived
    def _scaled(self) -> tuple[int, Masses]:
        """(d, n) with the value on cell (i, j) equal to n[i][j] / d."""
        values = self.cell_values
        scale = math.lcm(*(v.denominator for row in values for v in row))
        return scale, tuple(
            tuple(v.numerator * (scale // v.denominator) for v in row)
            for row in values
        )

    def mean_terms(self, local: Masses) -> tuple[int, int]:
        """(n, d) with n / d the exact mean given the masses of the event in
        the four cells, sum l_ij v_ij / M; n / d in floats is one correctly
        rounded division, the float of :meth:`mean_on`."""
        scale, ((v00, v01), (v10, v11)) = self._scaled
        (l00, l01), (l10, l11) = local
        weighted = l00 * v00 + l01 * v01 + l10 * v10 + l11 * v11
        return weighted, (l00 + l01 + l10 + l11) * scale

    def mean_on(self, local: Masses) -> Fraction:
        """Exact mean given the masses of the event in the four cells, as
        one Fraction."""
        return Fraction(*self.mean_terms(local))

    @derived
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

    def variance_on(self, local: Masses) -> Fraction:
        """Exact variance given the masses of the event in the four cells."""
        values = self.cell_values
        pairs = zip((*values[0], *values[1]), (*local[0], *local[1]))
        return Fraction(*_variance_terms(pairs))

    def operator(self, transition: TransitionMatrix | None) -> HermitianOperator:
        """Operator counterpart in the b-basis, given the pair's transition
        matrix (None for g(b), which does not read it)."""
        if self.kind is ObservableKind.G_OF_B:
            return function_of_b(self.b, self.g)
        if self.kind is ObservableKind.F_OF_A:
            return function_of_a(self.a, transition, self.f)
        if self.kind is ObservableKind.SUM:
            return op_add(
                function_of_a(self.a, transition, self.f), function_of_b(self.b, self.g)
            )
        return symmetrized_product(a_operator(self.a, transition), b_operator(self.b))


def _variance_terms(pairs: Iterable[tuple[Fraction | int, int]]) -> tuple[int, int]:
    """The variance of the values v weighted by the integer masses n as
    (T sum n x^2 - (sum n x)^2, (T L)^2), x, T and L as in the module
    docstring: it is zero exactly when the first integer is."""
    pairs = list(pairs)
    scale = math.lcm(*(v.denominator for v, _ in pairs))
    total = first = second = 0
    for v, n in pairs:
        x = v.numerator * (scale // v.denominator)
        total += n
        first += n * x
        second += n * x * x
    return total * second - first * first, (total * scale) ** 2


def mean_gap(
    atlas: ContextAtlas,
    pairs: Sequence[tuple[CompositeObservable, HermitianOperator]],
) -> float:
    """Largest |quantum mean of op - exact conditional mean of obs| over the
    (obs, op) ``pairs`` and the represented entries of ``atlas``, 0 with
    none; computed once per distinct table, each exact mean rounded by one
    integer division."""

    def gaps(table: TwoCellTable, state: StateVector) -> float:
        worst = 0.0
        for obs, op in pairs:
            weighted, total = obs.mean_terms(table.local)
            worst = max(worst, abs(quantum_mean(op, state) - weighted / total))
        return worst

    found = atlas.per_table(gaps, atlas.represented)
    return max((worst for _, worst in found), default=0.0)


def mean_preservation_gap(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    f: Mapping[Fraction, Fraction],
    g: Mapping[Fraction, Fraction],
) -> float:
    """:func:`mean_gap` of f(a) + g(b) over every represented context of the
    pair, the two a-cells included."""
    obs = CompositeObservable.sum_of(a_var, b_var, f, g)
    atlas = ContextAtlas(space, a_var, b_var)
    return mean_gap(atlas, [(obs, obs.operator(atlas.transition))])


class MismatchReport(Record):
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
        values = [
            (to_float(v, "support value"), float(m)) for v, m in classical.items()
        ]
        if alignment is None:
            mapped = dict(values)
        else:
            scale, offset = alignment
            mapped = {scale * v + offset: m for v, m in values}
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

    keys: dict[float, list[float]] = {}
    for side, dist in enumerate((p, q)):
        for value, mass in dist.items():
            keys.setdefault(key(value), [0.0, 0.0])[side] += mass
    return 0.5 * sum(abs(a - b) for a, b in keys.values())


def distribution_mismatch(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    obs: CompositeObservable,
    c: Event,
    alignment: tuple[float, float] | None = None,
) -> MismatchReport:
    """The report of ``c`` that ``compare-dist --context`` prints, read from
    an atlas of ``c`` alone: raises as :meth:`ContextAtlas.amplitudes` does
    unless ``c`` is a mappable context."""
    if obs.kind not in (ObservableKind.SUM, ObservableKind.PRODUCT):
        raise ValueError("mismatch reports cover sum and product observables")
    atlas = ContextAtlas(space, a_var, b_var, (c,))
    law = obs.distribution_on(atlas.entries[0].table.local, atlas.omega.whole)
    (state,), op = atlas.amplitudes(), obs.operator(atlas.transition)
    quantum = spectral_decomposition(op).distribution(state)
    return MismatchReport.of(law, quantum, alignment)


def hamiltonian_observable(
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    h: Fraction | int | str | float,
    potential: Mapping[Fraction, Fraction],
) -> CompositeObservable:
    """The random variable (h/2) (a^2 + potential(b)); its
    :meth:`~CompositeObservable.operator` is the energy operator
    (h/2) (a-op squared + potential(b-op)).  The scale h must be positive."""
    h = as_fraction(h)
    if h <= 0:
        raise ValueError("the scale constant must be positive")
    f = {v: h / 2 * v * v for v in a_var.values}
    g = {v: h / 2 * potential[v] for v in b_var.values}
    return CompositeObservable.sum_of(a_var, b_var, f, g)


class DispersionFreeReport(Record):
    """Events of zero conditional variance for *every* random variable.

    Point indicators separate any two points, so exactly the atoms qualify;
    the search visits every event and keeps it only if the integer variance
    numerator of every point indicator on it is zero, so the atoms are
    found, not assumed.  ``representable`` lists the represented family
    (mappable contexts plus the two a-cells); for an incompatible pair the
    intersection is empty, as each cell of a dichotomous pair needs two
    points and an atom meets only one cell.
    """

    dispersion_free: tuple[Event, ...]
    representable: tuple[Event, ...]
    intersection: tuple[Event, ...]


def dispersion_free_search(atlas: ContextAtlas) -> DispersionFreeReport:
    """Every event of the space of ``atlas``, visited by bitmask in
    reflected-binary Gray order, each step adding or removing one point, so
    that the event's mass T is a running sum.  On an event, the indicator of
    a member q of mass n has the variance numerator n (T - n), and that of a
    point outside is constant; an event is kept when every member's is zero,
    and only a kept event becomes an :class:`Event`, returned in
    :class:`Event` order.  The represented family is that of the pair of
    ``atlas``."""
    space = atlas.space
    require_enumerable(space)
    masses = {1 << k: space._masses[p] for k, p in enumerate(space.points)}
    kept = []
    code = total = 0
    for step in range(1, 1 << len(space.points)):
        flip = step & -step
        code ^= flip
        total += masses[flip] if code & flip else -masses[flip]
        rest = code
        while rest:
            low = rest & -rest
            if masses[low] * (total - masses[low]):
                break
            rest ^= low
        else:
            kept.append(code)
    points = space.points
    free = sorted(
        Event(p for k, p in enumerate(points) if code >> k & 1) for code in kept
    )
    represented = [e.context for e in atlas.represented]
    membership = set(represented)
    inter = [evt for evt in free if evt in membership]
    return DispersionFreeReport(
        dispersion_free=tuple(free),
        representable=tuple(represented),
        intersection=tuple(inter),
    )
