"""Complex amplitudes for trigonometric contexts and the two-basis geometry.

A trigonometric context C of an incompatible dichotomous pair (a, b) is sent
to the two-component amplitude

    phi_C(x) = sqrt(P(a=a1|C) p(x|a1)) + exp(i eps(x) theta_C(x))
               * sqrt(P(a=a2|C) p(x|a2)),

indexed by the two values x of b.  By construction |phi_C(x)|^2 = P(b=x|C)
(Born rule in the b-basis).  When the transition matrix p(x|y) is doubly
stochastic -- and only then -- a single context-independent orthonormal
a-basis exists and Born's rule holds in both bases; otherwise each variable
needs its own coordinate expansion (see :func:`dual_inner_products`).

Exact rationals decide every classification; amplitudes themselves are
double-precision complex numbers.

The conventions are constants, not options: the phase signs
eps(b_1), eps(b_2) are :data:`SIGNS` = (-1, +1) and states are compared
within :data:`STATE_TOL` = 1e-12 per component.

:class:`ContextAtlas` is the layer every report reads: for one pair it sums
the whole-space 2x2 masses once and gives each context its two-cell table,
coefficients, classification and amplitude, built once per run.  With r_i,
R_i and W_ij the masses of A_i & C, A_i and A_i & B_j, and M that of C,
each amplitude modulus sqrt(P(A_i|C) P(B_j|A_i)) is sqrt(r_i W_ij / (M R_i))
from one correctly rounded integer division.  The functions that take a
space and a pair (:func:`mappable_contexts`, :func:`amplitude`,
:func:`represented_states`, :func:`image_set`, :func:`phase_gap_profile`,
:func:`nonsensitive_contexts`) are views over an atlas built for the call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .errors import (
    NotDoubleStochasticError,
    NotTrigonometricError,
    SingularBasisError,
)
from .interference import Masses, TwoCellTable, lambda_coefficient, mass_table
from .prob import (
    DichotomousVariable,
    Event,
    FiniteProbabilitySpace,
    require_enumerable,
)

STATE_TOL = 1e-12

# eps(b_1), eps(b_2), the phase signs of the two b-values.  They must be
# opposite: with equal signs the sign-weighted phase gap varies from context
# to context and no context-independent a-basis exists (phase_gap_profile
# with raw signs shows the drift).
SIGNS = (-1, +1)


@dataclass(frozen=True)
class TransitionMatrix:
    """Exact 2x2 matrix of transition probabilities p[i][j] = P(b=b_j | a=a_i).

    Rows are labelled by the a-values, columns by the b-values; each row sums
    to one, and all entries are strictly positive exactly when the variables
    are incompatible.
    """

    a_values: tuple[Fraction, Fraction]
    b_values: tuple[Fraction, Fraction]
    entries: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

    def __post_init__(self) -> None:
        for row in self.entries:
            if sum(row) != 1:
                raise ValueError("transition matrix rows must sum exactly to one")
            for p in row:
                if p < 0 or p > 1:
                    raise ValueError("transition entries must lie in [0, 1]")


def transition_matrix(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
) -> TransitionMatrix:
    table = TwoCellTable.of(space, a_var.assignment, b_var.assignment, space.omega())
    return TransitionMatrix(
        a_values=a_var.values, b_values=b_var.values, entries=table.b_given_a
    )


def is_double_stochastic(matrix: TransitionMatrix) -> bool:
    """Exact column-sum test; rows are stochastic by construction."""
    return all(
        matrix.entries[0][j] + matrix.entries[1][j] == 1 for j in range(2)
    )


@dataclass(frozen=True)
class StateVector:
    """A two-component complex amplitude indexed by the b-values."""

    components: tuple[complex, complex]

    def norm_squared(self) -> float:
        return sum(abs(z) ** 2 for z in self.components)

    def inner(self, other: "StateVector") -> complex:
        return sum(
            z * w.conjugate() for z, w in zip(self.components, other.components)
        )

    def probabilities(self) -> tuple[float, float]:
        return tuple(abs(z) ** 2 for z in self.components)


def phase_normalized(state: StateVector) -> StateVector:
    """Rotate a global phase so the first non-negligible component is real
    and positive; states equal up to phase normalise identically."""
    for z in state.components:
        if abs(z) > 1e-14:
            factor = z.conjugate() / abs(z)
            return StateVector(tuple(factor * w for w in state.components))
    return state


def states_close(x: StateVector, y: StateVector, up_to_phase: bool = True) -> bool:
    a, b = (phase_normalized(x), phase_normalized(y)) if up_to_phase else (x, y)
    return all(
        abs(za - zb) <= STATE_TOL for za, zb in zip(a.components, b.components)
    )


def _phases(table: TwoCellTable, failure: str) -> tuple[float, float]:
    """Both phases of a context with no squared coefficient above one."""
    coeffs = table.coefficients()
    if any(k.squared > 1 for k in coeffs):
        raise NotTrigonometricError(failure)
    return (coeffs[0].phase, coeffs[1].phase)


def _amplitude(table: TwoCellTable) -> StateVector | None:
    """phi(x_j) = sqrt(r_0 W_0j / (M R_0))
                  + exp(i eps_j theta_j) sqrt(r_1 W_1j / (M R_1)),
    or None when a squared coefficient exceeds one.  Each quotient is one
    correctly rounded integer division, the float of that Fraction."""
    if not table.mappable:
        return None
    theta = [k.phase for k in table.coefficients()]
    (r0, r1), whole = map(sum, table.local), table.whole
    R0, R1 = map(sum, whole)
    components = []
    for j in range(2):
        first = math.sqrt(r0 * whole[0][j] / ((r0 + r1) * R0))
        second = math.sqrt(r1 * whole[1][j] / ((r0 + r1) * R1))
        components.append(
            first + cmath.exp(1j * SIGNS[j] * theta[j]) * second
        )
    return StateVector(tuple(components))


def mappable_contexts(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
) -> tuple[Event, ...]:
    """Contexts whose squared coefficients never exceed one (trigonometric,
    boundary included); exactly these receive amplitudes."""
    return tuple(e.context for e in ContextAtlas(space, a_var, b_var).mappable)


def amplitude(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    c: Event,
) -> StateVector:
    """Amplitude of a trigonometric (or boundary) context.

    Raises :class:`NotTrigonometricError` when some squared coefficient
    exceeds one, and :class:`NotAContextError` when conditioning is undefined.
    """
    return ContextAtlas(space, a_var, b_var, (c,)).amplitudes()[0]


@dataclass(frozen=True)
class BasisPair:
    """The canonical b-basis together with a (possibly non-orthonormal)
    a-basis expressed in b-coordinates."""

    e_a: tuple[StateVector, StateVector]
    stripped_phase: complex | None = None

    @property
    def e_b(self) -> tuple[StateVector, StateVector]:
        return (
            StateVector((1.0 + 0.0j, 0.0 + 0.0j)),
            StateVector((0.0 + 0.0j, 1.0 + 0.0j)),
        )


def context_basis(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    reference_context: Event | None = None,
) -> BasisPair:
    """a-basis read off from the amplitude of one reference context.

    e_1 = (u11, u12) and e_2 = (exp(i eps1 theta1) u21, exp(i eps2 theta2)
    u22), with u_ij the square roots of the transition probabilities and the
    phases taken from the reference context.  Defined for any incompatible
    pair; orthonormal exactly in the doubly stochastic case.
    """
    c0 = reference_context if reference_context is not None else space.omega()
    table = TwoCellTable.of(space, a_var.assignment, b_var.assignment, c0)
    theta = _phases(table, "the reference context must be trigonometric")
    u = [[math.sqrt(float(p)) for p in row] for row in table.b_given_a]
    e1 = StateVector((u[0][0] + 0j, u[0][1] + 0j))
    e2 = StateVector(
        (
            cmath.exp(1j * SIGNS[0] * theta[0]) * u[1][0],
            cmath.exp(1j * SIGNS[1] * theta[1]) * u[1][1],
        )
    )
    return BasisPair(e_a=(e1, e2))


def a_basis(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
) -> BasisPair:
    """Phase-stripped real orthonormal a-basis (q1, q2), (-q2, q1).

    Requires an exactly doubly stochastic transition matrix, in which case
    the phases of the whole space contribute only a per-vector global
    factor; the stripped factor is recorded for reproducibility.
    """
    table = TwoCellTable.of(space, a_var.assignment, b_var.assignment, space.omega())
    trans = TransitionMatrix(a_var.values, b_var.values, table.b_given_a)
    if not is_double_stochastic(trans):
        raise NotDoubleStochasticError(
            "a context-independent orthonormal a-basis needs a doubly "
            "stochastic transition matrix"
        )
    raw = context_basis(space, a_var, b_var)
    stripped = cmath.exp(1j * SIGNS[1] * table.coefficient(1).phase)
    q1 = math.sqrt(float(trans.entries[0][0]))
    q2 = math.sqrt(float(trans.entries[0][1]))
    basis = BasisPair(
        e_a=(
            StateVector((q1 + 0j, q2 + 0j)),
            StateVector((-q2 + 0j, q1 + 0j)),
        ),
        stripped_phase=stripped,
    )
    # The raw second vector must agree with the stripped one up to the factor.
    expected = tuple(stripped * z for z in basis.e_a[1].components)
    if any(
        abs(z - w) > 1e-9 for z, w in zip(raw.e_a[1].components, expected)
    ):
        raise AssertionError("phase stripping produced an inconsistent basis")
    return basis


def extend_to_cells(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    basis: BasisPair,
) -> dict[Event, StateVector]:
    """Assign the a-basis vectors as the states of the partition cells, which
    are not contexts themselves (they miss the opposite cell)."""
    part = a_var.partition(space)
    return {part.cells[0]: basis.e_a[0], part.cells[1]: basis.e_a[1]}


def gram_matrix(basis: BasisPair) -> tuple[tuple[complex, complex], ...]:
    e1, e2 = basis.e_a
    return (
        (e1.inner(e1), e1.inner(e2)),
        (e2.inner(e1), e2.inner(e2)),
    )


def basis_is_orthonormal(basis: BasisPair) -> bool:
    gram = gram_matrix(basis)
    return all(
        abs(gram[i][j] - (1.0 if i == j else 0.0)) <= STATE_TOL
        for i in range(2)
        for j in range(2)
    )


def unitarity_check(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
) -> tuple[bool, bool]:
    """(basis change is unitary within ``STATE_TOL``, transition matrix is
    exactly doubly stochastic); the two agree for every incompatible pair."""
    unitary = basis_is_orthonormal(context_basis(space, a_var, b_var))
    ds = is_double_stochastic(transition_matrix(space, a_var, b_var))
    return unitary, ds


@dataclass(frozen=True)
class BornRow:
    context: Event
    value: Fraction
    projected: float
    expected: Fraction

    @property
    def error(self) -> float:
        return abs(self.projected - float(self.expected))


def born_in_a_basis_check(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    contexts: Sequence[Event] | None = None,
) -> tuple[BornRow, ...]:
    """Squared projections onto the a-basis read off the whole space,
    compared against the direct conditional probabilities of a.

    The rows agree within tolerance exactly when the transition matrix is
    doubly stochastic; failures are reported, never raised.
    """
    basis = context_basis(space, a_var, b_var)
    atlas = ContextAtlas(space, a_var, b_var, contexts)
    if contexts is not None:
        atlas.amplitudes()  # every listed context needs an amplitude
    return atlas.born_rows(basis)


def _gap(table: TwoCellTable, eps1: int, eps2: int) -> float:
    theta = _phases(table, "phase gap needs a trigonometric context")
    gap = eps1 * theta[0] - eps2 * theta[1]
    return gap % (2.0 * math.pi)


def phase_gap(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    c: Event,
    eps1: int,
    eps2: int,
) -> float:
    """Sign-weighted phase gap eps1*theta(b1) - eps2*theta(b2), reduced
    modulo 2 pi into [0, 2 pi).

    Takes raw signs so that the drift under an equal-sign choice can be
    demonstrated; amplitudes always use the opposite :data:`SIGNS`.
    """
    return _gap(
        TwoCellTable.of(space, a_var.assignment, b_var.assignment, c), eps1, eps2
    )


def phase_gap_profile(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    eps1: int,
    eps2: int,
) -> tuple[tuple[Event, float], ...]:
    return ContextAtlas(space, a_var, b_var).phase_gap_profile(eps1, eps2)


def phase_gap_constancy_check(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
) -> tuple[bool, tuple[tuple[Event, float], ...]]:
    """With the opposite :data:`SIGNS` and a doubly stochastic matrix the gap
    is pi (mod 2 pi) on every mappable context; returns (all within
    ``STATE_TOL``, profile)."""
    profile = phase_gap_profile(space, a_var, b_var, *SIGNS)
    ok = all(abs(gap - math.pi) <= STATE_TOL for _, gap in profile)
    return ok, profile


def nonsensitive_contexts(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
) -> tuple[Event, ...]:
    """Contexts with exactly zero disturbance for every outcome; the whole
    space always qualifies.  Their phases are right angles and the second
    amplitude term is purely imaginary."""
    return ContextAtlas(space, a_var, b_var).nonsensitive_contexts()


@dataclass(frozen=True)
class ImageSet:
    """Image of the representation over contexts plus the two a-cells.

    ``entries`` holds (event, state) pairs sorted by event; ``groups`` the
    partition of events into classes of equal states up to global phase, as
    formed by :func:`group_states` (within ``STATE_TOL`` = 1e-12 per
    component of the phase-normalised states, each class led by its first
    member); ``collisions`` only those classes with at least two members.
    """

    entries: tuple[tuple[Event, StateVector], ...]
    groups: tuple[tuple[Event, ...], ...]

    @property
    def distinct_count(self) -> int:
        return len(self.groups)

    @property
    def collisions(self) -> tuple[tuple[Event, ...], ...]:
        return tuple(g for g in self.groups if len(g) > 1)


def represented_states(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
) -> tuple[tuple[Event, StateVector], ...]:
    """(event, state) pairs for every mappable context plus the two a-cells."""
    return ContextAtlas(space, a_var, b_var).represented_states()


def group_states(states: Sequence[StateVector]) -> tuple[tuple[int, ...], ...]:
    """Indices of ``states`` grouped by equality up to global phase.

    A state joins the earliest-created group whose first member lies within
    ``STATE_TOL`` of it, per component, after phase normalisation; otherwise
    it starts a new group.  Group leaders are indexed by
    floor(Re(n0) / (4 STATE_TOL)), n0 the first normalised component.  Since
    |Re z - Re w| <= |z - w|, a leader within tolerance lies in the same key
    or an adjacent one, so only those three keys are searched; the margin
    in the width absorbs the rounding of the quotient.
    """
    width = 4 * STATE_TOL
    leaders: list[StateVector] = []
    groups: list[list[int]] = []
    by_key: dict[int, list[int]] = {}
    for idx, state in enumerate(states):
        norm = phase_normalized(state)
        key = math.floor(norm.components[0].real / width)
        near = sorted(g for k in (key - 1, key, key + 1) for g in by_key.get(k, ()))
        for g in near:
            if states_close(leaders[g], norm, up_to_phase=False):
                groups[g].append(idx)
                break
        else:
            by_key.setdefault(key, []).append(len(groups))
            leaders.append(norm)
            groups.append([idx])
    return tuple(tuple(group) for group in groups)


def image_set(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
) -> ImageSet:
    return ContextAtlas(space, a_var, b_var).image_set()


class AtlasEntry(NamedTuple):
    """An event with its two-cell table, which computes the coefficients
    and classification once, and its amplitude: None when a squared
    coefficient exceeds one or the pair is compatible."""

    context: Event
    table: TwoCellTable
    state: StateVector | None


class ContextAtlas:
    """The contexts of one dichotomous pair, built once and read by every
    report; each part is built on first use.

    ``contexts`` None stands for every context of a's partition, built as
    (nonempty subset of A_1) | (nonempty subset of A_2), each subset
    carrying its masses in B_1 and B_2, in the (size, members) order of
    :func:`prob.contexts_of`; otherwise the atlas holds the given events in
    their order.  Every table shares the whole-space masses, summed once.
    """

    def __init__(
        self,
        space: FiniteProbabilitySpace,
        a_var: DichotomousVariable,
        b_var: DichotomousVariable,
        contexts: Sequence[Event] | None = None,
    ) -> None:
        self.space, self.a_var, self.b_var = space, a_var, b_var
        self.listed = None if contexts is None else tuple(contexts)

    @cached_property
    def omega(self) -> TwoCellTable:
        """The whole space as a context: both tables hold its masses."""
        a_cell, b_cell = self.a_var.assignment, self.b_var.assignment
        whole = mass_table(self.space, a_cell, b_cell, self.space.points)
        return TwoCellTable(local=whole, whole=whole)

    @cached_property
    def a_cells(self) -> tuple[Event, ...]:
        return self.a_var.partition(self.space).cells

    @cached_property
    def entries(self) -> tuple[AtlasEntry, ...]:
        whole = self.omega.whole
        a_cell, b_cell = self.a_var.assignment, self.b_var.assignment
        if self.listed is None:
            tables = self._enumerate(whole)
        else:
            tables = [
                (c, TwoCellTable.of(self.space, a_cell, b_cell, c, whole))
                for c in self.listed
            ]
        live = self.omega.incompatible
        return tuple(
            AtlasEntry(c, t, _amplitude(t) if live else None)
            for c, t in tables
        )

    def _enumerate(self, whole: Masses) -> list[tuple[Event, TwoCellTable]]:
        require_enumerable(self.space)
        masses, b_cell = self.space._masses, self.b_var.assignment
        halves = []
        for cell in self.a_cells:
            subsets: list[tuple[tuple[str, ...], tuple[int, int]]] = [((), (0, 0))]
            for p in cell.members:
                n, first = masses[p], b_cell[p] == 1
                subsets += [
                    (members + (p,), (b1 + n, b2) if first else (b1, b2 + n))
                    for members, (b1, b2) in subsets
                ]
            halves.append(subsets[1:])
        found = sorted(
            (tuple(sorted(s + t)), (m, n))
            for s, m in halves[0]
            for t, n in halves[1]
        )
        found.sort(key=lambda item: len(item[0]))
        return [(Event(c), TwoCellTable(local, whole)) for c, local in found]

    @property
    def contexts(self) -> tuple[Event, ...]:
        return tuple(e.context for e in self.entries)

    @cached_property
    def mappable(self) -> tuple[AtlasEntry, ...]:
        """The entries with an amplitude."""
        if not self.omega.incompatible:
            raise ValueError("context enumeration requires an incompatible pair")
        return tuple(e for e in self.entries if e.state is not None)

    def amplitudes(self) -> tuple[StateVector, ...]:
        """Every entry's amplitude; raises as :func:`amplitude` does."""
        entries = self.entries
        if not self.omega.incompatible:
            raise ValueError("amplitudes require an incompatible variable pair")
        for e in entries:
            if e.state is None:
                raise NotTrigonometricError(
                    f"{e.context.label()} carries a coefficient beyond the "
                    "trigonometric range"
                )
        return tuple(e.state for e in entries)

    @property
    def transition(self) -> TransitionMatrix:
        a_values, b_values = self.a_var.values, self.b_var.values
        return TransitionMatrix(a_values, b_values, self.omega.b_given_a)

    @cached_property
    def basis(self) -> BasisPair:
        """The a-basis of the represented states: phase-stripped when the
        transition matrix is doubly stochastic."""
        build = a_basis if is_double_stochastic(self.transition) else context_basis
        return build(self.space, self.a_var, self.b_var)

    @cached_property
    def represented(self) -> tuple[AtlasEntry, ...]:
        """The mappable entries plus the two a-cells, which carry the a-basis
        vectors and their masses (a cell is no context: its table's
        coefficients are undefined), sorted by (size, members)."""
        whole, none = self.omega.whole, (0, 0)
        cells = [
            AtlasEntry(cell, TwoCellTable(local, whole), vector)
            for (cell, vector), local in zip(
                extend_to_cells(self.space, self.a_var, self.basis).items(),
                ((whole[0], none), (none, whole[1])),
            )
        ]
        ordered = sorted(
            [*self.mappable, *cells],
            key=lambda e: (len(e.context.members), e.context.members),
        )
        return tuple(ordered)

    def represented_states(self) -> tuple[tuple[Event, StateVector], ...]:
        return tuple((e.context, e.state) for e in self.represented)

    def image_set(self) -> ImageSet:
        entries = self.represented_states()
        groups = group_states([state for _, state in entries])
        return ImageSet(
            entries=entries,
            groups=tuple(tuple(entries[i][0] for i in group) for group in groups),
        )

    def phase_gap_profile(
        self, eps1: int, eps2: int
    ) -> tuple[tuple[Event, float], ...]:
        return tuple((e.context, _gap(e.table, eps1, eps2)) for e in self.mappable)

    def nonsensitive_contexts(self) -> tuple[Event, ...]:
        quiet = (e for e in self.entries if e.table.delta(0) == e.table.delta(1) == 0)
        return tuple(e.context for e in quiet)

    def born_rows(self, basis: BasisPair) -> tuple[BornRow, ...]:
        """Squared projections of every mappable amplitude onto ``basis``,
        against the exact P(a_j|C)."""
        return tuple(
            BornRow(e.context, a_j, abs(e.state.inner(v)) ** 2, e.table.a_given_c[j])
            for e in self.mappable
            for j, (a_j, v) in enumerate(zip(self.a_var.values, basis.e_a))
        )


@dataclass(frozen=True)
class DualCoordinates:
    """Expansion of a state in the b-basis and in a given a-basis.

    In the doubly stochastic case the a-coordinates coincide with ordinary
    projections; otherwise they realise the fallback representation in which
    each variable carries its own scalar product, and the squared moduli still
    return the conditional probabilities of a.
    """

    b_coords: tuple[complex, complex]
    a_coords: tuple[complex, complex]
    b_probs: tuple[float, float]
    a_probs: tuple[float, float]
    mean_a: float
    mean_b: float


def dual_inner_products(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    state: StateVector,
    basis: BasisPair,
) -> DualCoordinates:
    e1, e2 = basis.e_a
    det = (
        e1.components[0] * e2.components[1]
        - e2.components[0] * e1.components[1]
    )
    if abs(det) < 1e-12:
        raise SingularBasisError("the a-basis vectors are linearly dependent")
    phi0, phi1 = state.components
    v0 = (phi0 * e2.components[1] - e2.components[0] * phi1) / det
    v1 = (e1.components[0] * phi1 - phi0 * e1.components[1]) / det
    b_probs = state.probabilities()
    a_probs = (abs(v0) ** 2, abs(v1) ** 2)
    mean_b = sum(float(v) * p for v, p in zip(b_var.values, b_probs))
    mean_a = sum(float(v) * p for v, p in zip(a_var.values, a_probs))
    return DualCoordinates(
        b_coords=state.components,
        a_coords=(v0, v1),
        b_probs=b_probs,
        a_probs=a_probs,
        mean_a=mean_a,
        mean_b=mean_b,
    )


def cell_duality_check(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
) -> bool:
    """With a doubly stochastic forward matrix, the b-cells admit amplitudes
    exactly when the reverse matrix is doubly stochastic as well.

    Returns True when that biconditional holds on this model and the closed
    form -(m_1 + m_2) / (2 sqrt(m_1 m_2)), m_n = P(A_n|C) P(B_other|A_n),
    reproduces the directly computed coefficient of the opposite cell; both
    are compared exactly, as sign and square.
    """
    if not is_double_stochastic(transition_matrix(space, a_var, b_var)):
        raise NotDoubleStochasticError(
            "the duality check presumes a doubly stochastic forward matrix"
        )
    a_part = a_var.partition(space)
    b_part = b_var.partition(space)
    reverse_ds = is_double_stochastic(transition_matrix(space, b_var, a_var))
    cells_mappable = True
    closed_form_ok = True
    for i, b_cell in enumerate(b_part.cells):
        table = TwoCellTable.of(space, a_var.assignment, b_var.assignment, b_cell)
        if not table.mappable:
            cells_mappable = False
        other = 1 - i
        m = [table.a_given_c[n] * table.b_given_a[n][other] for n in range(2)]
        direct = lambda_coefficient(space, b_part.cells[other], a_part, b_cell)
        squared = (m[0] + m[1]) ** 2 / (4 * m[0] * m[1])
        if direct.sign != -1 or direct.squared != squared:
            closed_form_ok = False
    return closed_form_ok and (cells_mappable == reverse_ds)
