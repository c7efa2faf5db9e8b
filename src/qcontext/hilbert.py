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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    NotDoubleStochasticError,
    NotTrigonometricError,
    SingularBasisError,
)
from .interference import TwoCellTable, lambda_coefficient
from .prob import (
    DichotomousVariable,
    Event,
    FiniteProbabilitySpace,
    conditional,
    contexts_of,
    variables_incompatible,
)

STATE_TOL = 1e-12


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
class SignConvention:
    """Phase-sign choices for the two b-values.

    The signs must be opposite: with equal signs the sign-weighted phase gap
    varies from context to context and no context-independent a-basis exists
    (see :func:`phase_gap_profile` for the demonstration).
    """

    eps1: int = -1
    eps2: int = +1

    def __post_init__(self) -> None:
        if self.eps1 not in (-1, 1) or self.eps2 not in (-1, 1):
            raise ValueError("signs must be +1 or -1")
        if self.eps1 != -self.eps2:
            raise ValueError("the two signs must be opposite")

    def eps(self, outcome_index: int) -> int:
        return self.eps1 if outcome_index == 0 else self.eps2


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


def phase_normalized(state: StateVector, tol: float = 1e-14) -> StateVector:
    """Rotate a global phase so the first non-negligible component is real
    and positive; states equal up to phase normalise identically."""
    for z in state.components:
        if abs(z) > tol:
            factor = z.conjugate() / abs(z)
            return StateVector(tuple(factor * w for w in state.components))
    return state


def states_close(
    x: StateVector,
    y: StateVector,
    tol: float = STATE_TOL,
    up_to_phase: bool = True,
) -> bool:
    a, b = (phase_normalized(x), phase_normalized(y)) if up_to_phase else (x, y)
    return all(
        abs(za - zb) <= tol for za, zb in zip(a.components, b.components)
    )


def _phases(table: TwoCellTable, failure: str) -> tuple[float, float]:
    """Both phases of a context with no squared coefficient above one."""
    coeffs = table.coefficients()
    if any(k.squared > 1 for k in coeffs):
        raise NotTrigonometricError(failure)
    return (coeffs[0].phase, coeffs[1].phase)


def mappable_contexts(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
) -> tuple[Event, ...]:
    """Contexts whose squared coefficients never exceed one (trigonometric,
    boundary included); exactly these receive amplitudes."""
    if not variables_incompatible(space, a_var, b_var):
        raise ValueError("context enumeration requires an incompatible pair")
    return tuple(
        c
        for c in contexts_of(space, a_var.partition(space))
        if TwoCellTable.of(space, a_var.assignment, b_var.assignment, c).mappable
    )


def amplitude(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    c: Event,
    signs: SignConvention = SignConvention(),
) -> StateVector:
    """Amplitude of a trigonometric (or boundary) context.

    Raises :class:`NotTrigonometricError` when some squared coefficient
    exceeds one, and :class:`NotAContextError` when conditioning is undefined.
    """
    table = TwoCellTable.of(space, a_var.assignment, b_var.assignment, c)
    if not table.incompatible:
        raise ValueError("amplitudes require an incompatible variable pair")
    theta = _phases(
        table, f"{c.label()} carries a coefficient beyond the trigonometric range"
    )
    pa, trans = table.a_given_c, table.b_given_a
    components = []
    for j in range(2):
        first = math.sqrt(float(pa[0] * trans[0][j]))
        second = math.sqrt(float(pa[1] * trans[1][j]))
        components.append(
            first + cmath.exp(1j * signs.eps(j) * theta[j]) * second
        )
    return StateVector(tuple(components))


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
    signs: SignConvention = SignConvention(),
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
            cmath.exp(1j * signs.eps1 * theta[0]) * u[1][0],
            cmath.exp(1j * signs.eps2 * theta[1]) * u[1][1],
        )
    )
    return BasisPair(e_a=(e1, e2))


def a_basis(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    reference_context: Event | None = None,
    signs: SignConvention = SignConvention(),
) -> BasisPair:
    """Phase-stripped real orthonormal a-basis (q1, q2), (-q2, q1).

    Requires an exactly doubly stochastic transition matrix, in which case
    the reference phases contribute only a per-vector global factor; the
    stripped factor is recorded for reproducibility.
    """
    c0 = reference_context if reference_context is not None else space.omega()
    table = TwoCellTable.of(space, a_var.assignment, b_var.assignment, c0)
    trans = TransitionMatrix(a_var.values, b_var.values, table.b_given_a)
    if not is_double_stochastic(trans):
        raise NotDoubleStochasticError(
            "a context-independent orthonormal a-basis needs a doubly "
            "stochastic transition matrix"
        )
    raw = context_basis(space, a_var, b_var, reference_context, signs)
    stripped = cmath.exp(1j * signs.eps2 * table.coefficient(1).phase)
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


def basis_is_orthonormal(basis: BasisPair, tol: float = STATE_TOL) -> bool:
    gram = gram_matrix(basis)
    return all(
        abs(gram[i][j] - (1.0 if i == j else 0.0)) <= tol
        for i in range(2)
        for j in range(2)
    )


def unitarity_check(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    reference_context: Event | None = None,
    signs: SignConvention = SignConvention(),
    tol: float = STATE_TOL,
) -> tuple[bool, bool]:
    """(basis change is unitary within tol, transition matrix is exactly
    doubly stochastic); the two agree for every incompatible pair."""
    basis = context_basis(space, a_var, b_var, reference_context, signs)
    unitary = basis_is_orthonormal(basis, tol)
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
    reference_context: Event | None = None,
    signs: SignConvention = SignConvention(),
) -> tuple[BornRow, ...]:
    """Squared projections onto the a-basis of one fixed reference context,
    compared against the direct conditional probabilities of a.

    The rows agree within tolerance exactly when the transition matrix is
    doubly stochastic; failures are reported, never raised.
    """
    basis = context_basis(space, a_var, b_var, reference_context, signs)
    a_cells = a_var.partition(space).cells
    targets = (
        tuple(contexts)
        if contexts is not None
        else mappable_contexts(space, a_var, b_var)
    )
    rows = []
    for c in targets:
        state = amplitude(space, a_var, b_var, c, signs)
        for j, e in enumerate(basis.e_a):
            rows.append(
                BornRow(
                    context=c,
                    value=a_var.values[j],
                    projected=abs(state.inner(e)) ** 2,
                    expected=conditional(space, a_cells[j], c),
                )
            )
    return tuple(rows)


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
    demonstrated; :class:`SignConvention` itself rejects equal signs.
    """
    theta = _phases(
        TwoCellTable.of(space, a_var.assignment, b_var.assignment, c),
        "phase gap needs a trigonometric context",
    )
    gap = eps1 * theta[0] - eps2 * theta[1]
    return gap % (2.0 * math.pi)


def phase_gap_profile(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    eps1: int,
    eps2: int,
) -> tuple[tuple[Event, float], ...]:
    return tuple(
        (c, phase_gap(space, a_var, b_var, c, eps1, eps2))
        for c in mappable_contexts(space, a_var, b_var)
    )


def phase_gap_constancy_check(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    signs: SignConvention = SignConvention(),
    tol: float = STATE_TOL,
) -> tuple[bool, tuple[tuple[Event, float], ...]]:
    """With opposite signs and a doubly stochastic matrix the gap is pi
    (mod 2 pi) on every mappable context; returns (all within tol, profile)."""
    profile = phase_gap_profile(space, a_var, b_var, signs.eps1, signs.eps2)
    ok = all(abs(gap - math.pi) <= tol for _, gap in profile)
    return ok, profile


def nonsensitive_contexts(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
) -> tuple[Event, ...]:
    """Contexts with exactly zero disturbance for every outcome; the whole
    space always qualifies.  Their phases are right angles and the second
    amplitude term is purely imaginary."""
    found = []
    for c in contexts_of(space, a_var.partition(space)):
        table = TwoCellTable.of(space, a_var.assignment, b_var.assignment, c)
        if table.delta(0) == table.delta(1) == 0:
            found.append(c)
    return tuple(found)


@dataclass(frozen=True)
class ImageSet:
    """Image of the representation over contexts plus the two a-cells.

    ``entries`` holds (event, state) pairs sorted by event; ``groups`` the
    partition of events into classes with equal states up to global phase;
    ``collisions`` only those classes with at least two members.
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
    signs: SignConvention = SignConvention(),
) -> tuple[tuple[Event, StateVector], ...]:
    """(event, state) pairs for every mappable context plus the two a-cells."""
    trans = transition_matrix(space, a_var, b_var)
    if is_double_stochastic(trans):
        basis = a_basis(space, a_var, b_var, signs=signs)
    else:
        basis = context_basis(space, a_var, b_var, signs=signs)
    pairs = [
        (c, amplitude(space, a_var, b_var, c, signs))
        for c in mappable_contexts(space, a_var, b_var)
    ]
    pairs.extend(extend_to_cells(space, a_var, basis).items())
    pairs.sort(key=lambda item: (len(item[0].members), item[0].members))
    return tuple(pairs)


def image_set(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    signs: SignConvention = SignConvention(),
) -> ImageSet:
    entries = represented_states(space, a_var, b_var, signs)
    groups: list[list[int]] = []
    for idx, (_, state) in enumerate(entries):
        for group in groups:
            if states_close(entries[group[0]][1], state):
                group.append(idx)
                break
        else:
            groups.append([idx])
    return ImageSet(
        entries=entries,
        groups=tuple(tuple(entries[i][0] for i in group) for group in groups),
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
