"""Complex amplitudes for trigonometric contexts and the two-basis geometry.

A trigonometric context C of an incompatible dichotomous pair (a, b) is sent
to the two-component amplitude

    phi_C(x) = sqrt(P(a=a1|C) p(x|a1)) + exp(i eps(x) theta_C(x))
               * sqrt(P(a=a2|C) p(x|a2)),

indexed by the two values x of b, so that |phi_C(x)|^2 = P(b=x|C) (Born rule
in the b-basis).  When the transition matrix p(x|y) is doubly stochastic --
and only then -- a single context-independent orthonormal a-basis exists and
Born's rule holds in both bases; otherwise each variable needs its own
coordinate expansion (see :func:`dual_inner_products`).  The phase signs
eps(b_1), eps(b_2) are :data:`SIGNS` = (-1, +1) and states are compared
within :data:`STATE_TOL` = 1e-12 per component; neither is an option.

:class:`ContextAtlas` is the layer every report reads: for one pair it sums
the whole-space 2x2 masses once and gives each context its two-cell table
and amplitude, one per distinct local masses (:meth:`ContextAtlas.per_table`).
The table decides in integers whether a context has an amplitude.  With
r_i, R_i and W_ij the masses of A_i & C, A_i and A_i & B_j, and M that of C,
each phase theta_j and each modulus sqrt(r_i W_ij / (M R_i)) comes from one
correctly rounded integer division, so building the amplitudes builds no
Fraction.  The transition matrix and the a-basis are read off the
whole-space masses.  The atlas is the one way to each quantity of the pair,
and an entry's table to each quantity of its context (:func:`context_basis`
and :func:`phase_gap` take a table); the functions of a space and a pair at
the end are views kept for ``perfbench``.  :mod:`verify` holds the checks.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .errors import NotAContextError, NotTrigonometricError, SingularBasisError
from .interference import Masses, TwoCellTable, mass_table
from .prob import (
    DichotomousVariable,
    Event,
    FiniteProbabilitySpace,
    require_enumerable,
)
from .record import Record, derived

STATE_TOL = 1e-12
T = TypeVar("T")

# eps(b_1), eps(b_2), the phase signs of the two b-values.  They must be
# opposite: with equal signs the sign-weighted phase gap varies from context
# to context and no context-independent a-basis exists (phase_gap_profile
# with raw signs shows the drift).
SIGNS = (-1, +1)


class TransitionMatrix(Record):
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


def is_double_stochastic(matrix: TransitionMatrix) -> bool:
    """Exact column-sum test; rows are stochastic by construction."""
    return all(
        matrix.entries[0][j] + matrix.entries[1][j] == 1 for j in range(2)
    )


class StateVector(Record):
    """A two-component complex amplitude indexed by the b-values."""

    components: tuple[complex, complex]

    def __init__(self, components: tuple[complex, complex]) -> None:
        self.__dict__["components"] = components

    def inner(self, other: "StateVector") -> complex:
        return sum(
            z * w.conjugate() for z, w in zip(self.components, other.components)
        )

    def probabilities(self) -> tuple[float, float]:
        return tuple(abs(z) ** 2 for z in self.components)

    def _jsonable(self) -> tuple[complex, complex]:
        """A report writes a state as its components."""
        return self.components


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
    if not table.mappable:
        raise NotTrigonometricError(failure)
    return table.phases


def _amplitude(table: TwoCellTable) -> StateVector | None:
    """phi(x_j) = sqrt(r_0 W_0j / (M R_0))
                  + exp(i eps_j theta_j) sqrt(r_1 W_1j / (M R_1)),
    or None when a squared coefficient exceeds one.  Each quotient is one
    correctly rounded integer division, the float of that Fraction."""
    if not table.mappable:
        return None
    theta = table.phases
    (r0, r1), ((W00, W01), (W10, W11)) = map(sum, table.local), table.whole
    M0, M1 = (r0 + r1) * (W00 + W01), (r0 + r1) * (W10 + W11)
    return StateVector(
        (
            math.sqrt(r0 * W00 / M0)
            + cmath.exp(1j * SIGNS[0] * theta[0]) * math.sqrt(r1 * W10 / M1),
            math.sqrt(r0 * W01 / M0)
            + cmath.exp(1j * SIGNS[1] * theta[1]) * math.sqrt(r1 * W11 / M1),
        )
    )


def _mapped(c: Event, state: StateVector | None) -> StateVector:
    """``state``, the amplitude of ``c``, which is None where a squared
    coefficient exceeds one: then raises :class:`NotTrigonometricError`."""
    if state is None:
        raise NotTrigonometricError(
            f"{c.label()} carries a coefficient beyond the trigonometric range"
        )
    return state


class BasisPair(Record):
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


def context_basis(table: TwoCellTable) -> BasisPair:
    """a-basis read off from the amplitude of the reference context of
    ``table``: an atlas entry's table, or the atlas's ``omega`` (whole space).

    e_1 = (u11, u12) and e_2 = (exp(i eps1 theta1) u21, exp(i eps2 theta2)
    u22), with u_ij the square roots of the transition probabilities and the
    phases taken from the reference context.  Defined for any incompatible
    pair; orthonormal exactly in the doubly stochastic case.
    """
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


def phase_gap(table: TwoCellTable, eps1: int, eps2: int) -> float:
    """Sign-weighted phase gap eps1*theta(b1) - eps2*theta(b2) of the
    context whose table is ``table``, reduced modulo 2 pi into [0, 2 pi).

    Takes raw signs so that the drift under an equal-sign choice can be
    demonstrated; amplitudes always use the opposite :data:`SIGNS`.
    """
    theta = _phases(table, "phase gap needs a trigonometric context")
    return (eps1 * theta[0] - eps2 * theta[1]) % (2.0 * math.pi)


class ImageSet(Record):
    """Image of the representation over contexts plus the two a-cells:
    ``entries`` holds (event, state) pairs sorted by event, ``groups`` the
    classes of equal states up to global phase formed by
    :func:`group_states`, ``collisions`` those with at least two members."""

    entries: tuple[tuple[Event, StateVector], ...]
    groups: tuple[tuple[Event, ...], ...]

    @property
    def distinct_count(self) -> int:
        return len(self.groups)

    @property
    def collisions(self) -> tuple[tuple[Event, ...], ...]:
        return tuple(g for g in self.groups if len(g) > 1)


def group_states(states: Sequence[StateVector]) -> tuple[tuple[int, ...], ...]:
    """Indices of ``states`` grouped by equality up to global phase.

    A state joins the earliest-created group whose first member lies within
    ``STATE_TOL`` of it, per component, after phase normalisation; otherwise
    it starts a new group.  Leaders are indexed by floor(Re(n0) / (4
    STATE_TOL)), n0 the first normalised component; as |Re z - Re w| <=
    |z - w|, only that key and its two neighbours are searched, and the
    margin in the width absorbs the rounding of the quotient.  A state
    object seen before joins its first occurrence's group uncompared, as the
    rule would have it: older groups failed the same comparisons, and a
    state with finite normalised components (an atlas amplitude is at most
    2 in modulus) is close to itself, unlike one with a NaN.
    """
    width = 4 * STATE_TOL
    leaders: list[StateVector] = []
    groups: list[list[int]] = []
    by_key: dict[int, list[int]] = {}
    seen: dict[int, int] = {}
    for idx, state in enumerate(states):
        g = seen.get(id(state))
        if g is not None:
            groups[g].append(idx)
            continue
        norm = phase_normalized(state)
        key = math.floor(norm.components[0].real / width)
        near = sorted(g for k in (key - 1, key, key + 1) for g in by_key.get(k, ()))
        for g in near:
            if states_close(leaders[g], norm, up_to_phase=False):
                groups[g].append(idx)
                break
        else:
            g = len(groups)
            by_key.setdefault(key, []).append(g)
            leaders.append(norm)
            groups.append([idx])
        if all(map(cmath.isfinite, norm.components)):
            seen[id(state)] = g
    return tuple(tuple(group) for group in groups)


class AtlasEntry(NamedTuple):
    """An event with its two-cell table, which computes the coefficients
    and classification once, and its amplitude: None when a squared
    coefficient exceeds one or the pair is compatible.  Entries of one atlas
    with equal local masses hold the same table and amplitude objects."""

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
    their order.  Every table shares the whole-space masses, summed once;
    contexts with equal raw local masses share one table and amplitude.
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

    @derived
    def omega(self) -> TwoCellTable:
        """The whole space as a context: both tables hold its masses."""
        a_cell, b_cell = self.a_var.assignment, self.b_var.assignment
        whole = mass_table(self.space, a_cell, b_cell, self.space.points)
        return TwoCellTable(local=whole, whole=whole)

    @derived
    def reverse(self) -> "ContextAtlas":
        """The atlas of (b, a) over every context of b's partition; its
        whole-space masses are this atlas's transposed, not summed again."""
        whole = tuple(zip(*self.omega.whole))
        atlas = ContextAtlas(self.space, self.b_var, self.a_var)
        atlas.omega = TwoCellTable(local=whole, whole=whole)
        return atlas

    def over(self, events: Sequence[Event]) -> "ContextAtlas":
        """This pair's atlas over ``events``, with this whole-space table."""
        atlas = ContextAtlas(self.space, self.a_var, self.b_var, events)
        atlas.omega = self.omega
        return atlas

    @derived
    def over_b_cells(self) -> "ContextAtlas":
        """This pair's atlas over the two b-cells as contexts."""
        return self.over(self.reverse.a_cells)

    @derived
    def a_cells(self) -> tuple[Event, ...]:
        return self.a_var.partition(self.space).cells

    @derived
    def entries(self) -> tuple[AtlasEntry, ...]:
        whole = self.omega.whole
        a_cell, b_cell = self.a_var.assignment, self.b_var.assignment
        if self.listed is None:
            found = self._enumerate()
        else:
            found = [
                (c, TwoCellTable.of(self.space, a_cell, b_cell, c, whole).local)
                for c in self.listed
            ]
        live = self.omega.incompatible
        tables = {m: TwoCellTable(m, whole) for m in dict.fromkeys(m for _, m in found)}
        states = {m: _amplitude(t) if live else None for m, t in tables.items()}
        return tuple(AtlasEntry(c, tables[m], states[m]) for c, m in found)

    def _enumerate(self) -> list[tuple[Event, Masses]]:
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
        return [(Event(c), local) for c, local in found]

    @derived
    def mappable(self) -> tuple[AtlasEntry, ...]:
        """The entries with an amplitude: those whose squared coefficients
        never exceed one (trigonometric, boundary included)."""
        if not self.omega.incompatible:
            raise ValueError("context enumeration requires an incompatible pair")
        return tuple(e for e in self.entries if e.state is not None)

    def amplitudes(self) -> tuple[StateVector, ...]:
        """Every entry's amplitude.  Raises :class:`NotTrigonometricError`
        when some squared coefficient exceeds one."""
        entries = self.entries
        if not self.omega.incompatible:
            raise ValueError("amplitudes require an incompatible variable pair")
        return tuple(_mapped(e.context, e.state) for e in entries)

    @property
    def transition(self) -> TransitionMatrix:
        if not all(map(sum, self.omega.whole)):  # a takes one value on the space
            label = self.space.omega().label()
            raise NotAContextError(f"{label} is not a context for the variable pair")
        a_values, b_values = self.a_var.values, self.b_var.values
        return TransitionMatrix(a_values, b_values, self.omega.b_given_a)

    @derived
    def basis(self) -> BasisPair:
        """The a-basis of the represented states, :func:`context_basis` of
        the whole space: phase-stripped when the transition matrix is doubly
        stochastic.  Where a takes one value, reading that matrix first
        raises :class:`NotAContextError`."""
        trans, raw = self.transition, context_basis(self.omega)
        if not is_double_stochastic(trans):
            return raw
        stripped = cmath.exp(1j * SIGNS[1] * self.omega.phases[1])
        q1, q2 = (math.sqrt(float(p)) for p in trans.entries[0])
        e_a = (StateVector((q1 + 0j, q2 + 0j)), StateVector((-q2 + 0j, q1 + 0j)))
        # The raw second vector must agree with the stripped one up to the factor.
        expected = tuple(stripped * z for z in e_a[1].components)
        if any(abs(z - w) > 1e-9 for z, w in zip(raw.e_a[1].components, expected)):
            raise AssertionError("phase stripping produced an inconsistent basis")
        return BasisPair(e_a, stripped_phase=stripped)

    @derived
    def represented(self) -> tuple[AtlasEntry, ...]:
        """The mappable entries plus the two a-cells, which carry the a-basis
        vectors and their masses (a cell is no context: its table's
        coefficients are undefined), sorted by (size, members)."""
        ordered = list(self.mappable)  # raises for a compatible pair
        whole, none = self.omega.whole, (0, 0)
        locals_ = ((whole[0], none), (none, whole[1]))
        ordered += [
            AtlasEntry(cell, TwoCellTable(local, whole), vector)
            for cell, local, vector in zip(self.a_cells, locals_, self.basis.e_a)
        ]
        ordered.sort(key=lambda e: (len(e.context.members), e.context.members))
        return tuple(ordered)

    def image_set(self) -> ImageSet:
        entries = tuple((e.context, e.state) for e in self.represented)
        groups = group_states([state for _, state in entries])
        return ImageSet(
            entries=entries,
            groups=tuple(tuple(entries[i][0] for i in group) for group in groups),
        )

    def per_table(
        self,
        fn: Callable[[TwoCellTable, StateVector | None], T],
        entries: Iterable[AtlasEntry] | None = None,
    ) -> Iterator[tuple[AtlasEntry, T]]:
        """Yield (entry, fn(table, state)) for each of ``entries``, entries
        of this atlas and every entry by default, calling fn once per
        distinct table: entries with equal local masses share one table and
        one amplitude, so a value derived from the two alone is the same for
        all of them."""
        done: dict[Masses, T] = {}
        for e in self.entries if entries is None else entries:
            local = e.table.local
            if local not in done:
                done[local] = fn(e.table, e.state)
            yield e, done[local]

    def phase_gap_profile(
        self, eps1: int, eps2: int
    ) -> tuple[tuple[Event, float], ...]:
        return tuple(
            (e.context, phase_gap(e.table, eps1, eps2)) for e in self.mappable
        )

    def nonsensitive_contexts(self) -> tuple[Event, ...]:
        """Contexts with exactly zero disturbance for every outcome; the whole
        space always qualifies.  Their phases are right angles and the second
        amplitude term is purely imaginary."""
        return tuple(e.context for e in self.entries if e.table.nonsensitive)


class DualCoordinates(Record):
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


# Views of a space and a pair over an atlas built for the call.  No report
# reads them; they stay because perfbench traces them or, for
# transition_matrix, calls it.


def transition_matrix(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
) -> TransitionMatrix:
    return ContextAtlas(space, a_var, b_var).transition


def mappable_contexts(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
) -> tuple[Event, ...]:
    return tuple(e.context for e in ContextAtlas(space, a_var, b_var).mappable)


def amplitude(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    c: Event,
) -> StateVector:
    return ContextAtlas(space, a_var, b_var, (c,)).amplitudes()[0]


def phase_gap_profile(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    eps1: int,
    eps2: int,
) -> tuple[tuple[Event, float], ...]:
    return ContextAtlas(space, a_var, b_var).phase_gap_profile(eps1, eps2)


def nonsensitive_contexts(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
) -> tuple[Event, ...]:
    return ContextAtlas(space, a_var, b_var).nonsensitive_contexts()


def represented_states(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
) -> tuple[tuple[Event, StateVector], ...]:
    """(event, state) pairs for every mappable context plus the two a-cells."""
    represented = ContextAtlas(space, a_var, b_var).represented
    return tuple((e.context, e.state) for e in represented)


def image_set(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
) -> ImageSet:
    return ContextAtlas(space, a_var, b_var).image_set()
