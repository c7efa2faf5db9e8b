"""Statistical-disturbance decomposition of contextual total probability.

For an event B, a partition {A_n} and a context C, the gap between the direct
conditional probability P(B|C) and its classical total-probability expansion

    P(B|C) = sum_n P(A_n|C) P(B|A_n)  +  delta(B; C)

is the *disturbance* delta.  Normalising its share over each cell pair by
2 sqrt(P(A_n|C) P(B|A_n) P(A_m|C) P(B|A_m)) gives coefficients whose squares
classify the context: all below 1 trigonometric (cosine phases, amplitudes
exist), all above 1 hyperbolic, one equal to 1 boundary, otherwise mixed.

Everything is computed from the integer point masses of the space: with
R_n, r_n, W_n and l_n the masses of A_n, A_n & C, B & A_n and B & A_n & C,
M the mass of C and k the number of cells,

    delta                  = sum_n (l_n R_n - r_n W_n) / (M R_n),
    pairwise share (n, m)  = N / ((k - 1) M R_n R_m),
    squared coefficient    = N^2 / (4 (k - 1)^2 R_n R_m r_n r_m W_n W_m),
    N = (l_n R_n - r_n W_n) R_m + (l_m R_m - r_m W_m) R_n,

and the coefficient's sign is the sign of N.  Classification compares
integers; a coefficient's value and phase come from one correctly rounded
integer division, the float of the exact Fraction, and a Fraction is built
only where it is read.  :class:`TwoCellTable` does this for two cells.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    DegenerateRadicalError,
    FloatRangeError,
    NotAContextError,
    PartialAssignmentError,
)
from .prob import (
    DichotomousVariable,
    Event,
    FiniteProbabilitySpace,
    Partition,
    is_context,
)
from .record import Record, derived

Masses = tuple[tuple[int, int], tuple[int, int]]


class Classification(Enum):
    TRIGONOMETRIC = "trigonometric"
    BOUNDARY = "boundary"
    HYPERBOLIC = "hyperbolic"
    MIXED = "mixed"

    @classmethod
    def of(cls, squares: Sequence[tuple[int, int]]) -> "Classification":
        """Exact comparison with 1 of every squared coefficient, each given
        as the integers (n, d) of n / d, d > 0."""
        if all(n < d for n, d in squares):
            return cls.TRIGONOMETRIC
        if all(n > d for n, d in squares):
            return cls.HYPERBOLIC
        if any(n == d for n, d in squares):
            return cls.BOUNDARY
        return cls.MIXED


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _signed_root(sign: int, numerator: int, denominator: int) -> float:
    """sign * sqrt(numerator / denominator): one correctly rounded integer
    division, the float of that Fraction, which overflows where it does."""
    try:
        return sign * math.sqrt(numerator / denominator)
    except OverflowError as exc:
        raise FloatRangeError("squared coefficient beyond the float range") from exc


def _angle(trigonometric: bool, value: float) -> float:
    """The phase of a coefficient: arccos of its value, in [0, pi], in the
    trigonometric range, else arccosh of its magnitude."""
    if trigonometric:
        return math.acos(max(-1.0, min(1.0, value)))
    return math.acosh(max(1.0, abs(value)))


def _missed_cell(c: Event) -> NotAContextError:
    return NotAContextError(
        f"{c.label()} misses a cell of the partition and is not a context"
    )


def _require_context(
    space: FiniteProbabilitySpace, c: Event, partition: Partition
) -> None:
    if not is_context(space, c, partition):
        raise _missed_cell(c)


class _CellMasses:
    """The Event-level reference object for outcome B, partition {A_n} and
    context C: the integer masses behind every Event-level quantity, and
    those quantities built from them.  The public functions below are thin
    wrappers over one; ``verify`` builds one per context and outcome
    (:func:`outcome_masses_from`) and reads every per-context check from it.

    ``total`` is M, the mass of C, and ``cells[n]`` is (R_n, r_n, W_n, l_n),
    the masses of A_n, A_n & C, B & A_n and B & A_n & C.  :meth:`of` sums
    them over the points once; it validates every cell, so a foreign point
    in any cell raises :class:`ForeignPointError` whatever a formula reads."""

    def __init__(self, total: int, cells: Sequence[tuple[int, int, int, int]]) -> None:
        self.total, self.cells = total, tuple(cells)
        self._coefficients: dict[tuple[int, int], LambdaCoefficient] = {}

    @classmethod
    def of(
        cls,
        space: FiniteProbabilitySpace,
        b_outcome: Event,
        partition: Partition,
        c: Event,
    ) -> "_CellMasses":
        masses, b, inside = space._masses, set(b_outcome.members), set(c.members)
        cells = []
        for cell in partition.cells:
            space.validate_event(cell)
            whole = local = b_whole = b_local = 0
            for p in cell.members:
                mass = masses[p]
                whole += mass
                if p in inside:
                    local += mass
                if p in b:
                    b_whole += mass
                    if p in inside:
                        b_local += mass
            cells.append((whole, local, b_whole, b_local))
        return cls(sum(masses[p] for p in c.members), cells)

    def pairs(self) -> list[tuple[int, int]]:
        k = len(self.cells)
        return [(n, m) for n in range(k) for m in range(n + 1, k)]

    def over_cells(self, terms: Sequence[tuple[int, int]]) -> int:
        """sum_n x_n / (M R_n) for the pairs (x_n, R_n), times M prod_n R_n."""
        common = math.prod(R for _, R in terms)
        return sum(x * (common // R) for x, R in terms)

    def denominator(self) -> int:
        return self.total * math.prod(R for R, _, _, _ in self.cells)

    def expansion(self) -> Fraction:
        """sum_n P(A_n|C) P(B|A_n) = sum_n r_n W_n / (M R_n)."""
        numerator = self.over_cells([(r * W, R) for R, r, W, _ in self.cells])
        return Fraction(numerator, self.denominator())

    def delta(self) -> int:
        """sum_n P(A_n|C) (P(B|A_n & C) - P(B|A_n))
        = sum_n (l_n R_n - r_n W_n) / (M R_n), times :meth:`denominator`."""
        return self.over_cells([(l * R - r * W, R) for R, r, W, l in self.cells])

    def share(self, n: int, m: int) -> int:
        """N, the pairwise share (n, m) times (k - 1) M R_n R_m."""
        Rn, rn, Wn, ln = self.cells[n]
        Rm, rm, Wm, lm = self.cells[m]
        return (ln * Rn - rn * Wn) * Rm + (lm * Rm - rm * Wm) * Rn

    def coefficient(self, n: int, m: int) -> LambdaCoefficient:
        found = self._coefficients.get((n, m))
        if found is None:
            Rn, rn, Wn, _ = self.cells[n]
            Rm, rm, Wm, _ = self.cells[m]
            scale = (len(self.cells) - 1) ** 2 * Rn * Rm
            found = self._coefficients[n, m] = LambdaCoefficient.of(
                self.share(n, m), scale * rn * rm * Wn * Wm
            )
        return found

    def radicand(self, n: int, m: int) -> float:
        """P(A_n|C) P(B|A_n) P(A_m|C) P(B|A_m) = r_n W_n r_m W_m / (M^2 R_n R_m),
        as one correctly rounded division, which is the float of that Fraction."""
        Rn, rn, Wn, _ = self.cells[n]
        Rm, rm, Wm, _ = self.cells[m]
        return (rn * Wn * rm * Wm) / (self.total**2 * Rn * Rm)

    def reconstructed(self) -> float:
        """The interference form of total probability: the expansion plus
        each pair's interference term."""
        total = float(self.expansion())
        for n, m in self.pairs():
            total += _interference_term(self.coefficient(n, m), self.radicand(n, m))
        return total

    def cross_sum(self, total: float) -> float:
        """``total`` plus each pair's coefficient weighted by its radical."""
        for n, m in self.pairs():
            total += self.coefficient(n, m).value * math.sqrt(self.radicand(n, m))
        return total


def _masses(
    space: FiniteProbabilitySpace,
    b_outcome: Event,
    partition: Partition,
    c: Event,
    pair: tuple[int, int] | None = None,
) -> _CellMasses:
    """The reference object, once the context and the cell ``pair`` if
    given are checked."""
    _require_context(space, c, partition)
    if pair is not None:
        (n, m), k = pair, len(partition)
        if k < 2:
            raise ValueError("pairwise disturbance needs at least two cells")
        if not (0 <= n < k and 0 <= m < k and n != m):
            raise ValueError(f"invalid cell pair ({n}, {m}) for {k} cells")
    return _CellMasses.of(space, b_outcome, partition, c)


def outcome_masses(
    space: FiniteProbabilitySpace,
    a_partition: Partition,
    b_partition: Partition,
    c: Event,
) -> list[_CellMasses]:
    """One reference object per outcome cell of ``b_partition``; the
    context is checked once."""
    _require_context(space, c, a_partition)
    return [_CellMasses.of(space, cell, a_partition, c) for cell in b_partition.cells]


def outcome_masses_from(c: Event, local: Masses, whole: Masses) -> list[_CellMasses]:
    """The reference objects of :func:`outcome_masses` for a dichotomous
    pair, from the masses of ``c`` and of the whole space in the four cells
    A_i & B_j, however they were summed; raises :class:`NotAContextError`
    where ``c`` misses an a-cell."""
    rows, whole_rows = list(map(sum, local)), list(map(sum, whole))
    if not all(rows):
        raise _missed_cell(c)
    cells = list(zip(whole_rows, rows, whole, local))
    return [
        _CellMasses(sum(rows), [(R, r, W[j], l[j]) for R, r, W, l in cells])
        for j in range(2)
    ]


def classical_part(
    space: FiniteProbabilitySpace,
    b_outcome: Event,
    partition: Partition,
    c: Event,
) -> Fraction:
    """Classical total-probability expansion sum_n P(A_n|C) P(B|A_n)."""
    return _masses(space, b_outcome, partition, c).expansion()


def delta(
    space: FiniteProbabilitySpace,
    b_outcome: Event,
    partition: Partition,
    c: Event,
) -> Fraction:
    """Exact disturbance of ``b_outcome`` by the partition in context ``c``:
    sum_n P(A_n|C) (P(B|A_n & C) - P(B|A_n))."""
    masses = _masses(space, b_outcome, partition, c)
    space.validate_event(b_outcome)
    return Fraction(masses.delta(), masses.denominator())


def pairwise_delta(
    space: FiniteProbabilitySpace,
    b_outcome: Event,
    partition: Partition,
    c: Event,
    n: int,
    m: int,
) -> Fraction:
    """Share of the disturbance carried by the 0-based cell pair ``(n, m)``;
    the shares of all pairs n < m sum to :func:`delta` exactly, as each cell
    term is divided by (k - 1), the number of pairs a cell is in."""
    masses = _masses(space, b_outcome, partition, c, (n, m))
    scale = (len(partition) - 1) * masses.total * masses.cells[n][0]
    return Fraction(masses.share(n, m), scale * masses.cells[m][0])


class LambdaCoefficient(Record):
    """A normalised disturbance share, kept exact as (squared value, sign).

    ``value``, ``phase`` and ``classification`` are computed on first read
    and kept; they are no fields, so equality, hashing, ``repr`` and the
    report form see only the exact pair.  A value beyond the float range
    raises on every read."""

    squared: Fraction
    sign: int

    def __init__(self, squared: Fraction, sign: int) -> None:
        self.__dict__.update(squared=squared, sign=sign)

    @classmethod
    def of(cls, share: Fraction | int, radicand: Fraction | int) -> "LambdaCoefficient":
        """``share`` divided by twice the square root of ``radicand``; both
        may be integers, as scaling them by s > 0 and s^2 changes nothing."""
        if radicand == 0:
            raise DegenerateRadicalError(
                "a factor under the normalising radical vanishes"
            )
        return cls(squared=Fraction(share * share, 4 * radicand), sign=_sign(share))

    @derived
    def value(self) -> float:
        squared = self.squared
        return _signed_root(self.sign, squared.numerator, squared.denominator)

    @derived
    def classification(self) -> Classification:
        return Classification.of([(self.squared.numerator, self.squared.denominator)])

    @derived
    def phase(self) -> float:
        """Trigonometric/boundary: arccos of the value, in [0, pi].
        Hyperbolic: arccosh of the magnitude (sign carried separately)."""
        return _angle(self.squared <= 1, self.value)


def lambda_coefficient(
    space: FiniteProbabilitySpace,
    b_outcome: Event,
    partition: Partition,
    c: Event,
    n: int = 0,
    m: int = 1,
) -> LambdaCoefficient:
    """Disturbance share of cells ``(n, m)`` divided by twice the geometric
    mean of the four conditional probabilities under the radical."""
    return _masses(space, b_outcome, partition, c, (n, m)).coefficient(n, m)


def mass_table(
    space: FiniteProbabilitySpace,
    a_cell: Mapping[str, int],
    b_cell: Mapping[str, int],
    points: Sequence[str],
) -> Masses:
    """Integer masses of ``points`` in each cell A_i & B_j, 0-based."""
    masses = space._masses
    table = [[0, 0], [0, 0]]
    try:
        for p in points:
            table[a_cell[p] - 1][b_cell[p] - 1] += masses[p]
    except KeyError as exc:
        raise PartialAssignmentError(f"point {exc} lies in no cell") from exc
    return (tuple(table[0]), tuple(table[1]))


class TwoCellTable(Record):
    """One context C of a dichotomous pair (A, B), 0-based, as integer masses
    over the space's common denominator: ``local[i][j]`` is l_ij, the mass
    of A_i & B_j & C, and ``whole[i][j]`` is W_ij, that of A_i & B_j.

    With row sums r_i and R_i and M = r_0 + r_1, each outcome j has one
    integer kernel, the share N_j and the radicand D_j:

        delta_j    = N_j / (M R_0 R_1),
        lambda_j^2 = N_j^2 / D_j,   D_j = 4 R_0 R_1 r_0 r_1 W_0j W_1j,
        N_j = (l_0j + l_1j) R_0 R_1 - r_0 W_0j R_1 - r_1 W_1j R_0,

    and the sign of lambda_j is the sign of N_j.  ``mappable`` (no
    N_j^2 > D_j), ``classification`` and ``nonsensitive`` (N_0 = N_1 = 0)
    compare integers; :attr:`phases` takes each value sign sqrt(N_j^2 / D_j)
    from one integer division, bit for bit as :class:`LambdaCoefficient`
    does.  The Fractions are built when read: :meth:`delta` on each read,
    :meth:`coefficient`, P(A_i|C), P(B_j|C), P(B_j|A_i) once.  A reader of
    outcome j raises :class:`DegenerateRadicalError` exactly where D_j = 0.
    An atlas computes all of this once per distinct table.
    """

    local: Masses
    whole: Masses

    def __init__(self, local: Masses, whole: Masses) -> None:
        self.__dict__.update(local=local, whole=whole)

    @classmethod
    def of(
        cls,
        space: FiniteProbabilitySpace,
        a_cell: Mapping[str, int],
        b_cell: Mapping[str, int],
        c: Event,
        whole: Masses | None = None,
    ) -> "TwoCellTable":
        """From each point's 1-based cell index under A and under B, shaped
        like :attr:`DichotomousVariable.assignment`; ``whole`` passes the
        whole-space masses when they are already summed."""
        space.validate_event(c)
        if whole is None:
            whole = mass_table(space, a_cell, b_cell, space.points)
        local = mass_table(space, a_cell, b_cell, c.members)
        if not all(map(sum, local)):
            raise NotAContextError(
                f"{c.label()} is not a context for the variable pair"
            )
        return cls(local=local, whole=whole)

    @derived
    def a_given_c(self) -> tuple[Fraction, Fraction]:
        r0, r1 = map(sum, self.local)
        return (Fraction(r0, r0 + r1), Fraction(r1, r0 + r1))

    @derived
    def b_given_c(self) -> tuple[Fraction, Fraction]:
        (l00, l01), (l10, l11) = self.local
        total = l00 + l01 + l10 + l11
        return (Fraction(l00 + l10, total), Fraction(l01 + l11, total))

    @derived
    def b_given_a(
        self,
    ) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        return tuple(
            (Fraction(w0, w0 + w1), Fraction(w1, w0 + w1)) for w0, w1 in self.whole
        )

    @derived
    def _radicals(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """(N_j, D_j) for j = 0, 1, with D_j = 4 R_0 R_1 r_0 r_1 W_0j W_1j the
        denominator of lambda_j^2 = N_j^2 / D_j."""
        (l00, l01), (l10, l11) = self.local
        (W00, W01), (W10, W11) = self.whole
        r0, r1, R0, R1 = l00 + l01, l10 + l11, W00 + W01, W10 + W11
        R = R0 * R1
        scale = 4 * R * r0 * r1
        return (
            ((l00 + l10) * R - r0 * W00 * R1 - r1 * W10 * R0, scale * W00 * W10),
            ((l01 + l11) * R - r0 * W01 * R1 - r1 * W11 * R0, scale * W01 * W11),
        )

    def _radical(self, j: int) -> tuple[int, int]:
        """(N_j, D_j); raises :class:`DegenerateRadicalError` where D_j = 0."""
        found = self._radicals[j]
        if not found[1]:
            raise DegenerateRadicalError(
                "a factor under the normalising radical vanishes"
            )
        return found

    def _share(self, j: int) -> int:
        """N_j, the disturbance delta_j times M R_0 R_1."""
        return self._radicals[j][0]

    def delta(self, j: int) -> Fraction:
        R0, R1 = map(sum, self.whole)
        total = sum(map(sum, self.local))
        return Fraction(self._share(j), total * R0 * R1)

    @derived
    def _pair(self) -> tuple[LambdaCoefficient | None, LambdaCoefficient | None]:
        """Both coefficients, None where the radicand vanishes."""
        return tuple(
            LambdaCoefficient(Fraction(N * N, D), _sign(N)) if D else None
            for N, D in self._radicals
        )

    def coefficient(self, j: int) -> LambdaCoefficient:
        self._radical(j)  # raises where the radicand vanishes
        return self._pair[j]

    def coefficients(self) -> tuple[LambdaCoefficient, LambdaCoefficient]:
        return (self.coefficient(0), self.coefficient(1))

    @derived
    def phases(self) -> tuple[float, float]:
        """theta_0 and theta_1, each :attr:`LambdaCoefficient.phase` of the
        coefficient, taken from one integer division of N_j^2 by D_j."""
        (N0, D0), (N1, D1) = self._radical(0), self._radical(1)
        return (
            _angle(N0 * N0 <= D0, _signed_root(_sign(N0), N0 * N0, D0)),
            _angle(N1 * N1 <= D1, _signed_root(_sign(N1), N1 * N1, D1)),
        )

    def reconstructed(self, j: int) -> float:
        """P(B_j|C) rebuilt as the expansion sum_i P(A_i|C) P(B_j|A_i) plus
        the interference term of lambda_j, each quotient one integer division:
        bit for bit :func:`reconstruct_total_probability`."""
        r0, r1 = map(sum, self.local)
        R0, R1 = map(sum, self.whole)
        W0, W1 = self.whole[0][j], self.whole[1][j]
        total = r0 + r1
        expansion = (r0 * W0 * R1 + r1 * W1 * R0) / (total * R0 * R1)
        radicand = (r0 * W0 * r1 * W1) / (total**2 * R0 * R1)
        return expansion + _interference_term(self.coefficient(j), radicand)

    @property
    def incompatible(self) -> bool:
        """Every cell intersection A_i & B_j carries positive probability."""
        return all(w > 0 for row in self.whole for w in row)

    @derived
    def mappable(self) -> bool:
        """No squared coefficient exceeds one: the context has an amplitude."""
        (N0, D0), (N1, D1) = self._radical(0), self._radical(1)
        return N0 * N0 <= D0 and N1 * N1 <= D1

    @derived
    def classification(self) -> Classification:
        return Classification.of([(N * N, D) for N, D in map(self._radical, (0, 1))])

    @property
    def nonsensitive(self) -> bool:
        """Both disturbances vanish: N_0 = N_1 = 0."""
        return not any(N for N, _ in self._radicals)


def classify(
    space: FiniteProbabilitySpace,
    a_partition: Partition,
    b_partition: Partition,
    c: Event,
) -> Classification:
    """Classify a context against a dichotomous pair by exact comparison of
    every squared coefficient with 1."""
    if len(a_partition) != 2 or len(b_partition) != 2:
        raise ValueError("classification is defined for dichotomous pairs only")
    a_cell, b_cell = (
        {p: n for n, cell in enumerate(part.cells, 1) for p in cell.members}
        for part in (a_partition, b_partition)
    )
    return TwoCellTable.of(space, a_cell, b_cell, c).classification


def _interference_term(coeff: LambdaCoefficient, radicand: float) -> float:
    """One cell pair's share of the interference form of total probability:
    2 cos(theta) sqrt(radicand) in the trigonometric range and
    2 sign cosh(theta) sqrt(radicand) beyond it."""
    root = math.sqrt(radicand)
    if coeff.squared <= 1:
        return 2.0 * math.cos(coeff.phase) * root
    return 2.0 * coeff.sign * math.cosh(coeff.phase) * root


def reconstruct_total_probability(
    space: FiniteProbabilitySpace,
    b_outcome: Event,
    partition: Partition,
    c: Event,
) -> float:
    """Evaluate the interference form of total probability.

    Each pair contributes 2 cos(theta) sqrt(prod) in the trigonometric range
    and +/- 2 cosh(theta) sqrt(prod) beyond it; the result must match the
    direct conditional probability.
    """
    return _masses(space, b_outcome, partition, c).reconstructed()


def delta_outcome_sum(
    space: FiniteProbabilitySpace,
    a_partition: Partition,
    b_partition: Partition,
    c: Event,
) -> Fraction:
    """Exact sum of disturbances over all outcome cells; always zero, because
    the conditional probabilities on each side of the expansion both sum to
    one."""
    return sum(
        (delta(space, b_cell, a_partition, c) for b_cell in b_partition.cells),
        start=Fraction(0),
    )


def interference_cross_sum(
    space: FiniteProbabilitySpace,
    a_partition: Partition,
    b_partition: Partition,
    c: Event,
) -> float:
    """Floating-point form of the vanishing cross sum: coefficients weighted
    by their radicals, added over outcomes and cell pairs."""
    total = 0.0
    if len(a_partition) < 2:
        return total  # no cell pair: an empty sum
    for masses in outcome_masses(space, a_partition, b_partition, c):
        total = masses.cross_sum(total)
    return total


class DisturbanceReport(Record):
    """Per-outcome disturbance record for one context.

    ``pairwise`` maps 0-based cell pairs to their exact shares; the exact
    pieces (delta, squared coefficient, sign) decide classification, the
    floating pieces (value, phase) feed amplitude construction.
    """

    context: Event
    outcome: Fraction
    delta: Fraction
    pairwise: Mapping[tuple[int, int], Fraction]
    lambda_squared: Fraction
    lambda_sign: int
    lambda_value: float
    classification: Classification
    phase: float


class ContextAnalysis(Record):
    context: Event
    outcomes: tuple[DisturbanceReport, ...]
    classification: Classification

    @classmethod
    def of(
        cls, c: Event, table: TwoCellTable, b_values: Sequence[Fraction]
    ) -> "ContextAnalysis":
        """The analysis of context ``c`` read from its two-cell table."""
        reports = []
        for j, coeff in enumerate(table.coefficients()):
            d = table.delta(j)
            reports.append(
                DisturbanceReport(
                    context=c,
                    outcome=b_values[j],
                    delta=d,
                    pairwise={(0, 1): d},
                    lambda_squared=coeff.squared,
                    lambda_sign=coeff.sign,
                    lambda_value=coeff.value,
                    classification=coeff.classification,
                    phase=coeff.phase,
                )
            )
        return cls(
            context=c, outcomes=tuple(reports), classification=table.classification
        )


def analyze_context(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    c: Event,
) -> ContextAnalysis:
    """Full per-outcome disturbance analysis of one context against a
    dichotomous variable pair."""
    table = TwoCellTable.of(space, a_var.assignment, b_var.assignment, c)
    return ContextAnalysis.of(c, table, b_var.values)
