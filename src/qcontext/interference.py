"""Statistical-disturbance decomposition of contextual total probability.

For an event B, a partition {A_n} and a context C, the gap between the direct
conditional probability P(B|C) and its classical total-probability expansion

    P(B|C) = sum_n P(A_n|C) P(B|A_n)  +  delta(B; C)

is the *disturbance* delta.  Splitting delta over cell pairs and normalising
each share by 2 sqrt(P(A_n|C) P(B|A_n) P(A_m|C) P(B|A_m)) yields coefficients
whose magnitude decides how the context can be represented:

* squared coefficient < 1 everywhere: trigonometric (cosine phases, complex
  amplitudes exist);
* squared coefficient > 1 everywhere: hyperbolic (hyperbolic-cosine phases);
* exactly 1 somewhere: boundary; mixtures are reported as mixed.

Disturbances and squared coefficients are exact rationals; only the signed
square root and the phases are floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    conditional,
    is_context,
)


class Classification(Enum):
    TRIGONOMETRIC = "trigonometric"
    BOUNDARY = "boundary"
    HYPERBOLIC = "hyperbolic"
    MIXED = "mixed"

    @classmethod
    def of(cls, squares: Sequence[Fraction]) -> "Classification":
        """Exact comparison of every squared coefficient with 1."""
        if all(s < 1 for s in squares):
            return cls.TRIGONOMETRIC
        if all(s > 1 for s in squares):
            return cls.HYPERBOLIC
        if any(s == 1 for s in squares):
            return cls.BOUNDARY
        return cls.MIXED


def _require_context(
    space: FiniteProbabilitySpace, c: Event, partition: Partition
) -> None:
    if not is_context(space, c, partition):
        raise NotAContextError(
            f"{c.label()} misses a cell of the partition and is not a context"
        )


def classical_part(
    space: FiniteProbabilitySpace,
    b_outcome: Event,
    partition: Partition,
    c: Event,
) -> Fraction:
    """Classical total-probability expansion sum_n P(A_n|C) P(B|A_n)."""
    _require_context(space, c, partition)
    return sum(
        (
            conditional(space, cell, c) * conditional(space, b_outcome, cell)
            for cell in partition.cells
        ),
        start=Fraction(0),
    )


def _cell_term(
    space: FiniteProbabilitySpace,
    b_outcome: Event,
    cell: Event,
    c: Event,
) -> Fraction:
    """P(A|C) * (P(B|A&C) - P(B|A)) for one cell A."""
    return conditional(space, cell, c) * (
        conditional(space, b_outcome, cell.intersect(c))
        - conditional(space, b_outcome, cell)
    )


def delta(
    space: FiniteProbabilitySpace,
    b_outcome: Event,
    partition: Partition,
    c: Event,
) -> Fraction:
    """Exact disturbance of ``b_outcome`` by the partition in context ``c``."""
    _require_context(space, c, partition)
    space.validate_event(b_outcome)
    return sum(
        (_cell_term(space, b_outcome, cell, c) for cell in partition.cells),
        start=Fraction(0),
    )


def pairwise_delta(
    space: FiniteProbabilitySpace,
    b_outcome: Event,
    partition: Partition,
    c: Event,
    n: int,
    m: int,
) -> Fraction:
    """Share of the disturbance carried by the cell pair ``(n, m)``.

    Cell indices are 0-based.  Summing over all pairs n < m reproduces
    :func:`delta` exactly; each cell term is divided by (k - 1) because a cell
    participates in k - 1 of the pairs.
    """
    _require_context(space, c, partition)
    k = len(partition)
    if k < 2:
        raise ValueError("pairwise disturbance needs at least two cells")
    if not (0 <= n < k and 0 <= m < k and n != m):
        raise ValueError(f"invalid cell pair ({n}, {m}) for {k} cells")
    term_n = _cell_term(space, b_outcome, partition.cells[n], c)
    term_m = _cell_term(space, b_outcome, partition.cells[m], c)
    return (term_n + term_m) / (k - 1)


@dataclass(frozen=True)
class LambdaCoefficient:
    """A normalised disturbance share, kept exact as (squared value, sign)."""

    squared: Fraction
    sign: int

    @classmethod
    def of(cls, share: Fraction, radicand: Fraction) -> "LambdaCoefficient":
        """``share`` divided by twice the square root of ``radicand``."""
        if radicand == 0:
            raise DegenerateRadicalError(
                "a factor under the normalising radical vanishes"
            )
        return cls(squared=share**2 / (4 * radicand), sign=(share > 0) - (share < 0))

    @property
    def value(self) -> float:
        try:
            return self.sign * math.sqrt(float(self.squared))
        except OverflowError as exc:
            raise FloatRangeError("squared coefficient beyond the float range") from exc

    @property
    def classification(self) -> Classification:
        return Classification.of((self.squared,))

    @property
    def phase(self) -> float:
        """Trigonometric/boundary: arccos of the value, in [0, pi].
        Hyperbolic: arccosh of the magnitude (sign carried separately)."""
        if self.squared <= 1:
            return math.acos(max(-1.0, min(1.0, self.value)))
        return math.acosh(max(1.0, abs(self.value)))


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
    share = pairwise_delta(space, b_outcome, partition, c, n, m)
    radicand = (
        conditional(space, partition.cells[n], c)
        * conditional(space, b_outcome, partition.cells[n])
        * conditional(space, partition.cells[m], c)
        * conditional(space, b_outcome, partition.cells[m])
    )
    return LambdaCoefficient.of(share, radicand)


@dataclass(frozen=True)
class TwoCellTable:
    """P(A_i|C), P(B_j|C) and the transition matrix P(B_j|A_i) of a context C
    of a dichotomous pair (A, B), 0-based.  The disturbance is
    delta_j = P(B_j|C) - sum_i P(A_i|C) P(B_j|A_i)."""

    a_given_c: tuple[Fraction, Fraction]
    b_given_c: tuple[Fraction, Fraction]
    b_given_a: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

    @classmethod
    def of(
        cls,
        space: FiniteProbabilitySpace,
        a_cell: Mapping[str, int],
        b_cell: Mapping[str, int],
        c: Event,
    ) -> "TwoCellTable":
        """From each point's 1-based cell index under A and under B, shaped
        like :attr:`DichotomousVariable.assignment`."""
        space.validate_event(c)
        masses = space._masses
        whole, local = ([[0, 0], [0, 0]] for _ in range(2))
        try:
            for table, points in ((whole, space.points), (local, c.members)):
                for p in points:
                    table[a_cell[p] - 1][b_cell[p] - 1] += masses[p]
        except KeyError as exc:
            raise PartialAssignmentError(f"point {exc} lies in no cell") from exc
        rows = [sum(row) for row in local]
        if not all(rows):
            raise NotAContextError(
                f"{c.label()} is not a context for the variable pair"
            )
        total = sum(rows)
        return cls(
            a_given_c=tuple(Fraction(r, total) for r in rows),
            b_given_c=tuple(
                Fraction(local[0][j] + local[1][j], total) for j in range(2)
            ),
            b_given_a=tuple(
                tuple(Fraction(m, sum(row)) for m in row) for row in whole
            ),
        )

    def delta(self, j: int) -> Fraction:
        p, t = self.a_given_c, self.b_given_a
        return self.b_given_c[j] - (p[0] * t[0][j] + p[1] * t[1][j])

    def coefficient(self, j: int) -> LambdaCoefficient:
        p, t = self.a_given_c, self.b_given_a
        radicand = p[0] * t[0][j] * p[1] * t[1][j]
        return LambdaCoefficient.of(self.delta(j), radicand)

    def coefficients(self) -> tuple[LambdaCoefficient, LambdaCoefficient]:
        return (self.coefficient(0), self.coefficient(1))

    @property
    def incompatible(self) -> bool:
        """Every cell intersection A_i & B_j carries positive probability."""
        return all(p > 0 for row in self.b_given_a for p in row)

    @property
    def mappable(self) -> bool:
        """No squared coefficient exceeds one: the context has an amplitude."""
        return all(k.squared <= 1 for k in self.coefficients())

    @property
    def classification(self) -> Classification:
        return Classification.of([k.squared for k in self.coefficients()])


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
    _require_context(space, c, partition)
    total = float(classical_part(space, b_outcome, partition, c))
    k = len(partition)
    for n in range(k):
        for m in range(n + 1, k):
            coeff = lambda_coefficient(space, b_outcome, partition, c, n, m)
            radicand = (
                conditional(space, partition.cells[n], c)
                * conditional(space, b_outcome, partition.cells[n])
                * conditional(space, partition.cells[m], c)
                * conditional(space, b_outcome, partition.cells[m])
            )
            root = math.sqrt(float(radicand))
            theta = coeff.phase
            if coeff.squared <= 1:
                total += 2.0 * math.cos(theta) * root
            else:
                total += 2.0 * coeff.sign * math.cosh(theta) * root
    return total


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
    k = len(a_partition)
    for b_cell in b_partition.cells:
        for n in range(k):
            for m in range(n + 1, k):
                coeff = lambda_coefficient(space, b_cell, a_partition, c, n, m)
                radicand = (
                    conditional(space, a_partition.cells[n], c)
                    * conditional(space, a_partition.cells[m], c)
                    * conditional(space, b_cell, a_partition.cells[n])
                    * conditional(space, b_cell, a_partition.cells[m])
                )
                total += coeff.value * math.sqrt(float(radicand))
    return total


@dataclass(frozen=True)
class DisturbanceReport:
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


@dataclass(frozen=True)
class ContextAnalysis:
    context: Event
    outcomes: tuple[DisturbanceReport, ...]
    classification: Classification


def analyze_context(
    space: FiniteProbabilitySpace,
    a_var: DichotomousVariable,
    b_var: DichotomousVariable,
    c: Event,
) -> ContextAnalysis:
    """Full per-outcome disturbance analysis of one context against a
    dichotomous variable pair."""
    table = TwoCellTable.of(space, a_var.assignment, b_var.assignment, c)
    coeffs = table.coefficients()
    reports = []
    for j, coeff in enumerate(coeffs):
        d = table.delta(j)
        reports.append(
            DisturbanceReport(
                context=c,
                outcome=b_var.values[j],
                delta=d,
                pairwise={(0, 1): d},
                lambda_squared=coeff.squared,
                lambda_sign=coeff.sign,
                lambda_value=coeff.value,
                classification=coeff.classification,
                phase=coeff.phase,
            )
        )
    return ContextAnalysis(
        context=c,
        outcomes=tuple(reports),
        classification=Classification.of([k.squared for k in coeffs]),
    )
