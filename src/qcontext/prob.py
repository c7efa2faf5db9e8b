"""Exact finite probability spaces, events, contexts and partitions.

A space keeps each point weight as an integer mass over one common
denominator, so every sum of weights is a plain integer sum; each returned
probability is an exact :class:`fractions.Fraction` built once from such
sums.  Probabilistic identities therefore hold as rational equalities
rather than within a floating tolerance.  All types are immutable after
construction and all operations are pure functions of their inputs.

Terminology used throughout the package:

* a *context* is an event of positive probability that meets every cell of a
  given partition (conditioning on it never divides by zero);
* two dichotomous variables are *incompatible* when all four pairwise cell
  intersections carry positive probability.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import (
    ForeignPointError,
    MalformedDocumentError,
    PartialAssignmentError,
    ZeroConditionError,
)

#: Exhaustive subset enumeration is capped at this many points (2**16 events).
MAX_ENUMERATION_POINTS = 16

#: Largest decimal exponent magnitude a literal may carry, equal to Python's
#: default int-digit limit (``sys.int_info.default_max_str_digits``): an exact
#: 10**e costs time superlinear in e, so "1e-4000000" would stall for seconds.
MAX_DECIMAL_EXPONENT = 4300

_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def quoted(text: str) -> str:
    """``repr(text)``, cut to its first 40 characters plus the length when
    longer, so an error line stays one short line."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def as_fraction(value: Fraction | int | str | float) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Strings accept both "p/q" and decimal literals; floats are converted via
    their shortest decimal repr so that e.g. ``0.25`` means exactly 1/4.  A
    decimal exponent beyond ``MAX_DECIMAL_EXPONENT`` in magnitude raises
    :class:`MalformedDocumentError`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        match = _EXPONENT.search(value)
        if match is not None:
            digits = match.group(1).replace("_", "").lstrip("+-0")
            limit = MAX_DECIMAL_EXPONENT
            if len(digits) > len(str(limit)) or int(digits or 0) > limit:
                raise MalformedDocumentError(
                    f"decimal exponent of {quoted(value)} exceeds {limit} in magnitude"
                )
    return Fraction(value)


@dataclass(frozen=True, order=True)
class Event:
    """An immutable subset of sample points, identified by sorted ids."""

    members: tuple[str, ...]

    @staticmethod
    def of(ids: Iterable[str]) -> "Event":
        return Event(tuple(sorted(set(ids))))

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(self.members)))
        if ordered != self.members:
            object.__setattr__(self, "members", ordered)

    def __contains__(self, point: str) -> bool:
        return point in self.members

    def __len__(self) -> int:
        return len(self.members)

    @property
    def is_empty(self) -> bool:
        return not self.members

    def intersect(self, other: "Event") -> "Event":
        mine = set(self.members)
        return Event(tuple(p for p in other.members if p in mine))

    def union(self, other: "Event") -> "Event":
        return Event.of(self.members + other.members)

    def issubset(self, other: "Event") -> bool:
        return set(self.members) <= set(other.members)

    def label(self) -> str:
        return "+".join(self.members) if self.members else "(empty)"


@dataclass(frozen=True)
class FiniteProbabilitySpace:
    """A finite sample space with strictly positive rational weights.

    Invariants enforced at construction: unique point identifiers, every
    weight strictly positive, weights summing exactly to one.

    Construction also derives the package-internal integer view of the
    weights: ``_denominator`` is the least common multiple D of the weight
    denominators and ``_masses`` maps each point to the integer w * D, so
    a sum of masses divided by D is the exact probability.
    """

    points: tuple[str, ...]
    weights: Mapping[str, Fraction]
    _denominator: int = field(init=False, repr=False, compare=False)
    _masses: Mapping[str, int] = field(init=False, repr=False, compare=False)
    _ids: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.points)) != len(self.points):
            raise ValueError("point identifiers must be unique")
        weights = {p: as_fraction(w) for p, w in self.weights.items()}
        if set(weights) != set(self.points):
            raise ValueError("weights must be given for exactly the points")
        for p, w in weights.items():
            if w <= 0:
                raise ValueError(f"weight of {p!r} must be strictly positive")
        if sum(weights.values()) != 1:
            raise ValueError("weights must sum exactly to one")
        denominator = math.lcm(*(w.denominator for w in weights.values()))
        masses = {
            p: w.numerator * (denominator // w.denominator)
            for p, w in weights.items()
        }
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "weights", MappingProxyType(weights))
        object.__setattr__(self, "_denominator", denominator)
        object.__setattr__(self, "_masses", MappingProxyType(masses))
        object.__setattr__(self, "_ids", frozenset(self.points))

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[str, Fraction | int | str | float]]
    ) -> "FiniteProbabilitySpace":
        pairs = list(pairs)
        return cls(
            points=tuple(p for p, _ in pairs),
            weights={p: as_fraction(w) for p, w in pairs},
        )

    def event(self, ids: Iterable[str]) -> Event:
        evt = Event.of(ids)
        self.validate_event(evt)
        return evt

    def validate_event(self, evt: Event) -> None:
        if not self._ids.issuperset(evt.members):
            foreign = next(p for p in evt.members if p not in self._ids)
            raise ForeignPointError(f"unknown point identifier {foreign!r}")

    def omega(self) -> Event:
        return Event.of(self.points)

    def atoms(self) -> tuple[Event, ...]:
        return tuple(Event.of([p]) for p in self.points)

    def complement(self, evt: Event) -> Event:
        inside = set(evt.members)
        return Event(tuple(p for p in sorted(self.points) if p not in inside))


@dataclass(frozen=True)
class Partition:
    """An ordered list of pairwise-disjoint nonempty events covering Omega."""

    cells: tuple[Event, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for cell in self.cells:
            if cell.is_empty:
                raise ValueError("partition cells must be nonempty")
            overlap = seen.intersection(cell.members)
            if overlap:
                raise ValueError(f"partition cells overlap on {sorted(overlap)}")
            seen.update(cell.members)

    @classmethod
    def of(cls, space: FiniteProbabilitySpace, cells: Sequence[Event]) -> "Partition":
        for cell in cells:
            space.validate_event(cell)
        part = cls(tuple(cells))
        covered = set().union(*(set(c.members) for c in cells))
        if covered != set(space.points):
            raise ValueError("partition cells must cover the whole space")
        return part

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class DichotomousVariable:
    """A total map from points onto one of two distinct rational values.

    ``assignment`` sends each point id to cell index 1 or 2; the preimages of
    both indices must be nonempty so that the induced partition is a complete
    group of two nonempty events.
    """

    name: str
    values: tuple[Fraction, Fraction]
    assignment: Mapping[str, int]

    def __post_init__(self) -> None:
        values = (as_fraction(self.values[0]), as_fraction(self.values[1]))
        if values[0] == values[1]:
            raise ValueError(f"variable {self.name!r} needs two distinct values")
        assignment = dict(self.assignment)
        for point, idx in assignment.items():
            if idx not in (1, 2):
                raise ValueError(
                    f"assignment of point {point!r} must be cell index 1 or 2"
                )
        present = set(assignment.values())
        if present != {1, 2}:
            raise ValueError(
                f"variable {self.name!r} must take both of its values somewhere"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "assignment", MappingProxyType(assignment))

    def value_at(self, point: str) -> Fraction:
        return self.values[self.assignment[point] - 1]

    def cell(self, space: FiniteProbabilitySpace, index: int) -> Event:
        """Preimage of value ``index`` (1-based) restricted to ``space``."""
        self._check_total(space)
        return Event.of(
            p for p in space.points if self.assignment[p] == index
        )

    def partition(self, space: FiniteProbabilitySpace) -> Partition:
        self._check_total(space)
        cells = (self.cell(space, 1), self.cell(space, 2))
        for cell in cells:
            if cell.is_empty:
                raise ValueError(
                    f"variable {self.name!r} never takes one of its values on "
                    "this space"
                )
        return Partition(cells)

    def _check_total(self, space: FiniteProbabilitySpace) -> None:
        missing = [p for p in space.points if p not in self.assignment]
        if missing:
            raise PartialAssignmentError(
                f"variable {self.name!r} leaves points {missing} unassigned"
            )


def probability(space: FiniteProbabilitySpace, evt: Event) -> Fraction:
    """Total weight of ``evt``; exact, by finite additivity."""
    space.validate_event(evt)
    masses = space._masses
    return Fraction(sum(masses[p] for p in evt.members), space._denominator)


def conditional(space: FiniteProbabilitySpace, a: Event, c: Event) -> Fraction:
    """Bayes quotient P(a & c) / P(c), exact.

    Raises :class:`ZeroConditionError` when the conditioning event carries no
    probability; silent NaN propagation would corrupt every classification
    built downstream.
    """
    space.validate_event(c)
    masses = space._masses
    total = sum(masses[p] for p in c.members)
    if total == 0:
        raise ZeroConditionError(f"conditioning event {c.label()} has measure zero")
    inside = set(a.members)
    return Fraction(sum(masses[p] for p in c.members if p in inside), total)


def is_context(space: FiniteProbabilitySpace, c: Event, partition: Partition) -> bool:
    """True iff ``c`` meets every cell of ``partition`` with positive weight.

    Every point weight is strictly positive, so a cell carries positive
    weight inside ``c`` exactly when the two share a point."""
    space.validate_event(c)
    inside = set(c.members)
    return all(not inside.isdisjoint(cell.members) for cell in partition.cells)


def variables_incompatible(
    space: FiniteProbabilitySpace,
    a: DichotomousVariable,
    b: DichotomousVariable,
) -> bool:
    """True iff every pairwise cell intersection has positive probability."""
    pa = a.partition(space)
    pb = b.partition(space)
    return all(
        probability(space, ca.intersect(cb)) > 0
        for ca in pa.cells
        for cb in pb.cells
    )


def require_enumerable(space: FiniteProbabilitySpace) -> None:
    if len(space.points) > MAX_ENUMERATION_POINTS:
        raise ValueError(
            f"exhaustive enumeration supports at most {MAX_ENUMERATION_POINTS} points"
        )


def all_events(space: FiniteProbabilitySpace) -> Iterator[Event]:
    """Every nonempty subset of the space, smallest first.  Capped at
    :data:`MAX_ENUMERATION_POINTS` points."""
    require_enumerable(space)
    ordered = sorted(space.points)
    for size in range(1, len(ordered) + 1):
        for combo in itertools.combinations(ordered, size):
            yield Event(combo)


def contexts_of(
    space: FiniteProbabilitySpace, partition: Partition
) -> tuple[Event, ...]:
    """All events that are contexts with respect to ``partition``, sorted by
    (size, members)."""
    found = [
        evt for evt in all_events(space) if is_context(space, evt, partition)
    ]
    found.sort(key=lambda e: (len(e.members), e.members))
    return tuple(found)


@dataclass(frozen=True)
class CoverOverlapReport:
    """Overlap structure of two covering families of sets.

    ``nonempty_intersections`` records whether every pairwise intersection
    between the families is nonempty; ``no_inclusions`` whether no set of one
    family is contained in a set of the other.  For two 2-cell partitions the
    two conditions are equivalent; for larger families only the first implies
    the second.
    """

    nonempty_intersections: bool
    no_inclusions: bool


def cover_overlap_report(
    universe: Collection[str],
    family_a: Sequence[Collection[str]],
    family_b: Sequence[Collection[str]],
) -> CoverOverlapReport:
    universe_set = set(universe)
    sets_a = [set(s) for s in family_a]
    sets_b = [set(s) for s in family_b]
    for name, family in (("first", sets_a), ("second", sets_b)):
        covered = set().union(*family) if family else set()
        if covered != universe_set:
            raise ValueError(f"the {name} family must cover the universe")
    nonempty = all(sa & sb for sa in sets_a for sb in sets_b)
    no_inclusion = all(
        not (sa <= sb or sb <= sa) for sa in sets_a for sb in sets_b
    )
    return CoverOverlapReport(
        nonempty_intersections=nonempty, no_inclusions=no_inclusion
    )
