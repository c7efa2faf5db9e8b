"""Seeded random model builders shared across the test modules.

All weights are integer masses normalised by their total, so every space sums
to one exactly.  Both builders guarantee an incompatible pair by putting at
least one atom into each of the four cell intersections.
"""

from __future__ import annotations

import random
from fractions import Fraction

from qcontext.prob import DichotomousVariable, FiniteProbabilitySpace


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` positive integers."""
    counts = [1] * parts
    for _ in range(total - parts):
        counts[rng.randrange(parts)] += 1
    return counts


def _assemble(cells: dict[tuple[int, int], list[int]]):
    points = []
    a_assign: dict[str, int] = {}
    b_assign: dict[str, int] = {}
    masses: list[int] = []
    idx = 1
    for (ai, bi), atom_masses in sorted(cells.items()):
        for mass in atom_masses:
            pid = f"p{idx}"
            idx += 1
            points.append(pid)
            masses.append(mass)
            a_assign[pid] = ai
            b_assign[pid] = bi
    total = sum(masses)
    space = FiniteProbabilitySpace.from_pairs(
        (pid, Fraction(mass, total)) for pid, mass in zip(points, masses)
    )
    a = DichotomousVariable("a", (Fraction(1), Fraction(-1)), a_assign)
    b = DichotomousVariable("b", (Fraction(1), Fraction(-1)), b_assign)
    return space, a, b


def random_incompatible_model(rng: random.Random, max_points: int = 8):
    """A random space of 4..max_points atoms with an incompatible pair."""
    sizes = {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1}
    for _ in range(rng.randint(0, max_points - 4)):
        key = rng.choice(list(sizes))
        sizes[key] += 1
    cells = {
        key: [rng.randint(1, 9) for _ in range(count)]
        for key, count in sizes.items()
    }
    return _assemble(cells)


def random_double_stochastic_model(
    rng: random.Random,
    uniform: bool | None = None,
    max_split: int = 2,
):
    """A random model whose forward transition matrix is doubly stochastic.

    Cell masses are (t*u, t*v, s*v, s*u), which forces column sums of one for
    any positive integers u, v, s, t.  Marginals are uniform exactly when
    t == s or u == v; pass ``uniform`` to pin or exclude the t == s case.
    """
    u = rng.randint(1, 6)
    v = rng.randint(1, 6)
    t = rng.randint(1, 6)
    if uniform is True:
        s = t
    elif uniform is False:
        s = t + rng.randint(1, 5)
        if u == v:
            v = u + rng.randint(1, 5)
    else:
        s = rng.randint(1, 6)
    totals = {(1, 1): t * u, (1, 2): t * v, (2, 1): s * v, (2, 2): s * u}
    cells = {}
    for key, total in totals.items():
        parts = rng.randint(1, min(max_split, total))
        cells[key] = _composition(rng, total, parts)
    return _assemble(cells)


def first_draw(make, points: int, **kwargs):
    """The first ``points``-point draw of ``random.Random(7)`` from ``make``:
    the ``dsN`` and ``xN`` models of the ROADMAP Snapshot."""
    rng = random.Random(7)
    while True:
        space, a, b = make(rng, **kwargs)
        if len(space.points) == points:
            return space, a, b
