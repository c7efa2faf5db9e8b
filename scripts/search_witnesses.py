#!/usr/bin/env python3
"""Rediscover the witness models committed under tests/data/.

Usage: python scripts/search_witnesses.py [seed]

Two seeded random searches over small exact-weight models:

* a model with a context whose squared disturbance coefficients all exceed
  one (no complex amplitude exists for it, only the hyperbolic-cosine form);
* a model with a stochastic but not doubly stochastic transition matrix on
  which Born's rule in a fixed a-basis fails by a visible margin.

Each hit is printed as a canonical model document plus the offending
numbers, so fresh witnesses can be frozen into the test data if desired.
"""

import random
import sys
from fractions import Fraction

from qcontext.hilbert import ContextAtlas, is_double_stochastic
from qcontext.interference import Classification, classify
from qcontext.model_io import ModelSpec, serialize_model
from qcontext.prob import (
    DichotomousVariable,
    FiniteProbabilitySpace,
    contexts_of,
)
from qcontext.verify import born_in_a_basis_check


def random_model(rng: random.Random):
    cells = {(1, 1): [], (1, 2): [], (2, 1): [], (2, 2): []}
    for key in cells:
        for _ in range(rng.randint(1, 2)):
            cells[key].append(rng.randint(1, 12))
    points, masses, a_assign, b_assign = [], [], {}, {}
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
        (pid, Fraction(m, total)) for pid, m in zip(points, masses)
    )
    a = DichotomousVariable("a", (Fraction(1), Fraction(-1)), a_assign)
    b = DichotomousVariable("b", (Fraction(1), Fraction(-1)), b_assign)
    return space, a, b


def find_hyperbolic(rng: random.Random):
    while True:
        space, a, b = random_model(rng)
        ap, bp = a.partition(space), b.partition(space)
        for c in contexts_of(space, ap):
            if classify(space, ap, bp, c) is Classification.HYPERBOLIC:
                return space, a, b, c


def find_born_failure(rng: random.Random, margin: float = 1e-2):
    while True:
        space, a, b = random_model(rng)
        atlas = ContextAtlas(space, a, b)
        if is_double_stochastic(atlas.transition):
            continue
        rows = born_in_a_basis_check(atlas)
        worst = max(row.error for row in rows)
        if worst > margin:
            return space, a, b, worst


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    rng = random.Random(seed)

    space, a, b, context = find_hyperbolic(rng)
    print("# fully hyperbolic context:", context.label())
    print(serialize_model(ModelSpec(space=space, variables={"a": a, "b": b})))

    space, a, b, worst = find_born_failure(rng)
    print(f"# a-basis Born failure, worst error {worst:.4f}")
    print(serialize_model(ModelSpec(space=space, variables={"a": a, "b": b})))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
