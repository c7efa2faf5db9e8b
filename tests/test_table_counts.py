"""The atlas's multiset of tables, counted without listing a context.

A context's table holds its masses l_ij in the four blocks A_i & B_j, and a
context is any union of one subset per block with both rows nonzero.  So a
table (l_11, l_12 | l_21, l_22) occurs as often as the product over the
blocks of the number of the block's subsets of mass l_ij.  The count below
takes each point's integer mass from its weight and the lcm of the
denominators, and counts subsets by mass one point at a time; it shares no
code with the atlas's enumeration or with ``verify``'s running sums.
"""

import itertools
import math
import random
from collections import Counter

import pytest

from qcontext.hilbert import ContextAtlas
from randmodels import (
    first_draw,
    random_double_stochastic_model,
    random_incompatible_model,
)


def _subset_masses(masses):
    """How many subsets of ``masses`` have each total, the empty one too."""
    count = Counter([0])
    for n in masses:
        for total, k in list(count.items()):
            count[total + n] += k
    return count


def table_counts(space, a, b) -> Counter:
    """Occurrences of each context's local masses, from subset counts."""
    scale = math.lcm(*(w.denominator for w in space.weights.values()))
    blocks = [
        [
            _subset_masses(
                int(space.weights[p] * scale)
                for p in space.points
                if a.assignment[p] == i and b.assignment[p] == j
            )
            for j in (1, 2)
        ]
        for i in (1, 2)
    ]
    counts: Counter = Counter()
    for row1 in itertools.product(*(block.items() for block in blocks[0])):
        for row2 in itertools.product(*(block.items() for block in blocks[1])):
            (l11, n11), (l12, n12) = row1
            (l21, n21), (l22, n22) = row2
            if l11 + l12 and l21 + l22:
                counts[(l11, l12), (l21, l22)] = n11 * n12 * n21 * n22
    return counts


def _models():
    rng = random.Random(1703)
    for _ in range(30):
        yield random_incompatible_model(rng, max_points=12)
        yield random_double_stochastic_model(rng, max_split=3)
    # ds16 and x16: 57 337 and 65 025 contexts in 259 and 17 515 tables.
    yield first_draw(random_double_stochastic_model, 16, max_split=16)
    yield first_draw(random_incompatible_model, 16, max_points=16)


MODELS = list(_models())


@pytest.mark.parametrize("index", range(len(MODELS)))
def test_the_atlas_tables_equal_the_subset_counts(index):
    space, a, b = MODELS[index]
    atlas = ContextAtlas(space, a, b)
    assert Counter(e.table.local for e in atlas.entries) == table_counts(space, a, b)
