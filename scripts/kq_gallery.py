#!/usr/bin/env python3
"""Print a compact tour of the four-point reference family at one parameter.

Usage: python scripts/kq_gallery.py [q]    (default q = 1/4)

Shows, for every context: classification, disturbances, coefficients, the
amplitude, and a side-by-side of quantum and classical means of the sum
observable.  Finishes with the image structure (collisions, distinct states).
"""

import sys
from fractions import Fraction

from qcontext.hilbert import (
    ContextAtlas,
    amplitude,
    image_set,
    mappable_contexts,
    transition_matrix,
)
from qcontext.interference import analyze_context
from qcontext.model_io import format_float, kq_model
from qcontext.operators import CompositeObservable, quantum_mean
from qcontext.prob import contexts_of


def main() -> int:
    q = Fraction(sys.argv[1]) if len(sys.argv) > 1 else Fraction(1, 4)
    spec = kq_model(q)
    space = spec.space
    a, b = spec.variables["a"], spec.variables["b"]
    trans = transition_matrix(space, a, b)
    print(f"reference family at q = {q}")
    print(f"transition matrix: {trans.entries[0]} / {trans.entries[1]}")
    print()

    print("context            class           delta(b=1)  coeff^2   phase(b=1)")
    for c in contexts_of(space, a.partition(space)):
        analysis = analyze_context(space, a, b, c)
        first = analysis.outcomes[0]
        print(
            f"{c.label():<18} {analysis.classification.value:<15}"
            f" {str(first.delta):>10}  {str(first.lambda_squared):>7}"
            f"   {format_float(first.phase)}"
        )
    print()

    print("amplitudes (components on the two b-values):")
    for c in mappable_contexts(space, a, b):
        state = amplitude(space, a, b, c)
        parts = ", ".join(
            f"{z.real:+.6f}{z.imag:+.6f}i" for z in state.components
        )
        print(f"  {c.label():<18} ({parts})")
    print()

    obs = CompositeObservable.sum_of(a, b)
    op = obs.operator(trans)
    print("sum observable: quantum vs exact conditional mean")
    for e in ContextAtlas(space, a, b).represented:
        lhs = quantum_mean(op, e.state)
        rhs = obs.mean_on(e.table.local)
        print(f"  {e.context.label():<18} {lhs:+.12f}  vs  {str(rhs):>8}")
    print()

    image = image_set(space, a, b)
    print(f"distinct states: {image.distinct_count} of {len(image.entries)} events")
    for group in image.collisions:
        print("  collision:", ", ".join(evt.label() for evt in group))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
