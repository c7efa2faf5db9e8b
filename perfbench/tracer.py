"""Span tracer that wraps qcontext's layer functions from outside the package.

Each traced function is replaced at every binding that holds it in a loaded
``qcontext`` module: its own module attribute and every ``from``-import of it
in another module (``cli.parse_model``, ``verify.contexts_of``,
``hilbert.lambda_coefficient`` and so on).  Function-local imports read the
module attribute at call time and so see the wrapper too.  Not seen: a
reference taken before :meth:`Tracer.install`, such as a default argument
or a value captured in a data structure; time spent there counts as the
caller's self time.

A span is (name, start, end, parent) with ``perf_counter_ns`` clocks, kept in
flat integer arrays while the program runs and written out once at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps

PACKAGE = "qcontext"
ROOT_SPAN = "cli.main"
TRACED = (
    "model_io.parse_model",
    "model_io.emit_report",
    "prob.contexts_of",
    "interference.analyze_context",
    "interference.lambda_coefficient",
    "interference.pairwise_delta",
    "interference.delta",
    "interference.reconstruct_total_probability",
    "hilbert.mappable_contexts",
    "hilbert.amplitude",
    "hilbert.image_set",
    "hilbert.states_close",
    "hilbert.phase_gap_profile",
    "hilbert.nonsensitive_contexts",
    "operators.represented_states",
    "operators.mean_preservation_gap",
    "operators.distribution_mismatch",
    "operators.dispersion_free_search",
    "verify.run_checks",
)
# Counts taken from a traced function's result: counter name -> (function, size).
COUNTERS = {
    "prob.contexts": ("prob.contexts_of", len),
    "model_io.report_bytes": ("model_io.emit_report", lambda text: len(text.encode())),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT_SPAN, *TRACED]
        self._code = {name: i for i, name in enumerate(self.names)}
        self._name = array("q")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        code = self._code[name]
        idx = len(self._name)
        self._name.append(code)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(0)
        self._end.append(0)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._start[idx] = start
            self._end[idx] = end

    def _wrap(self, name: str, fn):
        counters = [
            (counter, size) for counter, (target, size) in COUNTERS.items()
            if target == name
        ]

        @wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            for counter, size in counters:
                self.counts[counter] += size(result)
            return result

        return traced

    def install(self) -> None:
        for name in TRACED:
            importlib.import_module(f"{PACKAGE}.{name.split('.')[0]}")
        modules = [
            m for key, m in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for name in TRACED:
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, binding, original = self._patched.pop()
            setattr(module, binding, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, invocation: int) -> dict:
        return {
            "invocation": invocation,
            "names": self.names,
            "spans": {
                "name": self._name.tolist(),
                "parent": self._parent.tolist(),
                "start_ns": self._start.tolist(),
                "end_ns": self._end.tolist(),
            },
            "counts": self.counts,
        }

    def write(self, path: str, invocation: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(invocation), fh)


def summarize(record: dict) -> dict[str, dict[str, float]]:
    """Per function: calls, busy seconds (spans not nested in a span of the
    same function) and self seconds (busy time minus direct child spans)."""
    names = record["names"]
    spans = record["spans"]
    code, parent = spans["name"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start_ns"], spans["end_ns"])]
    child = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    stats = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for n in names}
    for i, c in enumerate(code):
        row = stats[names[c]]
        row["calls"] += 1
        row["self_s"] += (dur[i] - child[i]) / 1e9
        p = parent[i]
        while p >= 0 and code[p] != c:
            p = parent[p]
        if p < 0:
            row["busy_s"] += dur[i] / 1e9
    return stats
