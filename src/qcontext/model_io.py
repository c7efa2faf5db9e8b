"""Model documents, the four-point reference family, sweeps and reports.

Model files are JSON with exact weights: rationals are written as "p/q"
strings and decimal literals are read exactly (0.25 means 1/4, never a
float).  Canonical serialisation is UTF-8, LF, two-space indent, keys sorted,
one trailing newline, so documents and reports are byte-stable for golden
testing.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, is_dataclass, fields as dc_fields
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .errors import (
    DuplicatePointError,
    MalformedDocumentError,
    PartialAssignmentError,
    QOutOfRangeError,
    WeightSumNotOneError,
)
from .hilbert import StateVector, image_set
from .operators import CompositeObservable, distribution_mismatch
from .prob import (
    DichotomousVariable,
    Event,
    FiniteProbabilitySpace,
    as_fraction,
    quoted,
)


@dataclass(frozen=True)
class ModelSpec:
    """A parsed model: the space, its named variables and optional explicit
    contexts (used instead of exhaustive enumeration on large spaces)."""

    space: FiniteProbabilitySpace
    variables: Mapping[str, DichotomousVariable]
    contexts: tuple[Event, ...] | None = None

    def variable(self, name: str) -> DichotomousVariable:
        if name not in self.variables:
            raise MalformedDocumentError(
                f"variable {quoted(name)} is not defined by the model"
            )
        return self.variables[name]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedDocumentError(message)


def _parse_rational(value: Any, what: str) -> Fraction:
    if isinstance(value, bool):
        raise MalformedDocumentError(f"{what} must be a rational, not a bool")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return as_fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedDocumentError(
                f"{what}: bad rational literal {quoted(value)}"
            ) from exc
        except MalformedDocumentError as exc:
            raise MalformedDocumentError(f"{what}: {exc}") from exc
    raise MalformedDocumentError(f"{what} must be an int or a rational string")


def parse_model(text: str) -> ModelSpec:
    """Parse and validate a model document.

    Raises the most specific applicable error: duplicate point ids, weight sum
    different from one, partial variable assignments, or a generic malformed
    document naming the first violated invariant.
    """
    try:
        doc = json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # int() refused a JSON integer literal
        limit = sys.get_int_max_str_digits()
        raise MalformedDocumentError(
            f"an integer literal exceeds the {limit}-digit limit"
        ) from exc
    _require(isinstance(doc, dict), "top level must be an object")
    _require("points" in doc, "missing required key 'points'")
    _require("variables" in doc, "missing required key 'variables'")
    _require(isinstance(doc["points"], list), "'points' must be an array")
    _require(isinstance(doc["variables"], dict), "'variables' must be an object")

    ids: list[str] = []
    weights: dict[str, Fraction] = {}
    for entry in doc["points"]:
        _require(isinstance(entry, dict), "each point must be an object")
        _require("id" in entry and "weight" in entry, "points need 'id' and 'weight'")
        pid = entry["id"]
        _require(isinstance(pid, str) and pid, "point ids must be nonempty strings")
        if pid in weights:
            raise DuplicatePointError(f"duplicate point identifier {pid!r}")
        w = _parse_rational(entry["weight"], f"weight of {pid!r}")
        _require(w > 0, f"weight of {pid!r} must be strictly positive")
        ids.append(pid)
        weights[pid] = w
    _require(ids, "a model needs at least one point")
    total = sum(weights.values())
    if total != 1:
        raise WeightSumNotOneError(f"weights sum to {total}, expected 1")
    space = FiniteProbabilitySpace(points=tuple(ids), weights=weights)

    variables: dict[str, DichotomousVariable] = {}
    for name, body in doc["variables"].items():
        _require(isinstance(body, dict), f"variable {name!r} must be an object")
        _require(
            "values" in body and "assignment" in body,
            f"variable {name!r} needs 'values' and 'assignment'",
        )
        values = body["values"]
        _require(
            isinstance(values, list) and len(values) == 2,
            f"variable {name!r} needs exactly two values",
        )
        v1 = _parse_rational(values[0], f"first value of {name!r}")
        v2 = _parse_rational(values[1], f"second value of {name!r}")
        assignment = body["assignment"]
        _require(
            isinstance(assignment, dict),
            f"assignment of {name!r} must be an object",
        )
        missing = [p for p in ids if p not in assignment]
        if missing:
            raise PartialAssignmentError(
                f"variable {name!r} leaves points {missing} unassigned"
            )
        cleaned: dict[str, int] = {}
        for pid, idx in assignment.items():
            _require(pid in weights, f"assignment of {name!r} names unknown point {pid!r}")
            _require(
                idx in (1, 2) and not isinstance(idx, bool),
                f"assignment of {name!r} at {pid!r} must be 1 or 2",
            )
            cleaned[pid] = idx
        try:
            variables[name] = DichotomousVariable(
                name=name, values=(v1, v2), assignment=cleaned
            )
        except ValueError as exc:
            raise MalformedDocumentError(f"variable {name!r}: {exc}") from exc

    contexts: tuple[Event, ...] | None = None
    if "contexts" in doc and doc["contexts"] is not None:
        _require(isinstance(doc["contexts"], list), "'contexts' must be an array")
        parsed = []
        for row in doc["contexts"]:
            _require(
                isinstance(row, list) and all(isinstance(p, str) for p in row),
                "each context must be an array of point ids",
            )
            _require(
                all(p in weights for p in row),
                f"context {row} names an unknown point",
            )
            parsed.append(Event.of(row))
        contexts = tuple(parsed)

    return ModelSpec(space=space, variables=variables, contexts=contexts)


def model_document(spec: ModelSpec) -> dict:
    doc: dict[str, Any] = {
        "points": [
            {"id": p, "weight": format_rational(spec.space.weights[p])}
            for p in spec.space.points
        ],
        "variables": {
            name: {
                "values": [format_rational(v) for v in var.values],
                "assignment": {p: var.assignment[p] for p in spec.space.points},
            }
            for name, var in spec.variables.items()
        },
    }
    if spec.contexts is not None:
        doc["contexts"] = sorted(
            (list(c.members) for c in spec.contexts), key=lambda r: (len(r), r)
        )
    return doc


def serialize_model(spec: ModelSpec) -> str:
    """Canonical byte-stable serialisation; parse followed by serialize is the
    identity on canonical documents."""
    return canonical_json(model_document(spec))


def kq_model(q: Fraction | int | str | float) -> ModelSpec:
    """Four-point reference family with paired atom weights.

    For rational 0 < q < 1/2 the atoms w1..w4 get weights (q, (1-2q)/2, q,
    (1-2q)/2); variable ``a`` splits {w1, w2} against {w3, w4} and ``b``
    splits {w1, w4} against {w2, w3}, both with values (1, -1).  Marginals are
    uniform for every q and both transition matrices equal
    [[2q, 1-2q], [1-2q, 2q]], hence are doubly stochastic.
    """
    q = as_fraction(q)
    if not (0 < q < Fraction(1, 2)):
        raise QOutOfRangeError(f"parameter must lie strictly in (0, 1/2), got {q}")
    half_rest = (1 - 2 * q) / 2
    space = FiniteProbabilitySpace.from_pairs(
        [("w1", q), ("w2", half_rest), ("w3", q), ("w4", half_rest)]
    )
    a = DichotomousVariable(
        name="a",
        values=(Fraction(1), Fraction(-1)),
        assignment={"w1": 1, "w2": 1, "w3": 2, "w4": 2},
    )
    b = DichotomousVariable(
        name="b",
        values=(Fraction(1), Fraction(-1)),
        assignment={"w1": 1, "w2": 2, "w3": 2, "w4": 1},
    )
    return ModelSpec(space=space, variables={"a": a, "b": b})


@dataclass(frozen=True)
class SweepRow:
    q: Fraction
    distinct_states: int
    theta_first: float
    theta_second: float
    mismatch_gap: float


@dataclass(frozen=True)
class SweepResult:
    """Per-parameter bundle over the reference family.

    ``theta_second`` tracks the phase of the second outcome in the
    three-point context {w1, w2, w3}; it increases strictly with q across the
    grid, from near pi/3 to near pi/2 over (0, 1/2).
    """

    rows: tuple[SweepRow, ...]
    theta_monotone: bool


def sweep(q_values: Sequence[Fraction | int | str | float]) -> SweepResult:
    from .interference import lambda_coefficient

    rows = []
    for raw in q_values:
        q = as_fraction(raw)
        spec = kq_model(q)
        space = spec.space
        a, b = spec.variable("a"), spec.variable("b")
        a_part = a.partition(space)
        b_part = b.partition(space)
        probe = space.event(["w1", "w2", "w3"])
        theta_first = lambda_coefficient(space, b_part.cells[0], a_part, probe).phase
        theta_second = lambda_coefficient(space, b_part.cells[1], a_part, probe).phase
        witness = space.event(["w2", "w3", "w4"])
        gamma = float(b.values[0])
        report = distribution_mismatch(
            space,
            a,
            b,
            CompositeObservable.sum_of(a, b),
            witness,
            alignment=(2.0 * math.sqrt(float(2 * q)), -gamma),
        )
        rows.append(
            SweepRow(
                q=q,
                distinct_states=image_set(space, a, b).distinct_count,
                theta_first=theta_first,
                theta_second=theta_second,
                mismatch_gap=report.total_variation,
            )
        )
    by_q = sorted(rows, key=lambda r: r.q)
    monotone = all(
        earlier.theta_second < later.theta_second
        for earlier, later in zip(by_q, by_q[1:])
        if earlier.q != later.q
    )
    return SweepResult(rows=tuple(rows), theta_monotone=monotone)


def format_rational(x: Fraction) -> str:
    """``str(x)``, "p/q" or "p" for an integer, without Python's limit on the
    digits of an int-to-string conversion: a rational the program computes,
    such as a squared coefficient of a model with a weight near 1e-4300,
    may need more digits than any literal it parsed.  Parsing keeps the
    limit."""
    try:
        return str(x)
    except ValueError:  # beyond the limit: Decimal prints every digit
        numerator, denominator = Decimal(x.numerator), Decimal(x.denominator)
        return f"{numerator}" if denominator == 1 else f"{numerator}/{denominator}"


def format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form; +0.0 normalised."""
    return format(x + 0.0, ".17g")


def to_jsonable(obj: Any) -> Any:
    """Normalise domain values for deterministic JSON emission.

    Rationals become "p/q" strings, floats fixed 17-digit strings, complex
    numbers (re, im) string pairs, events sorted id lists.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, complex):
        return [format_float(obj.real), format_float(obj.imag)]
    if isinstance(obj, Event):
        return list(obj.members)
    if isinstance(obj, StateVector):
        return [to_jsonable(z) for z in obj.components]
    if isinstance(obj, Enum):
        return obj.value
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name)) for f in dc_fields(obj)
        }
    if isinstance(obj, Mapping):
        return {_key_str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in seq]
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def _key_str(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, Event):
        return key.label()
    if isinstance(key, Fraction):
        return format_rational(key)
    if isinstance(key, float):
        return format_float(key)
    if isinstance(key, tuple):
        return ",".join(_key_str(k) for k in key)
    return str(key)


def canonical_json(obj: Any) -> str:
    return (
        json.dumps(to_jsonable(obj), sort_keys=True, indent=2, ensure_ascii=False)
        + "\n"
    )


def _csv_escape(value: str) -> str:
    if any(ch in value for ch in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _csv(rows: Sequence[Sequence[str]]) -> str:
    return "".join(",".join(_csv_escape(v) for v in row) + "\n" for row in rows)


def emit_report(bundle: Mapping[str, Any], fmt: str = "json") -> str:
    """Serialise a report bundle deterministically.

    JSON output is canonical; CSV layouts depend on the bundle kind: analysis
    bundles emit one row per (context, outcome), distributions emit
    "value,probability" rows, sweeps one row per parameter, verification one
    row per check.
    """
    if fmt == "json":
        return canonical_json(bundle)
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    kind = bundle.get("kind")
    if kind == "analysis":
        rows = [
            [
                "context",
                "outcome",
                "classification",
                "delta",
                "lambda_squared",
                "lambda_sign",
                "lambda",
                "phase",
            ]
        ]
        for analysis in bundle["analyses"]:
            context: Event = analysis["context"]
            for rep in analysis["per_outcome"]:
                rows.append(
                    [
                        context.label(),
                        format_rational(rep.outcome),
                        rep.classification.value,
                        format_rational(rep.delta),
                        format_rational(rep.lambda_squared),
                        str(rep.lambda_sign),
                        format_float(rep.lambda_value),
                        format_float(rep.phase),
                    ]
                )
        return _csv(rows)
    if kind == "distribution":
        rows = [["value", "probability"]]
        for block in bundle["distributions"]:
            for value, mass in block["entries"]:
                rows.append(
                    [
                        format_float(x) if isinstance(x, float) else format_rational(x)
                        for x in (value, mass)
                    ]
                )
        return _csv(rows)
    if kind == "sweep":
        rows = [
            ["q", "distinct_states", "theta_first", "theta_second", "mismatch_gap"]
        ]
        for row in bundle["rows"]:
            rows.append(
                [
                    format_rational(row.q),
                    str(row.distinct_states),
                    format_float(row.theta_first),
                    format_float(row.theta_second),
                    format_float(row.mismatch_gap),
                ]
            )
        return _csv(rows)
    if kind == "verification":
        rows = [["check", "passed", "detail"]]
        for check in bundle["checks"]:
            rows.append([check.name, str(check.passed), check.detail])
        return _csv(rows)
    raise ValueError(f"bundle kind {kind!r} has no CSV layout")
