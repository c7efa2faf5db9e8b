"""Model documents, the four-point reference family, sweeps and reports.

Model files are JSON with exact weights: rationals are written as "p/q"
strings and decimal literals are read exactly (0.25 means 1/4, never a
float).  Canonical serialisation is UTF-8, LF, two-space indent, keys sorted,
one trailing newline, so documents and reports are byte-stable for golden
testing.

The report of each CLI subcommand is built here too (:func:`model_bundle`,
:func:`sweep_bundle`): a bundle of rows that :func:`report_writer` hands
out as text in either format, JSON a row and CSV a line at a time;
:func:`emit_report` is those pieces joined.  Contexts that share a table
share every value of their rows but the context, so such a row is a
:class:`Shared` row, whose JSON text the writer renders once per table and
indent and fills in with each context.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence

from .errors import (
    DuplicatePointError,
    MalformedDocumentError,
    ModelError,
    PartialAssignmentError,
    QOutOfRangeError,
    WeightSumNotOneError,
    quoted,
    quoted_list,
)
from .prob import DichotomousVariable, Event, FiniteProbabilitySpace, as_fraction
from .record import Record

if TYPE_CHECKING:
    from argparse import Namespace

    from .hilbert import AtlasEntry, ContextAtlas


class ModelSpec(Record):
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
        except ValueError as exc:
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
            raise DuplicatePointError(f"duplicate point identifier {quoted(pid)}")
        w = _parse_rational(entry["weight"], f"weight of {quoted(pid)}")
        _require(w > 0, f"weight of {quoted(pid)} must be strictly positive")
        ids.append(pid)
        weights[pid] = w
    _require(ids, "a model needs at least one point")
    total = sum(weights.values())
    if total != 1:
        raise WeightSumNotOneError(f"weights sum to {_shown(total)}, expected 1")
    space = FiniteProbabilitySpace(points=tuple(ids), weights=weights)

    variables: dict[str, DichotomousVariable] = {}
    for name, body in doc["variables"].items():
        _require(isinstance(body, dict), f"variable {quoted(name)} must be an object")
        _require(
            "values" in body and "assignment" in body,
            f"variable {quoted(name)} needs 'values' and 'assignment'",
        )
        values = body["values"]
        _require(
            isinstance(values, list) and len(values) == 2,
            f"variable {quoted(name)} needs exactly two values",
        )
        v1 = _parse_rational(values[0], f"first value of {quoted(name)}")
        v2 = _parse_rational(values[1], f"second value of {quoted(name)}")
        assignment = body["assignment"]
        _require(
            isinstance(assignment, dict),
            f"assignment of {quoted(name)} must be an object",
        )
        missing = [p for p in ids if p not in assignment]
        if missing:
            raise PartialAssignmentError(
                f"variable {quoted(name)} leaves points {quoted_list(missing)} "
                "unassigned"
            )
        cleaned: dict[str, int] = {}
        for pid, idx in assignment.items():
            _require(
                pid in weights,
                f"assignment of {quoted(name)} names unknown point {quoted(pid)}",
            )
            _require(
                idx in (1, 2) and not isinstance(idx, bool),
                f"assignment of {quoted(name)} at {quoted(pid)} must be 1 or 2",
            )
            cleaned[pid] = idx
        try:
            variables[name] = DichotomousVariable(
                name=name, values=(v1, v2), assignment=cleaned
            )
        except ValueError as exc:
            raise MalformedDocumentError(f"variable {quoted(name)}: {exc}") from exc

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
                f"context {quoted_list(row)} names an unknown point",
            )
            parsed.append(Event(row))
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
        raise QOutOfRangeError(
            f"parameter must lie strictly in (0, 1/2), got {_shown(q)}"
        )
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


class SweepRow(Record):
    q: Fraction
    distinct_states: int
    theta_first: float
    theta_second: float
    mismatch_gap: float


class SweepResult(Record):
    """Per-parameter bundle over the reference family.

    ``theta_second`` tracks the phase of the second outcome in the
    three-point context {w1, w2, w3}; it increases strictly with q across the
    grid, from near pi/3 to near pi/2 over (0, 1/2).
    """

    rows: tuple[SweepRow, ...]
    theta_monotone: bool


def sweep(q_values: Sequence[Fraction | int | str | float]) -> SweepResult:
    """One row per parameter, each read from one atlas of the pair, which
    sums the whole space once: the phases of both coefficients of the
    context {w1, w2, w3}, the image set, and the classical and spectral
    laws of a + b in the witness context {w2, w3, w4}."""
    from .hilbert import ContextAtlas
    from .operators import CompositeObservable, MismatchReport, spectral_decomposition

    rows = []
    for raw in q_values:
        q = as_fraction(raw)
        spec = kq_model(q)
        a, b = spec.variable("a"), spec.variable("b")
        atlas = ContextAtlas(spec.space, a, b)
        entries = {e.context.members: e for e in atlas.entries}
        probe, witness = entries["w1", "w2", "w3"], entries["w2", "w3", "w4"]
        theta_first, theta_second = probe.table.phases
        obs = CompositeObservable.sum_of(a, b)
        gamma = float(b.values[0])
        report = MismatchReport.of(
            obs.distribution_on(witness.table.local, atlas.omega.whole),
            spectral_decomposition(obs.operator(atlas.transition)).distribution(
                witness.state
            ),
            alignment=(2.0 * math.sqrt(float(2 * q)), -gamma),
        )
        rows.append(
            SweepRow(
                q=q,
                distinct_states=atlas.image_set().distinct_count,
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


def _shown(x: Fraction) -> str:
    """``format_rational(x)``, through :func:`errors.quoted` when longer than
    40 characters, for an error line."""
    text = format_rational(x)
    return text if len(text) <= 40 else quoted(text)


def format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form; +0.0 normalised."""
    return format(x + 0.0, ".17g")


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
    """``obj`` as canonical JSON text: the pieces :func:`write_json` hands
    out, joined."""
    parts: list[str] = []
    write_json(obj, parts.append)
    return "".join(parts)


_Out = Callable[[str], Any]


def write_json(obj: Any, write: _Out) -> None:
    """Hand the canonical JSON text of ``obj`` to ``write`` in pieces: one
    piece per item of an array, and per value of a mapping, that sits
    directly under the top-level value (such as one row of a report), so
    that no more than one such item is held as text at a time.

    Domain values are normalised on the way: rationals become "p/q"
    strings, floats fixed 17-digit strings, complex numbers (re, im) string
    pairs, events sorted id lists, records objects of their fields (a
    state: its components), sets sorted lists, and mapping keys strings
    (of two keys that read alike, the later value stays).  Objects are
    written with sorted keys, containers with a two-space indent, strings
    as ``json.dumps(ensure_ascii=False)`` writes them, U+0000 escaped, so
    the text holds no NUL; it ends in one newline.  A :class:`Shared` row
    is written as the row it reads as.
    """
    _write(obj, write, "\n", 2, "")
    write("\n")


def _write(obj: Any, write: _Out, newline: str, depth: int, lead: str) -> None:
    """Hand ``lead`` and the text of ``obj`` to ``write``: whole at depth
    0, else a nonempty array, mapping or record one member at a time at
    ``depth - 1``.  ``newline`` is a line break followed by the indent of
    the line ``obj`` starts on."""
    text = _text_of[type(obj)]
    if depth and text is _mapping_text and obj:
        brackets, pairs = "{}", [(_key_prefix(k), v) for k, v in _fields(obj)]
    elif depth and text is _array_text and obj:
        brackets, pairs = "[]", [("", item) for item in obj]
    elif depth and isinstance(obj, Record):
        _write(obj._jsonable(), write, newline, depth, lead)
        return
    else:
        write(lead + text(obj, newline))
        return
    inner = newline + "  "
    separator = lead + brackets[0] + inner
    for key, value in pairs:
        _write(value, write, inner, depth - 1, separator + key)
        separator = "," + inner
    write(newline + brackets[1])


class Slot:
    """A placeholder in the row that the contexts of one table share:
    ``of(c)`` is what the row of context c holds in its place."""

    __slots__ = ("of",)

    def __init__(self, of: Callable[[Event], Any]) -> None:
        self.of = of


#: The placeholder of the context itself.
CONTEXT = Slot(lambda c: c)


class Shared(Mapping):
    """The row of a context whose table other contexts of the same list
    use: it reads as ``make(context)``, where ``make`` makes the row of
    any context of that table and, given :data:`CONTEXT`, the row with
    slots in the places of the context.  The writer renders that row once
    per table and indent into ``texts``, a dict the rows of one list share,
    keyed by the table's raw local masses ``key`` and the indent, and fills
    in each place of a slot as it would render the context's own value."""

    __slots__ = ("context", "key", "make", "texts")

    def __init__(
        self, context: Event, key: Hashable, make: Callable, texts: dict
    ) -> None:
        self.context, self.key, self.make, self.texts = context, key, make, texts

    def __getitem__(self, name: str) -> Any:
        return self.make(self.context)[name]

    def __iter__(self):
        return iter(self.make(self.context))

    def __len__(self) -> int:
        return len(self.make(self.context))


def _shared_text(row: Shared, newline: str) -> str:
    """The text of its table's row, cut at the slots on the first row of
    that table and indent, with each slot filled in for the row's context,
    rendered once per distinct (slot, newline)."""
    key = (row.key, newline)
    if key not in row.texts:
        parts, slots = _cut(row.make(CONTEXT), newline)
        distinct = list(dict.fromkeys(slots))
        row.texts[key] = parts, distinct, [distinct.index(s) for s in slots]
    parts, distinct, marks = row.texts[key]
    texts = [_text(slot.of(row.context), inner) for slot, inner in distinct]
    filled = [parts[0]]
    for k, part in zip(marks, parts[1:]):
        filled += (texts[k], part)
    return "".join(filled)


#: (slot, newline) of each slot rendered since :func:`_cut` last cleared it.
_slots: list[tuple[Slot, str]] = []


def _slot_text(slot: Slot, newline: str) -> str:
    """A NUL marks the slot's place; no other text of the writer holds one,
    as ``encode_basestring`` escapes U+0000 in every string."""
    _slots.append((slot, newline))
    return "\0"


def _cut(obj: Any, newline: str) -> tuple[list[str], list[tuple[Slot, str]]]:
    """The text of ``obj`` cut at its slots: the pieces between them, and
    each slot, in order, with the newline of the line it sits on."""
    _slots.clear()
    parts = _text(obj, newline).split("\0")
    return parts, _slots.copy()


class _TextOf(dict):
    """Type -> the function of a value of that type and a newline that
    gives the value's text, filled on first use (a dict subscript is the
    cheapest cached call) from the first case in ``_TEXTS`` that the type
    is a subclass of."""

    def __missing__(self, kind: type) -> Callable[[Any, str], str]:
        for base, text in _TEXTS:
            if issubclass(kind, base):
                text = self[kind] = text or _record_text(kind)
                return text
        raise TypeError(f"cannot serialise {kind.__name__}")


_text_of = _TextOf()


def _text(obj: Any, newline: str) -> str:
    """The text of ``obj``, whose first line has the indent of ``newline``."""
    return _text_of[type(obj)](obj, newline)


def _array_text(items: Sequence[Any], newline: str) -> str:
    if not items:
        return "[]"
    inner = newline + "  "
    body = ("," + inner).join([_text_of[type(v)](v, inner) for v in items])
    return f"[{inner}{body}{newline}]"


def _mapping_text(obj: Mapping, newline: str) -> str:
    if not obj:
        return "{}"
    inner = newline + "  "
    body = ("," + inner).join(
        [_key_prefix(k) + _text_of[type(v)](v, inner) for k, v in _fields(obj)]
    )
    return f"{{{inner}{body}{newline}}}"


def _fields(obj: Mapping) -> list[tuple[str, Any]]:
    """The (key, value) pairs of ``obj`` with string keys, in key order."""
    fields = {k if k.__class__ is str else _key_str(k): v for k, v in obj.items()}
    return sorted(fields.items())


@functools.lru_cache(maxsize=4096)
def _key_prefix(key: str) -> str:
    return f"{encode_basestring(key)}: "


def _record_text(kind: type[Record]) -> Callable[[Any, str], str]:
    """A record is written as its fields, with their order and prefixes
    computed once per class, or, if its class has its own ``_jsonable``,
    as the value that gives."""
    if kind._jsonable is not Record._jsonable:
        return lambda obj, newline: _text(obj._jsonable(), newline)
    layout = [(name, _key_prefix(name)) for name in sorted(kind._fields)]

    def text(obj: Record, newline: str) -> str:
        own, inner = obj.__dict__, newline + "  "
        body = ("," + inner).join(
            [k + _text_of[type(v := own[name])](v, inner) for name, k in layout]
        )
        return f"{{{inner}{body}{newline}}}" if layout else "{}"

    return text


_TEXTS: tuple[tuple[type | tuple[type, ...], Callable | None], ...] = (
    (str, lambda obj, newline: encode_basestring(obj)),
    (type(None), lambda obj, newline: "null"),
    (bool, lambda obj, newline: "true" if obj else "false"),
    (int, lambda obj, newline: int.__repr__(obj)),
    (Fraction, lambda obj, newline: f'"{format_rational(obj)}"'),
    (float, lambda obj, newline: f'"{format_float(obj)}"'),
    (complex, lambda obj, newline: _array_text((obj.real, obj.imag), newline)),
    (Event, lambda obj, newline: _array_text(obj.members, newline)),
    (Enum, lambda obj, newline: _text(obj.value, newline)),
    (Record, None),  # per class: _record_text
    (Shared, _shared_text),
    (Slot, _slot_text),
    (Mapping, _mapping_text),
    ((list, tuple), _array_text),
    ((set, frozenset), lambda obj, newline: _array_text(sorted(obj), newline)),
)


def _csv_field(value: Any) -> str:
    text = _key_str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(values: Iterable[Any]) -> str:
    return ",".join([_csv_field(v) for v in values]) + "\n"


def _analysis_lines(bundle: Mapping) -> Iterator[str]:
    """One line per (context, outcome).  The lines of a :class:`Shared` row
    differ from those of its table's other contexts only in the context,
    so the rest is made and formatted once per table."""

    def tail(r) -> str:
        values = (r.outcome, r.classification.value, r.delta, r.lambda_squared)
        return "," + _csv_line(values + (r.lambda_sign, r.lambda_value, r.phase))

    tails: dict[Hashable, list[str]] = {}  # None: the last unshared row
    for row in bundle["analyses"]:
        shared = row.__class__ is Shared
        key = row.key if shared else None
        if key is None or key not in tails:
            reports = (row.make(CONTEXT) if shared else row)["per_outcome"]
            tails[key] = [tail(r) for r in reports]
        context = _csv_field(row.context if shared else row["context"])
        yield from (context + text for text in tails[key])


#: Bundle kind -> its CSV header and the function that yields each line
#: below the header, as a string or as the values it holds.
_CSV_LAYOUTS: dict[str, tuple[str, Callable[[Mapping], Iterable]]] = {
    "analysis": (
        "context,outcome,classification,delta,lambda_squared,lambda_sign,lambda,phase",
        _analysis_lines,
    ),
    "distribution": (
        "value,probability",
        lambda bundle: (
            entry for block in bundle["distributions"] for entry in block["entries"]
        ),
    ),
    "sweep": (
        "q,distinct_states,theta_first,theta_second,mismatch_gap",
        lambda bundle: (
            (r.q, r.distinct_states, r.theta_first, r.theta_second, r.mismatch_gap)
            for r in bundle["rows"]
        ),
    ),
    "verification": (
        "check,passed,detail",
        lambda bundle: ((c.name, c.passed, c.detail) for c in bundle["checks"]),
    ),
}


def _write_csv(
    bundle: Mapping[str, Any],
    header: str,
    lines: Callable[[Mapping], Iterable],
    write: _Out,
) -> None:
    write(header + "\n")
    for line in lines(bundle):
        write(line if line.__class__ is str else _csv_line(line))


def report_writer(
    bundle: Mapping[str, Any], fmt: str = "json"
) -> Callable[[_Out], None]:
    """The function that hands the report of ``bundle`` in ``fmt`` to a
    ``write`` callable: JSON in the pieces of :func:`write_json`, CSV one
    line at a time.  An unknown format, or a bundle kind with no CSV
    layout, raises ``ValueError`` here, before a byte is written."""
    if fmt == "json":
        return functools.partial(write_json, bundle)
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    kind = bundle.get("kind")
    if kind not in _CSV_LAYOUTS:
        raise ValueError(f"bundle kind {kind!r} has no CSV layout")
    return functools.partial(_write_csv, bundle, *_CSV_LAYOUTS[kind])


def emit_report(bundle: Mapping[str, Any], fmt: str = "json") -> str:
    """The report of ``bundle`` in ``fmt``: the pieces of
    :func:`report_writer` joined.

    JSON output is canonical; a CSV report is a header line and one line
    per (context, outcome) of an analysis, per (value, probability) entry
    of a distribution, per parameter of a sweep or per check of a
    verification.
    """
    parts: list[str] = []
    report_writer(bundle, fmt)(parts.append)
    return "".join(parts)


# ------------------------------------------------------------ report bundles


def _load_model(args: Namespace) -> ModelSpec:
    given = [src for src in (args.model, args.kq) if src is not None]
    if len(given) != 1:
        raise ModelError("exactly one of --model and --kq is required")
    if args.kq is not None:
        try:
            q = as_fraction(args.kq)
        except ValueError as exc:
            raise ModelError(f"bad rational {quoted(args.kq)}") from exc
        return kq_model(q)
    path = Path(args.model)
    if not path.is_file():
        raise ModelError(f"model file not found: {path}")
    return parse_model(path.read_text(encoding="utf-8"))


def _resolve_pair(spec: ModelSpec, names: str) -> ContextAtlas:
    """The atlas of the pair ``names``, which must be incompatible."""
    from .hilbert import ContextAtlas

    parts = [p.strip() for p in names.split(",")]
    if len(parts) != 2 or not all(parts):
        raise ModelError(f"--vars needs two names, got {quoted(names)}")
    a, b = (spec.variable(p) for p in parts)
    atlas = ContextAtlas(spec.space, a, b, _contexts_for(spec, a))
    if not atlas.omega.incompatible:
        raise ModelError(
            f"variables {quoted(parts[0])} and {quoted(parts[1])} are not "
            "incompatible"
        )
    return atlas


def _contexts_for(spec: ModelSpec, a_var) -> tuple[Event, ...] | None:
    """The model's listed contexts that are contexts for the pair, each once,
    sorted by (size, members); None when it lists none, for the atlas to
    enumerate."""
    if spec.contexts is None:
        return None
    from .prob import is_context

    part = a_var.partition(spec.space)
    chosen = {c for c in spec.contexts if is_context(spec.space, c, part)}
    return tuple(sorted(chosen, key=lambda e: (len(e.members), e.members)))


def _rows(made: Iterable[tuple[AtlasEntry, Callable]]) -> list:
    """The row of each entry, given (entry, make), where ``make`` makes the
    row of any context of the entry's table: ``make(context)`` itself when
    no other entry uses that table, else a :class:`Shared` row."""
    made = list(made)
    uses = Counter(e.table.local for e, _ in made)
    texts: dict = {}
    return [
        Shared(e.context, e.table.local, make, texts)
        if uses[e.table.local] > 1
        else make(e.context)
        for e, make in made
    ]


def _labelled(c: Event, suffix: str) -> str | Slot:
    """The label of ``c`` followed by ``suffix``; for :data:`CONTEXT`, the
    slot that gives it."""
    if c is CONTEXT:
        return Slot(lambda e: f"{e.label()}{suffix}")
    return f"{c.label()}{suffix}"


def _analysis_bundle(atlas: ContextAtlas, args) -> dict:
    """Each context's analysis, read once per distinct table, and for a JSON
    report, which alone prints them, its two checks: the exact sum of both
    disturbances, and the largest gap between P(B_j|C) and its
    interference-form reconstruction."""
    from .interference import ContextAnalysis

    b_values, with_checks = atlas.b_var.values, args.fmt == "json"

    def row_of(table, state) -> Callable:
        def row(c) -> dict:
            analysis = ContextAnalysis.of(c, table, b_values)
            made = {
                "context": c,
                "classification": analysis.classification,
                "per_outcome": analysis.outcomes,
                "state": state,
            }
            if with_checks:
                made["checks"] = {
                    "disturbance_sum": sum(r.delta for r in analysis.outcomes),
                    "reconstruction_error": max(
                        abs(table.reconstructed(j) - float(table.b_given_c[j]))
                        for j in (0, 1)
                    ),
                }
            return made

        return row

    return {"kind": "analysis", "analyses": _rows(atlas.per_table(row_of))}


def _represent_bundle(atlas: ContextAtlas, args) -> dict:
    from . import hilbert

    trans, basis, image = atlas.transition, atlas.basis, atlas.image_set()
    states = atlas.per_table(
        lambda table, state: lambda c: {"context": c, "state": state},
        atlas.represented,
    )

    def gap_row(table, _) -> Callable:
        gap = hilbert.phase_gap(table, *hilbert.SIGNS)
        return lambda c: {"context": c, "gap": gap}

    gaps = atlas.per_table(gap_row, atlas.mappable)
    return {
        "kind": "representation",
        "transition_matrix": [list(row) for row in trans.entries],
        "double_stochastic": hilbert.is_double_stochastic(trans),
        "a_basis": list(basis.e_a),
        "stripped_phase": basis.stripped_phase,
        "states": _rows(states),
        "collisions": [list(group) for group in image.collisions],
        "distinct_states": image.distinct_count,
        "phase_gaps": _rows(gaps),
        "nonsensitive_contexts": list(atlas.nonsensitive_contexts()),
    }


def _operators_bundle(atlas: ContextAtlas, args) -> dict:
    from . import operators

    a_var, b_var = atlas.a_var, atlas.b_var
    a_op = operators.a_operator(a_var, atlas.transition)
    b_op = operators.b_operator(b_var)
    com = operators.commutator(b_op, a_op)
    of_a = operators.CompositeObservable.of_a(
        a_var, b_var, {v: v for v in a_var.values}
    )
    of_b = operators.CompositeObservable.of_b(b_var, {v: v for v in b_var.values})

    def row_of(table, state) -> Callable:
        means = {
            "mean_a_operator": operators.quantum_mean(a_op, state),
            "mean_b_operator": operators.quantum_mean(b_op, state),
            "mean_a_classical": of_a.mean_on(table.local),
            "mean_b_classical": of_b.mean_on(table.local),
        }
        return lambda c: {"context": c, **means}

    means = atlas.per_table(row_of, atlas.represented)
    return {
        "kind": "operators",
        "a_operator": [list(r) for r in a_op.entries],
        "b_operator": [list(r) for r in b_op.entries],
        "commutator": [list(r) for r in com],
        "means": _rows(means),
    }


def _alignment(args) -> tuple[float, float] | None:
    if not args.align:
        return None
    try:
        scale_text, offset_text = args.align.split(",")
        alignment = (float(scale_text), float(offset_text))
    except ValueError as exc:
        raise ModelError(f"bad --align value {quoted(args.align)}") from exc
    if not all(math.isfinite(x) for x in alignment):
        raise ModelError(
            f"--align needs a finite SCALE and OFFSET, got {quoted(args.align)}"
        )
    return alignment


def _compare_bundle(atlas: ContextAtlas, args) -> dict:
    """Classical against spectral law of the observable on every mappable
    entry of the atlas, or of an atlas of the --context event alone, which
    must have an amplitude; the operator's spectrum is computed once, each
    report once per table."""
    from . import operators

    a_var, b_var = atlas.a_var, atlas.b_var
    if args.observable == "sum":
        obs = operators.CompositeObservable.sum_of(a_var, b_var)
    else:
        obs = operators.CompositeObservable.product_of(a_var, b_var)
    alignment = _alignment(args)
    if args.context:
        atlas = atlas.over((atlas.space.event(args.context.split(",")),))
        atlas.amplitudes()  # raises unless the event is a mappable context
    made: list = []
    if atlas.mappable:
        spectrum = operators.spectral_decomposition(obs.operator(atlas.transition))
        whole = atlas.omega.whole

        def rows_of(table, state) -> tuple[Callable, Callable, Callable]:
            report = operators.MismatchReport.of(
                obs.distribution_on(table.local, whole),
                spectrum.distribution(state),
                alignment,
            )
            block = {
                "classical": report.classical,
                "quantum": {format(k, ".12g"): v for k, v in report.quantum.items()},
                "alignment": list(report.alignment) if report.alignment else None,
                "total_variation": report.total_variation,
            }

            def law(side: str, entries: list) -> Callable:
                return lambda c: {"label": _labelled(c, side), "entries": entries}

            return (
                lambda c: {"context": c, **block},
                law(":classical", sorted(report.classical.items())),
                law(":quantum", sorted(report.quantum.items())),
            )

        made = list(atlas.per_table(rows_of, atlas.mappable))
    blocks, classical, quantum = (
        _rows((e, makes[k]) for e, makes in made) for k in range(3)
    )
    return {
        "kind": "distribution",
        "observable": args.observable,
        "comparisons": blocks,
        "distributions": [row for pair in zip(classical, quantum) for row in pair],
    }


def _verify_bundle(atlas: ContextAtlas, args) -> dict:
    from . import verify

    seed = _seed_from_env()
    checks = verify.run_checks(atlas, seed=seed)
    return {
        "kind": "verification",
        "seed": seed,
        "checks": checks,
        "all_passed": all(c.passed for c in checks),
    }


def _dispersion_bundle(atlas: ContextAtlas, args) -> dict:
    from . import operators

    report = operators.dispersion_free_search(atlas)
    return {
        "kind": "dispersion",
        "dispersion_free": list(report.dispersion_free),
        "representable": list(report.representable),
        "intersection": list(report.intersection),
    }


_BUNDLES = {
    "analyze": _analysis_bundle,
    "represent": _represent_bundle,
    "operators": _operators_bundle,
    "compare-dist": _compare_bundle,
    "verify": _verify_bundle,
    "dispersion-free": _dispersion_bundle,
}


def model_bundle(args: Namespace) -> dict:
    """The report of a model subcommand, read from one atlas of the pair;
    the atlas is released before the report is emitted."""
    spec = _load_model(args)
    atlas = _resolve_pair(spec, args.vars)
    return {
        "model": model_document(spec),
        "variables": [atlas.a_var.name, atlas.b_var.name],
        **_BUNDLES[args.command](atlas, args),
    }


def sweep_bundle(args: Namespace) -> dict:
    values = [part.strip() for part in args.grid.split(",") if part.strip()]
    if not values:
        raise ModelError("--grid needs at least one rational")
    result = sweep(values)
    return {
        "kind": "sweep",
        "grid": [row.q for row in result.rows],
        "theta_monotone": result.theta_monotone,
        "rows": list(result.rows),
    }


def _seed_from_env() -> int:
    raw = os.environ.get("CONTEXTUAL_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ModelError(
            f"CONTEXTUAL_SEED must be an integer, got {quoted(raw)}"
        ) from exc
