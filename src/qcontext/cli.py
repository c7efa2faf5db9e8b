"""Command-line front end.

Subcommands: analyze (disturbance and classification for every context),
represent (amplitudes, bases, image structure), operators (matrices,
commutator, means), compare-dist (classical versus spectral distributions),
sweep (reference-family grid), verify (the registered check suite, exit 2 on
any failure) and dispersion-free (zero-variance event search).

Exit codes: 0 success, 1 validation or usage error, 2 at least one failed
check in verify.  Reports are deterministic: the same argv and model bytes
produce byte-identical output.  The environment variable CONTEXTUAL_SEED
(integer, default 0) seeds the randomised parts of verify.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import hilbert, interference, operators
from .errors import ModelError
from .model_io import (
    ModelSpec,
    emit_report,
    kq_model,
    model_document,
    parse_model,
    sweep,
)
from .prob import (
    Event,
    as_fraction,
    conditional,
    is_context,
    quoted,
    variables_incompatible,
)

MAX_DEFAULT_ENUMERATION = 12


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_model_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", help="path to a model JSON document")
    sub.add_argument(
        "--kq", help="reference-family parameter, a rational in (0, 1/2)"
    )
    sub.add_argument(
        "--vars",
        default="a,b",
        help="comma-separated pair of variable names (default a,b)",
    )
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json", dest="fmt"
    )
    sub.add_argument("--out", help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcontext")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, description in (
        ("analyze", "disturbance coefficients and classification per context"),
        ("represent", "amplitudes, bases and the image of the context map"),
        ("operators", "operator matrices, commutator and means"),
        ("compare-dist", "classical versus spectral distributions"),
        ("verify", "run every registered consistency check"),
        ("dispersion-free", "search events with zero variance for all variables"),
    ):
        sub = commands.add_parser(name, description=description)
        _add_model_options(sub)
        if name == "compare-dist":
            sub.add_argument(
                "--observable",
                choices=("sum", "product"),
                default="sum",
            )
            sub.add_argument(
                "--context",
                help="comma-separated point ids; default is every mappable context",
            )
            sub.add_argument(
                "--align",
                help="affine support map SCALE,OFFSET applied to classical values",
            )
    grid = commands.add_parser(
        "sweep", description="analyse the reference family over a parameter grid"
    )
    grid.add_argument(
        "--grid", required=True, help="comma-separated rationals in (0, 1/2)"
    )
    grid.add_argument(
        "--format", choices=("json", "csv"), default="json", dest="fmt"
    )
    grid.add_argument("--out", help="write the report to this path")
    return parser


def _load_model(args: argparse.Namespace) -> ModelSpec:
    given = [src for src in (args.model, args.kq) if src is not None]
    if len(given) != 1:
        raise ModelError("exactly one of --model and --kq is required")
    if args.kq is not None:
        try:
            q = as_fraction(args.kq)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"bad rational {quoted(args.kq)}") from exc
        return kq_model(q)
    path = Path(args.model)
    if not path.is_file():
        raise ModelError(f"model file not found: {path}")
    return parse_model(path.read_text(encoding="utf-8"))


def _resolve_pair(spec: ModelSpec, names: str):
    parts = [p.strip() for p in names.split(",")]
    if len(parts) != 2 or not all(parts):
        raise ModelError(f"--vars needs two names, got {quoted(names)}")
    a, b = (spec.variable(p) for p in parts)
    if not variables_incompatible(spec.space, a, b):
        raise ModelError(
            f"variables {parts[0]!r} and {parts[1]!r} are not incompatible"
        )
    return a, b


def _contexts_for(spec: ModelSpec, a_var, command: str) -> tuple[Event, ...] | None:
    """The model's listed contexts that are contexts for the pair, sorted by
    (size, members); None when it lists none, for the atlas to enumerate."""
    if spec.contexts is not None:
        part = a_var.partition(spec.space)
        chosen = tuple(
            c for c in spec.contexts if is_context(spec.space, c, part)
        )
        return tuple(
            sorted(chosen, key=lambda e: (len(e.members), e.members))
        )
    if command == "analyze" and len(spec.space.points) > MAX_DEFAULT_ENUMERATION:
        raise ModelError(
            "exhaustive enumeration is limited to "
            f"{MAX_DEFAULT_ENUMERATION} points; list contexts in the model file"
        )
    return None


def _analysis_bundle(atlas: hilbert.ContextAtlas, args) -> dict:
    space, b_var = atlas.space, atlas.b_var
    a_part = atlas.a_var.partition(space)
    b_part = b_var.partition(space)
    analyses = []
    for entry in atlas.entries:
        c = entry.context
        analysis = interference.ContextAnalysis.of(c, entry.table, b_var.values)
        checks = {
            "disturbance_sum": interference.delta_outcome_sum(
                space, a_part, b_part, c
            ),
            "reconstruction_error": max(
                abs(
                    interference.reconstruct_total_probability(
                        space, cell, a_part, c
                    )
                    - float(conditional(space, cell, c))
                )
                for cell in b_part.cells
            ),
        }
        analyses.append(
            {
                "context": c,
                "classification": analysis.classification,
                "per_outcome": list(analysis.outcomes),
                "state": entry.state,
                "checks": checks,
            }
        )
    return {"kind": "analysis", "analyses": analyses}


def _represent_bundle(atlas: hilbert.ContextAtlas, args) -> dict:
    trans, basis, image = atlas.transition, atlas.basis, atlas.image_set()
    gaps = atlas.phase_gap_profile(*hilbert.SIGNS)
    return {
        "kind": "representation",
        "transition_matrix": [list(row) for row in trans.entries],
        "double_stochastic": hilbert.is_double_stochastic(trans),
        "a_basis": list(basis.e_a),
        "stripped_phase": basis.stripped_phase,
        "states": [{"context": evt, "state": state} for evt, state in image.entries],
        "collisions": [list(group) for group in image.collisions],
        "distinct_states": image.distinct_count,
        "phase_gaps": [{"context": evt, "gap": gap} for evt, gap in gaps],
        "nonsensitive_contexts": list(atlas.nonsensitive_contexts()),
    }


def _operators_bundle(atlas: hilbert.ContextAtlas, args) -> dict:
    a_var, b_var = atlas.a_var, atlas.b_var
    a_op = operators.a_operator(a_var, atlas.transition)
    b_op = operators.b_operator(b_var)
    com = operators.commutator(b_op, a_op)
    of_a = operators.CompositeObservable.of_a(
        a_var, b_var, {v: v for v in a_var.values}
    )
    of_b = operators.CompositeObservable.of_b(b_var, {v: v for v in b_var.values})
    rows = [
        {
            "context": entry.context,
            "mean_a_operator": operators.quantum_mean(a_op, entry.state),
            "mean_b_operator": operators.quantum_mean(b_op, entry.state),
            "mean_a_classical": of_a.mean_on(entry.table.local),
            "mean_b_classical": of_b.mean_on(entry.table.local),
        }
        for entry in atlas.represented
    ]
    return {
        "kind": "operators",
        "a_operator": [list(r) for r in a_op.entries],
        "b_operator": [list(r) for r in b_op.entries],
        "commutator": [list(r) for r in com],
        "means": rows,
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


def _mismatch_reports(atlas: hilbert.ContextAtlas, obs, alignment, context):
    """(context, report) for every mappable context of the atlas, or of an
    atlas of the --context event alone, which must have an amplitude; the
    operator's spectrum is computed once."""
    space = atlas.space
    if context:
        c = space.event(context.split(","))
        atlas = hilbert.ContextAtlas(space, atlas.a_var, atlas.b_var, (c,))
        atlas.amplitudes()  # raises unless the event is a mappable context
    if not atlas.mappable:
        return []
    spectrum = operators.spectral_decomposition(operators.to_operator(space, obs))
    whole = atlas.omega.whole
    return [
        (
            e.context,
            operators.MismatchReport.of(
                obs.distribution_on(e.table.local, whole),
                spectrum.distribution(e.state),
                alignment,
            ),
        )
        for e in atlas.mappable
    ]


def _compare_bundle(atlas: hilbert.ContextAtlas, args) -> dict:
    a_var, b_var = atlas.a_var, atlas.b_var
    if args.observable == "sum":
        obs = operators.CompositeObservable.sum_of(a_var, b_var)
    else:
        obs = operators.CompositeObservable.product_of(a_var, b_var)
    blocks = []
    distributions = []
    for c, report in _mismatch_reports(atlas, obs, _alignment(args), args.context):
        blocks.append(
            {
                "context": c,
                "classical": report.classical,
                "quantum": {
                    format(k, ".12g"): v for k, v in report.quantum.items()
                },
                "alignment": list(report.alignment)
                if report.alignment
                else None,
                "total_variation": report.total_variation,
            }
        )
        distributions.append(
            {
                "label": f"{c.label()}:classical",
                "entries": sorted(report.classical.items()),
            }
        )
        distributions.append(
            {
                "label": f"{c.label()}:quantum",
                "entries": sorted(report.quantum.items()),
            }
        )
    return {
        "kind": "distribution",
        "observable": args.observable,
        "comparisons": blocks,
        "distributions": distributions,
    }


def _sweep_bundle(args) -> dict:
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


def _verify_bundle(atlas: hilbert.ContextAtlas, args) -> dict:
    from . import verify  # loaded here only: no other subcommand needs it

    seed = _seed_from_env()
    checks = verify.run_checks(
        atlas.space, atlas.a_var, atlas.b_var, seed=seed, atlas=atlas
    )
    return {
        "kind": "verification",
        "seed": seed,
        "checks": checks,
        "all_passed": all(c.passed for c in checks),
    }


def _dispersion_bundle(atlas: hilbert.ContextAtlas, args) -> dict:
    report = operators.dispersion_free_search(
        atlas.space, atlas.a_var, atlas.b_var, atlas
    )
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


def _model_bundle(args) -> dict:
    """The report of a model subcommand, read from one atlas of the pair;
    the atlas is released before the report is emitted."""
    spec = _load_model(args)
    a_var, b_var = _resolve_pair(spec, args.vars)
    contexts = _contexts_for(spec, a_var, args.command)
    atlas = hilbert.ContextAtlas(spec.space, a_var, b_var, contexts)
    return {
        "model": model_document(spec),
        "variables": [a_var.name, b_var.name],
        **_BUNDLES[args.command](atlas, args),
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        bundle = _sweep_bundle(args) if args.command == "sweep" else _model_bundle(args)
        text = emit_report(bundle, args.fmt)
    except (ModelError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            sys.stderr.write(f"error: cannot write the report: {exc}\n")
            return 1
    else:
        sys.stdout.write(text)
    if args.command == "verify" and not bundle["all_passed"]:
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
