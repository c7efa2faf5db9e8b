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

from . import hilbert, interference, operators, verify
from .errors import ModelError
from .model_io import (
    ModelSpec,
    emit_report,
    kq_model,
    model_document,
    parse_model,
    sweep,
)
from .prob import Event, as_fraction, conditional, variables_incompatible

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
            raise ModelError(f"bad rational {args.kq!r}") from exc
        return kq_model(q)
    path = Path(args.model)
    if not path.is_file():
        raise ModelError(f"model file not found: {path}")
    return parse_model(path.read_text(encoding="utf-8"))


def _resolve_pair(spec: ModelSpec, names: str):
    parts = [p.strip() for p in names.split(",")]
    if len(parts) != 2 or not all(parts):
        raise ModelError(f"--vars needs two names, got {names!r}")
    a, b = (spec.variable(p) for p in parts)
    if not variables_incompatible(spec.space, a, b):
        raise ModelError(
            f"variables {parts[0]!r} and {parts[1]!r} are not incompatible"
        )
    return a, b


def _contexts_for(spec: ModelSpec, a_var) -> tuple[Event, ...]:
    from .prob import contexts_of, is_context

    part = a_var.partition(spec.space)
    if spec.contexts is not None:
        chosen = tuple(
            c for c in spec.contexts if is_context(spec.space, c, part)
        )
        return tuple(
            sorted(chosen, key=lambda e: (len(e.members), e.members))
        )
    if len(spec.space.points) > MAX_DEFAULT_ENUMERATION:
        raise ModelError(
            "exhaustive enumeration is limited to "
            f"{MAX_DEFAULT_ENUMERATION} points; list contexts in the model file"
        )
    return contexts_of(spec.space, part)


def _analysis_bundle(spec: ModelSpec, a_var, b_var) -> dict:
    space = spec.space
    a_part = a_var.partition(space)
    b_part = b_var.partition(space)
    analyses = []
    for c in _contexts_for(spec, a_var):
        analysis = interference.analyze_context(space, a_var, b_var, c)
        mappable = all(rep.lambda_squared <= 1 for rep in analysis.outcomes)
        state = hilbert.amplitude(space, a_var, b_var, c) if mappable else None
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
                "state": state,
                "checks": checks,
            }
        )
    return {
        "kind": "analysis",
        "model": model_document(spec),
        "variables": [a_var.name, b_var.name],
        "analyses": analyses,
    }


def _represent_bundle(spec: ModelSpec, a_var, b_var) -> dict:
    space = spec.space
    trans = hilbert.transition_matrix(space, a_var, b_var)
    forward_ds = hilbert.is_double_stochastic(trans)
    basis = (
        hilbert.a_basis(space, a_var, b_var)
        if forward_ds
        else hilbert.context_basis(space, a_var, b_var)
    )
    image = hilbert.image_set(space, a_var, b_var)
    states = [
        {"context": evt, "state": state} for evt, state in image.entries
    ]
    gaps = hilbert.phase_gap_profile(space, a_var, b_var, -1, +1)
    return {
        "kind": "representation",
        "model": model_document(spec),
        "variables": [a_var.name, b_var.name],
        "transition_matrix": [list(row) for row in trans.entries],
        "double_stochastic": forward_ds,
        "a_basis": list(basis.e_a),
        "stripped_phase": basis.stripped_phase,
        "states": states,
        "collisions": [list(group) for group in image.collisions],
        "distinct_states": image.distinct_count,
        "phase_gaps": [
            {"context": evt, "gap": gap} for evt, gap in gaps
        ],
        "nonsensitive_contexts": list(
            hilbert.nonsensitive_contexts(space, a_var, b_var)
        ),
    }


def _operators_bundle(spec: ModelSpec, a_var, b_var) -> dict:
    space = spec.space
    trans = hilbert.transition_matrix(space, a_var, b_var)
    a_op = operators.a_operator(a_var, trans)
    b_op = operators.b_operator(b_var)
    com = operators.commutator(b_op, a_op)
    rows = []
    for evt, state in operators.represented_states(space, a_var, b_var):
        rows.append(
            {
                "context": evt,
                "mean_a_operator": operators.quantum_mean(a_op, state),
                "mean_b_operator": operators.quantum_mean(b_op, state),
                "mean_a_classical": operators.classical_mean(
                    space,
                    operators.CompositeObservable.of_a(
                        a_var, b_var, {v: v for v in a_var.values}
                    ),
                    evt,
                ),
                "mean_b_classical": operators.classical_mean(
                    space,
                    operators.CompositeObservable.of_b(
                        b_var, {v: v for v in b_var.values}
                    ),
                    evt,
                ),
            }
        )
    return {
        "kind": "operators",
        "model": model_document(spec),
        "variables": [a_var.name, b_var.name],
        "a_operator": [list(r) for r in a_op.entries],
        "b_operator": [list(r) for r in b_op.entries],
        "commutator": [list(r) for r in com],
        "means": rows,
    }


def _compare_bundle(spec: ModelSpec, a_var, b_var, args) -> dict:
    space = spec.space
    if args.observable == "sum":
        obs = operators.CompositeObservable.sum_of(a_var, b_var)
    else:
        obs = operators.CompositeObservable.product_of(a_var, b_var)
    alignment = None
    if args.align:
        try:
            scale_text, offset_text = args.align.split(",")
            alignment = (float(scale_text), float(offset_text))
        except ValueError as exc:
            raise ModelError(f"bad --align value {args.align!r}") from exc
        if not all(math.isfinite(x) for x in alignment):
            raise ModelError(
                f"--align needs a finite SCALE and OFFSET, got {args.align!r}"
            )
    if args.context:
        targets = [space.event(args.context.split(","))]
    else:
        targets = list(hilbert.mappable_contexts(space, a_var, b_var))
    blocks = []
    distributions = []
    for c in targets:
        report = operators.distribution_mismatch(
            space, a_var, b_var, obs, c, alignment=alignment
        )
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
        "model": model_document(spec),
        "variables": [a_var.name, b_var.name],
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


def _verify_bundle(spec: ModelSpec, a_var, b_var, seed: int) -> dict:
    checks = verify.run_checks(spec.space, a_var, b_var, seed=seed)
    return {
        "kind": "verification",
        "model": model_document(spec),
        "variables": [a_var.name, b_var.name],
        "seed": seed,
        "checks": checks,
        "all_passed": all(c.passed for c in checks),
    }


def _dispersion_bundle(spec: ModelSpec, a_var, b_var) -> dict:
    report = operators.dispersion_free_search(spec.space, a_var, b_var)
    return {
        "kind": "dispersion",
        "model": model_document(spec),
        "variables": [a_var.name, b_var.name],
        "dispersion_free": list(report.dispersion_free),
        "representable": list(report.representable),
        "intersection": list(report.intersection),
    }


def _seed_from_env() -> int:
    raw = os.environ.get("CONTEXTUAL_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ModelError(f"CONTEXTUAL_SEED must be an integer, got {raw!r}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "sweep":
            bundle = _sweep_bundle(args)
        else:
            spec = _load_model(args)
            a_var, b_var = _resolve_pair(spec, args.vars)
            if args.command == "analyze":
                bundle = _analysis_bundle(spec, a_var, b_var)
            elif args.command == "represent":
                bundle = _represent_bundle(spec, a_var, b_var)
            elif args.command == "operators":
                bundle = _operators_bundle(spec, a_var, b_var)
            elif args.command == "compare-dist":
                bundle = _compare_bundle(spec, a_var, b_var, args)
            elif args.command == "verify":
                bundle = _verify_bundle(spec, a_var, b_var, _seed_from_env())
            elif args.command == "dispersion-free":
                bundle = _dispersion_bundle(spec, a_var, b_var)
            else:  # pragma: no cover - argparse restricts the choices
                raise ModelError(f"unknown command {args.command!r}")
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
