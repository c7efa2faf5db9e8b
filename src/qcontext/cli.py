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

Each code path imports the layers it runs when it runs: ``--help`` and usage
errors load no layer, ``analyze`` and ``represent`` never load
``operators``, and only ``verify`` loads the check suite.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ModelError, quoted

if TYPE_CHECKING:
    from .hilbert import ContextAtlas
    from .model_io import ModelSpec
    from .prob import Event


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
    from .model_io import kq_model, parse_model
    from .prob import as_fraction

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


def _resolve_pair(spec: ModelSpec, names: str):
    from .prob import variables_incompatible

    parts = [p.strip() for p in names.split(",")]
    if len(parts) != 2 or not all(parts):
        raise ModelError(f"--vars needs two names, got {quoted(names)}")
    a, b = (spec.variable(p) for p in parts)
    if not variables_incompatible(spec.space, a, b):
        raise ModelError(
            f"variables {quoted(parts[0])} and {quoted(parts[1])} are not "
            "incompatible"
        )
    return a, b


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


def _analysis_bundle(atlas: ContextAtlas, args) -> dict:
    """Each context's analysis and its two checks, read once per distinct
    table: the exact sum of both disturbances, and the largest gap between
    P(B_j|C) and its interference-form reconstruction."""
    from . import interference

    def checks(table, _) -> dict:
        return {
            "disturbance_sum": table.delta(0) + table.delta(1),
            "reconstruction_error": max(
                abs(table.reconstructed(j) - float(table.b_given_c[j]))
                for j in (0, 1)
            ),
        }

    analyses = []
    for entry, found in atlas.per_table(checks):
        c, table = entry.context, entry.table
        analysis = interference.ContextAnalysis.of(c, table, atlas.b_var.values)
        analyses.append(
            {
                "context": c,
                "classification": analysis.classification,
                "per_outcome": analysis.outcomes,
                "state": entry.state,
                "checks": found,
            }
        )
    return {"kind": "analysis", "analyses": analyses}


def _represent_bundle(atlas: ContextAtlas, args) -> dict:
    from . import hilbert

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
    means = atlas.per_table(
        lambda table, state: {
            "mean_a_operator": operators.quantum_mean(a_op, state),
            "mean_b_operator": operators.quantum_mean(b_op, state),
            "mean_a_classical": of_a.mean_on(table.local),
            "mean_b_classical": of_b.mean_on(table.local),
        },
        atlas.represented,
    )
    return {
        "kind": "operators",
        "a_operator": [list(r) for r in a_op.entries],
        "b_operator": [list(r) for r in b_op.entries],
        "commutator": [list(r) for r in com],
        "means": [{"context": e.context, **row} for e, row in means],
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


def _mismatch_reports(atlas: ContextAtlas, obs, alignment, context):
    """(entry, report) for every mappable entry of the atlas, or of an atlas
    of the --context event alone, which must have an amplitude; the
    operator's spectrum is computed once, each report once per table."""
    from . import hilbert, operators

    space = atlas.space
    if context:
        c = space.event(context.split(","))
        atlas = hilbert.ContextAtlas(space, atlas.a_var, atlas.b_var, (c,))
        atlas.amplitudes()  # raises unless the event is a mappable context
    if not atlas.mappable:
        return []
    spectrum = operators.spectral_decomposition(obs.operator(atlas.transition))
    whole = atlas.omega.whole
    return atlas.per_table(
        lambda table, state: operators.MismatchReport.of(
            obs.distribution_on(table.local, whole),
            spectrum.distribution(state),
            alignment,
        ),
        atlas.mappable,
    )


def _compare_bundle(atlas: ContextAtlas, args) -> dict:
    from . import operators

    a_var, b_var = atlas.a_var, atlas.b_var
    if args.observable == "sum":
        obs = operators.CompositeObservable.sum_of(a_var, b_var)
    else:
        obs = operators.CompositeObservable.product_of(a_var, b_var)
    blocks = []
    distributions = []
    for e, report in _mismatch_reports(atlas, obs, _alignment(args), args.context):
        c = e.context
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
    from .model_io import sweep

    result = sweep(values)
    return {
        "kind": "sweep",
        "grid": [row.q for row in result.rows],
        "theta_monotone": result.theta_monotone,
        "rows": list(result.rows),
    }


def _verify_bundle(atlas: ContextAtlas, args) -> dict:
    from . import verify

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


def _dispersion_bundle(atlas: ContextAtlas, args) -> dict:
    from . import operators

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
    from .hilbert import ContextAtlas
    from .model_io import model_document

    spec = _load_model(args)
    a_var, b_var = _resolve_pair(spec, args.vars)
    contexts = _contexts_for(spec, a_var)
    atlas = ContextAtlas(spec.space, a_var, b_var, contexts)
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


#: Characters per write to a sink, one pipe buffer: with an unbuffered
#: stdout (PYTHONUNBUFFERED) each write is a system call that can wake the
#: reader, so a report is not written one small piece at a time.
CHUNK = 1 << 16


def _in_chunks(write_report, write) -> None:
    """Hand the report's pieces to ``write`` joined into chunks of at most
    ``CHUNK`` characters (a longer piece alone)."""
    chunk: list[str] = []
    size = 0

    def add(piece: str) -> None:
        nonlocal size
        if chunk and size + len(piece) > CHUNK:
            write("".join(chunk))
            chunk.clear()
            size = 0
        chunk.append(piece)
        size += len(piece)

    write_report(add)
    write("".join(chunk))


def _to_stdout(write_report) -> None:
    """Hand the report to stdout and flush it.  After a failed write, point
    stdout's file descriptor, if it has one, at the null device: the flush
    at interpreter exit would fail again on what is still buffered."""
    try:
        _in_chunks(write_report, sys.stdout.write)
        sys.stdout.flush()
    except (OSError, UnicodeEncodeError):
        with contextlib.suppress(OSError, ValueError):  # no file descriptor
            fd = sys.stdout.fileno()
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        from .model_io import report_writer

        bundle = _sweep_bundle(args) if args.command == "sweep" else _model_bundle(args)
        write_report = report_writer(bundle, args.fmt)
    except (ModelError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as sink:
                _in_chunks(write_report, sink.write)
        else:
            _to_stdout(write_report)
    except (OSError, UnicodeEncodeError) as exc:
        sys.stderr.write(f"error: cannot write the report: {exc}\n")
        return 1
    if args.command == "verify" and not bundle["all_passed"]:
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
