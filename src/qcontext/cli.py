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

This module holds the parser, ``main`` and the output and exit handling;
the reports are built in :mod:`model_io`.  Each code path imports the layers
it runs when it runs: ``--help`` and usage errors load no layer and compile
no report code, ``analyze`` and ``represent`` never load ``operators``, and
only ``verify`` loads the check suite.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .errors import ModelError


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
        from . import model_io

        if args.command == "sweep":
            bundle = model_io.sweep_bundle(args)
        else:
            bundle = model_io.model_bundle(args)
        write_report = model_io.report_writer(bundle, args.fmt)
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
