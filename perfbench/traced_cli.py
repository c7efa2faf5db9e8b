"""Run one qcontext CLI invocation in this process with its layers traced.

    python3 perfbench/traced_cli.py SPANS_PATH INVOCATION_ID -- CLI_ARGS...

The report goes to stdout exactly as ``python -m qcontext.cli CLI_ARGS``
writes it, the exit code is the CLI's, and the spans go to SPANS_PATH.
"""

from __future__ import annotations

import sys

from tracer import ROOT_SPAN, Tracer


def main(argv: list[str]) -> int:
    spans_path, invocation, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_PATH INVOCATION_ID -- ARGS...")
    from qcontext import cli

    tracer = Tracer()
    with tracer.installed():
        code = tracer.call(ROOT_SPAN, cli.main, cli_args)
    tracer.write(spans_path, int(invocation))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
