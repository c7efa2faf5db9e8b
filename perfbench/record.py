"""Record the expected exit code and stdout digest of every invocation.

    python3 perfbench/record.py WORKLOAD [WORKLOAD ...]

Run it from the repository root at the commit whose outputs define
correctness.  For each workload it runs every one of the ``POOL`` draws once
and writes ``perfbench/expected/WORKLOAD.json``.  It refuses to record a
``verify`` report that does not say ``all_passed``.
"""

from __future__ import annotations

import json
import sys

import workloads as wl
from run import EXPECTED, WORK, child_env, cli_command, invoke, record_entry


def record(name: str) -> dict:
    env = child_env()
    draws = {}
    for draw in range(wl.POOL):
        workload = wl.generate(name, draw)
        model_dir = WORK / workload.name
        workload.write_models(model_dir)
        entries = []
        for inv in workload.invocations:
            out = invoke(cli_command(inv.argv(model_dir)), env)
            if inv.subcommand == "verify" and not json.loads(out.stdout)["all_passed"]:
                raise SystemExit(f"{name} draw {draw}: {inv.label()} failed a check")
            entries.append(record_entry(workload, inv, out))
        draws[str(draw)] = entries
        print(f"{name} draw {draw}: {[e['exit'] for e in entries]}", flush=True)
    return {"workload": name, "pool": wl.POOL, "draws": draws}


def main(names: list[str]) -> int:
    for name in names:
        if name not in wl.BUILDERS:
            raise SystemExit(f"unknown workload {name!r}")
    EXPECTED.mkdir(exist_ok=True)
    for name in names:
        doc = record(name)
        path = EXPECTED / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
