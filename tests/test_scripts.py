"""Smoke runs of the example scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcontext

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = Path(qcontext.__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv, line",
    [
        (["kq_gallery.py", "1/8"], "distinct states: 9 of 11 events"),
        (["search_witnesses.py", "3"], "# fully hyperbolic context: p2+p5"),
    ],
)
def test_script_runs(argv, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.splitlines()
