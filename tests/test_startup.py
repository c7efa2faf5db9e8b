"""What a CLI start loads: each subcommand imports only the layers it runs,
and no start imports ``dataclasses`` or ``inspect``.

Each case runs ``cli.main(argv)`` in a fresh interpreter and reads the
names in ``sys.modules`` after it returns.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """\
import sys
from qcontext import cli
cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    fh.write("\\n".join(sorted(sys.modules)))
"""

MODEL_COMMANDS = (
    "analyze",
    "represent",
    "operators",
    "compare-dist",
    "verify",
    "dispersion-free",
)
CASES = {
    "help": ["--help"],
    "no-command": [],
    "bad-option": ["analyze", "--nope"],
    **{name: [name, "--kq", "1/4"] for name in MODEL_COMMANDS},
    "sweep": ["sweep", "--grid", "1/8"],
}


def _loaded(tmp_path, argv) -> set[str]:
    out = tmp_path / "modules.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    subprocess.run(
        [sys.executable, "-c", CHILD, str(out), *argv],
        env=env,
        capture_output=True,
        check=True,
        timeout=120,
    )
    return set(out.read_text().split("\n"))


@pytest.mark.parametrize("case", CASES)
def test_start_loads_only_what_the_command_runs(tmp_path, case):
    loaded = _loaded(tmp_path, CASES[case])
    ours = {m for m in loaded if m.split(".")[0] == "qcontext"}
    assert "dataclasses" not in loaded and "inspect" not in loaded
    if case in ("help", "no-command", "bad-option"):
        assert ours == {"qcontext", "qcontext.cli", "qcontext.errors"}
        return
    assert {"qcontext.model_io", "qcontext.hilbert"} <= ours
    if case in ("analyze", "represent"):
        assert "qcontext.operators" not in ours
    assert ("qcontext.verify" in ours) == (case == "verify")
