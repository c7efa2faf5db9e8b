"""Every function the benchmark's tracer wraps still exists.

``perfbench/tracer.py`` names the functions it traces as ``module.attr``
under ``qcontext``; a traced name that no longer resolves stops every
``--trace 1`` run.  The tracer is loaded from its file, so this test
follows its list as it changes.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("name", _traced())
def test_traced_name_resolves_to_a_callable(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"qcontext.{module_name}")
    assert callable(getattr(module, attr, None))
