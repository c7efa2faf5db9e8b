"""Every function the benchmark's tracer wraps still exists, and no module
keeps an import only the tracer reads.

``perfbench/tracer.py`` names the functions it traces as ``module.attr``
under ``qcontext``; a traced name that no longer resolves stops every
``--trace 1`` run.  The tracer is loaded from its file, so this test
follows its list as it changes.  That is why ``operators`` keeps
``mean_preservation_gap`` and ``distribution_mismatch``, each a view over
one atlas, though no report calls them.  Code that moves between modules can leave
a ``from``-import behind; a scan of the sources finds every name so
imported that its module never reads.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

# operators reads no represented_states: the binding exists so that the
# traced name operators.represented_states resolves, until the tracer
# follows the atlas (ROADMAP item 1).
KEPT_FOR_THE_TRACER = {"operators.represented_states"}


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


def _unused_from_imports() -> set[str]:
    found = set()
    for path in sorted((ROOT / "src" / "qcontext").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found |= {f"{path.stem}.{name}" for name in imported - read}
    return found


def test_no_module_keeps_an_unused_from_import():
    assert _unused_from_imports() == KEPT_FOR_THE_TRACER
