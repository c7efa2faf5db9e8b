"""Every name of ``qcontext`` that the benchmark reads still exists, and no
module keeps an import only the tracer reads.

``perfbench/tracer.py`` names the functions it traces as ``module.attr``
under ``qcontext``; a traced name that no longer resolves stops every
``--trace 1`` run.  The tracer is loaded from its file, so this test
follows its list as it changes.  The other ``perfbench`` files import
``qcontext`` names and read attributes of its modules; a scan of their
sources finds each one.  That is why ``operators`` keeps
``mean_preservation_gap`` and ``distribution_mismatch``, and ``hilbert``
its traced views (``mappable_contexts``, ``amplitude``, ``image_set``,
``phase_gap_profile``, ``nonsensitive_contexts`` and ``represented_states``,
which ``operators.represented_states`` binds) and ``transition_matrix``,
which ``perfbench/test_perfbench.py`` calls: each a view over one atlas,
though no report calls them.  Code that moves between modules can leave a
``from``-import behind; a scan of the sources finds every name so imported
that its module never reads.  The same scan finds every read of another
``qcontext`` module's private name, of which there are none.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

# Read only by perfbench's tracer self-test, which fails on the first of
# them: cli imports each layer inside the function that runs it, and verify
# and hilbert no longer import these names.
GONE_FROM_PERFBENCH = {
    "qcontext.cli.parse_model",
    "qcontext.verify.contexts_of",
    "qcontext.hilbert.lambda_coefficient",
}

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


def _perfbench_reads() -> set[str]:
    """``module.name`` for every name a ``perfbench`` file imports from a
    ``qcontext`` module, and for every attribute it reads of a ``qcontext``
    module it imported."""
    found = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> qcontext module
        imports = (
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").partition(".")[0] == "qcontext"
        )
        for node in imports:
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                found.add(name)
                if node.module == "qcontext" and importlib.util.find_spec(name):
                    modules[alias.asname or alias.name] = name
        found |= {
            f"{modules[node.value.id]}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        }
    return found


def _resolves(name: str) -> bool:
    module, attr = name.rsplit(".", 1)
    return hasattr(importlib.import_module(module), attr)


def test_every_qcontext_name_perfbench_reads_resolves():
    reads = _perfbench_reads()
    # The scan sees the calls of perfbench's model-statistics test.
    assert {
        "qcontext.hilbert.transition_matrix",
        "qcontext.hilbert.mappable_contexts",
        "qcontext.model_io.parse_model",
    } <= reads
    assert {name for name in reads if not _resolves(name)} == GONE_FROM_PERFBENCH


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


def _private_reads() -> set[str]:
    """``reader: module._name`` for each private name of a ``qcontext``
    module that another one reads: ``module._name`` where ``module`` is
    bound by an import of that module, or ``from .module import _name``."""
    src = ROOT / "src" / "qcontext"
    modules = {path.stem for path in src.glob("*.py")}

    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__")

    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in modules:
                        bound[alias.asname or alias.name] = alias.name
                    elif node.module in modules and private(alias.name):
                        found.add(f"{path.stem}: {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound
                and private(node.attr)
            ):
                found.add(f"{path.stem}: {bound[node.value.id]}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    assert _private_reads() == set()
