"""Every name a detbal module imports is read in that module.

An import left behind when its last reader is deleted keeps a dead
dependency between modules and hides what a module really uses.  The
package ``__init__`` is exempt: it imports names to re-export them.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "detbal"

# Names a module binds without reading them, on purpose.  The verdict in
# reversal reads the level residuals directly, but tracing code looks up the
# public checks a verdict stands for as names in reversal, so these stay bound.
BOUND_FOR_TRACING = {
    "reversal": {"check_phi_symmetric", "kms_condition_residual"},
}


def _imported(tree: ast.Module) -> dict:
    """name -> line of every name bound by an import statement, __future__ aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read(tree: ast.Module) -> set:
    """Every name the module loads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    read = _read(tree) | BOUND_FOR_TRACING.get(module, set())
    unused = {name: line for name, line in _imported(tree).items() if name not in read}
    assert not unused, f"{module}.py imports names it never reads: {unused}"


def test_the_tracing_exemptions_are_imported_and_unread():
    # an exemption whose name is read again, or no longer imported, is stale
    for module, names in BOUND_FOR_TRACING.items():
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        assert names <= set(_imported(tree)) and not names & _read(tree), module
