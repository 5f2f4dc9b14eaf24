"""Every module-level function of detbal is exported or read inside detbal.

A private helper whose last caller is deleted stays behind as dead code:
it is still tested, documented and kept in step, but the program never
runs it.  So each module-level function must be in the package's
``__all__`` or be loaded, as a name or an attribute, somewhere in
``src/detbal``.
"""
import ast
from pathlib import Path

import detbal

SRC = Path(__file__).resolve().parent.parent / "src" / "detbal"

# Functions kept for the tests alone, on purpose: the word-at-a-time
# references that the loop oracle checks the stacked word layer against.
TEST_REFERENCES = {("channel", "word_operator"), ("channel", "block")}


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _functions(trees: dict) -> set:
    """(module, name) of every function defined at the top level of a module."""
    return {(module, node.name) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _loaded(trees: dict) -> set:
    """Every name loaded as a Name or as an Attribute in any module."""
    out = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
    return out


def test_every_function_is_exported_or_read():
    trees = _trees()
    live = _loaded(trees) | set(detbal.__all__)
    dead = sorted(f"{module}.{name}" for module, name in _functions(trees) - TEST_REFERENCES
                  if name not in live)
    assert not dead, f"functions neither exported nor read in src/detbal: {dead}"


def test_the_test_references_are_defined_and_unread():
    # an exemption whose function is read again, or no longer defined, is stale
    trees = _trees()
    assert TEST_REFERENCES <= _functions(trees)
    assert not {name for _, name in TEST_REFERENCES} & (_loaded(trees) | set(detbal.__all__))
