"""Only channel.power_kraus forms an n^m-word stack.

The level layer reads the words of a level through the tensor train
(Level.compress, the level's B_m), so a call of ``channel.word_stack``
anywhere else in ``src/`` would bring back an array that grows as n^m.
This test reads the source, so it catches a new caller before any input
is large enough to show the cost.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "detbal"
ALLOWED = {("channel", "power_kraus")}


def _callers(tree: ast.Module, module: str) -> set:
    """(module, qualified function name) of every call of word_stack; "" outside any function."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "word_stack":
                    found.add((module, scope))
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_power_kraus_calls_word_stack():
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        callers |= _callers(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert callers == ALLOWED


def test_the_caller_scan_sees_calls_in_methods_and_by_attribute():
    src = ("class L:\n    def f(self):\n        return channel.word_stack(x, 2)\n"
           "def g():\n    def h():\n        return word_stack(x, 3)\n    return h\n")
    assert _callers(ast.parse(src), "m") == {("m", "L.f"), ("m", "g.h")}
