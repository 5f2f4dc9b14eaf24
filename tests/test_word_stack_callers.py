"""Four functions with few callers and one kernel, pinned by reading the source.

Only channel.power_kraus forms an n^m-word stack.  The level layer
reads the words of a level through the tensor train (Level.compress, the
level's B_m), so a call of ``channel.word_stack`` anywhere else in
``src/`` would bring back an array that grows as n^m.

Only the functions that decide a rank or refuse a singular input call
``matcore.rank_mask``.  rank_tol decides where svd_cut ends the rank of
a level; a function of Q_m inverts all of the level, so a new eigenvalue
cut in the level layer must be named here before it can enter.

Only the two level readers of equilibrium call ``stinespring.eigenpairs``
and ``stinespring.level_power``: ``_read_levels`` on many levels and
``_level_power`` on one.  Both judge compat by ``_compat_hypothesis``
before they take a function of Q_m, so a new caller elsewhere could read
p_m Q^(x)m p_m on a level that Q^(x)m does not preserve.

Stacks of operators are multiplied pairwise by ``channel.products``, one
2-D matmul.  An ``@`` whose operand inserts an axis (``X[:, None] @
Y[None]``) makes numpy run one small matmul per pair, so no such operand
may appear in ``src/``.  The scan reads each operand itself and what it
calls or reads an attribute of, and follows a name that the same
function binds to such a subscript (``A, B = X[:, None], X[None]``); a
subscript under elementwise arithmetic (a vector of scales broadcast
over a stack) does not loop and passes.

These tests read the source, so they catch a new caller before any input
is large enough to show it.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "detbal"
WORD_STACK_CALLERS = {("channel", "power_kraus")}
RANK_MASK_CALLERS = {
    ("matcore", "svd_cut"),
    ("matcore", "matrix_power_analytic"),
    ("matcore", "projector_onto_span"),
    ("equilibrium", "_require_nonsingular"),
    ("qgroup", "invariant_state"),
    ("reversal", "crooks_dual"),
    ("reversal", "detailed_balance_verdict"),
}
LEVEL_POWER_CALLERS = {("equilibrium", "_read_levels"), ("equilibrium", "_level_power")}


def _callers(tree: ast.Module, module: str, callee: str) -> set:
    """(module, qualified function name) of every call of callee; "" outside any function."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == callee:
                    found.add((module, scope))
            visit(child, scope)

    visit(tree, "")
    return found


def _src_callers(callee: str) -> set:
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        callers |= _callers(ast.parse(path.read_text(encoding="utf-8")), path.stem, callee)
    return callers


def _inserts_axis(sub: ast.Subscript) -> bool:
    """Whether a subscript's index holds None or newaxis."""
    index = sub.slice.elts if isinstance(sub.slice, ast.Tuple) else [sub.slice]
    return any((isinstance(x, ast.Constant) and x.value is None)
               or (isinstance(x, (ast.Name, ast.Attribute))
                   and getattr(x, "id", getattr(x, "attr", None)) == "newaxis")
               for x in index)


def _axis_subscripts(node, bound=frozenset()):
    """The axis-inserting subscripts an operand reads, not under elementwise arithmetic,
    and the names in bound that it reads.

    An inner @ is a BinOp too, and is scanned as an @ of its own.
    """
    if isinstance(node, ast.BinOp):
        return
    if (isinstance(node, ast.Subscript) and _inserts_axis(node)) or (
            isinstance(node, ast.Name) and node.id in bound):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _axis_subscripts(child, bound)


def _own_nodes(scope):
    """The nodes of a module or function, not those of the functions defined in it."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _own_nodes(child)


def _broadcast_names(scope) -> set:
    """The names a scope binds to an axis-inserting subscript, unpacked tuples included."""
    names = set()
    for node in _own_nodes(scope):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            names |= {t.id for t, v in pairs
                      if isinstance(t, ast.Name) and any(True for _ in _axis_subscripts(v))}
    return names


def _broadcast_matmuls(tree: ast.Module, module: str) -> set:
    """(module, line) of every @ with an operand that subscripts with None or newaxis,
    or reads a name its function binds to such a subscript."""
    found = set()
    for scope in (tree, *(n for n in ast.walk(tree)
                          if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))):
        bound = _broadcast_names(scope)
        found |= {(module, node.lineno) for node in _own_nodes(scope)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                  and any(True for side in (node.left, node.right)
                          for _ in _axis_subscripts(side, bound))}
    return found


def test_only_power_kraus_calls_word_stack():
    assert _src_callers("word_stack") == WORD_STACK_CALLERS


def test_only_rank_decisions_and_singularity_refusals_call_rank_mask():
    assert _src_callers("rank_mask") == RANK_MASK_CALLERS


def test_only_the_level_readers_take_functions_of_Q_m():
    for callee in ("eigenpairs", "level_power"):
        assert _src_callers(callee) == LEVEL_POWER_CALLERS, callee


def test_the_caller_scan_sees_calls_in_methods_and_by_attribute():
    src = ("class L:\n    def f(self):\n        return channel.word_stack(x, 2)\n"
           "def g():\n    def h():\n        return word_stack(x, 3)\n    return rank_mask(w)\n")
    assert _callers(ast.parse(src), "m", "word_stack") == {("m", "L.f"), ("m", "g.h")}
    assert _callers(ast.parse(src), "m", "rank_mask") == {("m", "g")}


def test_no_matmul_broadcasts_a_stack_against_a_stack():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _broadcast_matmuls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert not found, f"use channel.products, not a broadcast @: {sorted(found)}"


def test_the_matmul_scan_sees_none_and_newaxis_and_passes_elementwise_scales():
    flagged = ["X[:, None] @ Y[None]",
               "(K.ops[:, np.newaxis] @ A[np.newaxis]).reshape(-1, d, d)",
               "A @ dag(B[None])",
               "A @ B[:, newaxis].conj()",
               "A @ (X[None] @ Y)"]
    passed = ["A @ B", "(U * (w ** z)[..., np.newaxis, :]) @ dag(U)", "X[0] @ Y[:, 1]",
              "A[np.newaxis] * B"]
    for src in flagged:
        assert _broadcast_matmuls(ast.parse(src), "m"), src
    for src in passed:
        assert not _broadcast_matmuls(ast.parse(src), "m"), src


def test_the_matmul_scan_follows_a_broadcast_bound_to_a_name():
    # the commutator stacks of channel.is_star_commuting and factories.measurement_channel
    flagged = ["def f(K):\n    A, B = K.ops[:, np.newaxis], K.ops[np.newaxis]\n"
               "    return np.array([A @ B - B @ A, A @ dag(B) - dag(B) @ A])\n",
               "def g(K):\n    X, Y = K.ops[:, np.newaxis], K.ops[np.newaxis]\n"
               "    return np.linalg.norm(X @ Y - Y @ X, 2, axis=(2, 3)).max()\n",
               "def h(x):\n    A = B = x[None]\n    return B @ x\n"]
    passed = ["def f(x):\n    s = x[:, None] * x\n    return s @ x\n",
              "def f(x):\n    A, B = x[None], x\n    return B @ x\n",
              "def f(x):\n    A = x[None]\n    return A * 2\n"
              "def g(A):\n    return A @ A\n"]
    for src in flagged:
        assert _broadcast_matmuls(ast.parse(src), "m"), src
    for src in passed:
        assert not _broadcast_matmuls(ast.parse(src), "m"), src
