"""Each check decision has one owner in ``src/``.

A record's pass is ``CheckRecord.passed`` (no hypothesis failed, and the
residual is below the tolerance) and a report's verdict is that every
record passes, so no caller may hand either one in.  The compat
hypothesis, Q^(x)m preserves level m, is judged by
``equilibrium._compat_hypothesis`` alone: the level readers
``_read_levels`` and ``_level_power`` call it, and no other module
names it.  Most of these
tests read the source, so a second copy of either rule is caught before
any input shows the two copies disagree; the last pins the pass rule
itself at its edge, where a residual equals its tolerance.

Each input contract has one owner too: ``channel.require_dilation_pair``
checks a pair (W, F), ``serialize.decode_square`` reads every sized
spec matrix (so only ``serialize`` calls ``decode_matrix``), the
``factories.EXAMPLES`` table names the examples, and the report base
owns the verdict.  A state for a Kraus set is checked by
``equilibrium.check_state(rho0, d=K.d)``, and a word length or level by
``channel.require_word_length``, whose ``least`` sets every floor.
"""
import ast
import dataclasses
from pathlib import Path

from detbal import factories
from detbal.qgroup import au_relations_check, suq2_dilation, suq2_generators
from detbal.report import AnalysisReport, CheckRecord, RelationsReport

SRC = Path(__file__).resolve().parent.parent / "src" / "detbal"


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _decision_keywords(tree: ast.Module) -> list:
    """The passed= and verdict= keywords of every call in tree, by line."""
    return [(kw.arg, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Call)
            for kw in node.keywords if kw.arg in ("passed", "verdict")]


def _names(tree: ast.Module, name: str) -> list:
    """Every definition, call, import or other reference of name in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            found.append("def")
        elif isinstance(node, ast.Name) and node.id == name:
            found.append("name")
        elif isinstance(node, ast.Attribute) and node.attr == name:
            found.append("attribute")
        elif isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names):
            found.append("import")
    return found


def test_no_src_call_hands_in_a_pass_or_a_verdict():
    assert {mod: kws for mod, tree in _trees().items() if (kws := _decision_keywords(tree))} == {}


def test_pass_and_verdict_are_derived_not_stored():
    assert "passed" not in {f.name for f in dataclasses.fields(CheckRecord)}
    for cls in (AnalysisReport, RelationsReport):
        assert "verdict" not in {f.name for f in dataclasses.fields(cls)}


def test_only_equilibrium_knows_the_compat_hypothesis():
    owners = {mod for mod, tree in _trees().items() if _names(tree, "_compat_hypothesis")}
    assert owners == {"equilibrium"}
    assert _names(_trees()["equilibrium"], "_compat_hypothesis").count("def") == 1


def _strings(tree: ast.Module) -> list:
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def test_only_channel_checks_the_dilation_pair():
    trees = _trees()
    owners = {mod for mod, tree in trees.items() if "F must be invertible" in _strings(tree)}
    assert owners == {"channel"}
    assert _strings(trees["channel"]).count("F must be invertible") == 1
    assert _names(trees["channel"], "require_dilation_pair").count("def") == 1
    assert {mod for mod, tree in trees.items()
            if _names(tree, "require_invertible_F") or _names(tree, "_shapes")} == set()


def test_only_serialize_decodes_a_spec_matrix():
    assert {mod for mod, tree in _trees().items() if _names(tree, "decode_matrix")} == {"serialize"}


def test_the_example_names_are_the_keys_of_the_example_table():
    assert factories.EXAMPLE_NAMES == tuple(factories.EXAMPLES)
    assert factories.EXAMPLE_NAMES == ("measurement", "gad", "commuting_db", "suq2", "classical")
    (value,) = [node.value for node in ast.walk(_trees()["factories"])
                if isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["EXAMPLE_NAMES"]]
    assert ast.unparse(value) == "tuple(EXAMPLES)"


def _holders(text: str) -> list:
    """(module, innermost function) of every string literal in src/ that holds text.

    The literal parts of an f-string count; a string outside any function names None.
    """
    found = []

    def visit(node, mod, fn):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value:
            found.append((mod, fn))
        for child in ast.iter_child_nodes(node):
            visit(child, mod, child.name if isinstance(child, ast.FunctionDef) else fn)

    for mod, tree in _trees().items():
        visit(tree, mod, None)
    return found


def test_only_check_state_sizes_a_state():
    assert _holders("but the Kraus operators are") == [("equilibrium", "check_state")]
    assert {mod for mod, tree in _trees().items()
            if "def" in _names(tree, "require_state_size")} == set()


def test_only_require_word_length_sets_a_floor():
    assert sorted(_holders("must be at least")) == [
        ("channel", "require_word_length"), ("cli", "cmd_reverse"), ("cli", "cmd_stinespring")]


def test_report_defines_the_verdict_once():
    assert _names(_trees()["report"], "verdict").count("def") == 1


def test_the_scans_see_keywords_imports_and_attributes():
    src = ("from .stinespring import _compat_hypothesis\n"
           "def f():\n    return R(verdict=1, x=2), stinespring._compat_hypothesis(1, 0.0, 1.0)\n"
           "C(name='a', passed=True)\n")
    tree = ast.parse(src)
    assert sorted(_decision_keywords(tree)) == [("passed", 4), ("verdict", 3)]
    assert sorted(_names(tree, "_compat_hypothesis")) == ["attribute", "import"]


def test_a_residual_equal_to_its_tolerance_fails():
    assert not CheckRecord(name="r", residual=0.5, tolerance=0.5).passed
    assert CheckRecord(name="r", residual=0.25, tolerance=0.5).passed
    assert not CheckRecord(name="r", residual=None, tolerance=0.5, hypothesis_failure="x").passed
    a, c, _, F = suq2_generators(0.5, 6)
    W = suq2_dilation(a, c, 0.5)
    res = au_relations_check(W, F).check("W_unitary_left").residual
    assert res > 0
    rep = au_relations_check(W, F, tol=res)
    rec = rep.check("W_unitary_left")
    assert rec.residual == rec.tolerance and not rec.passed and not rep.verdict
    assert rec.to_dict()["passed"] is False and rec.render().startswith("  [FAIL]")
