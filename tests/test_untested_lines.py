"""The untested-line lister in tools/ reports the lines a run skips, and only those."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "untested_lines.py"
_spec = importlib.util.spec_from_file_location("untested_lines", TOOL)
untested_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(untested_lines)

TOY = '''def f(x):
    if x:
        return "taken"
    return "untaken"


def g():
    return f(True)
'''


def test_an_untaken_branch_is_reported_and_a_taken_one_is_not(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY, encoding="utf-8")

    def run():
        spec = importlib.util.spec_from_file_location("toy", path)
        toy = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(toy)
        return toy.g()

    result, missed = untested_lines.untested([path], run)
    assert result == "taken"
    assert missed == {path.resolve(): {4}}


def test_executable_lines_cover_nested_code_and_ranges_join_runs(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY, encoding="utf-8")
    assert {2, 3, 4, 7, 8} <= untested_lines.executable_lines(path)
    assert untested_lines.ranges({9, 3, 7, 8}) == "3, 7-9"
