"""The code-line counter in tools/ counts what its docstring says it counts."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring
over two lines."""
import os  # a comment after code


# a comment line
class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        y = (x +
             1)
        s = """a string that is
not a docstring"""
        return y, s
'''


def test_counts_lines_with_tokens_outside_comments_and_docstrings():
    # import, class, def, the two lines of y, the two lines of s, return
    assert code_lines.code_lines(SAMPLE) == 8


def test_counts_every_module_of_the_package(capsys):
    assert code_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].split()[1] == "total"
    assert int(lines[-1].split()[0]) == sum(int(line.split()[0]) for line in lines[:-1])
