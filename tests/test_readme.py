"""The command-line examples in README.md reproduce.

Every ``$ detbal ...`` line in a fenced block runs through ``cli.main``,
in file order, in one scratch directory, and its stdout must match the
lines that follow it up to the next ``$`` line or the end of the block:

* a line that is only ``...`` matches any run of lines;
* ``...`` inside a line matches any text;
* numbers match to 1e-12 absolute, so float noise passes.
"""
import re
import shlex
from pathlib import Path

import pytest

from detbal.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
NUM = r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
PROMPT = "$ detbal "


def readme_sessions():
    """(command, expected stdout lines) for each prompt line, in file order."""
    sessions, in_block, current = [], False, None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ "):
            current = [] if line.startswith(PROMPT) else None
            if current is not None:
                sessions.append((line[len(PROMPT):], current))
        elif current is not None:
            current.append(line)
    return sessions


def line_matches(expected: str, actual: str) -> bool:
    numbers, parts = [], []
    for piece in expected.split("..."):
        tokens = re.split(f"({NUM})", piece)
        numbers += [float(x) for x in tokens[1::2]]
        parts.append("".join(re.escape(t) if i % 2 == 0 else f"({NUM})"
                             for i, t in enumerate(tokens)))
    m = re.fullmatch(".*".join(parts), actual)
    return m is not None and all(abs(float(a) - b) <= 1e-12
                                 for a, b in zip(m.groups(), numbers))


def lines_match(expected: list, actual: list) -> bool:
    if not expected:
        return not actual
    if expected[0].strip() == "...":
        return any(lines_match(expected[1:], actual[i:]) for i in range(len(actual) + 1))
    return bool(actual) and line_matches(expected[0], actual[0]) and \
        lines_match(expected[1:], actual[1:])


def test_readme_command_examples_reproduce(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    sessions = readme_sessions()
    assert len(sessions) >= 9
    for command, expected in sessions:
        main(shlex.split(command))
        out = capsys.readouterr().out.splitlines()
        assert lines_match(expected, out), \
            f"$ detbal {command}\nexpected:\n" + "\n".join(expected) + \
            "\ngot:\n" + "\n".join(out)


@pytest.mark.parametrize("expected, actual, ok", [
    ("inclusion 1+2: 3.010e-16", "inclusion 1+2: 3.574e-16", True),
    ("inclusion 1+2: 3.010e-16", "inclusion 1+3: 3.010e-16", False),
    ("lambdas: [0.8, ...]", "lambdas: [0.8, 0.1, 0.1]", True),
    ("lambdas: [0.8, ...]", "lambdas: [0.9, 0.1]", False),
    ("residual=5.000e-01", "residual=5.000e-03", False),
])
def test_line_matching_rules(expected, actual, ok):
    assert line_matches(expected, actual) is ok
