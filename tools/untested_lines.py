"""List the executable lines of src/detbal that no test runs.

    python3 tools/untested_lines.py

Runs ``pytest -q -p no:cacheprovider tests`` in this process under
``sys.settrace`` and records every line executed in a module of
src/detbal.  A module's executable lines are the line numbers its code
objects carry (``code.co_lines()``, nested code objects included).  Prints
one row per module, its count of untested lines against its executable
ones and the untested lines as ranges, then a total.  pytest's exit code
is printed as information and the tool exits 0: a tracer slows every
call and holds references of its own, so a test of timing or of reference
cycles may fail under it that passes without, and the outcomes here are
not the suite's.  Standard library only, and pytest.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "detbal"


def executable_lines(path: Path) -> set:
    """The line numbers of every code object compiled from the source at path."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at 0
        todo += [c for c in code.co_consts if isinstance(c, type(code))]
    return lines


def untested(paths, run):
    """(run(), {path: executable lines run() did not execute}) for the modules at paths.

    run() is called under a line tracer that records the lines executed in
    the files at paths, and no others.
    """
    hits = {Path(p).resolve(): set() for p in paths}
    tracers = {}  # co_filename -> the line tracer of a watched file, or None

    def line_tracer(seen: set):
        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    def watch(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = Path(os.path.realpath(name))
            tracers[name] = line_tracer(hits[path]) if path in hits else None
        return tracers[name]

    previous = sys.gettrace()
    sys.settrace(watch)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, {path: executable_lines(path) - seen for path, seen in hits.items()}


def ranges(lines) -> str:
    """Sorted line numbers as comma-separated runs: 3, 7-9."""
    out, lines = [], sorted(lines)
    for i, line in enumerate(lines):
        if i and line == lines[i - 1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main() -> int:
    import pytest

    sys.path.insert(0, str(SRC.parent))
    paths = sorted(SRC.glob("*.py"))
    code, missed = untested(paths, lambda: pytest.main(
        ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]))
    total = [0, 0]
    print()
    for path in paths:
        n, of = len(missed[path.resolve()]), len(executable_lines(path))
        total = [total[0] + n, total[1] + of]
        print(f"{n:5d}/{of:<5d} {path.name}: {ranges(missed[path.resolve()])}")
    print(f"{total[0]:5d}/{total[1]:<5d} total untested executable lines")
    print(f"pytest exit code under the tracer: {int(code)} (information only)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
