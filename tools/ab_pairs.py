"""Alternating A/B runs of the benchmark, summarized as one Markdown row
per end-to-end metric.

    python3 tools/ab_pairs.py PARENT_ROOT CHANGE_ROOT --workload W

PARENT_ROOT and CHANGE_ROOT are two source checkouts.  Each of the 10
pairs runs ``python3 bench/run.py --workload W --seed 0 --seconds S
--trace 0`` once in each root, one run at a time; even pairs run the
parent first, odd pairs the change.  The last line of each run's stdout
is its JSON metrics.  A run that exits non-zero, reports
``correct: false`` or has a failed job stops the tool with exit 1 and
names the run.

The metrics, their directions (``better``) and the run length S
(``run_seconds``, the same on both sides) are read from the
BENCHMARK.json next to this tools/ directory.  A row gives each side's
median [q1, q3] (``statistics.quantiles(n=4, method="inclusive")``),
the change of the median in percent, and the pairs the change won; a tie
counts for neither side.  Standard library only: nothing of the library
or of bench/ is imported.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
HEADER = ["| metric | parent | change | Δ | wins |", "|---|---|---|---|---|"]
PAIRS = 10


def _spread(values: list) -> str:
    """median [q1, q3] of values, to 4 significant digits."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def summarize(parent: list, change: list, metrics: list) -> list:
    """The Markdown table of paired runs: parent[i] and change[i] map metric names to values.

    metrics holds BENCHMARK.json's end_to_end entries (name and better).
    """
    if len(parent) < 2:
        raise ValueError("quartiles need at least two runs a side")
    rows = list(HEADER)
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b, strict=True))
        delta = 100 * (statistics.median(b) / statistics.median(a) - 1)
        rows.append(f"| `{name}` | {_spread(a)} | {_spread(b)} | {delta:+.1f}% "
                    f"| {wins}/{len(a)} |")
    return rows


def run_once(root: Path, workload: str, seconds: float) -> dict:
    """Metric name -> value of one benchmark run in root; ValueError when the run is not clean."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise ValueError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    out = json.loads(lines[-1])
    if not out["correct"] or out["failed"] > 0:
        raise ValueError(f"correct: {out['correct']}, failed: {out['failed']} "
                         f"of {out['attempted']}")
    return {name: m["value"] for name, m in out["metrics"].items()}


def main(argv: list) -> int:
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            try:
                runs[side].append(run_once(getattr(args, side), args.workload, bench["run_seconds"]))
            except ValueError as err:
                print(f"pair {i + 1}, {side} run ({getattr(args, side)}): {err}", file=sys.stderr)
                return 1
            print(f"pair {i + 1}/{PAIRS}: {side} done", file=sys.stderr)
    print("\n".join(summarize(runs["parent"], runs["change"], bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
