"""The A/B table in tools/ summarizes paired benchmark runs as its docstring says."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRICS = [{"name": "job_p90_ms", "better": "lower"}, {"name": "jobs_per_s", "better": "higher"}]
PARENT = [{"job_p90_ms": p90, "jobs_per_s": rate}
          for p90, rate in [(4.0, 500.0), (3.9, 510.0), (4.1, 505.0), (4.2, 495.0), (3.8, 520.0)]]
CHANGE = [{"job_p90_ms": p90, "jobs_per_s": rate}
          for p90, rate in [(3.7, 530.0), (3.9, 515.0), (3.8, 500.0), (3.6, 540.0), (3.5, 525.0)]]


def test_summarize_gives_median_quartiles_delta_and_wins():
    rows = ab_pairs.summarize(PARENT, CHANGE, METRICS)
    assert rows[:2] == ab_pairs.HEADER
    # p90: medians 4.0 and 3.7, inclusive quartiles [3.9, 4.1] and [3.6, 3.8]; the tie in
    # pair 2 counts for neither side.  Rate: higher is better, and pair 3 is lost
    assert rows[2:] == [
        "| `job_p90_ms` | 4 [3.9, 4.1] | 3.7 [3.6, 3.8] | -7.5% | 4/5 |",
        "| `jobs_per_s` | 505 [500, 510] | 525 [515, 530] | +4.0% | 4/5 |",
    ]


def test_summarize_reads_every_end_to_end_metric_of_the_benchmark():
    metrics = json.loads(ab_pairs.BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    run = {m["name"]: 1.0 for m in metrics}
    rows = ab_pairs.summarize([run, run], [run, run], metrics)
    assert [row.split("`")[1] for row in rows[2:]] == [m["name"] for m in metrics]
    assert all(row.endswith("| +0.0% | 0/2 |") for row in rows[2:])


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        ab_pairs.summarize(PARENT, CHANGE[:4], METRICS)


def test_one_run_a_side_is_refused():
    with pytest.raises(ValueError, match="two runs a side"):
        ab_pairs.summarize(PARENT[:1], CHANGE[:1], METRICS)
