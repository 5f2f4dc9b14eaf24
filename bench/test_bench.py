"""Tests of the benchmark itself: python -m pytest -q bench"""
import json
import os

import numpy as np
import pytest

import run

run.import_program()

import workloads  # noqa: E402
from detbal.channel import index_words  # noqa: E402
from spans import Tracer, traced  # noqa: E402


def _inputs(wl):
    """Every array, number and string a pool's jobs were built from."""
    out = []
    for job in wl.jobs:
        for key, val in sorted(vars(job).items()):
            if key == "argv":  # spec files: their contents, not their directory
                val = [open(a, "rb").read() if os.path.isfile(a) else os.path.basename(a)
                       for a in val]
            elif hasattr(val, "ops"):
                val = np.stack(val.ops).tobytes()
            elif isinstance(val, np.ndarray):
                val = val.tobytes()
            out.append((key, val))
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    a = _inputs(workloads.build(name, 7, str(tmp_path / "a")))
    assert a == _inputs(workloads.build(name, 7, str(tmp_path / "b")))
    assert a != _inputs(workloads.build(name, 8, str(tmp_path / "c")))


def _cheap_verdict_jobs(name, tmp_path, count=3):
    wl = workloads.build(name, 11, str(tmp_path))
    jobs = [j for j in wl.jobs if isinstance(j, workloads.VerdictJob)]
    return sorted(jobs, key=lambda j: j.K.n ** j.M)[:count]


@pytest.mark.parametrize("name", ["kms_deep", "haar_levels"])
def test_traced_verdict_matches_untraced(name, tmp_path):
    for job in _cheap_verdict_jobs(name, tmp_path):
        real = job.call()
        t = Tracer()
        traced_rep = job.trace(t)
        assert traced_rep.to_dict() == real.to_dict()
        assert traced_rep.render() == real.render()
        # the calls detailed_balance_verdict makes before its checks, in order
        assert [s[0] for s in t.spans[:8]] == [
            "reversal.detailed_balance_verdict",
            "equilibrium.check_state",
            "equilibrium.orthogonalize_kraus",
            "equilibrium.zero_mean_check",
            "equilibrium.CorrelationData.with_normalization",
            "equilibrium.CorrelationData.with_normalization",
            "stinespring.build_subproduct",
            "equilibrium.CorrelationData.attach_levels",
        ]
        assert all(s[3] == 0 for s in t.spans[1:])  # all children of the verdict


def test_reverse_relations_traced_match_untraced(tmp_path):
    wl = workloads.build("reverse_relations", 11, str(tmp_path))
    for job in wl.jobs[:len(workloads.REVERSE_CYCLE)]:
        if isinstance(job, workloads.Suq2Job) and job.N > 24:
            continue  # slow, and a plain sequence of calls like the small ones
        t = Tracer()
        assert run.same(job.summary(job.call()), job.summary(job.trace(t)), 0.0), job.label
        assert t.spans, job.label


def test_traced_restores_the_library():
    from detbal import cli, reversal
    from detbal.equilibrium import CorrelationData
    before = [dict(vars(cli)), dict(vars(reversal)), dict(vars(CorrelationData))]
    with traced(Tracer()):
        assert cli.load_payload is not before[0]["load_payload"]
        assert reversal.kms_condition_residual is not before[1]["kms_condition_residual"]
    assert [dict(vars(cli)), dict(vars(reversal)), dict(vars(CorrelationData))] == before


def test_counts_match_words_and_ranks(tmp_path):
    for name in ("kms_deep", "haar_levels"):
        for job in _cheap_verdict_jobs(name, tmp_path / name, count=2):
            t = Tracer()
            rep = job.trace(t)
            ranks = rep.info["level_ranks"]
            dims = [len(index_words(job.K.n, m)) for m in ranks]
            assert t.counts["stinespring.level_dim_sum"] == sum(dims)
            assert t.counts["stinespring.level_rank_sum"] == sum(ranks.values())
            assert t.counts["stinespring.projector_bytes"] == sum(16 * N * N for N in dims)
            assert t.counts["equilibrium.hypothesis_failures"] == len(
                rep.info["hypothesis_failures"])
            if rep.verdict:  # every check ran: 3 pair checks per level, 2 passes in kms
                assert t.counts["equilibrium.word_pairs"] == 5 * sum(N * N for N in dims)
                assert t.counts["equilibrium.kms_terms"] == sum(N ** 3 for N in dims)
    crooks = next(j for j in workloads.build("reverse_relations", 1, str(tmp_path / "r")).jobs
                  if isinstance(j, workloads.CrooksJob))
    t = Tracer()
    crooks.trace(t)
    words = sum(len(index_words(crooks.K.n, m)) for m in range(1, crooks.depth + 1))
    assert t.counts["reversal.crooks_words"] == words


def test_self_time_excludes_children():
    t = Tracer()
    with t.span("outer"):
        with t.span("inner"):
            sum(range(10000))
    times = t.self_times()
    outer, inner = t.spans
    assert inner[3] == 0 and outer[3] is None
    assert times["outer"] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reference_holds_at_default_seed(name, tmp_path):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)[name]
    wl = workloads.build(name, workloads.DEFAULT_SEED, str(tmp_path))
    assert len(reference) == len(wl.jobs)
    for idx, job in enumerate(wl.jobs[:wl.cycle_len]):
        _, problem = run.check(job, idx, job.call(), None, reference)
        assert problem is None, (job.label, problem)


def test_reference_check_catches_a_drift(tmp_path):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["kms_deep"]
    job = workloads.build("kms_deep", workloads.DEFAULT_SEED, str(tmp_path)).jobs[0]
    rep = job.call()
    rep.checks[1].residual += 1e-9
    _, problem = run.check(job, 0, rep, None, reference)
    assert problem == "output differs from the recorded reference"


def test_benchmark_json_lists_the_printed_metrics():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
