"""Run one workload of the detbal benchmark and print its metrics.

    python3 bench/run.py --workload kms_deep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` and nowhere else.  One process runs one workload as a closed
loop with one client: each job starts when the previous one has ended.
Every job's output is checked (theory-fixed invariants for any seed,
plus the recorded reference at the default seed).

``--trace 0`` times the entry points and prints the end-to-end metrics.
``--trace 1`` runs every job twice, once plain and once with a span
around each public call it makes, the calls inside the library's
composite entry points included; it fails a job whose two outputs
differ, and prints the per-layer metrics per cycle of the pool.  The last line of stdout is one JSON object.
"""
import os
import sys

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# what a fresh interpreter runs before the first job can start
STARTUP = "import run; run.import_program(); import workloads"
REFERENCE = HERE / "reference.json"
REFERENCE_RTOL = 1e-12

# per-layer busy time -> the spans whose self times it sums, in seconds
BUSY = {
    "equilibrium.kms_condition_residual.busy_s": ["equilibrium.kms_condition_residual"],
    "equilibrium.check_phi_symmetric.busy_s": ["equilibrium.check_phi_symmetric"],
    "reversal.q_sphere_residual.busy_s": ["reversal.q_sphere_residual"],
    "equilibrium.attach_levels.busy_s": ["equilibrium.CorrelationData.attach_levels"],
    "equilibrium.orthogonalize_kraus.busy_s": ["equilibrium.orthogonalize_kraus"],
    "stinespring.build_subproduct.busy_s": ["stinespring.build_subproduct"],
    "stinespring.check_subproduct_inclusion.busy_s": ["stinespring.check_subproduct_inclusion"],
    "stinespring.verify_power_dilation.busy_s": ["stinespring.verify_power_dilation"],
    "reversal.crooks_dual.busy_s": ["reversal.crooks_dual"],
    "reversal.crooks_check.busy_s": ["reversal.crooks_check"],
    "reversal.reversed_kraus.busy_s": ["reversal.reversed_kraus"],
    "reversal.time_reversal_invariance.busy_s": ["reversal.time_reversal_invariance"],
    "reversal.classical_reverse.busy_s": ["reversal.classical_reverse"],
    "channel.dilation_from_kraus.busy_s": ["channel.dilation_from_kraus"],
    "qgroup.au_relations_check.busy_s": ["qgroup.au_relations_check"],
    "qgroup.bu_relations_check.busy_s": ["qgroup.bu_relations_check"],
    "qgroup.first_row_q_sphere.busy_s": ["qgroup.first_row_q_sphere"],
    "serialize.parse.busy_s": ["serialize.load_payload", "serialize.parse_channel_spec",
                               "serialize.parse_classical_spec"],
    "serialize.dump.busy_s": ["serialize.channel_spec_dict", "serialize.classical_spec_dict",
                              "serialize.dump_payload"],
    **{f"cli.main.{sub}.busy_s": [f"cli.main.{sub}"]
       for sub in ("reverse", "qgroup-check", "stinespring", "classical", "analyze")},
}
# per-layer counts, computed from the inputs and the outputs of the calls
COUNTS = {
    "equilibrium.word_pairs": "count",
    "equilibrium.kms_terms": "count",
    "equilibrium.hypothesis_failures": "count",
    "stinespring.level_dim_sum": "count",
    "stinespring.level_rank_sum": "count",
    "stinespring.projector_bytes": "B",
    "reversal.crooks_words": "count",
    "serialize.bytes": "B",
}
END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
              "job_p90_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import detbal from src/ of this checkout, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import detbal
    if Path(detbal.__file__).resolve().parent != src / "detbal":
        raise ImportError(f"detbal imported from {detbal.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# output checks


def same(ref, got, rtol: float) -> bool:
    """Equal structure, equal non-floats, floats within rtol * max(1, |ref|)."""
    if isinstance(ref, float) or isinstance(got, float):
        if not isinstance(ref, (int, float)) or not isinstance(got, (int, float)) \
                or isinstance(ref, bool) or isinstance(got, bool):
            return False
        if math.isnan(ref) or math.isnan(got):
            return math.isnan(ref) and math.isnan(got)
        return abs(got - ref) <= rtol * max(1.0, abs(ref))
    if isinstance(ref, (list, tuple)) and isinstance(got, (list, tuple)):
        return len(ref) == len(got) and all(same(a, b, rtol) for a, b in zip(ref, got))
    if isinstance(ref, dict) and isinstance(got, dict):
        return ref.keys() == got.keys() and all(same(ref[k], got[k], rtol) for k in ref)
    return ref == got


def timed(fn):
    """(seconds, output, error) of one call; an unexpected exception is an error."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a failed job is counted, not fatal
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, out, None


def check(job, idx, out, err, reference):
    """(summary, problem): problem is None when the output passes every check."""
    if err is not None:
        return None, "".join(traceback.format_exception_only(type(err), err)).strip()
    try:
        s = job.summary(out)
        problem = job.invariant(s)
    except Exception as exc:  # a malformed output is a failed job
        return None, f"output not checkable: {exc!r}"
    if problem is None and reference is not None and not same(reference[idx], s, REFERENCE_RTOL):
        problem = "output differs from the recorded reference"
    return s, problem


class Failures:
    def __init__(self):
        self.count = 0

    def add(self, job, problem):
        self.count += 1
        if self.count <= 5:
            print(f"FAILED {job.label}: {problem}", file=sys.stderr)


def startup_s() -> float:
    """Median wall time of a fresh interpreter making the benchmark's imports.

    The children run one at a time, before the first timed job, and are
    waited for; their memory does not count in this process's peak.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", STARTUP], cwd=HERE, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the two loops


def high_percentile(xs, q):
    """The q-quantile (nearest rank), or the highest quantile with at least
    ten samples above it when there are too few; returns (value, quantile)."""
    xs = sorted(xs)
    idx = math.ceil(q * len(xs)) - 1
    if len(xs) - 1 - idx < 10:
        idx = max(len(xs) - 11, 0)
    return xs[idx], (idx + 1) / len(xs)


def run_timed(wl, seconds, reference):
    host = HostSpeed()
    latencies = []
    fails = Failures()
    t_start = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < seconds:
        idx = i % len(wl.jobs)
        job = wl.jobs[idx]
        at = time.perf_counter()
        dt, out, err = timed(job.call)
        latencies.append(dt)
        host.sample(at, job.label)
        _, problem = check(job, idx, out, err, reference)
        if problem is not None:
            fails.add(job, problem)
        i += 1
    elapsed = time.perf_counter() - t_start
    scales = host.scales()
    scaled = [dt * s for dt, s in zip(latencies, scales)]
    L = wl.cycle_len
    cycle_rates = [L / sum(scaled[k:k + L]) for k in range(0, len(scaled) - L + 1, L)]
    p90, q = high_percentile(scaled, 0.9)
    after = host.by_class(scales)
    notes = [
        f"samples: {i} jobs, {len(cycle_rates)} whole cycles of {L} in {elapsed:.1f} s",
        f"host speed: calibration took {1 / statistics.median(scales):.3f} x its nominal time",
        f"calibration after each job class: {min(after.values()):.3f}-{max(after.values()):.3f} "
        f"x its local median (lowest after {min(after, key=after.get)}, "
        f"highest after {max(after, key=after.get)})",
        f"wall clock: {i / elapsed:.4g} jobs/s, p50 {1000 * statistics.median(latencies):.4g} ms, "
        f"p90 {1000 * high_percentile(latencies, 0.9)[0]:.4g} ms",
    ]
    if abs(q - 0.9) > 1e-9:
        notes.append(f"job_p90_ms is the p{100 * q:.1f} latency: too few samples for p90")
    metrics = {
        "jobs_per_s": statistics.median(cycle_rates) if cycle_rates else i / sum(scaled),
        "job_p50_ms": 1000 * statistics.median(scaled),
        "job_p90_ms": 1000 * p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return i, fails.count, metrics, notes


def run_traced(wl, seconds, reference, tracer):
    """Whole passes over the pool, each job run untraced and traced.

    Whole passes keep the counts per cycle exact: the cycles of a pool
    differ in their data, and so in the bytes of their spec files.
    """
    fails = Failures()
    plain = traced = 0.0
    attempted = passes = 0
    t_start = time.perf_counter()
    while passes == 0 or time.perf_counter() - t_start < seconds:
        for idx, job in enumerate(wl.jobs):
            tracer.job = attempted
            # alternate the order so that neither run always meets warm caches
            if attempted % 2 == 0:
                dt0, out0, err0 = timed(job.call)
                dt1, out1, err1 = timed(lambda: job.trace(tracer))
            else:
                dt1, out1, err1 = timed(lambda: job.trace(tracer))
                dt0, out0, err0 = timed(job.call)
            plain += dt0
            traced += dt1
            attempted += 1
            s0, problem = check(job, idx, out0, err0, reference)
            if problem is None:
                s1, problem = check(job, idx, out1, err1, None)
                if problem is None and not same(s0, s1, 0.0):
                    problem = "traced output differs from the untraced one"
            if problem is not None:
                fails.add(job, problem)
        passes += 1
    cycles = passes * len(wl.jobs) // wl.cycle_len
    self_times = tracer.self_times()
    metrics = {name: sum(self_times.get(s, 0.0) for s in names) / cycles
               for name, names in BUSY.items()}
    metrics.update({name: tracer.counts.get(name, 0) / cycles for name in COUNTS})
    dims = metrics["stinespring.level_dim_sum"]
    metrics["stinespring.rank_fill"] = metrics["stinespring.level_rank_sum"] / dims if dims else 0.0
    metrics["trace.overhead_ratio"] = traced / plain - 1.0
    notes = [f"samples: {attempted} jobs in {passes} whole passes of {len(wl.jobs)}; "
             f"busy times and counts are per cycle of {wl.cycle_len} jobs; counts are computed"]
    return attempted, fails.count, metrics, notes


def per_layer_units():
    units = {name: "s" for name in BUSY}
    units.update(COUNTS)
    units["stinespring.rank_fill"] = "1"
    units["trace.overhead_ratio"] = "1"
    return units


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the library from src/: {exc}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = str(ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}")
    try:
        builds = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = workloads.build(args.workload, args.seed, workdir)
            reference = None
            if args.seed == workloads.DEFAULT_SEED:
                with open(REFERENCE, encoding="utf-8") as fh:
                    reference = json.load(fh)[args.workload]
            builds.append(time.perf_counter() - t0)
        if args.trace:
            tracer = Tracer()
            attempted, failed, metrics, notes = run_traced(wl, args.seconds, reference, tracer)
            units = per_layer_units()
            tracer.dump(str(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json"))
        else:
            setup_s = startup_s() + statistics.median(builds)
            attempted, failed, metrics, notes = run_timed(wl, args.seconds, reference)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run still uses it
            os.rmdir(os.path.dirname(workdir))

    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"fail_ratio = {failed / max(attempted, 1):.6g} 1 ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
