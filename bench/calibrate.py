"""Host speed, from a fixed calibration task timed after every job.

The benchmark runs on shared virtual machines whose speed drifts by
10-25% over tens of seconds while the process keeps its CPU: the same
instructions take longer, and CPU time and wall time move together.
Timing a fixed task next to every job measures that drift where the job
ran.  Each job latency is scaled by NOMINAL_S / (median calibration
time within WINDOW_S of the job), which reads as the latency at the
nominal host speed.  The task mixes what the jobs do: many small numpy
calls from Python, a LAPACK factorization and a matrix-vector product.
Its data (1.1 MB) fit in the L2 cache and are touched by an untimed
pass right before the timed one, so how much of the cache the previous
job evicted does not move the timed pass; ``by_class`` reports the task
time per class of the job before it, which shows whether that holds.
It calls nothing in detbal.  Over 8 runs of each workload, the task's
median after each job class was within 0.977-1.028 of its overall
median; a 4 MB matrix-vector product timed without the warm pass read
0.84-1.82 after the classes of reverse_relations.
"""
from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

WINDOW_S = 2.0
# median task time on a 2-core KVM guest (Xeon at 2.1 GHz, 4 MB L2 per core,
# OpenBLAS on one thread)
NOMINAL_S = 1.2e-3


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        self._square = rng.normal(size=(64, 64))
        self._tall = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        self._vec = rng.normal(size=256) + 0j
        self.times = []  # (perf_counter at the job's start, task seconds)
        self.labels = []  # the class of the job before each sample

    def _task(self) -> None:
        for _ in range(20):
            np.trace(self._small @ self._small.conj().T)
        np.linalg.svd(self._square)
        for _ in range(4):
            self._tall @ self._vec

    def sample(self, at: float, label: str) -> None:
        self._task()  # untimed: brings the data back into the cache
        t0 = perf_counter()
        self._task()
        self.times.append((at, perf_counter() - t0))
        self.labels.append(label)

    def scales(self) -> list:
        """Per sample: NOMINAL_S over the median task time within WINDOW_S."""
        starts = [t for t, _ in self.times]
        out = []
        for at in starts:
            lo = bisect.bisect_left(starts, at - WINDOW_S)
            hi = bisect.bisect_right(starts, at + WINDOW_S)
            out.append(NOMINAL_S / statistics.median(dt for _, dt in self.times[lo:hi]))
        return out

    def by_class(self, scales: list) -> dict:
        """Per class of the job before it: the median of the task time over
        the median task time around it, which takes out the host's drift."""
        ratios = {}
        for label, (_, dt), s in zip(self.labels, self.times, scales):
            ratios.setdefault(label, []).append(dt * s / NOMINAL_S)
        return {label: statistics.median(r) for label, r in ratios.items()}
