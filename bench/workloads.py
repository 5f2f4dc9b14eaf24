"""Seeded jobs for the three benchmark workloads, with their output checks.

Every workload is a pool of jobs made from the seed alone.  The pool is
a sequence of cycles; all cycles hold the same mix of job classes in the
same order, and the seed sets their continuous parameters (angles, Haar
draws, chain weights) and the order of sizes drawn from fixed sets.  So
any two seeds ask for the same amount of work, and throughput is
measured per cycle.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from typing import NamedTuple

import numpy as np

from detbal import KrausSet, cli
from detbal.channel import classify
from detbal.equilibrium import orthogonalize_kraus
from detbal.factories import commuting_db_kraus, gad_kraus, gen_example
from detbal.matcore import RESIDUAL_TOL
from detbal.qgroup import (
    au_relations_check,
    bu_relations_check,
    first_row_q_sphere,
    suq2_dilation,
    suq2_generators,
)
from detbal.reversal import (
    ClassicalChain,
    classical_reverse,
    crooks_check,
    crooks_dual,
    detailed_balance_verdict,
    reversed_kraus,
    time_reversal_invariance,
)
from detbal.serialize import channel_spec_dict, classical_spec_dict, dump_payload
from detbal.stinespring import build_subproduct, check_subproduct_inclusion, verify_power_dilation
from spans import NULL, traced

DEFAULT_SEED = 0
CYCLES = 3  # cycles in a pool; each cycle has the same class mix

# ---------------------------------------------------------------------------
# seeded inputs


def haar_channel(rng, d: int, n: int) -> KrausSet:
    """Kraus blocks of the Q factor of a complex Gaussian (d*n, d) block."""
    X = rng.normal(size=(d * n, d)) + 1j * rng.normal(size=(d * n, d))
    V, _ = np.linalg.qr(X)
    return KrausSet([V[k * d:(k + 1) * d, :] for k in range(n)])


def diagonal_orthogonal_channel(rng, n: int) -> KrausSet:
    """The n-letter commuting family K_j = diag(O[:, j]), O real orthogonal."""
    O, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return KrausSet([np.diag(O[:, j]).astype(complex) for j in range(n)])


def random_state(rng, d: int) -> np.ndarray:
    """A full-rank, non-uniform density matrix."""
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = X @ X.conj().T + 0.2 * np.eye(d)
    return rho / np.trace(rho).real


def markov_chain(rng, n: int, reversible: bool) -> np.ndarray:
    """Column-stochastic chain with a symmetric flux, plus a cyclic flux
    of weight eps around all states when not reversible."""
    pi = rng.uniform(0.5, 1.5, size=n)
    pi /= pi.sum()
    F = rng.uniform(0.2, 1.0, size=(n, n))
    F = (F + F.T) / 2
    np.fill_diagonal(F, 0.0)
    F *= 0.5 * pi.min() / F.sum(axis=0).max()
    M = F / pi[np.newaxis, :]
    if not reversible:
        eps = 0.1 * F[F > 0].min()
        for k in range(n):
            M[(k + 1) % n, k] += eps / pi[k]
    np.fill_diagonal(M, 0.0)
    np.fill_diagonal(M, 1.0 - M.sum(axis=0))
    return M


# ---------------------------------------------------------------------------
# jobs


class Job:
    """One seeded job.

    ``call`` runs the job untraced; ``trace`` runs it again on a
    Tracer, with a span around each public call it makes and, inside
    the composite entry points (``detailed_balance_verdict``,
    ``time_reversal_invariance``, ``cli.main``), around the public calls
    they make (``spans.traced``).  ``summary`` turns the output into the
    JSON-ready values that the reference and the traced run are compared
    on; ``invariant`` returns a problem the theory rules out, or None.
    """

    def call(self):
        return self.trace(NULL)

    def trace(self, t):
        raise NotImplementedError

    def summary(self, out) -> dict:
        raise NotImplementedError

    def invariant(self, s: dict):
        return None


def verdict_summary(rep) -> dict:
    return {
        "verdict": rep.verdict,
        "reason": rep.reason,
        "level_ranks": [rep.info["level_ranks"][m] for m in sorted(rep.info["level_ranks"])],
        "checks": [[c.name, c.level, c.passed, c.residual, c.hypothesis_failure,
                    c.defect_rank] for c in rep.checks],
    }


class VerdictJob(Job):
    """One detailed_balance_verdict; expect_true selects the invariant."""

    def __init__(self, label, K, rho0, M, expect_true):
        self.label, self.K, self.rho0, self.M = label, K, rho0, M
        self.expect_true = expect_true

    def call(self):
        return detailed_balance_verdict(self.K, self.rho0, self.M)

    def trace(self, t):
        with traced(t):
            return t.call(detailed_balance_verdict, self.K, self.rho0, self.M)

    def summary(self, rep):
        return verdict_summary(rep)

    def invariant(self, s):
        if self.expect_true:
            bad = [c for c in s["checks"] if c[3] is None or not c[3] < RESIDUAL_TOL]
            if not s["verdict"] or bad:
                return f"expected a true verdict with every residual below tol: {bad[:1]}"
            if any(r != self.K.n for r in s["level_ranks"]):
                return f"expected every level rank {self.K.n}, got {s['level_ranks']}"
        else:
            if s["verdict"]:
                return "expected a false verdict"
            if any(r > self.K.d ** 2 for r in s["level_ranks"]):
                return f"level rank above d^2: {s['level_ranks']}"
        return None


class CrooksJob(Job):

    def __init__(self, label, K, rho0, depth):
        self.label, self.K, self.rho0, self.depth = label, K, rho0, depth

    def trace(self, t):
        Kbar = t.call(crooks_dual, self.K, self.rho0)
        return t.call(crooks_check, self.K, Kbar, self.rho0, self.depth)

    def summary(self, res):
        return {"crooks_residual": res}

    def invariant(self, s):
        if not s["crooks_residual"] < 1e-12:
            return f"crooks dual residual {s['crooks_residual']:.3g} not below 1e-12"
        return None


class QSphereReverseJob(Job):

    def __init__(self, label, K, rho0, depth):
        self.label, self.K, self.rho0, self.depth = label, K, rho0, depth

    def trace(self, t):
        Kp, Qraw, _ = t.call(orthogonalize_kraus, self.K, self.rho0)
        Qfe = t.call(Qraw.with_normalization, "first_entry")
        Kbar = t.call(reversed_kraus, Kp, Qfe)
        kind = t.call(classify, Kbar)
        res = t.call(crooks_check, Kp, Kbar, self.rho0, self.depth)
        return kind.classification, Kbar.unital_residual, res

    def summary(self, out):
        return {"classification": out[0], "unital_residual": out[1], "crooks_residual": out[2]}


class TimeReversalJob(Job):

    def __init__(self, label, K, F):
        self.label, self.K, self.F = label, K, F

    def call(self):
        return time_reversal_invariance(self.K, self.F)

    def trace(self, t):
        with traced(t):
            return t.call(time_reversal_invariance, self.K, self.F)

    def summary(self, out):
        return {"invariant": out.invariant, "distance": out.distance,
                "unitarity_residual": out.unitarity_residual}


def relations_summary(rep) -> dict:
    return {"verdict": rep.verdict,
            "checks": [[c.name, c.passed, c.residual, c.defect_rank] for c in rep.checks]}


class Suq2Job(Job):
    def __init__(self, label, q, N, level=3):
        self.label, self.q, self.N, self.level = label, q, N, level

    def trace(self, t):
        a, c, K, F = t.call(suq2_generators, self.q, self.N)
        W = t.call(suq2_dilation, a, c, self.q)
        au = t.call(au_relations_check, W, F)
        bu = t.call(bu_relations_check, W, F)
        S = t.call(build_subproduct, K, self.level)
        row = t.call(first_row_q_sphere, W, F, S, self.level)
        return au, bu, row

    def summary(self, out):
        return {name: relations_summary(rep) for name, rep in zip(("au", "bu", "row"), out)}


class StinespringJob(Job):
    """Subproduct levels, their inclusions and the power dilations.

    With n^M <= d^2 every level of a generic channel is the full word
    space, so the levels nest and each power dilation identity holds.
    """

    def __init__(self, label, K, M, A):
        self.label, self.K, self.M, self.A = label, K, M, A

    def trace(self, t):
        S = t.call(build_subproduct, self.K, self.M)
        inclusions = [t.call(check_subproduct_inclusion, S, m, l)
                      for m in range(1, self.M) for l in range(1, self.M - m + 1)]
        dilations = [t.call(verify_power_dilation, self.K, S, m, self.A)
                     for m in range(1, self.M + 1)]
        return [S.level(m).rank for m in range(1, self.M + 1)], inclusions, dilations

    def summary(self, out):
        return {"ranks": out[0], "inclusions": out[1], "dilations": out[2]}

    def invariant(self, s):
        worst = max(s["inclusions"] + s["dilations"])
        if not worst < RESIDUAL_TOL:
            return f"level inclusion or power dilation residual {worst:.3g} above tol"
        return None


class ClassicalJob(Job):
    def __init__(self, label, M, reversible):
        self.label, self.M, self.reversible = label, M, reversible

    def trace(self, t):
        chain = t.call(ClassicalChain, self.M)
        _, db, residual = t.call(classical_reverse, chain)
        return db, residual

    def summary(self, out):
        return {"detailed_balance": out[0], "residual": out[1]}

    def invariant(self, s):
        if s["detailed_balance"] != self.reversible:
            return f"classical verdict {s['detailed_balance']}, built reversible={self.reversible}"
        return None


class CliJob(Job):
    """``detbal.cli.main`` in-process with --json, stdout captured."""

    def __init__(self, label, argv, expect_exit):
        self.label, self.argv, self.expect_exit = label, argv, expect_exit

    def _main(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def call(self):
        return self._main()

    def trace(self, t):
        with t.span(f"cli.main.{self.argv[0]}"), traced(t):
            return self._main()

    def summary(self, out):
        code, stdout = out
        report = json.loads(stdout)
        report.pop("output", None)  # a path inside the checkout
        return {"exit": code, "report": report}

    def invariant(self, s):
        if s["exit"] != self.expect_exit:
            return f"exit code {s['exit']}, expected {self.expect_exit}"
        return None


# ---------------------------------------------------------------------------
# workloads


class Workload(NamedTuple):
    jobs: list
    cycle_len: int  # jobs per cycle; every cycle has the same class mix


def _angle(rng):
    return float(rng.uniform(0.15, math.pi / 2 - 0.15))


def kms_deep(rng, workdir):
    """True verdicts with rho0 = 1/n and n^M between 16 and 27.

    The cycle puts the two light cells, (4,2) and (2,4), on 60% of the
    jobs and the two heavy ones, (5,2) and (3,3), on 40%, with (3,3)
    alone above the 80th percentile: the median falls inside the light
    cells and the 90th percentile inside (3,3).
    """
    jobs = []
    for _ in range(CYCLES):
        for cell in ("24", "42", "24", "52", "24", "33", "42", "24", "52", "33"):
            n, M = int(cell[0]), int(cell[1])
            K = commuting_db_kraus(_angle(rng)) if n == 2 else diagonal_orthogonal_channel(rng, n)
            jobs.append(VerdictJob(f"kms n={n} M={M}", K, np.eye(n) / n, M, True))
    return jobs, 10


def haar_levels(rng, workdir):
    """False verdicts on Haar channels (rho0 = 1/d) and gad at M=4.

    (3,2,8) holds 4 of 11 jobs, placed between the three lighter cells
    and the four heavier ones, so the median sits inside it; (2,3,6),
    the 729-word cell that sets the peak memory, holds the top 2 of 11
    and so the 90th percentile.
    """
    cells = [(2, 4, 4), ("gad", 2, 4), (3, 2, 8), (3, 3, 5), (3, 2, 8), (2, 3, 6),
             (4, 2, 8), (3, 2, 8), (2, 2, 9), (3, 2, 8), (2, 3, 6)]
    jobs = []
    for _ in range(CYCLES):
        for d, n, M in cells:
            if d == "gad":
                p, gamma = rng.uniform(0.55, 0.9), rng.uniform(0.2, 0.8)
                jobs.append(VerdictJob("gad M=4", gad_kraus(p, gamma),
                                       np.diag([p, 1 - p]), M, False))
            else:
                jobs.append(VerdictJob(f"haar d={d} n={n} M={M}", haar_channel(rng, d, n),
                                       np.eye(d) / d, M, False))
    return jobs, len(cells)


# One cycle of reverse_relations, in run order.  Measured latency bands
# (2-core VM, OpenBLAS on one thread): under 1 ms the classical and
# time-reversal jobs (6 of 26); 2-6 ms the CLI jobs but analyze (4);
# about 7 ms the depth-6 crooks jobs and the Q-sphere reversal (5, ranks
# 11-15, which hold the median); 8-35 ms (7); suq2 at N=32 (3, ranks
# 23-25, which hold the 90th percentile); suq2 at N=40 (1).  Heavy and
# light jobs alternate so that a partial cycle keeps the mix.
REVERSE_CYCLE = (
    ("crooks", 2, 2, 6), ("classical", 3, True), ("suq2", 32), ("cli", "classical"),
    ("crooks", 3, 2, 6), ("time_reversal", 2, 2), ("suq2", 16), ("cli", "qgroup-check"),
    ("crooks", 4, 2, 6), ("classical", 5, False), ("suq2", 32), ("cli", "stinespring"),
    ("qsphere_reverse", 3, 3), ("crooks", 5, 2, 6), ("time_reversal", 3, 3),
    ("stinespring", 6, 2, 5), ("cli", "reverse"), ("crooks", 4, 2, 7), ("suq2", 40),
    ("classical", 6, True), ("crooks", 2, 3, 5), ("cli", "analyze"), ("suq2", 24),
    ("classical", 4, False), ("crooks", 2, 2, 8), ("suq2", 32),
)


def reverse_relations(rng, workdir):
    """Reversal, relation, dilation, classical and CLI jobs (REVERSE_CYCLE)."""
    jobs = []
    for c in range(CYCLES):
        for kind, *p in REVERSE_CYCLE:
            if kind == "crooks":
                d, n, depth = p
                jobs.append(CrooksJob(f"crooks d={d} n={n} depth={depth}",
                                      haar_channel(rng, d, n), random_state(rng, d), depth))
            elif kind == "qsphere_reverse":
                d, n = p
                jobs.append(QSphereReverseJob(f"qsphere reverse d={d} n={n}",
                                              haar_channel(rng, d, n), random_state(rng, d), 4))
            elif kind == "time_reversal":
                d, n = p
                F = np.diag(rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n)))
                jobs.append(TimeReversalJob(f"time reversal d={d} n={n}",
                                            haar_channel(rng, d, n), F))
            elif kind == "suq2":
                jobs.append(Suq2Job(f"suq2 N={p[0]}", float(rng.uniform(0.3, 0.8)), p[0]))
            elif kind == "stinespring":
                d, n, M = p
                jobs.append(StinespringJob(f"stinespring d={d} n={n} M={M}",
                                           haar_channel(rng, d, n), M, _hermitian(rng, d)))
            elif kind == "classical":
                n, rev = p
                jobs.append(ClassicalJob(f"classical n={n}", markov_chain(rng, n, rev), rev))
            else:
                jobs.append(_cli_job(rng, workdir, c, p[0]))
    return jobs, len(REVERSE_CYCLE)


def _hermitian(rng, d):
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return X + X.conj().T


def _cli_job(rng, workdir, c, sub):
    """Write the spec file of one CLI job of cycle c and return the job."""
    def spec(payload):
        path = os.path.join(workdir, f"c{c}-{sub}.json")
        dump_payload(payload, path)
        return path

    out = os.path.join(workdir, f"c{c}-{sub}-out.json")
    if sub == "reverse":
        mode = "qsphere" if c % 2 else "crooks"
        path = spec(channel_spec_dict(haar_channel(rng, 3, 2), rho0=random_state(rng, 3)))
        return CliJob(f"cli reverse {mode}", ["reverse", path, "--mode", mode, "--depth", "4",
                                             "-o", out, "--json"], 0)
    if sub == "qgroup-check":
        # the truncated ladder fails unitarity on its boundary vector
        path = spec(gen_example("suq2", {"q": float(rng.uniform(0.4, 0.8)), "N": 8}))
        return CliJob("cli qgroup-check bu", ["qgroup-check", path, "--relation", "bu",
                                              "--json"], 1)
    if sub == "stinespring":
        path = spec(channel_spec_dict(haar_channel(rng, 4, 2)))
        return CliJob("cli stinespring", ["stinespring", path, "--max-level", "3", "--json"], 0)
    if sub == "classical":
        reversible = c % 2 == 0
        path = spec(classical_spec_dict(markov_chain(rng, 5, reversible)))
        return CliJob("cli classical", ["classical", path, "--reverse", "-o", out, "--json"],
                      0 if reversible else 1)
    path = spec(gen_example("commuting_db", {"theta": _angle(rng)}))
    return CliJob("cli analyze", ["analyze", path, "--max-level", "3", "--json"], 0)


WORKLOADS = {"kms_deep": kms_deep, "haar_levels": haar_levels,
            "reverse_relations": reverse_relations}


def build(name: str, seed: int, workdir: str) -> Workload:
    """The seeded pool of one workload; spec files go to workdir."""
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return Workload(*WORKLOADS[name](rng, workdir))
