"""The memoized level data: read-only, keyed safely, and equal to a cold computation.

A Kraus set memoizes its word stacks and a level one record per weight Q
(``SubproductSystem.weighted``), so the checks of one verdict share them.
These tests pin that the memo cannot go stale (the inputs it rests on are
read-only, its key includes Q, and its rank cuts follow the rank_tol of
the level's own system), that a verdict builds one record per level, that
a memoized stack is bitwise the stack ``word_stack`` builds, that each
public check called on fresh objects returns exactly the residual the
verdict recorded, and that a verdict leaves no reference cycle behind.
"""
import gc

import numpy as np
import pytest

import loop_oracle as oracle
from conftest import random_channel, random_hermitian
from detbal import reversal
from detbal.channel import word_stack
from detbal.equilibrium import (
    check_phi_symmetric,
    kms_condition_residual,
    orthogonalize_kraus,
)
from detbal.errors import HypothesisFailure
from detbal.factories import commuting_db_kraus, gad_kraus
from detbal.reversal import detailed_balance_verdict, q_sphere_residual
from detbal.stinespring import build_subproduct, check_Q_compatibility


def _haar_state(d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = X @ X.conj().T + 0.1 * np.eye(d)
    return rho / np.trace(rho).real


CASES = {
    "gad": lambda: (gad_kraus(0.75, 0.5), np.diag([0.75, 0.25]), 4),
    "commuting_db": lambda: (commuting_db_kraus(np.pi / 6), np.eye(2) / 2, 4),
    "haar": lambda: (random_channel(2, 3, 11), _haar_state(2, 11), 3),
}


def test_kraus_ops_and_stacks_are_read_only():
    K = random_channel(2, 3, 1)
    for write in (lambda: K.ops.__setitem__((0, 0, 0), 1.0),
                  lambda: K[1].__setitem__((0, 0), 1.0),
                  lambda: K.word_stack(2).__setitem__((0, 0, 0), 1.0)):
        with pytest.raises(ValueError):
            write()
    with pytest.raises(AttributeError):
        K.ops = np.zeros_like(K.ops)


def test_level_V_and_derived_data_are_read_only():
    K = random_channel(2, 3, 2)
    S = build_subproduct(K, 2)
    Q = random_hermitian(3, 2)
    with pytest.raises(ValueError):  # before any derived data exists
        S.level(2).V[0] = 1.0
    for X in (*S.weighted(Q, 2)[:3], *S.weighted(Q @ Q, 2)[3:5]):
        with pytest.raises(ValueError):
            X[0] = 1.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_memoized_stack_is_word_stack_bitwise(n):
    K = random_channel(2, n, 30 + n)
    for m in (4, 0, 2, 1, 3):  # out of order: deeper levels first
        A, ref = K.word_stack(m), word_stack(K.ops, m)
        assert A.shape == ref.shape and A.tobytes() == ref.tobytes()
        assert K.word_stack(m) is A
    with pytest.raises(ValueError):
        K.word_stack(-1)


def test_level_memo_is_keyed_by_Q_and_rank_tol():
    K = random_channel(2, 3, 4)
    S = build_subproduct(K, 2)
    Q1 = random_hermitian(3, 4)
    Q1 = Q1 @ Q1 + np.eye(3)
    Q2 = Q1.copy()
    Q2[0, 1] += 1e-3
    Q2[1, 0] += 1e-3
    inputs = (Q1, Q2, Q1.real)
    # (V, QV, H, VU, w) for every input from one system, so later inputs meet a warm memo
    warm = [S.weighted(Q, 2)[:5] for Q in inputs]
    for Q, got in zip(inputs, warm):
        cold = build_subproduct(K, 2)
        want = cold.weighted(Q, 2)[:5]
        assert [X.tobytes() for X in got] == [X.tobytes() for X in want]
    assert not np.array_equal(warm[0][1], warm[1][1])  # Q1 and Q2 differ
    # a system built with a larger rank_tol keeps fewer Q_m eigenvalues on the same level
    coarse = build_subproduct(K, 2, rank_tol=0.5)
    assert coarse.rank_tol == 0.5 and coarse.level(2).rank == S.level(2).rank
    assert len(coarse.weighted(Q1, 2).w) < len(warm[0][4])


def test_verdict_builds_one_record_per_level(monkeypatch):
    built = []

    def build(*args):
        built.append(build_subproduct(*args))
        return built[-1]

    monkeypatch.setattr(reversal, "build_subproduct", build)
    K, rho0, M = CASES["gad"]()
    detailed_balance_verdict(K, rho0, M)
    (S,) = built
    # every check weighs levels 1..M by the same trace-balanced Q; level 0 is never weighed
    assert [len(S.level(m)._memo) for m in range(M + 1)] == [0] + [1] * M


def test_weighted_with_tol_refuses_a_level_Q_does_not_preserve():
    S = build_subproduct(random_channel(2, 3, 5), 2)
    Q = random_hermitian(3, 5)
    rec = S.weighted(Q, 2)
    assert rec.compat > 1e-8
    with pytest.raises(HypothesisFailure) as exc:
        S.weighted(Q, 2, rec.compat / 2)
    assert str(exc.value) == \
        f"Q^(x)2 does not preserve the level-2 subspace (residual {rec.compat:.3g})"
    assert S.weighted(Q, 2, rec.compat) is rec
    assert S.weighted(np.eye(3), 2, 1e-12).compat <= 1e-12


def test_weighted_compat_of_a_non_hermitian_Q_matches_the_oracle():
    S = build_subproduct(random_channel(2, 3, 6), 3)
    rng = np.random.default_rng(6)
    Q = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for m in range(S.M + 1):
        ref = oracle.check_Q_compatibility(S, Q, m)
        assert abs(S.weighted(Q, m).compat - ref) <= 1e-12 * max(1.0, ref)


def _cold(K, rho0, M):
    """A fresh orthogonalized set, trace-balanced Q and subproduct system."""
    Kp, Qraw, _ = orthogonalize_kraus(K, rho0)
    Qtb = Qraw.with_normalization("trace_balanced")
    return Kp, Qtb, build_subproduct(Kp, M)


def _standalone(name, m, K, rho0, M):
    Kp, Qtb, S = _cold(K, rho0, M)
    try:
        if name == "q_compatibility":
            return check_Q_compatibility(S, Qtb.Q, m), None
        if name.startswith("phi_symmetric_"):
            return check_phi_symmetric(Kp, rho0, Qtb, S, m, name.rpartition("_")[2]), None
        if name == "q_sphere":
            res, P = q_sphere_residual(Kp, Qtb, S, m)
            return res, int(round(np.trace(P).real))
        return kms_condition_residual(Kp, rho0, Qtb, S, m), None
    except HypothesisFailure as exc:
        return str(exc), None


@pytest.mark.parametrize("case", sorted(CASES))
def test_standalone_checks_equal_the_verdict_records(case):
    K, rho0, M = CASES[case]()
    rep = detailed_balance_verdict(K, rho0, M)
    names = {c.name for c in rep.checks}
    assert names == {"q_compatibility", "phi_symmetric_normal", "phi_symmetric_antinormal",
                     "q_sphere", "kms_condition"}
    for c in rep.checks:  # each on fresh objects, so every memo starts cold
        got, rank = _standalone(c.name, c.level, K, rho0, M)
        want = c.hypothesis_failure if c.residual is None else c.residual
        assert got == want, (c.name, c.level, got, want)
        if c.name == "q_sphere" and c.residual is not None:
            assert rank == c.defect_rank


@pytest.mark.parametrize("case", ["gad", "commuting_db"])
def test_verdict_leaves_no_reference_cycle(case):
    K, rho0, M = CASES[case]()
    detailed_balance_verdict(K, rho0, M)  # first calls may import and cache
    gc.collect()
    gc.disable()
    try:
        rep = detailed_balance_verdict(K, rho0, M)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert rep.verdict == (case == "commuting_db")
