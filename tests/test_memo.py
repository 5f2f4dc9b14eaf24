"""The memoized level data: read-only, keyed safely, and equal to a cold computation.

A subproduct system memoizes one record per level and weight Q
(``SubproductSystem.weighted``), so the checks of one verdict share it.
These tests pin that the memo cannot go stale (the inputs it rests on
are read-only, its key includes Q, and its rank cuts follow the rank_tol
of the level's own system), that a verdict builds one record per level
and forms the Q_m eigenpair only on levels Q^(x)m preserves, that every
verdict record equals what its public check, called on fresh objects,
returns or raises at its level, and that a verdict leaves no reference
cycle behind.
The Grams of a level and a state (``SubproductSystem.grams``) are
formed once, in a memo of their own: a true verdict forms one pair per
level, and a system checked with one state and then another returns
what fresh systems return.  They also pin that no public check calls another: a true verdict calls
check_state 3 times at any depth and runs its checks once, and that neither
``kms_condition_residual`` nor ``orthogonalize_kraus`` goes through
``check_phi_symmetric`` or ``correlation_matrix``.
"""
import gc

import numpy as np
import pytest

import loop_oracle as oracle
from conftest import random_channel, random_hermitian
from detbal import equilibrium, reversal
from detbal.equilibrium import (
    check_phi_symmetric,
    kms_condition_residual,
    orthogonalize_kraus,
)
from detbal.errors import HypothesisFailure
from detbal.factories import commuting_db_kraus, gad_kraus
from detbal.matcore import RANK_TOL
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
    S = build_subproduct(K, 2)
    for write in (lambda: K.ops.__setitem__((0, 0, 0), 1.0),
                  lambda: K[1].__setitem__((0, 0), 1.0),
                  lambda: S.stack(K, 2).__setitem__((0, 0, 0), 1.0)):
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
    rec, rec2 = S.weighted(Q, 2), S.weighted(Q @ Q, 2)
    for X in (rec.V, rec.H, rec2.U, rec2.w):
        with pytest.raises(ValueError):
            X[0] = 1.0


def _arrays(rec):
    return rec.V, rec.H, rec.U, rec.w


def test_level_memo_is_keyed_by_Q_and_rank_tol():
    K = random_channel(2, 3, 4)
    S = build_subproduct(K, 2)
    Q1 = random_hermitian(3, 4)
    Q1 = Q1 @ Q1 + np.eye(3)
    Q2 = Q1.copy()
    Q2[0, 1] += 1e-3
    Q2[1, 0] += 1e-3
    inputs = (Q1, Q2, Q1.real)
    # (V, H, U, w) for every input from one system, so later inputs meet a warm memo
    warm = [_arrays(S.weighted(Q, 2)) for Q in inputs]
    for Q, got in zip(inputs, warm):
        cold = build_subproduct(K, 2)
        want = _arrays(cold.weighted(Q, 2))
        assert [X.tobytes() for X in got] == [X.tobytes() for X in want]
    assert not np.array_equal(warm[0][1], warm[1][1])  # Q1 and Q2 differ
    # a system built with a larger rank_tol keeps fewer Q_m eigenvalues on the same level
    coarse = build_subproduct(K, 2, rank_tol=0.5)
    assert coarse.rank_tol == 0.5 and coarse.level(2).rank == S.level(2).rank
    assert len(coarse.weighted(Q1, 2).w) < len(warm[0][3])


def _verdict_and_system(monkeypatch, case):
    """The verdict on CASES[case], its M and the subproduct system it built."""
    built = []

    def build(*args):
        built.append(build_subproduct(*args))
        return built[-1]

    monkeypatch.setattr(reversal, "build_subproduct", build)
    K, rho0, M = CASES[case]()
    rep = detailed_balance_verdict(K, rho0, M)
    (S,) = built
    return rep, M, S


def test_verdict_builds_one_record_per_level(monkeypatch):
    _, M, S = _verdict_and_system(monkeypatch, "gad")
    # every check weighs levels 1..M by the same trace-balanced Q; level 0 is never weighed
    assert sorted(m for m, _ in S._memo) == list(range(1, M + 1))


def test_verdict_forms_no_eigenpair_on_levels_Q_does_not_preserve(monkeypatch):
    rep, M, S = _verdict_and_system(monkeypatch, "haar")
    failing = {c.level for c in rep.checks if c.name == "q_compatibility" and not c.passed}
    assert failing and failing != set(range(1, M + 1))
    assert sorted(m for m, _ in S._memo) == list(range(1, M + 1))
    for (m, _), rec in S._memo.items():
        # the eigenpair is a cached property: present in the record once read
        assert ("_eig" in vars(rec)) == (m not in failing), m


def test_weighted_eigenpair_is_formed_on_first_read_and_kept():
    S = build_subproduct(random_channel(2, 3, 7), 2)
    rec = S.weighted(random_hermitian(3, 7), 2)
    assert "_eig" not in vars(rec)
    U, w = rec.U, rec.w
    assert rec.U is U and rec.w is w


def _count_calls(monkeypatch, name, *modules):
    """Wrap the function `name` in each module with one shared call counter."""
    calls = []
    for mod in modules:
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, fn=fn, **kw: calls.append(name) or fn(*a, **kw))
    return calls


@pytest.mark.parametrize("M", [2, 3, 4])
def test_true_verdict_validates_the_state_3_times(monkeypatch, M):
    # the verdict, orthogonalize_kraus and zero_mean_check once each, at any depth:
    # the level pass calls no public check
    calls = _count_calls(monkeypatch, "check_state", equilibrium, reversal)
    rep = detailed_balance_verdict(commuting_db_kraus(np.pi / 6), np.eye(2) / 2, M)
    assert rep.verdict
    assert len(calls) == 3


def test_verdict_runs_the_state_checks_once():
    # every later check_state call of the verdict finds the state remembered
    equilibrium._validate_state.cache_clear()
    detailed_balance_verdict(commuting_db_kraus(np.pi / 6), np.eye(2) / 2, 3)
    info = equilibrium._validate_state.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("M", [2, 3, 4])
def test_true_verdict_forms_one_gram_pair_per_level(formed_grams, M):
    rep = detailed_balance_verdict(commuting_db_kraus(np.pi / 6), np.eye(2) / 2, M)
    assert rep.verdict
    # the correlation matrices of K and of the orthogonalized K', then (G_n, G_a) once per
    # level, shared by both phi_symmetric orderings and the KMS check
    assert len(formed_grams) == 2 + 2 * M


def _state_residuals(Kp, rho, Qd, S, M):
    """Both phi_symmetric orderings at every level and the KMS residual, hypotheses not enforced."""
    phi = [check_phi_symmetric(Kp, rho, Qd, S, m, ordering, np.inf)
           for m in range(1, M + 1) for ordering in ("normal", "antinormal")]
    return phi + [kms_condition_residual(Kp, rho, Qd, S, M, np.inf)]


@pytest.mark.parametrize("case", ["commuting_db", "haar"])
def test_a_system_checked_with_two_states_reads_no_stale_gram(case):
    K, rho0, M = CASES[case]()
    Kp, Qtb, S = _cold(K, rho0, M)
    rho1 = _haar_state(K.d, 5)
    fresh = [_state_residuals(Kp, rho, Qtb, build_subproduct(Kp, M), M) for rho in (rho0, rho1)]
    assert fresh[0] != fresh[1]
    rho = np.array(rho0, dtype=complex)
    assert _state_residuals(Kp, rho, Qtb, S, M) == fresh[0]
    rho[:] = rho1  # the same array, written in place
    assert _state_residuals(Kp, rho, Qtb, S, M) == fresh[1]
    assert _state_residuals(Kp, rho0, Qtb, S, M) == fresh[0]
    assert len(S._grams) == 2 * M
    # another weight on the same levels and state reads its own normal-ordered residual
    Q1 = equilibrium.correlation_matrix(Kp, rho1)
    want = _state_residuals(Kp, rho0, Q1, build_subproduct(Kp, M), M)
    assert want != fresh[0]
    assert _state_residuals(Kp, rho0, Q1, S, M) == want


def _refuse(*args, **kwargs):
    raise AssertionError("a public check was called from inside another")


def _kms_or_failure(*args):
    try:
        return kms_condition_residual(*args)
    except HypothesisFailure as exc:
        return str(exc)


@pytest.mark.parametrize("case", sorted(CASES))
def test_kms_calls_no_other_public_check(monkeypatch, case):
    K, rho0, M = CASES[case]()
    Kp, Qtb, S = _cold(K, rho0, M)
    args = (Kp, rho0, Qtb, S, M)
    want = _kms_or_failure(*args)
    for name in ("check_phi_symmetric", "correlation_matrix"):
        monkeypatch.setattr(equilibrium, name, _refuse)
    assert _kms_or_failure(*args) == want


@pytest.mark.parametrize("case", sorted(CASES))
def test_orthogonalize_validates_once_without_correlation_matrix(monkeypatch, case):
    K, rho0, _ = CASES[case]()
    monkeypatch.setattr(equilibrium, "correlation_matrix", _refuse)
    calls = _count_calls(monkeypatch, "check_state", equilibrium)
    orthogonalize_kraus(K, rho0)
    assert len(calls) == 1


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


def _cold(K, rho0, M, rank_tol=RANK_TOL):
    """A fresh orthogonalized set, trace-balanced Q and subproduct system."""
    Kp, Qraw, _ = orthogonalize_kraus(K, rho0, rank_tol=rank_tol)
    Qtb = Qraw.with_normalization("trace_balanced")
    return Kp, Qtb, build_subproduct(Kp, M, rank_tol)


def _standalone(name, m, K, rho0, M, rank_tol=RANK_TOL):
    Kp, Qtb, S = _cold(K, rho0, M, rank_tol)
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


# (K, rho0, M, rank_tol): the CASES, commuting_db at every depth to 6, seeded Haar channels
# with d, n <= 3 (Q^(x)m fails to preserve a level of some, and the normal-ordered
# correlations, so the KMS hypothesis, fail on others), and coarse rank_tol cuts
POOL = {
    **{name: lambda make=make: (*make(), RANK_TOL) for name, make in CASES.items()},
    **{f"commuting_db-M{M}": lambda M=M: (commuting_db_kraus(np.pi / 6), np.eye(2) / 2, M,
                                          RANK_TOL) for M in range(1, 7)},
    **{f"haar-d{d}-n{n}": lambda d=d, n=n: (random_channel(d, n, 3 * d + n), _haar_state(d, n),
                                            3, RANK_TOL) for d in (2, 3) for n in (2, 3)},
    "haar-d2-n2-rank_tol-0.1": lambda: (random_channel(2, 2, 1), _haar_state(2, 1), 3, 0.1),
    "haar-d3-n3-rank_tol-0.1": lambda: (random_channel(3, 3, 0), _haar_state(3, 0), 3, 0.1),
    "haar-d3-n2-rank_tol-0.4": lambda: (random_channel(3, 2, 2), _haar_state(3, 2), 3, 0.4),
    "mixed-d2-n2-rank_tol-0.4": lambda: (random_channel(2, 2, 100), np.eye(2) / 2, 3, 0.4),
}


@pytest.mark.parametrize("case", sorted(POOL))
def test_standalone_checks_equal_the_verdict_records(case):
    K, rho0, M, rank_tol = POOL[case]()
    rep = detailed_balance_verdict(K, rho0, M, rank_tol=rank_tol)
    names = {c.name for c in rep.checks}
    assert names == {"q_compatibility", "phi_symmetric_normal", "phi_symmetric_antinormal",
                     "q_sphere", "kms_condition"}
    failures = []
    for c in rep.checks:  # each public check on fresh objects, so every memo starts cold
        got, rank = _standalone(c.name, c.level, K, rho0, M, rank_tol)
        if isinstance(got, str):
            assert (c.residual, c.passed, c.hypothesis_failure) == (None, False, got), c
            failures.append(f"{c.name}[m={c.level}]: {got}")
        else:
            assert (c.residual, c.passed, c.hypothesis_failure) == (got, got < c.tolerance,
                                                                    None), c
        assert c.defect_rank == rank, c
    assert rep.info["hypothesis_failures"] == failures


def test_the_record_pool_meets_every_kind_of_record():
    reps = [detailed_balance_verdict(*args[:3], rank_tol=args[3])
            for args in (make() for make in POOL.values())]
    notes = [note for rep in reps for note in rep.info["hypothesis_failures"]]
    assert any(rep.verdict for rep in reps) and not all(rep.verdict for rep in reps)
    assert any("does not preserve" in note for note in notes)
    assert any(note.startswith("kms_condition") and "normal-ordered" in note for note in notes)
    assert any(c.name == "q_sphere" and c.defect_rank for rep in reps for c in rep.checks)
    assert {rep.rank_tol for rep in reps} == {RANK_TOL, 0.1, 0.4}


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
