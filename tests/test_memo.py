"""The memoized level data: read-only, keyed safely, and equal to a cold computation.

A subproduct system memoizes one tuple of records, levels 0..M, per
weight Q (``SubproductSystem.weighted``), so the checks of one verdict
share them.
These tests pin that the memo cannot go stale (the inputs it rests on
are read-only, its key includes Q, and its rank cuts follow the rank_tol
of the level's own system), that a verdict builds one record per level
and forms the Q_m eigenpair only on levels Q^(x)m preserves, that every
verdict record equals what its public check, called on fresh objects,
returns or raises at its level, and that a verdict leaves no reference
cycle behind.
Each level's Grams of a state are formed in the one call that reads a
level's phi and KMS residuals: a true verdict forms one pair per level,
and a system checked with one state and then another returns what fresh
systems return.  That call reads the levels of one rank in stacked
calls: a level reads the same bits in its rank group as alone, and a
true commuting_db verdict takes 3 eigh calls at any depth and M + 1
SVDs.  The first call for a Q weighs levels 0..M in one pass, whatever
level it asks for, with one stacked eigvalsh per Gram size for their
compat: each H and compat reads the bits it reads when its level is
carried on its own and its Grams read alone, a true verdict and the
public KMS check on a cold system take one eigvalsh at any depth and a
false Haar verdict one per level rank, and a level that is not built is
refused before any is weighed.  They also pin that no public check calls
another: a true verdict calls check_state 3 times at any depth and runs
its checks once, and that neither ``kms_condition_residual`` nor
``orthogonalize_kraus`` goes through ``check_phi_symmetric`` or
``correlation_matrix``.
"""
import gc

import numpy as np
import pytest

import loop_oracle as oracle
from conftest import random_channel, random_hermitian
from detbal import KrausSet, equilibrium, reversal
from detbal.equilibrium import (
    _read_levels,
    check_phi_symmetric,
    kms_condition_residual,
    modular_flow,
    orthogonalize_kraus,
)
from detbal.errors import HypothesisFailure
from detbal.factories import commuting_db_kraus, gad_kraus
from detbal.matcore import RANK_TOL, RESIDUAL_TOL, dag
from detbal.reversal import detailed_balance_verdict, q_sphere_residual
from detbal.stinespring import _weigh, build_subproduct, check_Q_compatibility, eigenpairs


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
    for X in (rec.level.V, rec.H, rec2.H, S.weighted(Q, 0).H):
        with pytest.raises(ValueError):
            X[0] = 1.0


def _arrays(rec):
    """(V, H, U, w) of a record, with (U, w) its eigenpairs."""
    return (rec.level.V, rec.H, *eigenpairs([rec])[:2])


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
    # rank_tol decides the ranks of the levels alone: a system built with a larger one
    # inverts Q_m on the whole of a level of the same rank
    coarse = build_subproduct(K, 2, rank_tol=0.5)
    assert coarse.level(2).rank == S.level(2).rank == 4
    assert _arrays(coarse.weighted(Q1, 2))[3].shape == warm[0][3].shape == (1, 4)


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


def _records(S):
    """The one tuple of records S memoizes, for the one Q it was weighed by."""
    (recs,) = S._memo.values()
    return recs


def test_verdict_builds_one_record_per_level(monkeypatch):
    _, M, S = _verdict_and_system(monkeypatch, "gad")
    # every check weighs the levels by the same trace-balanced Q, in the one pass of the
    # first call, which weighs levels 0..M
    assert [rec.level for rec in _records(S)] == [S.level(m) for m in range(M + 1)]


def test_verdict_forms_no_eigenpair_on_levels_Q_does_not_preserve(monkeypatch):
    decomposed = []  # the level of every record whose H eigenpairs decomposes

    def spy(recs):
        decomposed.extend(rec.level.m for rec in recs)
        return eigenpairs(recs)

    monkeypatch.setattr(equilibrium, "eigenpairs", spy)
    rep, M, S = _verdict_and_system(monkeypatch, "haar")
    failing = {c.level for c in rep.checks if c.name == "q_compatibility" and not c.passed}
    assert failing and failing != set(range(1, M + 1))
    assert [rec.level.m for rec in _records(S)] == list(range(M + 1))
    assert sorted(decomposed) == sorted(set(range(1, M + 1)) - failing)
    # the records stay plain data: reading them writes nothing into them
    assert all(set(vars(rec)) == {"level", "H", "compat"} for rec in _records(S))


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
    # the correlation matrix of K (the orthogonalized K' reads its own from it), then
    # (G_n, G_a) once per level, shared by both phi_symmetric orderings and the KMS check
    assert sum(formed_grams) == 1 + 2 * M


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


def test_the_reader_refuses_a_level_Q_does_not_preserve():
    S = build_subproduct(random_channel(2, 3, 5), 2)
    Q = random_hermitian(3, 5)
    rec = S.weighted(Q, 2)
    assert rec.compat > 1e-8
    message = f"Q^(x)2 does not preserve the level-2 subspace (residual {rec.compat:.3g})"
    failure, *unread = _read_levels(S, Q, [2], rec.compat / 2)[2]
    assert isinstance(failure, HypothesisFailure) and str(failure) == message
    assert unread == [None, None]
    # read at tol = compat, the indefinite Q has no inverse on the level to weigh words with:
    # the reader marks the level with the ValueError the one-level readers raise
    failure, *unread = _read_levels(S, Q, [2], rec.compat)[2]
    assert isinstance(failure, ValueError)
    assert str(failure).startswith("Q_2 is not invertible at round-off on level 2")
    assert unread == [None, None]
    assert S.weighted(Q, 2) is rec
    assert _read_levels(S, np.eye(3), [2], 1e-12)[2].failure is None


def test_weighted_compat_of_a_non_hermitian_Q_matches_the_oracle():
    S = build_subproduct(random_channel(2, 3, 6), 3)
    rng = np.random.default_rng(6)
    Q = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for m in range(S.M + 1):
        ref = oracle.check_Q_compatibility(S, Q, m)
        assert abs(S.weighted(Q, m).compat - ref) <= 1e-12 * max(1.0, ref)


def _weighed_alone(S, Q):
    """(H, compat) of levels 0..M of S, each compat from one eigvalsh of each Gram alone.

    The recursion of stinespring._weigh is carried one level at a time,
    with the Gram of Q* taken only for a non-Hermitian Q.
    """
    Q = np.asarray(Q, dtype=complex)
    H, hermitian, out = np.ones((1, 1), dtype=complex), np.array_equal(Q, dag(Q)), []
    G = G_adj = 0 * H
    for m in range(S.M + 1):
        if m:
            if not hermitian:
                G_adj = _weigh(dag(H), G_adj, dag(Q), S.level(m).T)[1]
            H, G = _weigh(H, G, Q, S.level(m).T)
        grams = (G,) if hermitian else (G, G_adj)
        tops = [float(np.linalg.eigvalsh(X)[-1]) if m and len(X) else 0.0 for X in grams]
        out.append((H, float(np.sqrt(max(0.0, *tops)))))
    return out


def assert_compat_parity(S, Q, rank_tol=RANK_TOL):
    """Every record of S (built at rank_tol) weighed in one pass reads the bits it reads alone.

    A cold system weighs levels 0..M in one pass, whose compat reads take
    one stacked eigvalsh per Gram size; _weighed_alone carries each level
    on its own and takes an eigvalsh of each Gram alone.
    """
    one_pass = build_subproduct(KrausSet(S.ops), S.M, rank_tol)
    one_pass.weighted(Q, 0)
    recs = _records(one_pass)
    assert [rec.level.m for rec in recs] == list(range(S.M + 1))
    for m, (rec, (H, compat)) in enumerate(zip(recs, _weighed_alone(one_pass, Q))):
        assert rec.H.tobytes() == H.tobytes(), m
        assert rec.compat.hex() == compat.hex(), m


def test_a_non_hermitian_Q_weighs_the_tower_in_one_pass(monkeypatch):
    S = build_subproduct(random_channel(2, 3, 6), 4)
    rng = np.random.default_rng(6)
    Q = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert_compat_parity(S, Q)
    # a cold system: asked for level 1, the first call weighs every level, and the Grams of
    # Q and Q* of every level share the one stacked call of their size
    S = build_subproduct(KrausSet(S.ops), S.M)
    calls = _count_calls(monkeypatch, "eigvalsh", np.linalg)
    S.weighted(Q, 1)
    ranks = {S.level(m).rank for m in range(1, S.M + 1)}
    assert len(calls) == len(ranks) > 1 and 0 not in ranks
    assert S.weighted(Q, S.M).compat > 1e-8
    assert len(calls) == len(ranks)


@pytest.mark.parametrize("m", [3, 7, -1])
def test_weighted_refuses_a_level_not_built_before_weighing_any(m):
    S = build_subproduct(random_channel(2, 3, 7), 2)
    Q = random_hermitian(3, 7)
    S.weighted(Q, 1)
    memo = dict(S._memo)
    with pytest.raises(ValueError, match=f"level {m} not built"):
        S.weighted(Q, m)
    assert S._memo == memo


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


def _orthogonal_diagonal(n, seed):
    """K_j = diag(O[:, j]) for a seeded real orthogonal O.

    Every level is the rank-n span of the diagonal words, and a diagonal
    state's Q^(x)m preserves it with H_m of spectrum proportional to the
    state's diagonal to the power m, so the levels of one rank read
    spectra whose spread grows with m.
    """
    O, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return KrausSet([np.diag(O[:, j]) for j in range(n)])


# (K, rho0, M, rank_tol): the CASES, commuting_db at every depth to 6, seeded Haar channels
# with d, n <= 3 (Q^(x)m fails to preserve a level of some, and the normal-ordered
# correlations, so the KMS hypothesis, fail on others), coarse rank_tol cuts, and one rank
# group of levels whose H_m spreads grow with m
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
    "diagonal-n3-rank_tol-0.4": lambda: (_orthogonal_diagonal(3, 0), np.diag([0.45, 0.3, 0.25]),
                                         3, 0.4),
}
# cases run with equilibrium.ROW_BLOCK cut to a few rows, so that the verdict and the
# public checks read their word pairs in many row blocks: 600 entries give the 64-word
# level of commuting_db blocks of 3 rows and a one-row tail, and 30 give the 9-word
# level of the Haar case blocks of one row
ROW_BLOCKS = {"commuting_db-M6-row_block-600": 600, "haar-d3-n3-row_block-30": 30}
POOL["commuting_db-M6-row_block-600"] = POOL["commuting_db-M6"]
POOL["haar-d3-n3-row_block-30"] = POOL["haar-d3-n3"]


@pytest.mark.parametrize("case", sorted(POOL))
def test_standalone_checks_equal_the_verdict_records(case, monkeypatch):
    monkeypatch.setattr(equilibrium, "ROW_BLOCK", ROW_BLOCKS.get(case, equilibrium.ROW_BLOCK))
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


def _raised(check):
    """The message of the HypothesisFailure check() raises; None when it returns."""
    try:
        check()
    except HypothesisFailure as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("case", sorted(POOL))
def test_the_reader_marks_exactly_the_levels_Q_does_not_preserve(case):
    # the message of a marked level is the one each public level check raises there
    K, rho0, M, rank_tol = POOL[case]()
    Kp, Qtb, S = _cold(K, rho0, M, rank_tol)
    read = _read_levels(S, Qtb.Q, range(1, M + 1), RESIDUAL_TOL)
    assert sorted(read) == list(range(1, M + 1))
    for m, r in read.items():
        assert (r.failure is not None) == (S.weighted(Qtb.Q, m).compat > RESIDUAL_TOL), m
        raised = {_raised(lambda: check_phi_symmetric(Kp, rho0, Qtb, S, m)),
                  _raised(lambda: q_sphere_residual(Kp, Qtb, S, m)),
                  _raised(lambda: modular_flow(Qtb, S, (1,) * m, 0.5))}
        assert raised == {r.failure and str(r.failure)}, m


def _read_bits(read):
    return [X.tobytes() for X in (read.residuals, *read.defect)]


def assert_stack_parity(S, Q, rho0, rank_tol=RANK_TOL, tol=RESIDUAL_TOL):
    """Every level of S that Q^(x)m preserves reads the same bits in its rank group as alone.

    The group read takes levels 0..M of S at once; each level is then read
    alone on a fresh system built from the same operators at rank_tol, the
    one S was built at, so every memo starts cold.  The eigenpairs (U, w)
    of each rank group's stacked eigh must equal those of the level's
    eigenpairs alone too, and so must every compat of a tower weighed in
    one pass (assert_compat_parity).
    """
    together = _read_levels(S, Q, range(S.M + 1), tol, rho0)
    assert sorted(together) == list(range(S.M + 1))
    ms = [m for m in sorted(together) if together[m].failure is None]
    groups, stacked = {}, {}
    for m in ms:
        groups.setdefault(S.level(m).rank, []).append(m)
    for group in groups.values():
        eig = eigenpairs([S.weighted(Q, m) for m in group])[:2]
        stacked.update({m: [X[i].tobytes() for X in eig] for i, m in enumerate(group)})
    for m in ms:
        fresh = build_subproduct(KrausSet(S.ops), S.M, rank_tol)
        alone = _read_levels(fresh, Q, [m], tol, rho0)[m]
        assert _read_bits(together[m]) == _read_bits(alone), m
        cold = eigenpairs([fresh.weighted(Q, m)])[:2]
        assert stacked[m] == [X[0].tobytes() for X in cold], m
    assert_compat_parity(S, Q, rank_tol)


@pytest.mark.parametrize("case", sorted(POOL))
def test_a_level_reads_the_same_bits_alone_and_in_its_rank_group(case, monkeypatch):
    monkeypatch.setattr(equilibrium, "ROW_BLOCK", ROW_BLOCKS.get(case, equilibrium.ROW_BLOCK))
    K, rho0, M, rank_tol = POOL[case]()
    _, Qtb, S = _cold(K, rho0, M, rank_tol)
    assert_stack_parity(S, Qtb.Q, rho0, rank_tol)


def _linalg_calls(monkeypatch, K, rho0, M):
    """The verdict on (K, rho0, M) and its numpy.linalg eigh, eigvalsh and svd counts.

    A first verdict reads K's residuals, kept on K, and remembers the state,
    so the counted verdict makes only the calls of its own levels.
    """
    detailed_balance_verdict(K, rho0, M)
    calls = {"eigh": 0, "eigvalsh": 0, "svd": 0}
    for name in calls:
        fn = getattr(np.linalg, name)

        def counted(*args, name=name, fn=fn, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return detailed_balance_verdict(K, rho0, M), calls


@pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
def test_true_verdict_linalg_call_budget(monkeypatch, M):
    # the level pass stacks the levels of one rank: every commuting_db level has rank 2, so
    # the eigh count (orthogonalize_kraus, eigenpairs, sphere defects) and the eigvalsh count
    # (the compat Grams, weighed in one pass) stay flat in M; the SVDs are the verdict's rank
    # check and one per level
    rep, calls = _linalg_calls(monkeypatch, commuting_db_kraus(np.pi / 6), np.eye(2) / 2, M)
    assert rep.verdict
    assert calls == {"eigh": 3, "eigvalsh": 1, "svd": M + 1}


def test_the_public_kms_check_weighs_a_cold_system_in_one_pass(monkeypatch):
    # the reader's first S.weighted call weighs levels 0..6, so their compat Grams share
    # one stacked eigvalsh; _cold has validated the state, which is remembered
    Kp, Qtb, S = _cold(commuting_db_kraus(np.pi / 6), np.eye(2) / 2, 6)
    calls = _count_calls(monkeypatch, "eigvalsh", np.linalg)
    assert kms_condition_residual(Kp, np.eye(2) / 2, Qtb, S, 6) < RESIDUAL_TOL
    assert len(calls) == 1


@pytest.mark.parametrize("d, n, M, ranks, groups", [(3, 2, 8, 4, 3), (2, 3, 5, 2, 1)])
def test_false_haar_verdict_linalg_call_budget(monkeypatch, d, n, M, ranks, groups):
    # one eigvalsh per level rank for the compat Grams; eigh for orthogonalize_kraus, one
    # per rank group of the levels Q^(x)m preserves (eigenpairs) and one for every sphere
    # defect of the read levels
    rep, calls = _linalg_calls(monkeypatch, random_channel(d, n, 0), np.eye(d) / d, M)
    assert not rep.verdict
    level_ranks = rep.info["level_ranks"]
    read = {level_ranks[c.level] for c in rep.checks if c.name == "q_compatibility" and c.passed}
    assert (len(set(level_ranks.values())), len(read)) == (ranks, groups)
    assert (calls["eigvalsh"], calls["eigh"]) == (ranks, 1 + groups + 1)


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
