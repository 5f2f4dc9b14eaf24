"""Invariants of the subproduct levels, over random channels with d, n <= 3.

Each level is stored as a core T_m linked to the level below it, with its
compressed word stack B_m, and its isometry V_m is expanded on first
read; these properties hold for any Kraus set and any weight Q, so
hypothesis draws the channel and Q.  The levels must equal the dense
levels of ``loop_oracle``, which take the SVD of every word operator at
once: the same ranks, and projectors and compressed stacks to 1e-12.  A
weight's record is built in r x r train coordinates, and its H must
equal the dense V* Q^(x)m V.  The checks of a verdict read the words of
a level through (V_m, B_m) alone: they build no word stack, expand the
word rows only of levels Q^(x)m preserves (V_m, and no Q-weighted
array), read their word-pair residuals in row blocks, and on drawn
channels they equal the word-at-a-time loops of ``loop_oracle`` to
1e-12 * max(1, |ref|).  A single row of V_m or Q^(x)m V_m, and the
boundary defect of e_1^(x)m, are read through the train and equal the
expanded V_m and the oracle's dense Q^(x)m V_m.  The levels of one rank
are read in stacked calls, and each reads the same bits there as alone.
The power dilation residual of a level is at most ||A|| times the mass
its rank cuts drop, Tr Phi^m(1) - ||B_m||_F^2.  The KMS residual up to
level m is the maximum over levels 1..m, so it never falls as m grows.
The train is left-canonical: every core T_m is an isometry, a row of V_m
is the product of the cores' letter slices, and a linearly dependent
Kraus set builds the levels of its minimal set, with the identity as its
first core.
"""
import tracemalloc

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import loop_oracle as oracle  # noqa: E402
from conftest import random_channel, random_hermitian, random_unitary  # noqa: E402
from detbal.channel import KrausSet, apply, minimal_kraus, remix, word_stack  # noqa: E402
from detbal.equilibrium import (  # noqa: E402
    check_phi_symmetric,
    correlation_matrix,
    kms_condition_residual,
    kms_state_eval,
    modular_flow,
    orthogonalize_kraus,
)
from detbal.errors import HypothesisFailure  # noqa: E402
from detbal.factories import commuting_db_kraus, gad_kraus  # noqa: E402
from detbal.qgroup import first_row_q_sphere, suq2_dilation, suq2_generators  # noqa: E402
from detbal.matcore import RANK_TOL, RESIDUAL_TOL, dag  # noqa: E402
from detbal.reversal import detailed_balance_verdict, q_sphere_residual  # noqa: E402
from test_memo import POOL, _haar_state, _orthogonal_diagonal, assert_stack_parity  # noqa: E402
from detbal.stinespring import (  # noqa: E402
    build_subproduct,
    check_Q_compatibility,
    check_subproduct_inclusion,
    verify_power_dilation,
)

M = 3


@hypothesis.settings(max_examples=25, deadline=None, database=None)
@hypothesis.given(d=st.sampled_from([2, 3]), n=st.sampled_from([2, 3]),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_level_invariants(d, n, seed):
    S = build_subproduct(random_channel(d, n, seed), M)
    rng = np.random.default_rng(seed)
    Q = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for m in range(M + 1):
        V = S.level(m).V
        r = S.level(m).rank
        assert r <= min(d * d, n ** m)
        np.testing.assert_allclose(dag(V) @ V, np.eye(r), rtol=0, atol=1e-12)
        for l in range(1, M - m + 1):
            assert check_subproduct_inclusion(S, m, l) <= 1e-12
        for P in (Q, Q + dag(Q)):  # a complex and a Hermitian weight
            ref = oracle.check_Q_compatibility(S, P, m)
            assert abs(check_Q_compatibility(S, P, m) - ref) <= 1e-12 * max(1.0, ref)
            # the train recursion H_m = T*(H_{m-1} (x) H_1)T against the dense V* P^(x)m V
            H = dag(V) @ oracle._tensor_power(P, m) @ V
            err = np.max(np.abs(S.weighted(P, m).H - H), initial=0.0)
            assert err <= 1e-12 * max(1.0, np.max(np.abs(H), initial=0.0))


def test_commuting_levels_are_compatible_to_round_off():
    # the Gram carry takes no difference of Grams, so no sqrt(eps) floor appears
    K, rho0 = commuting_db_kraus(np.pi / 6), np.eye(2) / 2
    Kp, Qraw, _ = orthogonalize_kraus(K, rho0)
    S = build_subproduct(Kp, 10)
    for Q in (Qraw.Q, Qraw.with_normalization("trace_balanced").Q):
        assert max(S.weighted(Q, m).compat for m in range(11)) <= 1e-14


def assert_levels_match_dense(K, M):
    S = build_subproduct(K, M)
    for m in range(M + 1):
        L = S.level(m)
        p_ref, r_ref, _ = oracle._level_projector(K, m, RANK_TOL)
        assert L.rank == r_ref, m
        np.testing.assert_allclose(L.V @ dag(L.V), p_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(L.B, remix(word_stack(K.ops, m), L.V), rtol=0, atol=1e-12)
        if m >= 1:
            W = np.kron(S.level(m - 1).V, np.eye(S.n))
            np.testing.assert_allclose(W @ L.T, L.V, rtol=0, atol=1e-12)
    return S


def _diagonal_channel(d, n, seed):
    """n commuting diagonal Kraus operators: the levels drop every reordered word."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    X /= np.linalg.norm(X, axis=0)
    return KrausSet([np.diag(x) for x in X])


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(d=st.integers(1, 3), n=st.integers(1, 3), M=st.integers(1, 4),
                  diagonal=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_levels_built_from_the_level_below_match_the_dense_levels(d, n, M, diagonal, seed):
    # linearly independent families (n <= d diagonal, n <= d^2 random), so that
    # build_subproduct keeps the alphabet the oracle enumerates
    K = _diagonal_channel(d, min(n, d), seed) if diagonal else random_channel(d, min(n, d * d), seed)
    assert_levels_match_dense(K, M)


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(d=st.integers(1, 3), n=st.integers(1, 3), M=st.integers(1, 4),
                  rank_tol=st.sampled_from([RANK_TOL, 0.1, 0.4]), diagonal=st.booleans(),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_levels_read_the_same_bits_alone_and_in_their_rank_groups(d, n, M, rank_tol, diagonal,
                                                                  seed):
    # a diagonal channel with a diagonal state has preserved levels of one rank at every depth
    rng = np.random.default_rng(seed)
    if diagonal:
        K, rho0 = _orthogonal_diagonal(d, seed), np.diag(rng.dirichlet(np.ones(d)) + 0.1 / d)
        rho0 /= np.trace(rho0)
    else:
        K, rho0 = random_channel(d, min(n, d * d), seed), _haar_state(d, seed)
    Kp, Qraw, _ = orthogonalize_kraus(K, rho0)
    S = build_subproduct(Kp, M, rank_tol)
    hypothesis.assume(S.n == Kp.n)  # a coarse cut that merges operators changes the alphabet
    assert_stack_parity(S, Qraw.with_normalization("trace_balanced").Q, rho0, rank_tol)


def test_deep_commuting_levels_match_the_dense_levels():
    S = assert_levels_match_dense(commuting_db_kraus(np.pi / 6), 10)
    assert [S.level(m).rank for m in range(11)] == [1] + [2] * 10


def test_complex_deficient_level_matches_the_dense_level():
    # Weyl clock and shift obey XZ = w ZX, a complex word relation: rank 8 of 9
    w = np.exp(2j * np.pi / 3)
    X = np.roll(np.eye(3), 1, axis=0).astype(complex)
    Z = np.diag([1, w, w * w])
    K = KrausSet([U / np.sqrt(3) for U in (random_unitary(3, 1), X, Z)])
    S = assert_levels_match_dense(K, 3)
    assert S.level(2).rank == 8


def _close(got, ref):
    """got equals ref to 1e-12 * max(1, |ref|), shapes included."""
    scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
    return got.shape == ref.shape and float(np.abs(got - ref).max(initial=0.0)) <= 1e-12 * scale


def assert_compress_matches_the_word_stack(S, ops):
    """Level.compress(ops) is V_m* Z, for Z the words of ops, at every level of S."""
    for m in range(S.M + 1):
        L = S.level(m)
        assert _close(L.compress(ops), remix(word_stack(ops, m), L.V)), m


@pytest.mark.parametrize("case", sorted(POOL))
def test_compress_equals_the_remixed_word_stack(case):
    K, _, M, rank_tol = POOL[case]()
    S = build_subproduct(K, M, rank_tol)
    rng = np.random.default_rng(len(case))
    other = rng.normal(size=(S.n, 3, 3)) + 1j * rng.normal(size=(S.n, 3, 3))  # 3 x 3, no channel
    for ops in (S.ops, other):
        assert_compress_matches_the_word_stack(S, ops)


@pytest.mark.parametrize("case", sorted(POOL))
def test_every_core_is_an_isometry_and_a_row_is_a_product_of_core_slices(case):
    # V_m = (V_{m-1} (x) 1_n) T_m with T_m* T_m = 1: a left-canonical train, whose
    # row a is T_1[a_1] ... T_m[a_m] for the slices T_k[a] = T_k.reshape(r_{k-1}, n, r_k)[:, a]
    K, _, M, rank_tol = POOL[case]()
    S = build_subproduct(K, M, rank_tol)
    rng = np.random.default_rng(len(case))
    for m in range(1, M + 1):
        L = S.level(m)
        np.testing.assert_allclose(dag(L.T) @ L.T, np.eye(L.rank), rtol=0, atol=1e-12)
        for a in {0, len(L.V) - 1, *rng.integers(len(L.V), size=3).tolist()}:
            word = np.unravel_index(a, (S.n,) * m)
            row = np.ones(1)
            for k, letter in enumerate(word, 1):
                Lk = S.level(k)
                row = row @ Lk.T.reshape(Lk.below.rank, S.n, Lk.rank)[:, letter]
            slices = L.T.reshape(L.below.rank, S.n, L.rank)
            np.testing.assert_allclose(L.row(word), L.below.row(word[:-1]) @ slices[:, word[-1]],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(L.row(word), row, rtol=0, atol=1e-12)
            np.testing.assert_allclose(L.V[a], row, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", sorted(POOL))
def test_a_dependent_set_builds_the_levels_of_its_minimal_set(case):
    K, _, M, rank_tol = POOL[case]()
    extra = (0.5 - 0.2j) * K.ops[0] + 1j * K.ops[-1]
    dependent = KrausSet(np.concatenate([K.ops, extra[np.newaxis]]))
    S = build_subproduct(dependent, M, rank_tol)
    ref = build_subproduct(minimal_kraus(dependent, rank_tol), M, rank_tol)
    assert S.n == ref.n < dependent.n
    np.testing.assert_array_equal(S.ops, ref.ops)
    np.testing.assert_array_equal(S.level(1).T, np.eye(S.n))  # the kept operators are the letters
    rng = np.random.default_rng(len(case))
    Q = rng.normal(size=(S.n, S.n)) + 1j * rng.normal(size=(S.n, S.n))
    for m in range(1, M + 1):
        L, R = S.level(m), ref.level(m)
        assert L.rank == R.rank, m
        np.testing.assert_allclose(L.V @ dag(L.V), R.V @ dag(R.V), rtol=0, atol=1e-12)
        for P in (Q, Q + dag(Q)):
            got, want = S.weighted(P, m).compat, ref.weighted(P, m).compat
            assert abs(got - want) <= 1e-12 * max(1.0, want), (m, got, want)


def test_compress_of_the_kraus_array_is_B_at_any_cut():
    # B_m = V_m* A_m holds for any cut, so compress(S.ops) is B_m also on the levels where a
    # coarse rank_tol cut more than round-off and A_m = V_m B_m fails
    exact, cut = 0, 0  # the levels with A_m = V_m B_m, and the others
    for make in POOL.values():
        K, _, M, rank_tol = make()
        S = build_subproduct(K, M, rank_tol)
        for m in range(M + 1):
            L = S.level(m)
            assert _close(L.compress(S.ops), L.B), m
            A = word_stack(S.ops, m).reshape(len(L.V), -1)
            if _close(L.V @ L.B.reshape(L.rank, -1), A):
                exact += 1
            else:
                cut += 1
    assert exact and cut


def test_compress_reads_levels_of_rank_zero():
    # the case of test_levels_of_vanishing_products_have_rank_zero: ranks 1, 1, 0, 0
    S = build_subproduct(KrausSet([np.array([[0, 1], [0, 0]], dtype=complex)]), 3)
    other = np.random.default_rng(0).normal(size=(1, 3, 3)).astype(complex)
    for ops in (S.ops, other):
        assert_compress_matches_the_word_stack(S, ops)
    assert S.level(3).compress(other).shape == (0, 3, 3)


def test_first_row_q_sphere_builds_no_word_stack(refuse_word_stacks):
    a, c, K, F = suq2_generators(0.5, 6)
    S = build_subproduct(K, 4)
    refuse_word_stacks()
    assert first_row_q_sphere(suq2_dilation(a, c, 0.5), F, S, 4).check("row_sphere").passed


def test_levels_of_vanishing_products_have_rank_zero():
    # N^2 = 0: every word of length >= 2 vanishes, and the levels above stay empty
    S = assert_levels_match_dense(KrausSet([np.array([[0, 1], [0, 0]], dtype=complex)]), 3)
    assert [S.level(m).rank for m in range(4)] == [1, 1, 0, 0]


def test_sphere_defect_of_a_level_of_rank_zero_is_minus_one():
    # every word of length 2 vanishes: the weighted word sum is empty, so the defect is -1
    K = KrausSet([np.array([[0, 1], [0, 0]], dtype=complex)])
    S = build_subproduct(K, 2)
    res, P = q_sphere_residual(K, correlation_matrix(K, np.diag([0.3, 0.7])), S, 2)
    assert S.level(2).rank == 0
    assert res == 1.0 and np.array_equal(P, np.eye(2))


def test_build_subproduct_forms_no_word_stack_above_level_one(refuse_word_stacks):
    refuse_word_stacks()
    assert build_subproduct(random_channel(2, 3, 8), 4).level(4).rank == 4


def test_build_subproduct_expands_no_word_row(expanded_rows):
    S = build_subproduct(random_channel(2, 3, 8), 6)
    assert [S.level(m).rank for m in range(7)] == [1, 3] + [4] * 5
    assert expanded_rows == []


def test_haar_verdict_expands_only_levels_Q_preserves(expanded_rows):
    rep = detailed_balance_verdict(random_channel(3, 2, 13), np.eye(3) / 3, 5)
    compat = {c.level: c.residual for c in rep.checks if c.name == "q_compatibility"}
    preserved = {m for m, res in compat.items() if res <= RESIDUAL_TOL}
    assert preserved and preserved != set(compat)
    assert expanded_rows and {2 ** m for m in preserved} >= set(expanded_rows)


@pytest.mark.parametrize("M", [4, 8])
def test_true_verdict_expands_one_word_space_array_per_level_above_one(expanded_rows, M):
    # V_2 .. V_M, and no Q-weighted word-space array
    rep = detailed_balance_verdict(commuting_db_kraus(np.pi / 6), np.eye(2) / 2, M)
    assert rep.to_dict()["verdict"] is True
    assert expanded_rows == [2 ** m for m in range(2, M + 1)]


def test_verdict_word_pair_residuals_are_read_in_row_blocks():
    # at M = 11 a whole 2048 x 2048 complex word-pair matrix alone is 64 MiB
    tracemalloc.start()
    try:
        rep = detailed_balance_verdict(commuting_db_kraus(np.pi / 6), np.eye(2) / 2, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.to_dict()["verdict"] is True
    assert peak < 40 * 2 ** 20, peak / 2 ** 20


TRAINS = {
    "suq2-N32": (lambda: suq2_generators(0.5, 32)[2], 5),
    "gad": (lambda: gad_kraus(0.75, 0.5), 5),
    "commuting_db": (lambda: commuting_db_kraus(np.pi / 6), 5),
    "random-d2-n3": (lambda: random_channel(2, 3, 0), 7),
    "random-d3-n2": (lambda: random_channel(3, 2, 13), 5),
}


@pytest.mark.parametrize("case", sorted(TRAINS))
def test_train_rows_and_boundary_defect_match_the_expanded_levels(case):
    channel, M = TRAINS[case]
    S = build_subproduct(channel(), M)
    rng = np.random.default_rng(M)
    Q = rng.normal(size=(S.n, S.n)) + 1j * rng.normal(size=(S.n, S.n))
    for m in range(M + 1):
        L = S.level(m)
        QV = oracle.weighted_isometry(Q, L)
        e1 = np.eye(len(L.V), 1)[:, 0]
        dense = np.linalg.norm(L.V @ L.V[0].conj() - e1)
        assert abs(L.boundary_defect() - dense) <= 1e-12, (m, L.boundary_defect(), dense)
        for a in {0, len(L.V) - 1, *rng.integers(len(L.V), size=3).tolist()}:
            word = np.unravel_index(a, (S.n,) * m)
            np.testing.assert_allclose(L.row(word), L.V[a], rtol=0, atol=1e-12)
            np.testing.assert_allclose(L.row(word, Q), QV[a], rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(QV[a]).max()))


def test_power_dilation_and_kms_state_eval_expand_no_word_row(expanded_rows):
    K = random_channel(2, 3, 0)
    S = build_subproduct(K, 7)
    assert S.level(7).boundary_defect() > 0.97  # e_1^(x)7 is nearly outside the level
    assert verify_power_dilation(K, S, 7, np.diag([1.0, -1.0])) < 1e-12
    a, c, Kq, F = suq2_generators(0.5, 6)
    assert verify_power_dilation(Kq, build_subproduct(Kq, 4), 4, np.diag(np.arange(6.0))) < 1e-10
    Kp, Qraw, _ = orthogonalize_kraus(K, np.eye(2) / 2)
    Qd = Qraw.with_normalization("trace_balanced")
    Sp = build_subproduct(Kp, 7)
    j, k = (1, 2, 3, 1, 2, 3, 1), (3, 3, 2, 1, 1, 2, 2)
    for ordering in ("normal", "antinormal"):
        assert abs(kms_state_eval(Qd, Sp, j, k, ordering)) > 0
    assert expanded_rows == []


@pytest.mark.parametrize("case", sorted(POOL))
def test_power_dilation_residual_is_bounded_by_the_mass_the_cuts_drop(case):
    # A_m = V_m B_m + R with V_m* R = 0 gives Phi^m(A) = sum_k B_k* A B_k + R*(A (x) 1)R, so
    # the residual is at most ||A|| ||R||_F^2 = ||A|| (Tr Phi^m(1) - ||B_m||_F^2), round-off
    # at the default rank_tol and the mass dropped at a coarse one
    K, _, M, rank_tol = POOL[case]()
    S = build_subproduct(K, M, rank_tol)
    A = random_hermitian(K.d, 17)
    norm = np.linalg.norm(A, 2)
    mass = np.eye(K.d, dtype=complex)
    for m in range(1, M + 1):
        mass = apply(K, mass)
        dropped = np.trace(mass).real - np.linalg.norm(S.level(m).B) ** 2
        assert verify_power_dilation(K, S, m, A) <= norm * dropped + 1e-13, (m, dropped)


VERDICTS = {
    "commuting_db": (lambda: commuting_db_kraus(np.pi / 6), np.eye(2) / 2, 4, True),
    "gad": (lambda: gad_kraus(0.75, 0.5), np.diag([0.75, 0.25]), 3, False),
    "random-d3-n2": (lambda: random_channel(3, 2, 13), np.eye(3) / 3, 4, False),
}


@pytest.mark.parametrize("case", sorted(VERDICTS))
def test_verdict_builds_no_word_stack(refuse_word_stacks, case):
    channel, rho0, M, verdict = VERDICTS[case]
    want = detailed_balance_verdict(channel(), rho0, M).to_dict()
    assert want["verdict"] == verdict
    refuse_word_stacks()
    assert detailed_balance_verdict(channel(), rho0, M).to_dict() == want


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HypothesisFailure as exc:
        return exc


def _assert_close(new, ref):
    if isinstance(ref, HypothesisFailure):
        assert isinstance(new, HypothesisFailure) and str(new) == str(ref), (new, ref)
    else:
        assert not isinstance(new, HypothesisFailure), new
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert float(np.max(np.abs(np.asarray(new) - ref))) <= 1e-12 * scale, (new, ref)


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(d=st.integers(1, 3), n=st.integers(1, 3), M=st.integers(1, 3),
                  diagonal=st.booleans(), mixed=st.booleans(),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_checks_read_from_the_levels_match_the_loop_oracle(d, n, M, diagonal, mixed, seed):
    # the property form of test_word_stack's test_level_functions_match_dense_oracle pool
    K = _diagonal_channel(d, min(n, d), seed) if diagonal else random_channel(d, min(n, d * d), seed)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho0 = np.eye(d) / d if mixed else X @ dag(X) + 0.1 * np.eye(d)
    rho0 = rho0 / np.trace(rho0).real
    Kp, Qraw, _ = orthogonalize_kraus(K, rho0)
    Qd = Qraw.with_normalization("trace_balanced")
    S = build_subproduct(Kp, M)
    for m in range(1, M + 1):
        for ordering in ("normal", "antinormal"):
            _assert_close(_outcome(check_phi_symmetric, Kp, rho0, Qd, S, m, ordering),
                          _outcome(oracle.check_phi_symmetric, Kp, rho0, Qd, S, m, ordering))
        new = _outcome(q_sphere_residual, Kp, Qd, S, m)
        ref = _outcome(oracle.q_sphere_residual, Kp, Qd, S, m)
        _assert_close(new if isinstance(new, HypothesisFailure) else new[0],
                      ref if isinstance(ref, HypothesisFailure) else ref[0])
        _assert_close(_outcome(kms_condition_residual, Kp, rho0, Qd, S, m),
                      _outcome(oracle.kms_condition_residual, Kp, rho0, Qd, S, m))
        compat = S.weighted(Qd.Q, m).compat <= 1e-8
        for t in (0.3, -1j):
            Qit = oracle._qm_function(Qd.Q, S, m, lambda w: np.power(w, -1j * t))
            for a, word in enumerate(oracle.words(S.level(m))):
                row = _outcome(modular_flow, Qd, S, word, t)
                if compat:
                    _assert_close(row, Qit[a])
                else:
                    assert isinstance(row, HypothesisFailure)


@hypothesis.settings(max_examples=20, deadline=None, database=None)
@hypothesis.given(theta=st.floats(0.15, 1.4))
def test_kms_residual_never_falls_as_the_depth_grows(theta):
    # each level reads the same bits in any call, so the running maximum compares exactly
    rho0 = np.eye(2) / 2
    Kp, Qraw, _ = orthogonalize_kraus(commuting_db_kraus(theta), rho0)
    Qd = Qraw.with_normalization("trace_balanced")
    S = build_subproduct(Kp, 5)
    kms = [kms_condition_residual(Kp, rho0, Qd, S, m) for m in range(1, 6)]
    assert all(a <= b for a, b in zip(kms, kms[1:])), kms
