"""The word-stack contractions and level-coordinate functions against the
word-at-a-time loops and dense-projector bodies they replaced.

Every residual must match its oracle (``loop_oracle``) to
1e-12 * max(1, |ref|), and every HypothesisFailure message must match
exactly, on the acceptance pool: random channels over the (d, n) grid,
gad, commuting_db and the truncated SU_q(2) ladder.
"""
import numpy as np
import pytest

import loop_oracle as oracle
from detbal.channel import (
    KrausSet,
    channel_distance,
    dilation_from_kraus,
    index_words,
    minimal_kraus,
    word_operator,
    word_stack,
)
from detbal.equilibrium import (
    CorrelationData,
    check_phi_symmetric,
    correlation_matrix,
    kms_condition_residual,
    kms_state_eval,
    modular_flow,
    orthogonalize_kraus,
    trace_qm,
)
from detbal.errors import HypothesisFailure
from detbal.factories import commuting_db_kraus, gad_kraus
from detbal.matcore import dag
from detbal.qgroup import first_row_q_sphere, suq2_dilation, suq2_generators
from detbal.reversal import crooks_check, crooks_dual, q_sphere_residual
from detbal.stinespring import (
    _level_isometry,
    build_subproduct,
    check_Q_compatibility,
    check_subproduct_inclusion,
    verify_power_dilation,
)

from conftest import random_channel, random_hermitian, random_unitary

RTOL = 1e-12

# the first entry of the acceptance pool for every (d, n) with d, n <= 4
RANDOM = [(d, n, 7000 + i) for i, (d, n) in
          enumerate((d, n) for d in (2, 3, 4) for n in (2, 3, 4))]


def _orthogonal_case(K, rho0, M):
    Kp, Qraw, _ = orthogonalize_kraus(K, rho0)
    Qd = Qraw.with_normalization("trace_balanced")
    S = build_subproduct(Kp, M)
    Qd.attach_levels(S)
    return Kp, rho0, Qd, S, M


def _unorthogonalized_case(K, rho0, M):
    # a complex, non-diagonal Q makes Qinv differ from its transpose
    Qd = correlation_matrix(K, rho0)
    S = build_subproduct(K, M)
    Qd.attach_levels(S)
    return K, rho0, Qd, S, M


def _suq2_case():
    q, N = 0.5, 6
    _, _, K, _ = suq2_generators(q, N)
    Qk = np.diag([1.0, q ** -2]).astype(complex)
    Qd = CorrelationData(Q=Qk, normalization="first_entry", raw=Qk)
    S = build_subproduct(K, 2)
    Qd.attach_levels(S)
    return K, np.eye(N, dtype=complex) / N, Qd, S, 2


CASES = {
    **{f"random-d{d}-n{n}-{seed}": (lambda d=d, n=n, seed=seed: _orthogonal_case(
        random_channel(d, n, seed), np.eye(d, dtype=complex) / d, 2))
       for d, n, seed in RANDOM},
    "gad": lambda: _orthogonal_case(gad_kraus(0.75, 0.5),
                                    np.diag([0.75, 0.25]).astype(complex), 2),
    "commuting_db": lambda: _orthogonal_case(commuting_db_kraus(np.pi / 6),
                                             np.eye(2, dtype=complex) / 2, 3),
    "random-unorthogonalized": lambda: _unorthogonalized_case(
        random_channel(2, 3, 7001), np.diag([0.6, 0.4]).astype(complex), 2),
    "suq2": _suq2_case,
}


def outcome(fn, *args):
    try:
        return fn(*args)
    except HypothesisFailure as exc:
        return exc


def assert_matches(new, ref):
    if isinstance(ref, HypothesisFailure):
        assert isinstance(new, HypothesisFailure), f"expected {ref!r}, got {new!r}"
        assert str(new) == str(ref)
    else:
        assert not isinstance(new, HypothesisFailure), f"unexpected {new!r}"
        assert abs(new - ref) <= RTOL * max(1.0, abs(ref)), (new, ref)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_word_stack_follows_index_words(m):
    K = random_channel(2, 3, 11)
    stack = word_stack(K.ops, m)
    words = index_words(K.n, m)
    assert stack.shape == (len(words), 2, 2)
    for a, w in enumerate(words):
        np.testing.assert_allclose(stack[a], word_operator(K.ops, w), rtol=0, atol=1e-15)
    if m == 0:
        assert np.array_equal(stack[0], np.eye(2))


@pytest.mark.parametrize("case", sorted(CASES))
def test_checks_match_loop_oracle(case):
    K, rho0, Qd, S, M = CASES[case]()
    for m in range(1, M + 1):
        for ordering in ("normal", "antinormal"):
            assert_matches(outcome(check_phi_symmetric, K, rho0, Qd, S, m, ordering),
                           outcome(oracle.check_phi_symmetric, K, rho0, Qd, S, m, ordering))
        new = outcome(q_sphere_residual, K, Qd, S, m)
        ref = outcome(oracle.q_sphere_residual, K, Qd, S, m)
        if isinstance(ref, HypothesisFailure):
            assert_matches(new, ref)
        else:
            assert_matches(new[0], ref[0])
            np.testing.assert_allclose(new[1], ref[1], rtol=0, atol=1e-10)
        # level 1 passes the normal-ordered precheck on every case but suq2,
        # so the exchange residual itself is compared there
        assert_matches(outcome(kms_condition_residual, K, rho0, Qd, S, m),
                       outcome(oracle.kms_condition_residual, K, rho0, Qd, S, m))


@pytest.mark.parametrize("case", sorted(CASES))
def test_levels_and_dilations_match_loop_oracle(case):
    K, _, _, S, M = CASES[case]()
    A = random_hermitian(K.d, 5)
    for m in range(1, M + 1):
        V = _level_isometry(K, m, 1e-9)
        p_ref, r_ref, ws_ref = oracle._level_projector(K, m, 1e-9)
        assert V.shape == (len(ws_ref), r_ref)
        np.testing.assert_allclose(V @ dag(V), p_ref, rtol=0, atol=RTOL)
        assert [w.letters for w in S.level(m).words] == \
            [tuple(k + 1 for k in w) for w in ws_ref]
        assert_matches(outcome(verify_power_dilation, K, S, m, A),
                       outcome(oracle.verify_power_dilation, K, S, m, A))


def test_power_dilation_on_a_complex_deficient_level():
    # Weyl clock and shift obey XZ = w ZX, a complex word relation that
    # leaves e_1^(x)2 in a rank-8 level 2, so the dilation identity is
    # evaluated on a level whose projector is neither real nor the identity
    w = np.exp(2j * np.pi / 3)
    X = np.roll(np.eye(3), 1, axis=0).astype(complex)
    Z = np.diag([1, w, w * w])
    K = KrausSet([U / np.sqrt(3) for U in (random_unitary(3, 1), X, Z)])
    S = build_subproduct(K, 2)
    assert S.level(2).rank == 8
    A = random_hermitian(3, 5)
    for m in (1, 2):
        assert_matches(verify_power_dilation(K, S, m, A),
                       oracle.verify_power_dilation(K, S, m, A))


def assert_matrix_matches(new, ref):
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert float(np.max(np.abs(new - ref))) <= RTOL * scale


@pytest.mark.parametrize("case", sorted(CASES))
def test_level_functions_match_dense_oracle(case):
    K, _, Qd, S, M = CASES[case]()
    rng = np.random.default_rng(3)
    # a non-Hermitian Q makes the two commutator terms differ
    Qc = rng.normal(size=(S.n, S.n)) + 1j * rng.normal(size=(S.n, S.n))
    for m in range(M + 1):
        for Q in (Qd.Q, Qc):
            assert_matches(check_Q_compatibility(S, Q, m),
                           oracle.check_Q_compatibility(S, Q, m))
        for l in range(1, M - m + 1):
            assert_matches(check_subproduct_inclusion(S, m, l),
                           oracle.check_subproduct_inclusion(S, m, l))
    for m in range(1, M + 1):
        assert_matches(trace_qm(Qd, S, m), oracle.trace_qm(Qd, S, m))
        VU, w = S.weighted(Qd.Q, m)[3:5]
        for fn in (lambda w: 1.0 / w, lambda w: np.power(w, -0.7j)):
            assert_matrix_matches((VU * fn(w.astype(complex))) @ dag(VU),
                                  oracle._qm_function(Qd.Q, S, m, fn))
        # one flowed row per word; levels where Q^(x)m fails to preserve the
        # subspace must refuse the flow instead
        compat = Qd.compat_residuals[m] <= 1e-8
        for t in (0.3, -1j, 0.4 - 0.2j):
            Qit = oracle._qm_function(Qd.Q, S, m, lambda w: np.power(w, -1j * t))
            for a, word in enumerate(S.level(m).words):
                row = outcome(modular_flow, Qd, S, word, t)
                if compat:
                    assert_matrix_matches(row, Qit[a])
                else:
                    assert isinstance(row, HypothesisFailure)
        words = [w.letters for w in S.level(m).words]
        for j in words:
            for k in words:
                for ordering in ("normal", "antinormal"):
                    new = kms_state_eval(Qd, S, j, k, ordering)
                    ref = oracle.kms_state_eval(Qd, S, j, k, ordering)
                    assert abs(new - ref) <= RTOL * max(1.0, abs(ref)), (j, k, new, ref)


@pytest.mark.parametrize("case", sorted(CASES))
def test_crooks_matches_loop_oracle(case):
    K, rho0, _, _, M = CASES[case]()
    # an unrelated set of the same shape makes every word pair differ, so a
    # wrong reversal permutation shows; the Crooks dual itself should give 0
    other = random_channel(K.d, K.n, 99)
    for Kbar in (other, crooks_dual(K, rho0)):
        assert_matches(crooks_check(K, Kbar, rho0, M + 1),
                       oracle.crooks_check(K, Kbar, rho0, M + 1))


def _first_row_cases():
    for q, N, M in [(0.5, 6, 2), (0.3, 4, 3), (0.55, 7, 3), (0.8, 9, 3)]:
        a, c, K, F = suq2_generators(q, N)
        yield suq2_dilation(a, c, q), F, build_subproduct(K, M)
    Kc = commuting_db_kraus(0.4)
    _, W = dilation_from_kraus(Kc)
    Sc = build_subproduct(Kc, 3)
    yield W, np.eye(2, dtype=complex), Sc
    yield W, np.diag([1.0, 0.7]).astype(complex), Sc
    # non-commuting blocks and a complex, non-diagonal Q = F*F
    Kr = random_channel(2, 2, 7000)
    yield dilation_from_kraus(Kr)[1], np.array([[1.0, 0.3j], [0.2, 0.8]]), build_subproduct(Kr, 2)


@pytest.mark.parametrize("index", range(7))
def test_first_row_q_sphere_matches_loop_oracle(index):
    W, F, S = list(_first_row_cases())[index]
    for m in range(1, S.M + 1):
        new = first_row_q_sphere(W, F, S, m)
        ref = oracle.first_row_q_sphere(W, F, S, m)
        assert new.verdict == ref.verdict
        assert new.info == ref.info
        for c, c_ref in zip(new.checks, ref.checks, strict=True):
            assert (c.name, c.passed, c.level, c.defect_rank) == \
                (c_ref.name, c_ref.passed, c_ref.level, c_ref.defect_rank)
            for field in ("residual", "frobenius", "off_defect_residual"):
                if getattr(c_ref, field) is not None:
                    assert_matches(getattr(c, field), getattr(c_ref, field))


def test_level_zero_is_the_empty_word():
    # Q^(x)0 is the 1 x 1 identity, so the empty word flows to itself
    K, rho0, Qd, S, _ = CASES["commuting_db"]()
    assert check_phi_symmetric(K, rho0, Qd, S, 0) < 1e-15
    assert np.allclose(modular_flow(Qd, S, (), 0.3), [1.0])


def test_word_lookup_rejects_letters_outside_the_alphabet():
    _, _, Qd, S, _ = CASES["commuting_db"]()
    with pytest.raises(ValueError):
        kms_state_eval(Qd, S, (3,), (1,))
    with pytest.raises(ValueError):
        kms_state_eval(Qd, S, (0, 1), (1, 1))


def test_minimal_kraus_keeps_a_complex_channel():
    # the m=1 Gram: a complex dependent operator must fold back into the others
    A, B, C = random_channel(2, 3, 7001).ops
    K = KrausSet([A, B, C, 1j * A + (0.5 - 0.2j) * B])
    Km = minimal_kraus(K)
    assert Km.n == 3
    assert channel_distance(K, Km) < 1e-12
