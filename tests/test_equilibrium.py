import numpy as np
import pytest

from detbal.channel import KrausSet, Word, index_words
from detbal.equilibrium import (
    CorrelationData,
    balance_scalar,
    check_phi_symmetric,
    check_state,
    correlation_matrix,
    kms_condition_residual,
    kms_state_eval,
    modular_flow,
    orthogonalize_kraus,
    zero_mean_check,
)
from detbal.errors import HypothesisFailure
from detbal.factories import commuting_db_kraus, gad_kraus
from detbal.matcore import dag, spectral_norm
from detbal.reversal import detailed_balance_verdict, q_sphere_residual
from detbal.stinespring import (build_subproduct, check_Q_compatibility,
                                check_subproduct_inclusion, verify_power_dilation)
from detbal.channel import channel_distance
import loop_oracle as oracle
from conftest import random_channel

GAD_RHO = np.diag([0.75, 0.25]).astype(complex)
MIXED2 = np.eye(2, dtype=complex) / 2

# eigenvalues of the raw GAD correlation matrix (p=0.75, gamma=0.5)
GAD_LAMBDAS = (0.801534707521, 0.09375, 0.09375, 0.010965292479)


def test_check_state_accepts_pure_state():
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    check_state(rho)


def test_check_state_rejections():
    with pytest.raises(ValueError):
        check_state(np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        check_state(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        check_state(np.diag([0.7, 0.7]))


def test_check_state_decides_near_hermitian_states_by_tolerance():
    # only a state equal to its adjoint skips the tolerance test
    rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
    for eps, ok in ((1e-13, True), (1e-6, False)):
        near = rho + np.array([[0.0, eps], [0.0, 0.0]])
        if ok:
            check_state(near)
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                check_state(near)


def test_gad_raw_correlation_matrix():
    cd = correlation_matrix(gad_kraus(0.75, 0.5), GAD_RHO, "raw")
    q = cd.raw
    assert abs(np.trace(q).real - 1.0) < 1e-14
    assert np.allclose(np.diag(q).real, [0.65625, 0.09375, 0.15625, 0.09375])
    # the damping operators are coupled through the state
    assert abs(q[0, 2] - np.sqrt(6) / 8) < 1e-14
    assert abs(q[0, 1]) < 1e-14


def test_correlation_matrix_normalizations():
    K = gad_kraus(0.75, 0.5)
    raw = correlation_matrix(K, GAD_RHO, "raw")
    assert abs(np.trace(raw.Q).real - 1.0) < 1e-12
    tb = correlation_matrix(K, GAD_RHO, "trace_balanced")
    assert abs(np.trace(tb.Q).real - np.trace(np.linalg.inv(tb.Q)).real) < 1e-9
    fe = correlation_matrix(K, GAD_RHO, "first_entry")
    assert abs(fe.Q[0, 0] - 1.0) < 1e-14
    with pytest.raises(ValueError):
        correlation_matrix(K, GAD_RHO, "unit")


def test_correlation_matrix_rejects_annihilating_operator():
    K = KrausSet([np.diag([1.0, 0j]), np.diag([0j, 1.0])])
    with pytest.raises(ValueError):
        correlation_matrix(K, np.diag([1.0, 0.0]).astype(complex), "raw")


def test_correlation_matrix_rejects_singular():
    I2 = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        correlation_matrix(KrausSet([I2 / np.sqrt(2), I2 / np.sqrt(2)]), MIXED2, "raw")


def test_the_singular_correlation_message_names_rank_tol_and_the_count():
    # rank_tol 0.5 keeps only the largest of gad's four raw eigenvalues (0.80, 0.094, 0.094, 0.011)
    with pytest.raises(ValueError) as exc:
        correlation_matrix(gad_kraus(0.75, 0.5), GAD_RHO, rank_tol=0.5)
    assert str(exc.value) == \
        "correlation matrix is singular at rank_tol=0.5: it keeps 1 of its 4 eigenvalues"


def test_orthogonalize_tests_singularity_at_the_given_rank_tol():
    # the raw correlation matrix's eigenvalue ratio is 6.1e-12: singular at
    # the default rank_tol 1e-9 but not at 1e-13, which the verdict passes on
    K, rho0 = gad_kraus(0.75, 0.5), np.diag([1 - 1e-10, 1e-10])
    with pytest.raises(ValueError, match="correlation matrix is singular"):
        orthogonalize_kraus(K, rho0)
    _, Qd, _ = orthogonalize_kraus(K, rho0, rank_tol=1e-13)
    assert Qd.is_diagonal()
    assert detailed_balance_verdict(K, rho0, 2, rank_tol=1e-13).rank_tol == 1e-13


def test_check_state_revalidates_a_state_written_in_place():
    rho = GAD_RHO.copy()
    assert check_state(rho) is rho
    rho[0, 1] = 0.1  # no longer Hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        check_state(rho)
    rho[0, 1] = 0.0
    assert check_state(rho) is rho
    rho[:] = np.diag([1.0 + 1e-11, -1e-11])  # unit trace, one negative eigenvalue
    with pytest.raises(ValueError, match="negative eigenvalue"):
        check_state(rho)
    # a pass under a looser atol is not a pass under the default one
    assert check_state(rho, atol=1e-10) is rho
    with pytest.raises(ValueError, match="negative eigenvalue"):
        check_state(rho)
    with pytest.raises(ValueError, match="finite"):
        check_state(np.diag([np.nan, 1.0]))


def test_balance_scalar_closed_form():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q = X @ dag(X) + 0.1 * np.eye(4)
    s = balance_scalar(q)
    assert abs(s - 0.510269239429) < 1e-9
    assert abs(np.trace(s * q).real - np.trace(np.linalg.inv(s * q)).real) < 1e-9


def test_orthogonalize_gad():
    K = gad_kraus(0.75, 0.5)
    Kp, Qd, lam = orthogonalize_kraus(K, GAD_RHO)
    assert np.allclose(lam, GAD_LAMBDAS, atol=1e-9)
    assert Qd.is_diagonal()
    assert Qd.normalization == "raw"
    assert channel_distance(K, Kp) < 1e-12
    means = zero_mean_check(Kp, GAD_RHO)
    assert abs(means[0] - 0.892381102772) < 1e-9
    assert means[1] < 1e-10 and means[2] < 1e-10
    assert abs(means[3] - 0.008426764556) < 1e-9


def test_orthogonalize_commuting_db():
    # the degenerate pair resolves into {1/sqrt2, diag(1,-1)/sqrt2}
    Kp, Qd, lam = orthogonalize_kraus(commuting_db_kraus(np.pi / 6), MIXED2)
    assert np.allclose(lam, [0.5, 0.5])
    assert spectral_norm(Kp[0] - np.eye(2) / np.sqrt(2)) < 1e-12
    assert spectral_norm(Kp[1] - np.diag([1.0, -1.0]) / np.sqrt(2)) < 1e-12
    means = zero_mean_check(Kp, MIXED2)
    assert abs(means[0] - 1 / np.sqrt(2)) < 1e-12
    assert means[1] < 1e-12


def test_orthogonalize_splits_eigenvalues_a_hair_apart():
    # q has eigenvalues (1 +- cos phi)/2, 2e-9 apart: a tie rule coarser than tol mixes them,
    # and the rotation leaves an off-diagonal entry above tol
    phi = np.pi / 2 - 2e-9
    K = KrausSet([np.eye(2) / np.sqrt(2), (np.cos(phi) * np.eye(2) + 1j * np.sin(phi)
                                           * np.diag([1.0, -1.0])) / np.sqrt(2)])
    Kp, Qd, _ = orthogonalize_kraus(K, MIXED2)
    assert channel_distance(Kp, K) <= 1e-12
    assert Qd.is_diagonal()
    assert detailed_balance_verdict(K, MIXED2).checks


def test_orthogonalize_random_channel_properties():
    for seed in (45, 46):
        K = random_channel(3, 3, seed)
        rho = np.eye(3) / 3
        Kp, Qd, lam = orthogonalize_kraus(K, rho)
        assert Qd.is_diagonal()
        assert channel_distance(K, Kp) < 1e-10
        assert np.all(np.diff(lam) <= 1e-12)  # descending


def test_trace_qm():
    Kp, Qraw, _ = orthogonalize_kraus(commuting_db_kraus(np.pi / 6), MIXED2)
    Qtb = Qraw.with_normalization("trace_balanced")
    S = build_subproduct(Kp, 2)
    assert spectral_norm(Qtb.Q - np.eye(2)) < 1e-12
    assert abs(np.trace(S.weighted(Qtb.Q, 1).H).real - 2.0) < 1e-12
    assert abs(np.trace(S.weighted(Qtb.Q, 2).H).real - 2.0) < 1e-12  # rank of p2


def test_phi_symmetric_normal_level_one_is_generic():
    # with raw normalization the level-1 normal condition is definitional
    K = random_channel(2, 3, 47)
    rho = np.eye(2) / 2
    Kp, Qraw, _ = orthogonalize_kraus(K, rho)
    S = build_subproduct(Kp, 1)
    Qraw.attach_levels(S)
    assert check_phi_symmetric(Kp, rho, Qraw, S, 1, "normal") < 1e-12


def test_phi_symmetric_commuting_db_both_orderings():
    Kp, Qraw, _ = orthogonalize_kraus(commuting_db_kraus(np.pi / 6), MIXED2)
    Qtb = Qraw.with_normalization("trace_balanced")
    S = build_subproduct(Kp, 2)
    Qtb.attach_levels(S)
    for m in (1, 2):
        assert check_phi_symmetric(Kp, MIXED2, Qtb, S, m, "normal") < 1e-12
        assert check_phi_symmetric(Kp, MIXED2, Qtb, S, m, "antinormal") < 1e-12


def test_phi_symmetric_gad_antinormal_value():
    Kp, Qraw, _ = orthogonalize_kraus(gad_kraus(0.75, 0.5), GAD_RHO)
    Qtb = Qraw.with_normalization("trace_balanced")
    S = build_subproduct(Kp, 2)
    Qtb.attach_levels(S)
    res = check_phi_symmetric(Kp, GAD_RHO, Qtb, S, 1, "antinormal")
    assert abs(res - 0.707784707521) < 1e-9


def test_phi_symmetric_hypothesis_failure_at_level_two():
    Kp, Qraw, _ = orthogonalize_kraus(gad_kraus(0.75, 0.5), GAD_RHO)
    Qtb = Qraw.with_normalization("trace_balanced")
    S = build_subproduct(Kp, 2)
    Qtb.attach_levels(S)
    assert Qtb.compat_residuals[2] > 1.0
    with pytest.raises(HypothesisFailure):
        check_phi_symmetric(Kp, GAD_RHO, Qtb, S, 2, "normal")


def test_compat_record_of_another_system_is_not_read():
    # attach_levels records level 2 of a system where diag(1.5, 1, 0.6)^(x)2
    # preserves the level; a check on another system must use that system's own
    Q = np.diag([1.5, 1.0, 0.6]).astype(complex)
    Qd = CorrelationData(Q=Q, normalization="raw", raw=Q)
    Qd.attach_levels(build_subproduct(random_channel(3, 3, 2), 2))
    assert Qd.compat_residuals[2] < 1e-13
    K = random_channel(2, 3, 2)
    with pytest.raises(HypothesisFailure, match="level-2"):
        check_phi_symmetric(K, MIXED2, Qd, build_subproduct(K, 2), 2)


def test_attach_levels_keeps_no_level_of_an_earlier_system():
    # an M = 4 system and then an M = 2 one: levels 3 and 4 of the first do not stay behind
    Kp, Qraw, _ = orthogonalize_kraus(gad_kraus(0.7, 0.4), np.diag([0.7, 0.3]))
    Qtb = Qraw.with_normalization("trace_balanced")
    Qtb.attach_levels(build_subproduct(Kp, 4))
    assert sorted(Qtb.compat_residuals) == [1, 2, 3, 4]
    S = build_subproduct(Kp, 2)
    Qtb.attach_levels(S)
    assert Qtb.compat_residuals == {m: S.weighted(Qtb.Q, m).compat for m in (1, 2)}


def test_modular_flow_inverts_all_of_Q_2_at_any_rank_tol():
    # Q_2 = diag(1, 1e-4)^(x)2 has eigenvalue 1e-8 on the word (2, 2); rank_tol decides the
    # ranks of the levels alone, so a coarse one does not cut it from the inverse
    Q = np.diag([1.0, 1e-4]).astype(complex)
    Qd = CorrelationData(Q=Q, normalization="raw", raw=Q)
    K = random_channel(2, 2, 5)
    fine, coarse = build_subproduct(K, 2), build_subproduct(K, 2, rank_tol=1e-6)
    assert fine.level(2).rank == coarse.level(2).rank == 4
    for S in (fine, coarse):
        assert abs(modular_flow(Qd, S, (2, 2), -1j)[3] / 1e8 - 1) < 1e-6


def test_a_singular_Q_is_refused_not_inverted():
    # diag(1, 0) preserves every level of commuting_db (its level 1 is the whole alphabet), but
    # H_1 is singular: the readers raise, naming the level, where a cut-free inverse reads 1/0
    Q = np.diag([1.0, 0.0]).astype(complex)
    Qd = CorrelationData(Q=Q, normalization="raw", raw=Q)
    K = commuting_db_kraus(np.pi / 6)
    S = build_subproduct(K, 2)
    assert S.weighted(Q, 1).compat == 0.0
    with pytest.raises(ValueError, match="not invertible at round-off on level 1"):
        modular_flow(Qd, S, (1,), -1j)
    with pytest.raises(ValueError, match="not invertible at round-off on level 1"):
        q_sphere_residual(K, Qd, S, 1)


def test_a_verdict_records_a_level_Q_m_is_not_invertible_on():
    # rho0 = diag(0.9999, 0.0001) gives commuting_db(0.7) the trace-balanced Q diag(100, 0.01),
    # positive definite, yet H_4 spreads over 1e16, past 1/(2 eps): the verdict stays a verdict,
    # with level 4 marked by the refusal the public checks raise there, and reads level 3,
    # spread over 1e12, from the inverse of all of Q_3
    K, rho0 = commuting_db_kraus(0.7), np.diag([0.9999, 0.0001])
    rep = detailed_balance_verdict(K, rho0, 4)
    assert not rep.verdict and rep.reason == "q_sphere"
    level4 = {c.name: c.hypothesis_failure for c in rep.checks if c.level == 4}
    refusal = level4["q_sphere"]
    assert "Q_4 is not invertible at round-off on level 4" in refusal
    assert {name for name, f in level4.items() if f == refusal} == {
        "phi_symmetric_normal", "phi_symmetric_antinormal", "q_sphere"}
    Kp, Qraw, _ = orthogonalize_kraus(K, rho0)
    Qtb = Qraw.with_normalization("trace_balanced")
    S = build_subproduct(Kp, 4)
    for check in (lambda: q_sphere_residual(Kp, Qtb, S, 4),
                  lambda: check_phi_symmetric(Kp, rho0, Qtb, S, 4)):
        with pytest.raises(ValueError) as exc:
            check()
        assert str(exc.value) == refusal
    (sphere3,) = [c.residual for c in rep.checks if c.name == "q_sphere" and c.level == 3]
    ref = oracle.q_sphere_residual(Kp, Qtb, S, 3)[0]
    assert abs(sphere3 - ref) <= 1e-12 * ref and round(ref) == 999849


def test_phi_symmetric_rejects_unknown_ordering():
    Kp, Qraw, _ = orthogonalize_kraus(commuting_db_kraus(0.4), MIXED2)
    S = build_subproduct(Kp, 1)
    Qraw.attach_levels(S)
    with pytest.raises(ValueError):
        check_phi_symmetric(Kp, MIXED2, Qraw, S, 1, "wick")


def test_phi_symmetric_rejects_unknown_ordering_before_the_hypothesis():
    # Q^(x)3 does not preserve level 3 here, yet a bad ordering is a ValueError
    Kp, Qraw, _ = orthogonalize_kraus(random_channel(2, 3, 0), MIXED2)
    Qd = Qraw.with_normalization("trace_balanced")
    S = build_subproduct(Kp, 3)
    assert S.weighted(Qd.Q, 3).compat > 1
    with pytest.raises(HypothesisFailure):
        check_phi_symmetric(Kp, MIXED2, Qd, S, 3)
    with pytest.raises(ValueError, match="ordering"):
        check_phi_symmetric(Kp, MIXED2, Qd, S, 3, "wick")


def test_modular_flow_at_zero_is_identity_row():
    K = random_channel(2, 2, 48)
    rho = np.eye(2) / 2
    Kp, Qraw, _ = orthogonalize_kraus(K, rho)
    S = build_subproduct(Kp, 2)
    Qraw.attach_levels(S)
    row = modular_flow(Qraw, S, Word((1, 2)), 0.0)
    expected = np.zeros(4)
    expected[1] = 1.0
    assert np.linalg.norm(row - expected) < 1e-10


def test_modular_flow_imaginary_time_diagonal():
    # t = -i/2 realizes Q^{-1/2}; t = -i realizes Q^{-1}
    Q = np.diag([2.0, 0.5]).astype(complex)
    Qd = CorrelationData(Q=Q, normalization="first_entry", raw=Q)
    K = random_channel(2, 2, 49)  # generic, so p_1 = 1 and p_2 = 1
    S = build_subproduct(K, 2)
    Qd.attach_levels(S)
    row = modular_flow(Qd, S, Word((1,)), -0.5j)
    assert np.allclose(row, [1 / np.sqrt(2), 0.0])
    row2 = modular_flow(Qd, S, Word((1, 2)), -1j)
    expected = np.zeros(4, dtype=complex)
    expected[1] = 1.0  # (Q (x) Q)^{-1} entry for the (1,2) word is 1/(2*0.5)
    assert np.linalg.norm(row2 - expected) < 1e-12


def test_modular_flow_group_law_suq2():
    from detbal.qgroup import suq2_generators
    a, c, K, F = suq2_generators(0.5, 6)
    Qz = dag(F) @ F
    Qd = CorrelationData(Q=Qz, normalization="first_entry", raw=Qz)
    S = build_subproduct(K, 2)
    Qd.attach_levels(S)
    ws = [Word((i + 1, j + 1)) for i, j in index_words(2, 2)]

    def flow_matrix(t):
        return np.vstack([modular_flow(Qd, S, w, t) for w in ws])

    t1, t2 = 0.37, -0.82
    gl = spectral_norm(flow_matrix(t1) @ flow_matrix(t2) - flow_matrix(t1 + t2))
    assert gl < 1e-9
    # the level-2 flow restricts the product of two level-1 flows
    M1 = np.vstack([modular_flow(Qd, S, Word((i,)), t1) for i in (1, 2)])
    p2 = oracle.projector(S.level(2))
    hom = spectral_norm(flow_matrix(t1) @ p2 - p2 @ np.kron(M1, M1) @ p2)
    assert hom < 1e-9


def test_kms_state_eval_values():
    Q = np.diag([2.0, 0.5]).astype(complex)
    Qd = CorrelationData(Q=Q, normalization="trace_balanced", raw=Q)
    K = random_channel(2, 2, 50)
    S = build_subproduct(K, 2)
    assert abs(kms_state_eval(Qd, S, Word((1,)), Word((1,)), "normal") - 0.8) < 1e-12
    assert kms_state_eval(Qd, S, Word((1,)), Word((1, 2))) == 0.0
    assert kms_state_eval(Qd, S, Word(()), Word(())) == 1.0
    assert abs(kms_state_eval(Qd, S, Word((1,)), Word((2,)), "antinormal")) < 1e-12
    with pytest.raises(ValueError):
        kms_state_eval(Qd, S, Word((1,)), Word((1,)), "timeordered")


def test_kms_state_eval_rejects_unknown_ordering_whatever_the_lengths():
    Q = np.diag([2.0, 0.5]).astype(complex)
    Qd = CorrelationData(Q=Q, normalization="trace_balanced", raw=Q)
    S = build_subproduct(random_channel(2, 2, 50), 2)
    for j, k in ((Word((1,)), Word((1, 2))), (Word((1,)), Word((2,)))):
        with pytest.raises(ValueError, match="ordering"):
            kms_state_eval(Qd, S, j, k, "bogus")


def test_kms_condition_commuting_db():
    Kp, Qraw, _ = orthogonalize_kraus(commuting_db_kraus(np.pi / 6), MIXED2)
    Qtb = Qraw.with_normalization("trace_balanced")
    S = build_subproduct(Kp, 2)
    Qtb.attach_levels(S)
    assert kms_condition_residual(Kp, MIXED2, Qtb, S, 2) < 1e-10


def test_kms_condition_gad_level_one():
    Kp, Qraw, _ = orthogonalize_kraus(gad_kraus(0.75, 0.5), GAD_RHO)
    Qtb = Qraw.with_normalization("trace_balanced")
    S = build_subproduct(Kp, 2)
    Qtb.attach_levels(S)
    res = kms_condition_residual(Kp, GAD_RHO, Qtb, S, 1)
    assert abs(res - 0.707784707521) < 1e-9
    with pytest.raises(HypothesisFailure):
        kms_condition_residual(Kp, GAD_RHO, Qtb, S, 2)


def _commuting_db_levels():
    Kp, Qraw, _ = orthogonalize_kraus(commuting_db_kraus(np.pi / 6), MIXED2)
    return Kp, Qraw.with_normalization("trace_balanced"), build_subproduct(Kp, 2)


@pytest.mark.parametrize("m", [True, 2.0, "1"])
def test_level_checks_refuse_a_non_integer_m(m):
    Kp, Qtb, S = _commuting_db_levels()
    checks = (lambda: check_phi_symmetric(Kp, MIXED2, Qtb, S, m),
              lambda: q_sphere_residual(Kp, Qtb, S, m),
              lambda: kms_condition_residual(Kp, MIXED2, Qtb, S, m),
              lambda: verify_power_dilation(Kp, S, m, np.eye(2)))
    for check in checks:
        with pytest.raises(ValueError, match="m must be an integer"):
            check()


def test_level_readers_refuse_a_bool_or_float_level():
    # the levels and their records live in dicts, where True == 1 and 2.0 == 2
    Kp, Qtb, S = _commuting_db_levels()
    Qtb.attach_levels(S)  # the records of levels 1 and 2 are in the memo
    reads = (lambda: check_Q_compatibility(S, Qtb.Q, True),
             lambda: check_Q_compatibility(S, Qtb.Q, 2.0),
             lambda: S.weighted(Qtb.Q, True),
             lambda: check_subproduct_inclusion(S, True, 2.0))
    for read in reads:
        with pytest.raises(ValueError, match="m must be an integer"):
            read()


@pytest.mark.parametrize("m", [0, -1])
def test_kms_refuses_a_level_below_one(m):
    Kp, Qtb, S = _commuting_db_levels()
    with pytest.raises(ValueError, match="at least 1"):
        kms_condition_residual(Kp, MIXED2, Qtb, S, m)
    # level 0, the empty word, stays valid for phi and the sphere condition
    assert check_phi_symmetric(Kp, MIXED2, Qtb, S, 0) < 1e-12
    assert q_sphere_residual(Kp, Qtb, S, 0)[0] < 1e-12


def test_with_normalization_round_trip():
    cd = correlation_matrix(gad_kraus(0.75, 0.5), GAD_RHO, "raw")
    tb = cd.with_normalization("trace_balanced")
    fe = cd.with_normalization("first_entry")
    assert tb.normalization == "trace_balanced"
    # all normalizations are positive multiples of the same matrix
    assert spectral_norm(tb.Q / tb.Q[0, 0].real - fe.Q) < 1e-12
