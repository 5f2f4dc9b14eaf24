import numpy as np
import pytest

from detbal.channel import KrausSet, classify, dilation_from_kraus, kraus_from_dilation
from detbal.equilibrium import (
    CorrelationData,
    check_phi_symmetric,
    correlation_matrix,
    kms_condition_residual,
    orthogonalize_kraus,
    zero_mean_check,
)
from detbal.factories import commuting_db_kraus, gad_kraus
from detbal.matcore import dag, spectral_norm
from detbal.qgroup import suq2_generators
from detbal.reversal import (
    ClassicalChain,
    classical_reverse,
    crooks_check,
    crooks_dual,
    detailed_balance_verdict,
    q_sphere_residual,
    reversed_kraus,
    reversed_unitary,
    time_reversal_invariance,
)
from detbal.stinespring import build_subproduct
from conftest import random_unitary

GAD_RHO = np.diag([0.75, 0.25]).astype(complex)
MIXED2 = np.eye(2, dtype=complex) / 2


def orthogonal_data(K, rho, M=2, norm="trace_balanced"):
    Kp, Qraw, _ = orthogonalize_kraus(K, rho)
    Qd = Qraw.with_normalization(norm)
    S = build_subproduct(Kp, M)
    Qd.attach_levels(S)
    return Kp, Qd, S


def test_sphere_commuting_db():
    Kp, Qd, S = orthogonal_data(commuting_db_kraus(np.pi / 6), MIXED2)
    for m in (1, 2):
        res, P = q_sphere_residual(Kp, Qd, S, m)
        assert res < 1e-10
        assert np.trace(P).real < 0.5  # empty defect


def test_sphere_gad():
    Kp, Qd, S = orthogonal_data(gad_kraus(0.75, 0.5), GAD_RHO)
    res, P = q_sphere_residual(Kp, Qd, S, 1)
    assert abs(res - 0.5) < 1e-9
    assert int(round(np.trace(P).real)) == 2


def test_sphere_suq2_truncation_boundary():
    # the ladder truncation concentrates the whole defect on the top rung
    q, N = 0.5, 6
    a, c, K, F = suq2_generators(q, N)
    Qk = np.diag([1.0, q ** -2]).astype(complex)
    Qd = CorrelationData(Q=Qk, normalization="first_entry", raw=Qk)
    S = build_subproduct(K, 2)
    Qd.attach_levels(S)
    res1, P1 = q_sphere_residual(K, Qd, S, 1)
    assert abs(res1 - (1 - q ** (2 * N))) < 1e-12
    assert int(round(np.trace(P1).real)) == 1
    assert abs(P1[N - 1, N - 1].real - 1.0) < 1e-9  # defect sits on the last vector
    res2, _ = q_sphere_residual(K, Qd, S, 2)
    assert abs(res2 - (1 - q ** (4 * N))) < 1e-12


def test_reversed_unitary_commuting_db():
    K = commuting_db_kraus(np.pi / 6)
    _, W = dilation_from_kraus(K)
    Wbar, res = reversed_unitary(W, np.eye(2), 2, 2)
    assert res < 1e-9


def test_reversed_unitary_generic_blocks_fail():
    W = random_unitary(4, 42)
    Wbar, res = reversed_unitary(W, np.eye(2), 2, 2)
    assert abs(res - 1.005755298756) < 1e-9


def test_reversed_unitary_input_validation():
    with pytest.raises(ValueError):
        reversed_unitary(np.ones((4, 4)), np.eye(2), 2, 2)
    with pytest.raises(ValueError):
        reversed_unitary(random_unitary(4, 1), np.zeros((2, 2)), 2, 2)
    with pytest.raises(ValueError):
        reversed_unitary(random_unitary(4, 1), np.eye(3), 2, 2)


@pytest.mark.parametrize("shape, F, message", [
    ((6, 6), np.eye(3), "shape mismatch"),  # a valid pair with d = 2, n = 3, not (2, 2)
    ((4, 4), np.ones((2, 3)), "F must be square"),
    ((4, 4), np.zeros((2, 2)), "F must be invertible"),
    ((4, 6), np.eye(2), "W must be square with n x n block structure"),
    ((4,), np.eye(2), "W must be square with n x n block structure"),
    ((4, 4), np.array(2.0), "F must be square"),
    ((4, 4), np.zeros((0, 0)), "F must be square"),
])
def test_reversed_unitary_names_what_is_wrong_with_the_pair(shape, F, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        reversed_unitary(np.ones(shape), F, 2, 2)


def test_reversed_kraus_commuting_db():
    Kp, Qraw, _ = orthogonalize_kraus(commuting_db_kraus(np.pi / 6), MIXED2)
    Qfe = Qraw.with_normalization("first_entry")
    assert spectral_norm(Qfe.Q - np.eye(2)) < 1e-12
    Kbar = reversed_kraus(Kp, Qfe)
    # the orthogonal operators are self-adjoint with unit weights
    for a, b in zip(Kbar.ops, Kp.ops):
        assert spectral_norm(a - b) < 1e-12
    Kbb = reversed_kraus(Kbar, Qfe)
    for a, b in zip(Kbb.ops, Kp.ops):
        assert spectral_norm(a - b) < 1e-12


def test_reversed_kraus_gad_is_not_a_channel():
    Kp, Qraw, _ = orthogonalize_kraus(gad_kraus(0.75, 0.5), GAD_RHO)
    Kbar = reversed_kraus(Kp, Qraw.with_normalization("first_entry"))
    assert abs(Kbar.unital_residual - 3.274851773446) < 1e-9
    assert classify(Kbar).classification == "operation"


def test_reversed_kraus_requires_first_entry_diagonal():
    Kp, Qraw, _ = orthogonalize_kraus(gad_kraus(0.75, 0.5), GAD_RHO)
    with pytest.raises(ValueError):
        reversed_kraus(Kp, Qraw)  # raw normalization
    K = gad_kraus(0.75, 0.5)
    Qfe = orthogonalize_kraus(K, GAD_RHO)[1].with_normalization("first_entry")
    off = Qfe.Q.copy()
    off[0, 1] = off[1, 0] = 0.3
    with pytest.raises(ValueError):
        reversed_kraus(Kp, CorrelationData(Q=off, normalization="first_entry", raw=off))


def test_crooks_dual_maximally_mixed_state_gives_adjoints():
    K = gad_kraus(0.75, 0.5)
    Kbar = crooks_dual(K, MIXED2)
    for a, b in zip(Kbar.ops, K.ops):
        assert spectral_norm(a - dag(b)) < 1e-12


def test_crooks_dual_gad():
    K = gad_kraus(0.75, 0.5)
    Kbar = crooks_dual(K, GAD_RHO)
    assert Kbar.unital_residual < 1e-12  # fixed point makes the dual a channel
    assert crooks_check(K, Kbar, GAD_RHO, 2) < 1e-10


def test_crooks_dual_requires_invertible_state():
    pure = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        crooks_dual(gad_kraus(0.75, 0.5), pure)


def test_crooks_check_detects_wrong_reversal():
    K = gad_kraus(0.75, 0.5)
    rho = np.diag([0.6, 0.4]).astype(complex)
    res = crooks_check(K, K, rho, 2)
    assert abs(res - 0.05625) < 1e-12


def test_crooks_check_shape_mismatch():
    with pytest.raises(ValueError):
        crooks_check(gad_kraus(0.75, 0.5), commuting_db_kraus(0.3), GAD_RHO, 1)


@pytest.mark.parametrize("m", [0, -3])
def test_crooks_check_rejects_word_length_below_one(m):
    K = gad_kraus(0.75, 0.5)
    with pytest.raises(ValueError, match=f"m={m}"):
        crooks_check(K, K, GAD_RHO, m)


def test_crooks_check_refuses_levels_over_the_word_budget():
    # 4**7 = 16384 words at the deepest level, over MAX_DIM = 4096
    K = gad_kraus(0.75, 0.5)
    with pytest.raises(ValueError, match=r"4\*\*7 = 16384 words exceeds the budget of 4096"):
        crooks_check(K, K, GAD_RHO, 7)


def test_time_reversal_invariance_commuting_db():
    tri = time_reversal_invariance(commuting_db_kraus(np.pi / 6), np.eye(2))
    assert tri.invariant
    assert tri.distance < 1e-10
    assert tri.unitarity_residual < 1e-9


def test_time_reversal_invariance_identity():
    tri = time_reversal_invariance(KrausSet([np.eye(2)]), np.eye(1))
    assert tri.invariant and tri.distance < 1e-12


def test_time_reversal_generic_unitary_reverses_to_inverse():
    # a single unitary reverses to its adjoint, a genuinely different map
    tri = time_reversal_invariance(KrausSet([random_unitary(2, 7)]), np.eye(1))
    assert not tri.invariant
    assert tri.unitarity_residual < 1e-10
    assert abs(tri.distance - 2.544343466819) < 1e-9


def test_time_reversal_reads_the_conjugate_at_the_callers_tol():
    # F = diag(1, 1 + 1e-7) makes the conjugate unitary within 1e-6 but not within
    # RESIDUAL_TOL; the reversed set is read at the tol the caller passed
    tri = time_reversal_invariance(commuting_db_kraus(np.pi / 6), np.diag([1.0, 1.0 + 1e-7]),
                                   tol=1e-6)
    assert 1e-8 < tri.unitarity_residual < 1e-6
    assert tri.invariant and 1e-8 < tri.distance < 1e-6


def test_time_reversal_drops_a_zero_block_of_the_conjugate():
    # every channel on C is the identity, so its reversal is too; F, the rotation by
    # arctan(1/3), makes the conjugate of K's dilation [[~1e-16, 1], [1, ~1e-16]], whose
    # first block-column holds a zero block: the reversed set drops it, as an operator
    # carrying no dynamics, instead of refusing it
    t = np.arctan(1 / 3)
    F = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    tri = time_reversal_invariance(KrausSet([[[0.6]], [[0.8]]]), F)
    assert tri.invariant and tri.distance == 0.0
    assert tri.unitarity_residual < 1e-15
    # with no zero block, the bath in e_1 reads the first block-column's bits
    K = commuting_db_kraus(np.pi / 6)
    Wbar, _ = reversed_unitary(dilation_from_kraus(K)[1], np.eye(2), K.d, K.n)
    assert kraus_from_dilation(Wbar, K.d, K.n, "general_state", sigma=np.eye(1, 2)[0]) \
        .ops.tobytes() == kraus_from_dilation(Wbar, K.d, K.n, "first_column").ops.tobytes()


def test_time_reversal_nonunitary_conjugate():
    tri = time_reversal_invariance(gad_kraus(0.75, 0.5), np.eye(4))
    assert not tri.invariant
    assert np.isnan(tri.distance)
    assert abs(tri.unitarity_residual - 1.291148764960) < 1e-9


def test_verdict_commuting_db():
    rep = detailed_balance_verdict(commuting_db_kraus(np.pi / 6), MIXED2, M=2)
    assert rep.verdict
    assert rep.reason is None
    assert all(c.passed for c in rep.checks)
    names = [c.name for c in rep.checks]
    assert names.count("q_sphere") == 2
    assert "kms_condition" in names
    assert rep.info["level_ranks"] == {1: 2, 2: 2}


def test_verdict_gad():
    rep = detailed_balance_verdict(gad_kraus(0.75, 0.5), GAD_RHO, M=2)
    assert not rep.verdict
    assert rep.reason == "q_sphere"
    sphere1 = next(c for c in rep.checks if c.name == "q_sphere" and c.level == 1)
    assert abs(sphere1.residual - 0.5) < 1e-9
    assert sphere1.defect_rank == 2
    info = rep.info
    assert np.allclose(info["lambdas"],
                       [0.801534707521, 0.09375, 0.09375, 0.010965292479], atol=1e-9)
    assert np.allclose(info["Q_trace_balanced_diag"],
                       [8.549703546891, 1.0, 1.0, 0.116963119775], atol=1e-9)
    assert np.allclose(info["Q_first_entry_diag"],
                       [1.0, 0.116963119775, 0.116963119775, 0.013680371388], atol=1e-9)
    assert info["hypothesis_failures"]  # level 2 collapses for the balanced weight
    kms = next(c for c in rep.checks if c.name == "kms_condition")
    assert not kms.passed and kms.hypothesis_failure is not None


def test_verdict_requires_channel():
    with pytest.raises(ValueError):
        detailed_balance_verdict(KrausSet([0.5 * np.eye(2)]), MIXED2)


def test_verdict_rejects_non_positive_tol():
    # a negative tol used to be reported as "requires a channel"
    with pytest.raises(ValueError, match=r"^tol must be positive"):
        detailed_balance_verdict(commuting_db_kraus(np.pi / 6), MIXED2, tol=-1.0)


def test_verdict_rejects_non_positive_rank_tol():
    with pytest.raises(ValueError, match=r"^rank_tol must be positive"):
        detailed_balance_verdict(commuting_db_kraus(np.pi / 6), MIXED2, rank_tol=-1.0)


@pytest.mark.parametrize("M", [2.5, 2.0, True, "2"])
def test_verdict_and_build_refuse_a_non_integer_M(M):
    K = commuting_db_kraus(np.pi / 6)
    for call in (lambda: detailed_balance_verdict(K, MIXED2, M), lambda: build_subproduct(K, M)):
        with pytest.raises(ValueError, match=rf"^M must be an integer \(got M={M!r}\)"):
            call()


def test_verdict_and_build_accept_a_numpy_integer_M():
    K = commuting_db_kraus(np.pi / 6)
    assert build_subproduct(K, np.int64(3)).M == 3
    rep = detailed_balance_verdict(K, MIXED2, np.int32(2))
    assert rep.to_dict() == detailed_balance_verdict(K, MIXED2, 2).to_dict()


def test_every_word_length_floor_is_refused_in_one_wording():
    K = commuting_db_kraus(np.pi / 6)
    Kp, Qd, S = orthogonal_data(K, MIXED2)
    calls = [
        ("M", 1, 0, lambda: detailed_balance_verdict(K, MIXED2, 0)),
        ("m", 1, 0, lambda: crooks_check(K, K, MIXED2, 0)),
        ("m", 1, -1, lambda: kms_condition_residual(Kp, MIXED2, Qd, S, -1)),
        ("M", 0, -1, lambda: build_subproduct(K, -1)),
    ]
    for name, least, got, call in calls:
        message = rf"^{name} must be at least {least} \(got {name}={got}\)$"
        with pytest.raises(ValueError, match=message):
            call()


def test_state_of_another_size_is_refused_by_name():
    K, rho3 = gad_kraus(0.75, 0.5), np.eye(3) / 3
    Qd, S = correlation_matrix(K, np.diag([0.75, 0.25])), build_subproduct(K, 2)
    calls = {
        "detailed_balance_verdict": lambda: detailed_balance_verdict(K, rho3),
        "correlation_matrix": lambda: correlation_matrix(K, rho3),
        "crooks_dual": lambda: crooks_dual(K, rho3),
        "crooks_check": lambda: crooks_check(K, K, rho3, 2),
        "orthogonalize_kraus": lambda: orthogonalize_kraus(K, rho3),
        "zero_mean_check": lambda: zero_mean_check(K, rho3),
        "check_phi_symmetric": lambda: check_phi_symmetric(K, rho3, Qd, S, 1),
        "kms_condition_residual": lambda: kms_condition_residual(K, rho3, Qd, S, 2),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=r"^rho0 is 3 x 3 but the Kraus operators are 2 x 2$"):
            call()


def test_verdict_report_serializes():
    rep = detailed_balance_verdict(commuting_db_kraus(np.pi / 6), MIXED2, M=2)
    d = rep.to_dict()
    assert d["verdict"] is True
    assert isinstance(d["checks"], list)
    assert "q_sphere" in rep.render()


# ---------------------------------------------------------------------------
# classical baseline


def test_classical_chain_validation():
    with pytest.raises(ValueError):
        ClassicalChain([[0.5, 0.5], [0.6, 0.5]])  # columns exceed one
    with pytest.raises(ValueError):
        ClassicalChain([[1.1, 0.0], [-0.1, 1.0]])
    with pytest.raises(ValueError):
        ClassicalChain(np.eye(3)[:2])
    with pytest.raises(ValueError):
        ClassicalChain([[0.7, 0.4], [0.3, 0.6]], pi=[0.9, 0.1])  # not stationary


@pytest.mark.parametrize("M, pi, what", [
    ([[0.5, 0.5], [0.5, 0.5]], [np.nan, np.nan], "stationary vector"),
    ([[np.nan, 0.5], [0.5, 0.5]], [0.5, 0.5], "transition matrix"),
    ([[0.5, np.inf], [0.5, 0.5]], None, "transition matrix"),
])
def test_classical_chain_refuses_non_finite_entries(M, pi, what):
    # NaN passes every comparison-based check above, so it must be refused by name
    with pytest.raises(ValueError, match=f"{what} entries must be finite"):
        ClassicalChain(M, pi)


def test_classical_two_state_always_balanced():
    al, be = 0.3, 0.7
    M = np.array([[1 - al, be], [al, 1 - be]])
    chain = ClassicalChain(M)
    assert np.allclose(chain.pi, [be / (al + be), al / (al + be)])
    Mhat, db, res = classical_reverse(chain)
    assert db
    assert res < 1e-14
    assert np.allclose(Mhat, M)


def test_classical_cycle():
    M = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    chain = ClassicalChain(M)
    assert np.allclose(chain.pi, np.ones(3) / 3)
    Mhat, db, res = classical_reverse(chain)
    assert not db
    assert abs(res - 1.0 / 3.0) < 1e-15
    assert np.allclose(Mhat, M.T)  # uniform stationary vector transposes the cycle
    # double reversal returns the original chain
    Mhh, _, _ = classical_reverse(ClassicalChain(Mhat))
    assert np.max(np.abs(Mhh - M)) < 1e-12


def test_classical_symmetric_generated_chain_is_reversible():
    rng = np.random.default_rng(5)
    Sym = rng.random((4, 4))
    Sym = Sym + Sym.T
    M = Sym / Sym.sum(axis=0, keepdims=True)
    chain = ClassicalChain(M)
    Mhat, db, res = classical_reverse(chain)
    assert db
    assert res < 1e-12
