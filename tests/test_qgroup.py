import numpy as np
import pytest

from detbal.channel import block, dilation_from_kraus
from detbal.factories import commuting_db_kraus, gen_example
from detbal.matcore import dag, spectral_norm
from detbal.qgroup import (
    au_relations_check,
    bu_relations_check,
    first_row_q_sphere,
    invariant_state,
    suq2_dilation,
    suq2_generators,
)
from detbal.stinespring import build_subproduct
from conftest import random_unitary

Q_SUQ2, N_SUQ2 = 0.5, 6
BOUNDARY = 1 - Q_SUQ2 ** (2 * N_SUQ2)  # 4095/4096


def su2_form_dilation(theta, phi, psi):
    """Block matrix [[A, -conj(B)], [B, conj(A)]] with commuting diagonal
    A, B and A*A + B*B = 1."""
    A = np.diag(np.cos(theta) * np.exp(1j * phi))
    B = np.diag(np.sin(theta) * np.exp(1j * psi))
    d = A.shape[0]
    W = np.zeros((2 * d, 2 * d), dtype=complex)
    R = W.reshape(d, 2, d, 2)
    R[:, 0, :, 0] = A
    R[:, 0, :, 1] = -B.conj()
    R[:, 1, :, 0] = B
    R[:, 1, :, 1] = A.conj()
    return W


SU2_THETA = np.array([0.3, 1.1, 2.0])
SU2_PHI = np.array([0.2, -0.7, 0.4])
SU2_PSI = np.array([1.5, 0.9, -0.3])
F_SU2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def test_au_passes_for_commuting_dilation():
    _, W = dilation_from_kraus(commuting_db_kraus(np.pi / 6))
    rep = au_relations_check(W, np.eye(2))
    assert rep.verdict
    assert all(c.residual < 1e-10 for c in rep.checks)
    assert rep.info == {"d": 2, "n": 2}


def test_au_generic_unitary_fails_conjugate_side():
    rep = au_relations_check(random_unitary(4, 42), np.eye(2))
    assert not rep.verdict
    assert rep.check("W_unitary_left").passed
    assert rep.check("W_unitary_right").passed
    for name in ("conjugate_unitary_left", "conjugate_unitary_right"):
        assert abs(rep.check(name).residual - 1.005755298756) < 1e-9


def test_au_suq2_boundary_defect():
    a, c, K, F = suq2_generators(Q_SUQ2, N_SUQ2)
    W = suq2_dilation(a, c, Q_SUQ2)
    rep = au_relations_check(W, np.diag([1.0, Q_SUQ2]).astype(complex))
    for chk in rep.checks:
        assert abs(chk.residual - BOUNDARY) < 1e-10
        assert chk.defect_rank == 1
        assert chk.off_defect_residual < 1e-10


def test_bu_su2_form():
    W = su2_form_dilation(SU2_THETA, SU2_PHI, SU2_PSI)
    rep = bu_relations_check(W, F_SU2)
    assert rep.verdict
    assert all(c.residual < 1e-10 for c in rep.checks)
    assert np.allclose(rep.info["lambda"], [-1.0, 0.0])


def test_bu_su2_form_wrong_intertwiner():
    W = su2_form_dilation(SU2_THETA, SU2_PHI, SU2_PSI)
    rep = bu_relations_check(W, np.eye(2))
    assert not rep.verdict
    assert abs(rep.check("self_conjugacy").residual - 1.513594890271) < 1e-9


def test_bu_suq2_battery():
    a, c, K, F = suq2_generators(Q_SUQ2, N_SUQ2)
    W = suq2_dilation(a, c, Q_SUQ2)
    rep = bu_relations_check(W, F)
    assert not rep.verdict  # truncation breaks strict unitarity
    for name in ("W_unitary_left", "W_unitary_right",
                 "conjugate_unitary_left", "conjugate_unitary_right"):
        chk = rep.check(name)
        assert abs(chk.residual - BOUNDARY) < 1e-10
        assert chk.defect_rank == 1
        assert chk.off_defect_residual < 1e-10
    assert rep.check("self_conjugacy").residual < 1e-12
    assert rep.check("F_Fc_scalar").residual < 1e-12
    assert np.allclose(rep.info["lambda"], [-0.5, 0.0])


def test_relation_input_validation():
    with pytest.raises(ValueError):
        au_relations_check(np.eye(4), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        au_relations_check(np.eye(5), np.eye(2))
    with pytest.raises(KeyError):
        au_relations_check(np.eye(4), np.eye(2)).check("no_such_relation")


def test_invariant_state_example():
    rho = invariant_state(np.diag([4.0, 1.0]).astype(complex))
    assert np.allclose(rho, np.diag([0.8, 0.2]))
    # already-balanced input short-circuits to the same state
    rho2 = invariant_state(np.diag([2.0, 0.5]).astype(complex), normalize=False)
    assert np.allclose(rho2, np.diag([0.8, 0.2]))


def test_invariant_state_transposes():
    Qv = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 0.6]], dtype=complex)
    rho = invariant_state(Qv)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert spectral_norm(rho - rho.conj()) > 1e-3  # transpose flips the phase
    with pytest.raises(ValueError):
        invariant_state(np.diag([1.0, 0.0]).astype(complex))


def test_suq2_generator_relations():
    a, c, K, F = suq2_generators(Q_SUQ2, N_SUQ2)
    assert spectral_norm(dag(a) @ a + dag(c) @ c - np.eye(N_SUQ2)) < 1e-12
    assert spectral_norm(a @ c - Q_SUQ2 * c @ a) < 1e-12
    assert K.unital_residual < 1e-12
    assert np.allclose(dag(F) @ F, np.diag([1.0, Q_SUQ2 ** 2]))


def test_suq2_closed_forms():
    q = 0.5
    a, c, K, F = suq2_generators(q, 3)
    assert np.allclose(np.diag(a, k=1), [np.sqrt(1 - q ** 2), np.sqrt(1 - q ** 4)])
    assert np.allclose(np.diag(c), [1.0, q, q ** 2])


def test_suq2_generator_validation():
    with pytest.raises(ValueError):
        suq2_generators(1.0, 6)
    with pytest.raises(ValueError):
        suq2_generators(0.5, 1)
    for N in (6.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="N must be an integer"):
            suq2_generators(0.5, N)
    with pytest.raises(ValueError, match="N must be an integer"):
        gen_example("suq2", {"N": 6.5})
    assert suq2_generators(0.5, 6.0)[0].shape == (6, 6)


def test_suq2_dilation_blocks():
    a, c, K, F = suq2_generators(Q_SUQ2, N_SUQ2)
    W = suq2_dilation(a, c, Q_SUQ2)
    assert np.allclose(block(W, N_SUQ2, 2, 0, 0), a)
    assert np.allclose(block(W, N_SUQ2, 2, 0, 1), -Q_SUQ2 * c)
    assert np.allclose(block(W, N_SUQ2, 2, 1, 0), c)
    assert np.allclose(block(W, N_SUQ2, 2, 1, 1), dag(a))
    assert abs(spectral_norm(dag(W) @ W - np.eye(2 * N_SUQ2)) - BOUNDARY) < 1e-12


def test_first_row_q_sphere_suq2():
    a, c, K, F = suq2_generators(Q_SUQ2, N_SUQ2)
    W = suq2_dilation(a, c, Q_SUQ2)
    S = build_subproduct(K, 2)
    rep1 = first_row_q_sphere(W, F, S, 1)
    assert rep1.check("hypothesis_Q11").residual < 1e-12
    assert rep1.check("hypothesis_boundary_vector").residual < 1e-12
    assert rep1.check("row_sphere").residual < 1e-10
    mirror = rep1.check("mirror_sphere")
    assert abs(mirror.residual - (1 - Q_SUQ2 ** (2 * N_SUQ2 - 2))) < 1e-10
    assert not rep1.verdict
    rep2 = first_row_q_sphere(W, F, S, 2)
    assert rep2.check("row_sphere").residual < 1e-10
    assert np.allclose(rep1.info["Q_diag"], [1.0, 0.25])


def test_first_row_q_sphere_size_mismatch():
    a, c, K, F = suq2_generators(Q_SUQ2, N_SUQ2)
    W = suq2_dilation(a, c, Q_SUQ2)
    S3 = build_subproduct(commuting_db_kraus(0.4), 1)
    # same n here, so fabricate a mismatch with a 1-operator system
    from detbal.channel import KrausSet
    S1 = build_subproduct(KrausSet([np.eye(2)]), 1)
    with pytest.raises(ValueError):
        first_row_q_sphere(W, F, S1, 1)


def test_relations_report_render():
    a, c, K, F = suq2_generators(Q_SUQ2, N_SUQ2)
    rep = bu_relations_check(suq2_dilation(a, c, Q_SUQ2), F)
    text = rep.render()
    assert "self_conjugacy" in text
    assert "[FAIL]" in text and "[PASS]" in text
    d = rep.to_dict()
    assert d["relation"] == "bu"
    assert len(d["checks"]) == 6


def test_bu_judges_a_small_scalar_F_by_its_relative_defect():
    # F Fbar = 1e-16 1 is exactly scalar, and F is invertible
    _, W = dilation_from_kraus(commuting_db_kraus(0.5))
    rep = bu_relations_check(W, 1e-8 * np.eye(2))
    assert rep.check("F_Fc_scalar").residual == 0.0
    assert rep.verdict


def test_bu_fails_an_F_whose_F_Fbar_is_traceless():
    # F Fbar = diag(-i, i) has trace 0, so it is no multiple lambda 1 with lambda != 0
    _, W = dilation_from_kraus(commuting_db_kraus(np.pi / 6))
    rep = bu_relations_check(W, np.array([[0.0, 1.0], [1j, 0.0]]))
    scalar = rep.check("F_Fc_scalar")
    assert scalar.residual == float("inf") and not scalar.passed
    assert rep.info["lambda"] == [0.0, 0.0]
    assert not rep.verdict
