"""Numerical certificates for compact-matrix-quantum-group relations.

All checks are representation-level: a pass means the supplied block
matrix satisfies the defining relations within tolerance.  Truncations
of infinite-dimensional representations fail the strict relations on a
boundary subspace; every record therefore carries the defect projector
rank and the residual away from the defect.
"""
from __future__ import annotations

import numpy as np

from .channel import KrausSet, f_conjugate, remix, require_invertible_F, word_stack
from .equilibrium import balance_scalar, check_state
from .matcore import (
    RESIDUAL_TOL,
    as_complex,
    dag,
    eig_projector,
    frobenius_norm,
    isometry_defect,
    rank_mask,
    spectral_norm,
)
from .report import CheckRecord, RelationsReport
from .stinespring import SubproductSystem


def _relation_record(name: str, R: np.ndarray, tol: float) -> CheckRecord:
    """Record of a general residual R; only self_conjugacy (W - Wc_F is not
    Hermitian) comes here, every Hermitian residual goes through _spectrum_record.

    When no eigenvalue of the Hermitian part of R exceeds tol in modulus the
    defect projector is 0, so the rank is 0 and the off-defect residual is
    the residual itself; only otherwise is the projector formed.
    """
    res = spectral_norm(R)
    rank, off_defect = 0, res
    if np.any(np.abs(np.linalg.eigvalsh((R + dag(R)) / 2)) > tol):
        P, rank = eig_projector(R, tol)
        Pc = np.eye(R.shape[0]) - P
        off_defect = spectral_norm(Pc @ R @ Pc)
    return CheckRecord(
        name=name,
        residual=res,
        tolerance=tol,
        passed=bool(res < tol),
        frobenius=frobenius_norm(R),
        defect_rank=rank,
        off_defect_residual=off_defect,
    )


def _spectrum_record(name: str, w: np.ndarray, tol: float) -> CheckRecord:
    """The _relation_record of a Hermitian residual, read from its eigenvalues w: the
    unitarity residuals (w from isometry_defect) and the first-row sphere sums (eigvalsh)."""
    a = np.abs(w)
    res = float(a.max())
    return CheckRecord(name=name, residual=res, tolerance=tol, passed=bool(res < tol),
                       frobenius=float(np.linalg.norm(w)), defect_rank=int(np.sum(a > tol)),
                       off_defect_residual=float(a[a <= tol].max(initial=0.0)))


def _shapes(W: np.ndarray, F: np.ndarray):
    W = as_complex(W)
    F = as_complex(F)
    n = F.shape[0]
    if F.shape != (n, n):
        raise ValueError("F must be square")
    require_invertible_F(F)
    if W.shape[0] != W.shape[1] or W.shape[0] % n != 0:
        raise ValueError("W must be square with n x n block structure")
    return W, F, W.shape[0] // n, n


def _au_records(W: np.ndarray, Wc_F: np.ndarray, tol: float) -> list[CheckRecord]:
    # X*X - 1 and XX* - 1 of a square X share the eigenvalues isometry_defect(X)
    return [_spectrum_record(f"{name}_unitary_{side}", w, tol)
            for name, w in (("W", isometry_defect(W)), ("conjugate", isometry_defect(Wc_F)))
            for side in ("left", "right")]


def au_relations_check(W, F, tol: float = RESIDUAL_TOL) -> RelationsReport:
    """Unitarity of W and of its F-conjugate, blockwise.

    Passing certifies the blocks of W satisfy the free-unitary defining
    relations with weight F*F at this representation.
    """
    W, F, d, n = _shapes(W, F)
    checks = _au_records(W, f_conjugate(W, F, d, n), tol)
    return RelationsReport(
        relation="au",
        verdict=all(c.passed for c in checks),
        tolerance=tol,
        checks=checks,
        info={"d": d, "n": n},
    )


def bu_relations_check(W, F, tol: float = RESIDUAL_TOL) -> RelationsReport:
    """Self-conjugacy W = (1 (x) F) W^c (1 (x) F^-1) plus the unitarity
    battery, plus the requirement that F Fbar be scalar.
    """
    W, F, d, n = _shapes(W, F)
    Wc_F = f_conjugate(W, F, d, n)
    checks = _au_records(W, Wc_F, tol)
    checks.append(_relation_record("self_conjugacy", W - Wc_F, tol))
    FFc = F @ F.conj()
    lam = np.trace(FFc) / n
    if abs(lam) < 1e-14:
        scalar_res = float("inf")
    else:
        scalar_res = spectral_norm(FFc - lam * np.eye(n)) / abs(lam)
    checks.append(CheckRecord(name="F_Fc_scalar", residual=float(scalar_res),
                              tolerance=tol, passed=bool(scalar_res < tol)))
    return RelationsReport(
        relation="bu",
        verdict=all(c.passed for c in checks),
        tolerance=tol,
        checks=checks,
        info={"d": d, "n": n, "lambda": [float(lam.real), float(lam.imag)]},
    )


def invariant_state(Qv, normalize: bool = True) -> np.ndarray:
    """The canonical invariant density: transpose of trace-balanced Qv
    over its trace.

    With normalize=False the input is assumed balanced already.
    """
    Qv = as_complex(Qv)
    if not rank_mask(np.linalg.eigvalsh((Qv + dag(Qv)) / 2)).all():
        raise ValueError("Qv must be positive definite")
    B = balance_scalar(Qv) * Qv if normalize else Qv
    return check_state(B.T / np.trace(B).real)


def suq2_generators(q: float, N: int):
    """Truncated ladder representation of the q-deformed SU(2) generators.

    Returns (a, c, K, F): the N x N shift a with superdiagonal
    sqrt(1 - q^(2k)), the diagonal c = diag(q^k), the Kraus set {a, c}
    (unitality a*a + c*c = 1 holds exactly in truncation), and the
    intertwiner F = [[0, q], [-1, 0]].  The defect of the co-unitality
    relation is supported on the last basis vector with magnitude
    1 - q^(2N).
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if not float(N).is_integer() or N < 2:
        raise ValueError(f"N must be an integer of at least 2 (got {N!r})")
    N = int(N)
    a = np.zeros((N, N), dtype=complex)
    for k in range(1, N):
        a[k - 1, k] = np.sqrt(1.0 - q ** (2 * k))
    c = np.diag([q ** k for k in range(N)]).astype(complex)
    K = KrausSet([a, c])
    F = np.array([[0.0, q], [-1.0, 0.0]], dtype=complex)
    return a, c, K, F


def suq2_dilation(a: np.ndarray, c: np.ndarray, q: float) -> np.ndarray:
    """The defining 2x2 block matrix [[a, -q c], [c, a*]] of the truncated
    representation, system index major."""
    N = a.shape[0]
    W = np.zeros((2 * N, 2 * N), dtype=complex)
    R = W.reshape(N, 2, N, 2)
    R[:, 0, :, 0] = a
    R[:, 0, :, 1] = -q * c
    R[:, 1, :, 0] = c
    R[:, 1, :, 1] = dag(a)
    return W


def first_row_q_sphere(W, F, S: SubproductSystem, m: int,
                       tol: float = RESIDUAL_TOL) -> RelationsReport:
    """Level-m sphere identity for the first-row blocks z_k of W.

    The weight is Q = F*F, inverted on the level subspace at the
    system's rank_tol.  Both orderings are evaluated: the row form sum
    Qinv[k,j] z_j* z_k (the identity asserted for first-row elements)
    and its adjoint-side mirror sum Qinv[k,j] z_j z_k*.  The hypotheses
    Q_11 = 1 and e_1^(x)m in the level subspace are checked and
    reported rather than assumed.
    """
    W, F, d, n = _shapes(W, F)
    Q = dag(F) @ F
    hyp_q11 = float(abs(Q[0, 0] - 1.0))
    hyp_e1 = S.level(m).boundary_defect()
    rec = S.weighted(Q, m)
    Z = word_stack(W.reshape(d, n, d, n)[:, 0].transpose(2, 0, 1), m)  # z_k = W_{0k}
    # Qinv = VU diag(1/w) VU*, so each sum is one remixed stack times its adjoint
    B, C = (remix(Z, U) / np.sqrt(rec.w)[:, np.newaxis, np.newaxis]
            for U in (rec.VU, rec.VU.conj()))
    sums = {"row_sphere": (dag(C) @ C).sum(0), "mirror_sphere": (B @ dag(B)).sum(0)}
    checks = [
        CheckRecord(name="hypothesis_Q11", residual=hyp_q11, tolerance=tol,
                    passed=bool(hyp_q11 < tol), level=m),
        CheckRecord(name="hypothesis_boundary_vector", residual=hyp_e1,
                    tolerance=tol, passed=bool(hyp_e1 < tol), level=m),
        *(_spectrum_record(name, np.linalg.eigvalsh((G + dag(G)) / 2) - 1, tol)
          for name, G in sums.items()),
    ]
    for c_ in checks[2:]:
        c_.level = m
    return RelationsReport(
        relation="first_row_q_sphere",
        verdict=all(c.passed for c in checks),
        tolerance=tol,
        checks=checks,
        info={"Q_diag": [float(x) for x in np.diag(Q).real]},
    )
