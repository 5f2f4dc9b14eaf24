"""Numerical certificates for compact-matrix-quantum-group relations.

All checks are representation-level: a pass means the supplied block
matrix satisfies the defining relations within tolerance.  Truncations
of infinite-dimensional representations fail the strict relations on a
boundary subspace; every record therefore carries the defect projector
rank and the residual away from the defect.  Every check taking a pair
(W, F) has it checked, and its sizes (d, n) read, by
channel.require_dilation_pair.
"""
from __future__ import annotations

import numpy as np

from .channel import KrausSet, blocks, f_conjugate, from_blocks, require_dilation_pair
from .equilibrium import _level_power, balance_scalar, check_state
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
from .stinespring import SubproductSystem, _sphere


def _relation_record(name: str, R: np.ndarray, tol: float) -> CheckRecord:
    """Record of a general residual R; only self_conjugacy (W - Wc_F is not
    Hermitian) comes here, every Hermitian residual goes through _spectrum_record.

    When no eigenvalue of the Hermitian part of R exceeds tol in modulus the
    defect projector is 0, so the rank is 0 and the off-defect residual is
    the residual itself; only otherwise is the projector formed.  Two
    shortcuts read that case: ||R|| <= tol/2 settles it with no
    eigensolve, since every eigenvalue of (R + R*)/2 is at most ||R|| in
    modulus and its computed error is O(eps ||R||); otherwise the
    eigenvalues of the Hermitian part settle it before any projector.
    """
    res = spectral_norm(R)
    rank, off_defect = 0, res
    if res > tol / 2 and np.any(np.abs(np.linalg.eigvalsh((R + dag(R)) / 2)) > tol):
        P, rank = eig_projector(R, tol)
        Pc = np.eye(R.shape[0]) - P
        off_defect = spectral_norm(Pc @ R @ Pc)
    return CheckRecord(
        name=name,
        residual=res,
        tolerance=tol,
        frobenius=frobenius_norm(R),
        defect_rank=rank,
        off_defect_residual=off_defect,
    )


def _spectrum_record(name: str, w: np.ndarray, tol: float, level: int | None = None) -> CheckRecord:
    """The _relation_record of a Hermitian residual, read from its eigenvalues w: the
    unitarity residuals (w from isometry_defect) and the first-row sphere sums (eigvalsh)."""
    a = np.abs(w)
    return CheckRecord(name=name, residual=float(a.max()), tolerance=tol,
                       frobenius=float(np.linalg.norm(w)), level=level,
                       defect_rank=int(np.sum(a > tol)),
                       off_defect_residual=float(a[a <= tol].max(initial=0.0)))


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
    W, F, d, n = require_dilation_pair(W, F)
    return RelationsReport(relation="au", tolerance=tol,
                           checks=_au_records(W, f_conjugate(W, F, d, n), tol),
                           info={"d": d, "n": n})


def bu_relations_check(W, F, tol: float = RESIDUAL_TOL) -> RelationsReport:
    """Self-conjugacy W = (1 (x) F) W^c (1 (x) F^-1) plus the unitarity
    battery, plus the requirement that F Fbar be scalar.
    """
    W, F, d, n = require_dilation_pair(W, F)
    Wc_F = f_conjugate(W, F, d, n)
    checks = _au_records(W, Wc_F, tol)
    checks.append(_relation_record("self_conjugacy", W - Wc_F, tol))
    FFc = F @ F.conj()
    lam = np.trace(FFc) / n
    scalar_res = spectral_norm(FFc - lam * np.eye(n)) / abs(lam) if lam else float("inf")
    checks.append(CheckRecord(name="F_Fc_scalar", residual=float(scalar_res), tolerance=tol))
    return RelationsReport(relation="bu", tolerance=tol, checks=checks,
                           info={"d": d, "n": n, "lambda": [float(lam.real), float(lam.imag)]})


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
    # Python-float powers: q ** np.arange can differ from them in the last bit
    a = np.diag(np.sqrt(1.0 - np.array([q ** (2 * k) for k in range(1, N)])).astype(complex), 1)
    c = np.diag([q ** k for k in range(N)]).astype(complex)
    K = KrausSet([a, c])
    F = np.array([[0.0, q], [-1.0, 0.0]], dtype=complex)
    return a, c, K, F


def suq2_dilation(a: np.ndarray, c: np.ndarray, q: float) -> np.ndarray:
    """The defining 2x2 block matrix [[a, -q c], [c, a*]] of the truncated
    representation, system index major."""
    return from_blocks(np.array([[a, -q * c], [c, dag(a)]], dtype=complex))


def first_row_q_sphere(W, F, S: SubproductSystem, m: int,
                       tol: float = RESIDUAL_TOL) -> RelationsReport:
    """Level-m sphere identity for the first-row blocks z_k of W.

    The weight is Q = F*F, inverted on the whole level subspace:
    Qinv = V P V* for V the level isometry and P = Q_m^-1 read by
    equilibrium._level_power.  So a level that Q^(x)m does not preserve
    raises its HypothesisFailure (equilibrium._compat_hypothesis, at tol),
    and a level where Q_m is not invertible at round-off raises ValueError
    (eigenpairs).  Both orderings are evaluated: the row form
    sum Qinv[k,j] z_j* z_k (the identity asserted for first-row elements)
    and its adjoint-side mirror sum Qinv[k,j] z_j z_k*.  Each is
    _sphere(P, X) over the words compressed to the level through the
    train (Level.compress), so no n^m-word stack is formed: the mirror sum
    reads X = V* Z and the row sum X_i = (V* conj Z)_i^T, for Z the words
    of the blocks z_k.  A real first row (conj Z = Z, as on every suq2
    ladder) is compressed once, and its row sum reads the mirror's stack
    transposed.  W's blocks must be the size of S's operators.  The
    hypotheses Q_11 = 1 and e_1^(x)m in the level subspace are checked and
    reported rather than assumed.
    """
    W, F, d, n = require_dilation_pair(W, F)
    if S.ops.shape[-1] != d:
        k = S.ops.shape[-1]
        raise ValueError(f"W has {d} x {d} blocks but the subproduct system's operators "
                         f"are {k} x {k}")
    Q = dag(F) @ F
    hyp_q11 = float(abs(Q[0, 0] - 1.0))
    hyp_e1 = S.level(m).boundary_defect()
    rec, P = _level_power(S, Q, m, -1, tol)
    Z = blocks(W, d, n)[0]  # z_k = W_{0k}
    L = rec.level  # the row sum reads X_i = (V* conj Z)_i^T, the mirror sum X = V* Z
    X = L.compress(Z)
    Xc = X if np.array_equal(Z.conj(), Z) else L.compress(Z.conj())
    R = _sphere(P, np.stack((Xc.swapaxes(-1, -2), X)))
    spectra = np.linalg.eigvalsh((R + dag(R)) / 2) - 1
    checks = [
        CheckRecord(name="hypothesis_Q11", residual=hyp_q11, tolerance=tol, level=m),
        CheckRecord(name="hypothesis_boundary_vector", residual=hyp_e1, tolerance=tol, level=m),
        *(_spectrum_record(name, w, tol, m)
          for name, w in zip(("row_sphere", "mirror_sphere"), spectra)),
    ]
    return RelationsReport(relation="first_row_q_sphere", tolerance=tol, checks=checks,
                           info={"Q_diag": [float(x) for x in np.diag(Q).real]})
