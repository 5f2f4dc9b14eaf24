"""Sphere-condition checks, time-reversed channels, Crooks duals, the
detailed-balance verdict pipeline and the classical Markov baseline.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channel import (
    KrausSet,
    channel_distance,
    dilation_from_kraus,
    f_conjugate,
    kraus_from_dilation,
    remix,
    require_invertible_F,
    require_word_budget,
    require_word_length,
)
# The verdict's level pass shares the kernels of check_phi_symmetric,
# q_sphere_residual and kms_condition_residual instead of calling them; all
# three stay bound in this module, where tracing code looks up the checks a
# verdict stands for.
from .equilibrium import (
    CorrelationData,
    _kms_level,
    _phi_normal,
    _phi_residual,
    check_phi_symmetric,
    check_state,
    kms_condition_residual,
    orthogonalize_kraus,
    require_state_size,
    zero_mean_check,
)
from .errors import HypothesisFailure
from .matcore import (
    RANK_TOL,
    RESIDUAL_TOL,
    as_complex,
    dag,
    isometry_defect,
    rank_mask,
)
from .report import AnalysisReport, CheckRecord
from .stinespring import SubproductSystem, build_subproduct, first_level


def _sphere_defect(B: np.ndarray, rec):
    """Eigenvalues and eigenvectors of the Hermitian part of the level's sphere defect.

    The defect is sum_r C_r C_r* / w_r - 1 with C_r = sum_i conj(U[i,r]) B[i],
    for the level's word stack B = B_m and Weighted record rec.
    """
    C = remix(B, rec.U) / np.sqrt(rec.w)[:, np.newaxis, np.newaxis]
    R = (C @ dag(C)).sum(0) - np.eye(B.shape[1])
    return np.linalg.eigh((R + dag(R)) / 2)


def q_sphere_residual(K: KrausSet, Qd: CorrelationData, S: SubproductSystem,
                      m: int, tol: float = RESIDUAL_TOL):
    """Deviation of the level-m weighted word sum from the identity.

    Evaluates sum over word pairs of Qinv[k,j] K_j K_k* minus 1, where
    Qinv inverts Q^(x)m on the level subspace at the system's rank_tol;
    with Q_m = (V U) diag(w) (V U)* the sum is sum_r C_r C_r* / w_r,
    C_r = sum_a conj((V U)[a,r]) K_a = sum_i conj(U[i,r]) B_m[i], read
    from the level's B_m.  Returns the norm and, from the same eigh, the
    projector onto the defect eigenspace, which localizes boundary
    effects of truncated representations.  Raises ValueError when S was
    not built from K.
    """
    B = S.stack(K, m)
    wR, U = _sphere_defect(B, S.weighted(Qd.Q, m, tol))
    Uk = U[:, np.abs(wR) > tol]
    return float(np.abs(wR).max()), Uk @ dag(Uk)


def reversed_unitary(W: np.ndarray, F: np.ndarray, d: int, n: int,
                     tol: float = 1e-6):
    """Conjugate dilation (1 (x) F) W^c (1 (x) F^-1) and its unitarity residual.

    W^c takes every block to its own adjoint.  No error is raised when
    the result fails to be unitary; the residual is the diagnostic.
    """
    W = as_complex(W)
    F = as_complex(F)
    if W.shape != (d * n, d * n) or F.shape != (n, n):
        raise ValueError("shape mismatch")
    require_invertible_F(F)
    if np.abs(isometry_defect(W)).max() > tol:
        raise ValueError("W must be unitary")
    Wbar = f_conjugate(W, F, d, n)
    return Wbar, float(np.abs(isometry_defect(Wbar)).max())


def reversed_kraus(K: KrausSet, Qd: CorrelationData) -> KrausSet:
    """Entrywise time reversal Kbar_k = Q_kk^{-1/2} K_k*.

    Requires diagonal Q in first-entry normalization.  The output is a
    channel exactly when the level-1 sphere condition holds; otherwise
    it is a general operation (callers classify).
    """
    if Qd.normalization != "first_entry":
        raise ValueError("reversed_kraus requires first-entry normalization")
    if not Qd.is_diagonal():
        raise ValueError("reversed_kraus requires diagonal Q; orthogonalize first")
    return KrausSet(dag(K.ops) / np.sqrt(np.diag(Qd.Q).real)[:, np.newaxis, np.newaxis])


def crooks_dual(K: KrausSet, rho0, rank_tol: float = RANK_TOL) -> KrausSet:
    """The state-dual set rho0^{1/2} K_j* rho0^{-1/2}.

    rho0 must be invertible here, unlike the entrywise reversal.
    """
    rho0 = check_state(rho0)
    require_state_size(K, rho0)
    w, U = np.linalg.eigh((rho0 + dag(rho0)) / 2)
    if not rank_mask(w, rank_tol).all():
        raise ValueError("crooks_dual requires an invertible state")
    rh = (U * np.sqrt(w)) @ dag(U)
    rih = (U * (1.0 / np.sqrt(w))) @ dag(U)
    return KrausSet(rh @ dag(K.ops) @ rih)


def crooks_check(K: KrausSet, Kbar: KrausSet, rho0, m: int) -> float:
    """Max mismatch of forward and reversed word probabilities up to length m.

    Compares Tr(rho0 Kbar_w~* Kbar_w~) with Tr(rho0 K_w* K_w), where w~
    is w read backwards, as the squared norms of Kbar_w~ L and K_w L with
    rho0 = L L*.
    """
    m = require_word_length(m, "m")
    if m < 1:
        raise ValueError(f"word length m must be at least 1 (got m={m})")
    if K.n != Kbar.n or K.d != Kbar.d:
        raise ValueError("Kraus sets must share shape")
    require_word_budget(K.n, m)
    rho0 = check_state(rho0)
    require_state_size(K, rho0)
    w, U = np.linalg.eigh((rho0 + dag(rho0)) / 2)
    A = B = (U * np.sqrt(np.maximum(w, 0.0)))[np.newaxis]  # L, with rho0 = L L*
    mx = 0.0
    for _ in range(m):
        # K_w L gains a new first letter and Kbar_w~ L a new last letter of w, so
        # in both the first letter of w stays the most significant digit of the row
        A = (K.ops[:, np.newaxis] @ A[np.newaxis]).reshape(-1, K.d, K.d)
        B = (Kbar.ops[np.newaxis] @ B[:, np.newaxis]).reshape(-1, K.d, K.d)
        pA, pB = (np.square(X.view(float)).sum(axis=(1, 2)) for X in (A, B))
        mx = max(mx, float(np.max(np.abs(pB - pA))))
    return mx


class TRInvariance(NamedTuple):
    invariant: bool
    distance: float
    unitarity_residual: float


def time_reversal_invariance(K: KrausSet, F: np.ndarray,
                             tol: float = RESIDUAL_TOL) -> TRInvariance:
    """Check whether the F-reversed channel coincides with the original.

    Builds the deterministic dilation, conjugates it, and when the
    conjugate is unitary compares the reversed channel with the input at
    the Choi level.  A nonunitary conjugate yields a false verdict with
    the unitarity residual as the reason.
    """
    _, W = dilation_from_kraus(K)
    Wbar, ures = reversed_unitary(W, F, K.d, K.n)
    if ures > tol:
        return TRInvariance(False, float("nan"), ures)
    try:
        Kbar = kraus_from_dilation(Wbar, K.d, K.n, "first_column")
    except ValueError:
        return TRInvariance(False, float("nan"), ures)
    dist = channel_distance(K, Kbar)
    return TRInvariance(dist < tol, dist, ures)


# ---------------------------------------------------------------------------
# verdict pipeline


def _check_record(name: str, m: int, tol: float, result, rank: int | None = None) -> CheckRecord:
    """A verdict record: a residual, or the message of the HypothesisFailure that stopped it."""
    if isinstance(result, str):
        return CheckRecord(name=name, residual=None, tolerance=tol, passed=False, level=m,
                           hypothesis_failure=result)
    return CheckRecord(name=name, residual=float(result), tolerance=tol,
                       passed=bool(result < tol), level=m, defect_rank=rank)


def detailed_balance_verdict(K: KrausSet, rho0, M: int = 2,
                             tol: float = RESIDUAL_TOL,
                             rank_tol: float = RANK_TOL) -> AnalysisReport:
    """Full detailed-balance analysis of a channel with respect to rho0.

    Orthogonalizes the Kraus set, records the correlation matrix in all
    three normalizations, builds the subproduct system to level M, and
    runs the compatibility, symmetric-correlation, sphere and KMS checks
    at every level with the trace-balanced Q.  The inputs are validated
    once, here; the checks then run as one pass over the levels.  Each
    level reads its Weighted record (raising once when Q^(x)m does not
    preserve it, and that message stands for the level's three records
    and, unless a lower level stopped it, for KMS) and its state Grams,
    and records q_compatibility, both phi_symmetric orderings and
    q_sphere from the kernels the public checks use, so every record
    equals what the public check returns or raises at that level.  The
    pass carries the running KMS maximum over the levels, stopped by the
    first hypothesis failure; its record follows the last level.  The
    verdict is true iff every residual is below tol and no hypothesis
    fails; a false verdict names the sphere condition whenever that stage
    is implicated.
    """
    M = require_word_length(M, "M")
    if M < 1:
        raise ValueError(f"max level M must be at least 1 (got M={M})")
    for name, value in (("tol", tol), ("rank_tol", rank_tol)):
        if not value > 0:
            raise ValueError(f"{name} must be positive (got {name}={value})")
    rho0 = check_state(rho0)
    require_state_size(K, rho0)
    if K.unital_residual >= tol:
        raise ValueError("detailed balance verdict requires a channel")
    # Q is formed for the orthogonalized set, so the levels must keep all of it
    rank = first_level(K, rank_tol).rank
    if rank < K.n:
        raise ValueError(f"rank_tol={rank_tol:g} leaves {rank} of the {K.n} Kraus operators "
                         f"linearly independent; the verdict needs an independent set")
    Kp, Qraw, lambdas = orthogonalize_kraus(K, rho0, rank_tol=rank_tol)
    means = zero_mean_check(Kp, rho0)
    Qtb = Qraw.with_normalization("trace_balanced")
    Qfe = Qraw.with_normalization("first_entry")
    S = build_subproduct(Kp, M, rank_tol)
    Qtb.attach_levels(S)

    checks: list[CheckRecord] = []
    kms, kms_failure = 0.0, None  # the running KMS maximum, or the message that stopped it
    for m in range(1, M + 1):
        checks.append(_check_record("q_compatibility", m, tol, Qtb.compat_residuals[m]))
        try:
            rec = S.weighted(Qtb.Q, m, tol)
        except HypothesisFailure as exc:
            checks += [_check_record(name, m, tol, str(exc)) for name in
                       ("phi_symmetric_normal", "phi_symmetric_antinormal", "q_sphere")]
            kms_failure = kms_failure or str(exc)
            continue
        g = S.grams(m, rho0)
        sphere = np.abs(_sphere_defect(S.level(m).B, rec)[0])
        checks += [_check_record("phi_symmetric_normal", m, tol, _phi_normal(rec, g)),
                   _check_record("phi_symmetric_antinormal", m, tol,
                                 _phi_residual(g.antinormal, rec, "antinormal")),
                   _check_record("q_sphere", m, tol, sphere.max(), int(np.sum(sphere > tol)))]
        if kms_failure is None:
            try:
                kms = max(kms, _kms_level(rec, g, tol))
            except HypothesisFailure as exc:
                kms_failure = str(exc)
    checks.append(_check_record("kms_condition", M, tol, kms_failure or kms))

    verdict = all(c.passed for c in checks)
    reason = None
    if not verdict:
        failed = [c for c in checks if not c.passed]
        if any(c.name == "q_sphere" for c in failed):
            reason = "q_sphere"
        else:
            reason = failed[0].name

    return AnalysisReport(
        verdict=verdict,
        reason=reason,
        residual_tol=tol,
        rank_tol=rank_tol,
        max_level=M,
        checks=checks,
        info={
            "lambdas": [float(x) for x in lambdas],
            "Q_raw_diag": [float(x) for x in np.diag(Qraw.Q).real],
            "Q_trace_balanced_diag": [float(x) for x in np.diag(Qtb.Q).real],
            "Q_first_entry_diag": [float(x) for x in np.diag(Qfe.Q).real],
            "zero_means": means,
            "level_ranks": {m: S.level(m).rank for m in range(1, M + 1)},
            "hypothesis_failures": [f"{c.name}[m={c.level}]: {c.hypothesis_failure}"
                                    for c in checks if c.hypothesis_failure is not None],
        },
    )


# ---------------------------------------------------------------------------
# classical baseline


class ClassicalChain:
    """Column-stochastic transition matrix with a positive stationary vector.

    Entry (j, k) is the probability of moving from state k to state j.
    When pi is omitted it is computed from the unit eigenvalue.
    """

    def __init__(self, M, pi=None, tol: float = 1e-9):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("transition matrix must be square")
        if np.any(M < -tol):
            raise ValueError("negative transition probability")
        if np.max(np.abs(M.sum(axis=0) - 1.0)) > tol:
            raise ValueError("columns must sum to one")
        if pi is None:
            w, v = np.linalg.eig(M)
            idx = int(np.argmin(np.abs(w - 1.0)))
            pi = np.real(v[:, idx])
            pi = pi / pi.sum()
        pi = np.asarray(pi, dtype=float)
        if np.any(pi <= 0):
            raise ValueError("stationary vector must be entrywise positive")
        if abs(pi.sum() - 1.0) > tol:
            raise ValueError("stationary vector must sum to one")
        if np.max(np.abs(M @ pi - pi)) > max(tol, 1e-8):
            raise ValueError("pi is not stationary for M")
        self.M = M
        self.pi = pi
        self.n = M.shape[0]


def classical_reverse(C: ClassicalChain, tol: float = 1e-10):
    """Time-reversed chain, detailed-balance verdict and residual.

    The reversed matrix diag(pi) M^T diag(pi)^-1 is column-stochastic
    with the same stationary vector; the chain is reversible iff it
    equals M, equivalently iff M_jk pi_k is symmetric.
    """
    Mhat = np.diag(C.pi) @ C.M.T @ np.diag(1.0 / C.pi)
    flux = C.M * C.pi[np.newaxis, :]
    residual = float(np.max(np.abs(flux - flux.T)))
    db = bool(np.max(np.abs(Mhat - C.M)) < tol)
    return Mhat, db, residual
