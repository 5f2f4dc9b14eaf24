"""Sphere-condition checks, time-reversed channels, Crooks duals, the
detailed-balance verdict pipeline and the classical Markov baseline.

reversed_unitary has its pair (W, F) checked by
channel.require_dilation_pair, and time_reversal_invariance judges the
conjugate dilation and reads its Kraus set at the one tol it is given.
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
    products,
    require_dilation_pair,
    require_word_budget,
    require_word_length,
)
# The verdict's level pass reads _read_levels instead of calling
# check_phi_symmetric, q_sphere_residual and kms_condition_residual; all three
# stay bound in this module, where tracing code looks up the checks a verdict
# stands for.
from .equilibrium import (
    CorrelationData,
    _kms_condition,
    _read_level,
    _read_levels,
    check_phi_symmetric,
    check_state,
    kms_condition_residual,
    orthogonalize_kraus,
    zero_mean_check,
)
from .matcore import (
    RANK_TOL,
    RESIDUAL_TOL,
    dag,
    isometry_defect,
    rank_mask,
)
from .report import AnalysisReport, CheckRecord
from .stinespring import SubproductSystem, build_subproduct


def q_sphere_residual(K: KrausSet, Qd: CorrelationData, S: SubproductSystem,
                      m: int, tol: float = RESIDUAL_TOL):
    """Deviation of the level-m weighted word sum from the identity.

    Evaluates sum over word pairs of Qinv[k,j] K_j K_k* minus 1, where
    Qinv inverts Q^(x)m on the whole level subspace; with Q_m = V H V*,
    Qinv = V P V* for P the inverse of H, and the sum is
    sum_ij P[j,i] B_i B_j*, read
    from the level's B_m by _read_level, that is _read_levels on [m], the
    reader the verdict calls once on all its levels, so the verdict's
    sphere record equals this check's value or message.  Returns the norm
    and, from the same eigh, the projector onto the defect eigenspace,
    which localizes boundary effects of truncated representations.
    Raises HypothesisFailure when Q^(x)m does not preserve the level, and
    ValueError when S was not built from K, m is not an integer or H is
    not invertible at round-off.
    """
    wR, U = _read_level(K, S, Qd.Q, m, tol).defect
    Uk = U[:, np.abs(wR) > tol]
    return float(np.abs(wR).max()), Uk @ dag(Uk)


def reversed_unitary(W: np.ndarray, F: np.ndarray, d: int, n: int,
                     tol: float = 1e-6):
    """Conjugate dilation (1 (x) F) W^c (1 (x) F^-1) and its unitarity residual.

    W^c takes every block to its own adjoint.  The pair (W, F) is checked
    by require_dilation_pair, and must have blocks of size d, n of them.
    No error is raised when the result fails to be unitary; the residual
    is the diagnostic.
    """
    W, F, dW, nF = require_dilation_pair(W, F)
    if (dW, nF) != (d, n):
        raise ValueError("shape mismatch")
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
    rho0 = check_state(rho0, d=K.d)
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
    rho0 = L L*.  Each length is one products step per side, and the
    squared norms are one einsum over the float view of each stack.
    """
    m = require_word_length(m, "m", least=1)
    if K.n != Kbar.n or K.d != Kbar.d:
        raise ValueError("Kraus sets must share shape")
    require_word_budget(K.n, m)
    rho0 = check_state(rho0, d=K.d)
    w, U = np.linalg.eigh((rho0 + dag(rho0)) / 2)
    A = B = (U * np.sqrt(np.maximum(w, 0.0)))[np.newaxis]  # L, with rho0 = L L*
    mx = 0.0
    for _ in range(m):
        # K_w L gains a new first letter and Kbar_w~ L a new last letter of w; products puts
        # the new letter major, so B is swapped back to keep w's first letter major in both
        A = products(K.ops, A)
        B = products(Kbar.ops, B).reshape(K.n, -1, K.d, K.d).swapaxes(0, 1).reshape(A.shape)
        pA, pB = (np.einsum("wij,wij->w", X.view(float), X.view(float)) for X in (A, B))
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
    conjugate is unitary within tol reads the reversed Kraus set from its
    first block-column, at the same tol, and compares the reversed
    channel with the input at the Choi level.  The set is read with the
    bath in e_1 ("general_state"), which drops a zero block of that column
    as an operator carrying no dynamics; every other block is the same
    bits as "first_column" reads.  A nonunitary conjugate yields a false
    verdict with the unitarity residual as the reason.
    """
    _, W = dilation_from_kraus(K)
    Wbar, ures = reversed_unitary(W, F, K.d, K.n)
    if ures > tol:
        return TRInvariance(False, float("nan"), ures)
    Kbar = kraus_from_dilation(Wbar, K.d, K.n, "general_state", sigma=np.eye(1, K.n)[0], tol=tol)
    dist = channel_distance(K, Kbar)
    return TRInvariance(dist < tol, dist, ures)


# ---------------------------------------------------------------------------
# verdict pipeline


def _check_record(name: str, m: int, tol: float, result, rank: int | None = None) -> CheckRecord:
    """A verdict record: a residual, or the message of the exception that stopped it."""
    if isinstance(result, Exception):
        return CheckRecord(name=name, residual=None, tolerance=tol, level=m,
                           hypothesis_failure=str(result))
    return CheckRecord(name=name, residual=float(result), tolerance=tol, level=m,
                       defect_rank=rank)


def detailed_balance_verdict(K: KrausSet, rho0, M: int = 2,
                             tol: float = RESIDUAL_TOL,
                             rank_tol: float = RANK_TOL) -> AnalysisReport:
    """Full detailed-balance analysis of a channel with respect to rho0.

    Orthogonalizes the Kraus set, records the correlation matrix in all
    three normalizations, builds the subproduct system to level M, and
    runs the compatibility, symmetric-correlation, sphere and KMS checks
    at every level with the trace-balanced Q.  The inputs are validated
    once, here.  attach_levels records the compat residuals, and one
    _read_levels call takes every level: it marks the levels that Q^(x)m
    does not preserve or whose H_m is not invertible at round-off, and
    reads the others, in batched calls per level rank.  The public phi,
    sphere and KMS checks call the same reader on their own levels, and a
    level reads the same bits alone as in its rank group, so every record
    equals what the public check returns or raises at that level.  On a
    level the reader marks, its message, the one the public checks raise,
    stands for the level's three records and, unless a lower level
    stopped it, for KMS.
    The KMS record, after the last level, is the largest KMS residual
    over the levels, stopped by the first hypothesis failure.  Each
    record judges itself (CheckRecord.passed), so the verdict is true iff
    every residual is below tol and no hypothesis fails; a false verdict
    names the sphere condition whenever that stage is implicated.
    """
    M = require_word_length(M, "M", least=1)
    for name, value in (("tol", tol), ("rank_tol", rank_tol)):
        if not value > 0:
            raise ValueError(f"{name} must be positive (got {name}={value})")
    rho0 = check_state(rho0, d=K.d)
    if K.unital_residual >= tol:
        raise ValueError("detailed balance verdict requires a channel")
    # Q is formed for the orthogonalized set, so the levels must keep all of it
    rank = int(rank_mask(np.linalg.svd(K.ops.reshape(K.n, -1), compute_uv=False), rank_tol).sum())
    if rank < K.n:
        raise ValueError(f"rank_tol={rank_tol:g} leaves {rank} of the {K.n} Kraus operators "
                         f"linearly independent; the verdict needs an independent set")
    Kp, Qraw, lambdas = orthogonalize_kraus(K, rho0, rank_tol=rank_tol)
    means = zero_mean_check(Kp, rho0)
    Qtb = Qraw.with_normalization("trace_balanced")
    Qfe = Qraw.with_normalization("first_entry")
    S = build_subproduct(Kp, M, rank_tol)
    Qtb.attach_levels(S)

    compat = Qtb.compat_residuals
    read = _read_levels(S, Qtb.Q, compat, tol, rho0)
    checks: list[CheckRecord] = []
    for m, c in compat.items():
        checks.append(_check_record("q_compatibility", m, tol, c))
        failure, residuals, defect = read[m]
        if failure is not None:
            checks += [_check_record(name, m, tol, failure) for name in
                       ("phi_symmetric_normal", "phi_symmetric_antinormal", "q_sphere")]
            continue
        (normal, antinormal, _), (wR, _) = residuals, defect
        sphere = np.abs(wR)
        checks += [_check_record("phi_symmetric_normal", m, tol, normal),
                   _check_record("phi_symmetric_antinormal", m, tol, antinormal),
                   _check_record("q_sphere", m, tol, sphere.max(), int(np.sum(sphere > tol)))]
    checks.append(_check_record("kms_condition", M, tol, _kms_condition(read, tol)))

    failed = [c.name for c in checks if not c.passed]
    return AnalysisReport(
        reason="q_sphere" if "q_sphere" in failed else next(iter(failed), None),
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
        if not np.isfinite(M).all():
            raise ValueError("transition matrix entries must be finite")
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
        if not np.isfinite(pi).all():
            raise ValueError("stationary vector entries must be finite")
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
