"""Correlation matrices, orthogonal Kraus bases, KMS data and modular flow.

The correlation matrix of a state rho0 with respect to a Kraus set has
raw entries Tr(K_j rho0 K_k*).  For a channel it is a density matrix on
the auxiliary space.  Three normalizations are in use and every
consumer records which one it was handed:

* ``raw``            trace one;
* ``trace_balanced`` Tr(Q) = Tr(Q^-1);
* ``first_entry``    Q_11 = 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import KrausSet, gram, remix, symmetric_unitary_first_col
from .errors import HypothesisFailure
from .matcore import RANK_TOL, RESIDUAL_TOL, as_complex, dag, is_hermitian, rank_mask, spectral_norm
from .stinespring import SubproductSystem, check_Q_compatibility

NORMALIZATIONS = ("raw", "trace_balanced", "first_entry")


def check_state(rho, atol: float = 1e-12) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD, unit trace.

    Full rank is not required; a pure state is acceptable.
    """
    rho = as_complex(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("state must be a square matrix")
    if not np.array_equal(rho, dag(rho)) and not is_hermitian(rho, 1e-10):
        raise ValueError("state must be Hermitian")
    w = np.linalg.eigvalsh((rho + dag(rho)) / 2)
    if w[0] < -atol:
        raise ValueError(f"state has negative eigenvalue {w[0]:.3g}")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("state must have unit trace")
    return rho


@dataclass
class CorrelationData:
    Q: np.ndarray
    normalization: str
    raw: np.ndarray
    compat_residuals: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.Q.shape[0]

    def is_diagonal(self, tol: float = 1e-10) -> bool:
        off = self.Q - np.diag(np.diag(self.Q))
        return spectral_norm(off) <= tol * max(1.0, spectral_norm(self.Q))

    def attach_levels(self, S: SubproductSystem):
        """Record the compatibility residual of every built level, for the report."""
        for m in range(1, S.M + 1):
            self.compat_residuals[m] = check_Q_compatibility(S, self.Q, m)

    def with_normalization(self, normalization: str) -> "CorrelationData":
        return CorrelationData(
            Q=_normalize(self.raw, normalization),
            normalization=normalization,
            raw=self.raw,
        )


def balance_scalar(q: np.ndarray) -> float:
    """The unique positive s with Tr(s q) = Tr((s q)^-1)."""
    return float(np.sqrt(np.trace(np.linalg.inv(q)).real / np.trace(q).real))


def _normalize(q: np.ndarray, normalization: str) -> np.ndarray:
    if normalization == "raw":
        return q / np.trace(q).real
    if normalization == "trace_balanced":
        return balance_scalar(q) * q
    if normalization == "first_entry":
        return q / q[0, 0].real
    raise ValueError(f"unknown normalization {normalization!r}")


def correlation_matrix(K: KrausSet, rho0, normalization: str = "trace_balanced",
                       rank_tol: float = RANK_TOL) -> CorrelationData:
    """Correlation matrix of rho0 for the Kraus set, in the given normalization.

    Requires every diagonal raw entry to be positive (no operator may
    annihilate rho0) and the raw matrix to be nonsingular.
    """
    rho0 = check_state(rho0)
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    q = gram(K.ops @ rho0, K.ops)
    q = (q + dag(q)) / 2
    diag = np.diag(q).real
    if np.any(diag <= 1e-12):
        raise ValueError("a Kraus operator annihilates the state (zero diagonal entry)")
    if not rank_mask(np.linalg.eigvalsh(q), rank_tol).all():
        raise ValueError("correlation matrix is singular")
    return CorrelationData(Q=_normalize(q, normalization), normalization=normalization, raw=q)


def orthogonalize_kraus(K: KrausSet, rho0, tol: float = 1e-10):
    """Remix K so the correlation matrix of rho0 becomes diagonal.

    Returns (K', Qd, lambdas) with lambdas the raw eigenvalues in
    descending order and Qd the diagonal raw-normalized correlation
    data of the new set.

    Degenerate eigenvalues leave the basis free; within each tie block
    the basis is rotated so that a single column absorbs the component
    of the mean vector Tr(rho0 K_j) lying in the block, then every
    column's largest-modulus entry is made positive real.  This keeps
    the output deterministic and concentrates nonzero means on as few
    operators as the eigenspaces allow.
    """
    rho0 = check_state(rho0)
    cd = correlation_matrix(K, rho0, "raw")
    q = cd.raw
    lam, U = np.linalg.eigh(q)
    order = np.argsort(lam)[::-1]
    lam, U = lam[order].real, U[:, order]
    n = K.n
    groups = []
    start = 0
    for i in range(1, n + 1):
        if i == n or abs(lam[i] - lam[start]) > 1e-8 * max(1.0, abs(lam[start])):
            groups.append((start, i))
            start = i
    t = np.trace(rho0 @ K.ops, axis1=1, axis2=2)
    for a, b in groups:
        if b - a > 1:
            blockU = U[:, a:b]
            # mean of the remixed operator for column u is sum_j conj(u_j) t_j
            w = np.conj(np.conj(blockU).T @ t)
            if np.linalg.norm(w) > tol:
                R = symmetric_unitary_first_col(w / np.linalg.norm(w))
                U[:, a:b] = blockU @ R
    pivots = U[np.argmax(np.abs(U), axis=0), np.arange(n)]
    U = U / (pivots / np.abs(pivots))
    Kp = KrausSet(remix(K.ops, U))
    Qd = correlation_matrix(Kp, rho0, "raw")
    if not Qd.is_diagonal(tol):
        raise ValueError("orthogonalization failed to diagonalize the correlation matrix")
    return Kp, Qd, lam


def zero_mean_check(K: KrausSet, rho0) -> list[float]:
    """Absolute means |Tr(rho0 K_j)| of each operator.

    For an orthogonalized set at most one entry is expected above
    tolerance (the component along the identity, when present); the
    caller decides what to do when several survive.
    """
    rho0 = check_state(rho0)
    return np.abs(np.trace(rho0 @ K.ops, axis1=1, axis2=2)).tolist()


# ---------------------------------------------------------------------------
# level-m machinery


def _word_rows(n: int, *words):
    """(rows, m): the row of each word among the n^m words of its level, or
    None when the lengths differ.  A word is a Word or its 1-based letters."""
    letters = [tuple(w.letters) if hasattr(w, "letters") else tuple(w) for w in words]
    m = len(letters[0])
    if any(len(x) != m for x in letters):
        return None
    return [np.ravel_multi_index(tuple(k - 1 for k in x), (n,) * m) for x in letters], m


def trace_qm(Qd: CorrelationData, S: SubproductSystem, m: int) -> float:
    """Trace of Q_m = Q^(x)m p_m over the full m-fold tensor power."""
    return float(np.trace(S.weighted(Qd.Q, m).H).real)


def check_phi_symmetric(K: KrausSet, rho0, Qd: CorrelationData, S: SubproductSystem,
                        m: int, ordering: str = "normal",
                        tol: float = RESIDUAL_TOL) -> float:
    """Max deviation of the level-m correlations from the Q-determined values.

    normal ordering compares Tr(K_j rho0 K_k*) against Q_m[j,k]/Tr(Q_m);
    antinormal compares Tr(rho0 K_j K_k*) against p_m[j,k]/Tr(Q_m), over
    all pairs of length-m words.  Raises HypothesisFailure when Q^(x)m
    does not preserve the level subspace.
    """
    rho0 = check_state(rho0)
    V, QV, H = S.weighted(Qd.Q, m, tol)[:3]
    if ordering not in ("normal", "antinormal"):
        raise ValueError("ordering must be 'normal' or 'antinormal'")
    trq = float(np.trace(H).real)
    A = K.word_stack(m)
    if ordering == "normal":
        dev = gram(A @ rho0, A) - QV @ dag(V) / trq
    else:
        dev = gram(rho0 @ A, A) - V @ dag(V) / trq
    return float(np.max(np.abs(dev)))


def modular_flow(Qd: CorrelationData, S: SubproductSystem, word, t,
                 tol: float = RESIDUAL_TOL) -> np.ndarray:
    """Coefficients expanding the flowed word operator over length-m words.

    The flow at parameter t multiplies by Q_m**(-i t) on the level
    subspace; imaginary t gives the analytic continuation (t = -1j
    yields Q_m^{-1}).  Returns the coefficient row for the given word,
    aligned with the level's word list.
    """
    (a,), m = _word_rows(S.n, word)
    rec = S.weighted(Qd.Q, m, tol)
    return (rec.VU[a] * np.power(rec.w, -1j * complex(t))) @ dag(rec.VU)


def kms_state_eval(Qd: CorrelationData, S: SubproductSystem, j, k,
                   ordering: str = "normal") -> complex:
    """Value of the Q-weighted state on a normally or antinormally ordered pair.

    Words of unequal length evaluate to zero.  Equal length m gives
    Q_m[k,j]/Tr(Q_m) in normal ordering and p_m[j,k]/Tr(Q_m) in
    antinormal ordering.
    """
    rows = _word_rows(S.n, j, k)
    if rows is None:
        return 0.0 + 0.0j
    (a, b), m = rows
    V, QV, H = S.weighted(Qd.Q, m)[:3]
    trq = np.trace(H).real
    if ordering == "normal":
        return complex(QV[b] @ V[a].conj() / trq)
    if ordering == "antinormal":
        return complex(V[a] @ V[b].conj() / trq)
    raise ValueError("ordering must be 'normal' or 'antinormal'")


def kms_condition_residual(K: KrausSet, rho0, Qd: CorrelationData,
                           S: SubproductSystem, m: int,
                           tol: float = RESIDUAL_TOL) -> float:
    """Max violation of the exchange identity defining a KMS state.

    For every pair of equal-length words up to m, compares
    Tr(rho0 K_j K_k*) against Tr(rho0 K_k* sigma_{-i}(K_j)) with the
    flow continuation expanded through the level data.  Requires the
    normal-ordering correlations to match at every level first.
    """
    rho0 = check_state(rho0)
    mx = 0.0
    for mp in range(1, m + 1):
        norm_res = check_phi_symmetric(K, rho0, Qd, S, mp, "normal", tol)
        if norm_res > tol:
            raise HypothesisFailure(
                f"normal-ordered correlations fail at level {mp} (residual {norm_res:.3g})"
            )
        rec = S.weighted(Qd.Q, mp)
        A = K.word_stack(mp)
        # lhs[a, b] = Tr(rho0 K_a K_b*), rhs[a, b] = sum_r Qinv[a, r] Tr(rho0 K_b* K_r),
        # with Qinv = VU diag(1/w) VU* and VU* applied to the stack, not to the Gram
        lhs = gram(rho0 @ A, A)
        rhs = rec.VU @ (gram(remix(A, rec.VU) @ rho0, A) / rec.w[:, np.newaxis])
        mx = max(mx, float(np.max(np.abs(lhs - rhs))))
    return mx
