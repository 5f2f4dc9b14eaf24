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

import functools
from dataclasses import dataclass, field

import numpy as np

from .channel import KrausSet, gram, remix, symmetric_unitary_first_col
from .errors import HypothesisFailure
from .matcore import RANK_TOL, RESIDUAL_TOL, as_complex, dag, is_hermitian, rank_mask, spectral_norm
from .stinespring import SubproductSystem, check_Q_compatibility

NORMALIZATIONS = ("raw", "trace_balanced", "first_entry")


def check_state(rho, atol: float = 1e-12) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD, unit trace.

    Full rank is not required; a pure state is acceptable.  The last few
    states that passed are remembered by dtype, shape, exact bytes and
    atol, so validating an unchanged state again costs one comparison;
    an array written in place, or another atol, is validated afresh.
    """
    rho = np.asarray(rho, dtype=complex)
    _validate_state(rho.dtype.str, rho.shape, rho.tobytes(), atol)
    return rho


def require_state_size(K: KrausSet, rho0: np.ndarray) -> None:
    """Refuse a checked state that K's d x d operators cannot act on, naming both sizes."""
    if len(rho0) != K.d:
        raise ValueError(f"rho0 is {len(rho0)} x {len(rho0)} but the Kraus operators "
                         f"are {K.d} x {K.d}")


@functools.lru_cache(maxsize=8)
def _validate_state(dtype: str, shape: tuple, data: bytes, atol: float) -> None:
    """The checks of ``check_state``; a state that fails raises and is not remembered."""
    rho = as_complex(np.frombuffer(data, dtype).reshape(shape))
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("state must be a square matrix")
    if not np.array_equal(rho, dag(rho)) and not is_hermitian(rho, 1e-10):
        raise ValueError("state must be Hermitian")
    w = np.linalg.eigvalsh((rho + dag(rho)) / 2)
    if w[0] < -atol:
        raise ValueError(f"state has negative eigenvalue {w[0]:.3g}")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("state must have unit trace")


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


def _correlation(K: KrausSet, rho0, normalization: str = "raw", rank_tol: float = RANK_TOL):
    """``correlation_matrix`` for a checked rho0 and a known normalization."""
    q = gram(K.ops @ rho0, K.ops)
    q = (q + dag(q)) / 2
    if np.any(np.diag(q).real <= 1e-12):
        raise ValueError("a Kraus operator annihilates the state (zero diagonal entry)")
    if not rank_mask(np.linalg.eigvalsh(q), rank_tol).all():
        raise ValueError("correlation matrix is singular")
    return CorrelationData(Q=_normalize(q, normalization), normalization=normalization, raw=q)


def correlation_matrix(K: KrausSet, rho0, normalization: str = "trace_balanced",
                       rank_tol: float = RANK_TOL) -> CorrelationData:
    """Correlation matrix of rho0 for the Kraus set, in the given normalization.

    Requires every diagonal raw entry to be positive (no operator may
    annihilate rho0) and the raw matrix to be nonsingular.
    """
    rho0 = check_state(rho0)
    require_state_size(K, rho0)
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    return _correlation(K, rho0, normalization, rank_tol)


def orthogonalize_kraus(K: KrausSet, rho0, tol: float = 1e-10, rank_tol: float = RANK_TOL):
    """Remix K so the correlation matrix of rho0 becomes diagonal.

    Returns (K', Qd, lambdas) with lambdas the raw eigenvalues in
    descending order and Qd the diagonal raw-normalized correlation
    data of the new set.  rho0 is validated once, and the correlation
    matrices of K and K' pass the checks of ``correlation_matrix`` at
    rank_tol.

    Degenerate eigenvalues leave the basis free; within each tie block
    the basis is rotated so that a single column absorbs the component
    of the mean vector Tr(rho0 K_j) lying in the block, then every
    column's largest-modulus entry is made positive real.  This keeps
    the output deterministic and concentrates nonzero means on as few
    operators as the eigenspaces allow.
    """
    rho0 = check_state(rho0)
    require_state_size(K, rho0)
    lam, U = np.linalg.eigh(_correlation(K, rho0, rank_tol=rank_tol).raw)
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
    Qd = _correlation(Kp, rho0, rank_tol=rank_tol)
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
    require_state_size(K, rho0)
    return np.abs(np.trace(rho0 @ K.ops, axis1=1, axis2=2)).tolist()


# ---------------------------------------------------------------------------
# level-m machinery


def _word_letters(n: int, *words):
    """(letters, m): the 0-based letters of each word, or None when the lengths
    differ.  A word is a Word or its letters, in 1..n."""
    letters = [tuple(w.letters) if hasattr(w, "letters") else tuple(w) for w in words]
    bad = [k for x in letters for k in x if not 1 <= k <= n]
    if bad:
        raise ValueError(f"letter {bad[0]} is outside the alphabet 1..{n}")
    m = len(letters[0])
    if any(len(x) != m for x in letters):
        return None
    return [tuple(k - 1 for k in x) for x in letters], m


def trace_qm(Qd: CorrelationData, S: SubproductSystem, m: int) -> float:
    """Trace of Q_m = Q^(x)m p_m over the full m-fold tensor power."""
    return float(np.trace(S.weighted(Qd.Q, m).H).real)


ROW_BLOCK = 1 << 20  # entries of V E V* formed at once by _max_entry


def _max_entry(V: np.ndarray, E: np.ndarray) -> float:
    """max |V E V*| over the word pairs of a level, for an r x r E in level coordinates.

    Every word-pair residual of the verdict is read here, in row blocks of
    at most ROW_BLOCK entries, so no N x N word-pair matrix is held whole
    once N exceeds 1024.
    """
    Vh = dag(V)
    rows = max(1, ROW_BLOCK // len(V))
    return float(max(np.max(np.abs(V[i:i + rows] @ E @ Vh)) for i in range(0, len(V), rows)))


def _phi_residual(G: np.ndarray, rec, ordering: str = "normal") -> float:
    """Max entry of the word Gram V G V* (G a Gram of B) minus Q_m or p_m, over Tr(Q_m).

    Q_m is read as p_m Q^(x)m p_m = V H V*, which moves each entry by at
    most compat / Tr(Q_m) on the levels the checks accept.
    """
    tr = float(np.trace(rec.H).real)
    X = rec.H if ordering == "normal" else np.eye(len(rec.H))
    return _max_entry(rec.V, G - X / tr)


def _phi_normal(rec, g) -> float:
    """The normal-ordered residual of the state Grams g against rec's Q_m, formed once per pair."""
    res = g.phi_normal.get(rec)
    if res is None:
        res = g.phi_normal[rec] = _phi_residual(g.normal, rec)
    return res


def _kms_level(rec, g, tol: float) -> float:
    """The KMS residual of one level m, from its Weighted record rec and state Grams g.

    Raises HypothesisFailure when the normal-ordered residual exceeds tol.
    lhs = V g.antinormal V* and Qinv = V U diag(1/w) U* V*, so lhs minus
    Qinv times the normal-ordered word Gram V g.normal V* is V D V*.
    """
    norm_res = _phi_normal(rec, g)
    if norm_res > tol:
        raise HypothesisFailure(
            f"normal-ordered correlations fail at level {rec.level.m} (residual {norm_res:.3g})"
        )
    D = g.antinormal - rec.U @ (dag(rec.U) @ g.normal / rec.w[:, np.newaxis])
    return _max_entry(rec.V, D)


def check_phi_symmetric(K: KrausSet, rho0, Qd: CorrelationData, S: SubproductSystem,
                        m: int, ordering: str = "normal",
                        tol: float = RESIDUAL_TOL) -> float:
    """Max deviation of the level-m correlations from the Q-determined values.

    normal ordering compares Tr(K_j rho0 K_k*) against Q_m[j,k]/Tr(Q_m);
    antinormal compares Tr(rho0 K_j K_k*) against p_m[j,k]/Tr(Q_m), over
    all pairs of length-m words.  Raises HypothesisFailure when Q^(x)m
    does not preserve the level subspace, and ValueError when S was not
    built from K.  The words are read as A_m = V_m B_m, which holds while
    every rank cut at levels <= m dropped only round-off; when S's
    rank_tol makes a cut drop more, this is the residual of the projected
    words p_m A_m (q_sphere_residual stays exact at any rank_tol).  Both
    orderings read the level's Grams of rho0 from S (SubproductSystem.grams),
    formed once per level and state and shared with kms_condition_residual,
    which also reads the normal-ordered residual stored here.
    """
    rho0 = check_state(rho0)
    require_state_size(K, rho0)
    if ordering not in ("normal", "antinormal"):
        raise ValueError("ordering must be 'normal' or 'antinormal'")
    S.stack(K, m)  # refuses a K the system was not built from
    rec = S.weighted(Qd.Q, m, tol)
    g = S.grams(m, rho0)
    if ordering == "normal":
        return _phi_normal(rec, g)
    return _phi_residual(g.antinormal, rec, ordering)


def modular_flow(Qd: CorrelationData, S: SubproductSystem, word, t,
                 tol: float = RESIDUAL_TOL) -> np.ndarray:
    """Coefficients expanding the flowed word operator over length-m words.

    The flow at parameter t multiplies by Q_m**(-i t) on the level
    subspace; imaginary t gives the analytic continuation (t = -1j
    yields Q_m^{-1}).  Returns the coefficient row for the given word,
    aligned with the level's word list.
    """
    (x,), m = _word_letters(S.n, word)
    a = np.ravel_multi_index(x, (S.n,) * m)
    rec = S.weighted(Qd.Q, m, tol)
    VU = rec.V @ rec.U
    return (VU[a] * np.power(rec.w, -1j * complex(t))) @ dag(VU)


def kms_state_eval(Qd: CorrelationData, S: SubproductSystem, j, k,
                   ordering: str = "normal") -> complex:
    """Value of the Q-weighted state on a normally or antinormally ordered pair.

    Letters must lie in 1..n.  Words of unequal length evaluate to zero.
    Equal length m gives Q_m[k,j]/Tr(Q_m) in normal ordering and
    p_m[j,k]/Tr(Q_m) in antinormal ordering, from the rows of V_m and
    Q^(x)m V_m read through the level's train (Level.row).
    """
    words = _word_letters(S.n, j, k)
    if words is None:
        return 0.0 + 0.0j
    (a, b), m = words
    rec = S.weighted(Qd.Q, m)
    L = rec.level
    trq = np.trace(rec.H).real
    if ordering == "normal":
        return complex(L.row(b, Qd.Q) @ L.row(a).conj() / trq)
    if ordering == "antinormal":
        return complex(L.row(a) @ L.row(b).conj() / trq)
    raise ValueError("ordering must be 'normal' or 'antinormal'")


def kms_condition_residual(K: KrausSet, rho0, Qd: CorrelationData,
                           S: SubproductSystem, m: int,
                           tol: float = RESIDUAL_TOL) -> float:
    """Max violation of the exchange identity defining a KMS state.

    For every pair of equal-length words up to m, compares
    Tr(rho0 K_j K_k*) against Tr(rho0 K_k* sigma_{-i}(K_j)) with the
    flow continuation expanded through the level data.  At each level
    Q^(x)m must preserve the level and the normal-ordered Gram must
    match Q_m; it then gives the right side, Qinv times it, and the
    antinormal Gram the left.  The Grams and the normal-ordered residual
    are those check_phi_symmetric reads, formed once per level and state
    (SubproductSystem.grams).  Raises ValueError when S was not built
    from K.  Like check_phi_symmetric, it reads the words as
    A_m = V_m B_m: when S's rank_tol makes a cut drop more than
    round-off, this is the residual of the projected words p_m A_m.
    """
    rho0 = check_state(rho0)
    require_state_size(K, rho0)
    mx = 0.0
    for mp in range(1, m + 1):
        S.stack(K, mp)  # refuses a K the system was not built from
        mx = max(mx, _kms_level(S.weighted(Qd.Q, mp, tol), S.grams(mp, rho0), tol))
    return mx
