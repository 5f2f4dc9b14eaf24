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
from typing import NamedTuple

import numpy as np

from .channel import KrausSet, gram, remix, require_word_length, symmetric_unitary_first_col
from .errors import HypothesisFailure
from .matcore import (RANK_TOL, RESIDUAL_TOL, as_complex, dag, frobenius_norm, is_hermitian,
                      rank_mask, spectral_norm)
from .stinespring import SubproductSystem, _sphere, eigenpairs, level_power

def check_state(rho, atol: float = 1e-12, *, d: int | None = None) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD, unit trace, and d x d when d is given.

    The one check of a state for a Kraus set is check_state(rho0, d=K.d):
    a state of another size is refused with a message naming both sizes.
    Full rank is not required; a pure state is acceptable.  The last few
    states that passed are remembered by dtype, shape, exact bytes and
    atol (not d: the size is read after the memo), so validating an
    unchanged state again costs one comparison; an array written in
    place, or another atol, is validated afresh.
    """
    rho = np.asarray(rho, dtype=complex)
    _validate_state(rho.dtype.str, rho.shape, rho.tobytes(), atol)
    if d is not None and len(rho) != d:
        raise ValueError(f"rho0 is {len(rho)} x {len(rho)} but the Kraus operators are {d} x {d}")
    return rho


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
        """||off||_2 <= tol max(1, ||Q||_2), for off the off-diagonal part of Q.

        ||off||_2 <= ||off||_F and max |Q_ii| <= ||Q||_2, so an off within
        tol max(1, max |Q_ii|) in Frobenius norm passes without an SVD.
        """
        off = self.Q - np.diag(np.diag(self.Q))
        return (frobenius_norm(off) <= tol * max(1.0, np.abs(np.diag(self.Q)).max())
                or spectral_norm(off) <= tol * max(1.0, spectral_norm(self.Q)))

    def attach_levels(self, S: SubproductSystem):
        """Record the compat residual of every level of S, replacing any earlier record.

        The first S.weighted call for this Q weighs the whole tower in one pass.
        """
        self.compat_residuals = {m: S.weighted(self.Q, m).compat for m in range(1, S.M + 1)}

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


def _checked(q: np.ndarray) -> np.ndarray:
    """A raw correlation q, hermitized, once no diagonal entry vanishes."""
    q = (q + dag(q)) / 2
    if np.any(np.diag(q).real <= 1e-12):
        raise ValueError("a Kraus operator annihilates the state (zero diagonal entry)")
    return q


def _require_nonsingular(eigenvalues: np.ndarray, rank_tol: float) -> None:
    """Refuse a correlation matrix that rank_mask cuts, naming rank_tol and what it keeps."""
    keep = rank_mask(eigenvalues, rank_tol)
    if not keep.all():
        raise ValueError(f"correlation matrix is singular at rank_tol={rank_tol:g}: it keeps "
                         f"{keep.sum()} of its {keep.size} eigenvalues")


def correlation_matrix(K: KrausSet, rho0, normalization: str = "trace_balanced",
                       rank_tol: float = RANK_TOL) -> CorrelationData:
    """Correlation matrix of rho0 for the Kraus set, in the given normalization.

    Requires every diagonal raw entry to be positive (no operator may
    annihilate rho0) and the raw matrix to be nonsingular; an unknown
    normalization is refused by _normalize.
    """
    rho0 = check_state(rho0, d=K.d)
    q = _checked(gram(K.ops @ rho0, K.ops))
    _require_nonsingular(np.linalg.eigvalsh(q), rank_tol)
    return CorrelationData(Q=_normalize(q, normalization), normalization=normalization, raw=q)


def orthogonalize_kraus(K: KrausSet, rho0, tol: float = 1e-10, rank_tol: float = RANK_TOL):
    """Remix K so the correlation matrix of rho0 becomes diagonal.

    Returns (K', Qd, lambdas) with lambdas the raw eigenvalues in
    descending order and Qd the diagonal raw-normalized correlation
    data of the new set.  rho0 is validated once, and the correlation
    matrices of K and K' pass the checks of ``correlation_matrix`` at
    rank_tol.  One correlation q of K is formed: its eigh gives the
    remix U and the rank decision, and K'_r = sum_j conj(U[j, r]) K_j
    has correlation Tr(K'_r rho0 K'_s*) = (U* q U)_rs, with q's spectrum.

    Degenerate eigenvalues leave the basis free; within each tie block
    the basis is rotated so that a single column absorbs the component
    of the mean vector Tr(rho0 K_j) lying in the block, then every
    column's largest-modulus entry is made positive real.  This keeps
    the output deterministic and concentrates nonzero means on as few
    operators as the eigenspaces allow.  A tie block holds the
    eigenvalues within tol of its largest, relative to it, so a rotation
    inside it moves an off-diagonal entry of the new correlation by at
    most tol lam <= tol Tr q, within what is_diagonal(tol) accepts.
    """
    rho0 = check_state(rho0, d=K.d)
    q = _checked(gram(K.ops @ rho0, K.ops))
    lam, U = np.linalg.eigh(q)
    _require_nonsingular(lam, rank_tol)
    order = np.argsort(lam)[::-1]
    lam, U = lam[order].real, U[:, order]
    n = K.n
    groups = []
    start = 0
    for i in range(1, n + 1):
        if i == n or abs(lam[i] - lam[start]) > tol * abs(lam[start]):
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
    qd = _checked(dag(U) @ q @ U)
    Qd = CorrelationData(Q=_normalize(qd, "raw"), normalization="raw", raw=qd)
    if not Qd.is_diagonal(tol):
        raise ValueError("orthogonalization failed to diagonalize the correlation matrix")
    return Kp, Qd, lam


def zero_mean_check(K: KrausSet, rho0) -> list[float]:
    """Absolute means |Tr(rho0 K_j)| of each operator.

    For an orthogonalized set at most one entry is expected above
    tolerance (the component along the identity, when present); the
    caller decides what to do when several survive.
    """
    rho0 = check_state(rho0, d=K.d)
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


ROW_BLOCK = 1 << 20  # entries of V Es V* formed at once by _max_entries, over the whole stack


def _max_entries(V: np.ndarray, Es: np.ndarray) -> np.ndarray:
    """max |V E V*| over the word pairs of a level, for each r x r E of a (k, r, r) stack Es.

    Every word-pair residual is read here, from one product V[rows] Es V*
    per block of rows.  A block forms at most ROW_BLOCK entries over the
    whole stack (or one row, when even that exceeds it), so no N x N
    word-pair matrix is held whole once k N^2 exceeds ROW_BLOCK.
    """
    N, Vh = len(V), dag(V)
    rows = max(1, ROW_BLOCK // (len(Es) * N))
    blocks = (V[i:i + rows] for i in range(0, N, rows))
    return functools.reduce(np.maximum, (np.abs(X @ Es @ Vh).max(axis=(1, 2)) for X in blocks))


def _compat_hypothesis(m: int, compat: float, tol: float) -> HypothesisFailure | None:
    """The HypothesisFailure that refuses level m, if its compat exceeds tol.

    The one owner of the hypothesis of every Q-weighted level-m check:
    Q^(x)m preserves level m.
    """
    if compat > tol:
        return HypothesisFailure(f"Q^(x){m} does not preserve the level-{m} subspace "
                                 f"(residual {compat:.3g})")
    return None


class _LevelRead(NamedTuple):
    """What _read_levels reads of one level; a level it refuses is not read."""

    failure: Exception | None  # what refuses the level, None where the level is read
    residuals: np.ndarray | None  # normal phi, antinormal phi and KMS maxima; None without a state
    defect: tuple | None  # (eigenvalues, eigenvectors) of the Hermitian part of the sphere defect


def _read_levels(S: SubproductSystem, Q: np.ndarray, ms, tol: float,
                 rho0: np.ndarray | None = None) -> dict:
    """m -> _LevelRead for every level m of ms, read in batched calls per level rank.

    The reader judges each level's record S.weighted(Q, m) by
    _compat_hypothesis, as _level_power judges its one level, and a level
    that Q^(x)m does not preserve reads _LevelRead(failure, None, None)
    and nothing else.  On the others Q_m = V H V*, and
    P = level_power(eigenpairs, -1) inverts H on the whole level, so
    V P V* inverts Q_m there; a level whose H is not invertible at
    round-off reads _LevelRead(refusal, None, None) with the ValueError
    of eigenpairs.  The failure is the exception the one-level readers
    raise, and its message stands for the level in the verdict.
    The first S.weighted call for Q weighs every level of S in one pass.
    The levels of one rank share one stacked eigh of their H's and one
    word stack B; with a state rho0, the Grams G_n = gram(B rho0, B) and
    G_a = gram(rho0 B, B) (V G V* is the word Gram while the cuts dropped
    only round-off), and each level reads max |V E V*| for
    E = G_n - H/Tr H (normal phi), G_a - 1/Tr H (antinormal phi) and
    G_a - P G_n (KMS) from one _max_entries call.  Reading Q_m as
    p_m Q^(x)m p_m moves each phi entry by at most compat / Tr(Q_m).  The
    d x d sphere defects _sphere(P, B) - 1 of the levels of every rank
    share one stacked eigh.
    Every stacked call works on each level alone, so a level reads the
    same bits in its rank group as in a call of its own.
    """
    groups, out = {}, {}
    for m in ms:
        rec = S.weighted(Q, m)
        out[m] = _LevelRead(_compat_hypothesis(m, rec.compat, tol), None, None)
        if out[m].failure is None:  # read below, in the group of its rank
            groups.setdefault(rec.level.rank, []).append(rec)
    read, spheres = [], []  # (record, residuals) per read level; _sphere(P, B) per rank group
    for group in groups.values():
        U, w, refusals = eigenpairs(group)
        if any(refusals):  # a level whose H is not invertible is marked, not read
            out.update((rec.level.m, _LevelRead(refusal, None, None))
                       for rec, refusal in zip(group, refusals) if refusal is not None)
            keep = [refusal is None for refusal in refusals]
            group, U, w = [rec for rec, k in zip(group, keep) if k], U[keep], w[keep]
            if not group:
                continue
        P = level_power(U, w, -1)
        B = np.array([rec.level.B for rec in group])
        spheres.append(_sphere(P, B))
        residuals = [None] * len(group)
        if rho0 is not None:
            H = np.array([rec.H for rec in group])
            tr = w.sum(1)[:, np.newaxis, np.newaxis]  # Tr H, as the sum of its eigenvalues
            G_n, G_a = gram(B @ rho0, B), gram(rho0 @ B, B)
            Es = np.empty((len(group), 3) + G_n.shape[1:], dtype=complex)
            Es[:, 0] = G_n - H / tr
            Es[:, 1] = G_a - np.eye(G_a.shape[-1]) / tr
            Es[:, 2] = G_a - P @ G_n
            residuals = [_max_entries(rec.level.V, E) for rec, E in zip(group, Es)]
        read += zip(group, residuals)
    if read:  # every sphere defect is d x d, whatever the rank: one stacked eigh
        R = np.concatenate(spheres)
        defects = zip(*np.linalg.eigh((R + dag(R)) / 2 - np.eye(R.shape[-1])))
        for (rec, res), defect in zip(read, defects):
            out[rec.level.m] = _LevelRead(None, res, defect)
    return out


def _level_power(S: SubproductSystem, Q: np.ndarray, m: int, z, tol: float) -> tuple:
    """(record, P) for level m of S weighed by Q, with V P V* = Q_m^z on the level.

    The reader of one function of Q_m, as _read_levels reads the inverse
    on many levels: it raises the HypothesisFailure of _compat_hypothesis
    on a level Q^(x)m does not preserve, and then the ValueError of
    eigenpairs on a level whose H_m is not invertible at round-off.  P is
    level_power(eigenpairs, z) over every eigenvalue of H_m.
    """
    rec = S.weighted(Q, m)
    failure = _compat_hypothesis(m, rec.compat, tol)
    if failure is not None:
        raise failure
    U, w, (refusal,) = eigenpairs([rec])
    if refusal is not None:
        raise refusal
    (P,) = level_power(U, w, z)
    return rec, P


def _read_level(K: KrausSet, S: SubproductSystem, Q: np.ndarray, m, tol: float,
                rho0: np.ndarray | None = None) -> _LevelRead:
    """Level m of _read_levels, read alone, for the system built from K.

    An m that is not an integer and a K the system was not built from
    raise ValueError, and a level the reader refuses raises what refuses
    it: the HypothesisFailure of a level Q^(x)m does not preserve, the
    ValueError of a level whose H_m is not invertible at round-off.
    """
    S.stack(K, m)  # refuses a K the system was not built from, and an m that is not an integer
    read = _read_levels(S, Q, [m], tol, rho0)[m]
    if read.failure is not None:
        raise read.failure
    return read


def _kms_condition(read: dict, tol: float) -> float | Exception:
    """The KMS maximum over the levels of read, or the exception that stops it.

    read holds _read_levels of levels 1, 2, ....  The first hypothesis
    that fails in level order stops the maximum: the reader reads level
    m (Q^(x)m preserves it and H_m is invertible), and then its
    normal-ordered residual is within tol.
    """
    mx = 0.0
    for m in sorted(read):
        if read[m].failure is not None:
            return read[m].failure
        normal, _, kms = read[m].residuals
        if normal > tol:
            return HypothesisFailure(f"normal-ordered correlations fail at level {m} "
                                     f"(residual {normal:.3g})")
        mx = max(mx, float(kms))
    return mx


def check_phi_symmetric(K: KrausSet, rho0, Qd: CorrelationData, S: SubproductSystem,
                        m: int, ordering: str = "normal",
                        tol: float = RESIDUAL_TOL) -> float:
    """Max deviation of the level-m correlations from the Q-determined values.

    normal ordering compares Tr(K_j rho0 K_k*) against Q_m[j,k]/Tr(Q_m);
    antinormal compares Tr(rho0 K_j K_k*) against p_m[j,k]/Tr(Q_m), over
    all pairs of length-m words.  Raises HypothesisFailure when Q^(x)m
    does not preserve the level subspace (_compat_hypothesis), and
    ValueError when S was not built from K or m is not an integer.  The
    words are read as
    A_m = V_m B_m, which holds while every rank cut at levels <= m
    dropped only round-off; when S's rank_tol makes a cut drop more, this
    is the residual of the projected words p_m A_m (q_sphere_residual
    stays exact at any rank_tol).  Both orderings are read by
    _read_level, that is _read_levels on [m], the reader the verdict
    calls once on all its levels; a level reads the same bits alone as in
    the verdict's rank group, so a verdict record equals this check's
    value or message.
    """
    rho0 = check_state(rho0, d=K.d)
    if ordering not in ("normal", "antinormal"):
        raise ValueError("ordering must be 'normal' or 'antinormal'")
    residuals = _read_level(K, S, Qd.Q, m, tol, rho0).residuals
    return float(residuals[0 if ordering == "normal" else 1])


def modular_flow(Qd: CorrelationData, S: SubproductSystem, word, t,
                 tol: float = RESIDUAL_TOL) -> np.ndarray:
    """Coefficients expanding the flowed word operator over length-m words.

    The flow at parameter t multiplies by Q_m**(-i t) on the level
    subspace; imaginary t gives the analytic continuation (t = -1j
    yields Q_m^{-1}).  Returns the coefficient row for the given word,
    aligned with the level's word list: row a of V P V*, for V the level
    isometry and P = Q_m^(-it) read by _level_power over every eigenvalue
    of H_m.  Raises HypothesisFailure when Q^(x)m does not preserve the
    level (_compat_hypothesis), and ValueError when H_m is not invertible
    at round-off (eigenpairs).
    """
    (x,), m = _word_letters(S.n, word)
    a = np.ravel_multi_index(x, (S.n,) * m)
    rec, P = _level_power(S, Qd.Q, m, -1j * complex(t), tol)
    return rec.level.V[a] @ P @ dag(rec.level.V)


def kms_state_eval(Qd: CorrelationData, S: SubproductSystem, j, k,
                   ordering: str = "normal") -> complex:
    """Value of the Q-weighted state on a normally or antinormally ordered pair.

    Letters must lie in 1..n.  Words of unequal length evaluate to zero.
    Equal length m gives Q_m[k,j]/Tr(Q_m) in normal ordering and
    p_m[j,k]/Tr(Q_m) in antinormal ordering, from the rows of V_m and
    Q^(x)m V_m read through the level's train (Level.row).  An unknown
    ordering raises ValueError, whatever the lengths.
    """
    if ordering not in ("normal", "antinormal"):
        raise ValueError("ordering must be 'normal' or 'antinormal'")
    words = _word_letters(S.n, j, k)
    if words is None:
        return 0.0 + 0.0j
    (a, b), m = words
    rec = S.weighted(Qd.Q, m)
    L = rec.level
    trq = np.trace(rec.H).real
    if ordering == "normal":
        return complex(L.row(b, Qd.Q) @ L.row(a).conj() / trq)
    return complex(L.row(a) @ L.row(b).conj() / trq)


def kms_condition_residual(K: KrausSet, rho0, Qd: CorrelationData,
                           S: SubproductSystem, m: int,
                           tol: float = RESIDUAL_TOL) -> float:
    """Max violation of the exchange identity defining a KMS state.

    For every pair of equal-length words up to m, compares
    Tr(rho0 K_j K_k*) against Tr(rho0 K_k* sigma_{-i}(K_j)) with the
    flow continuation expanded through the level data.  At each level
    Q^(x)m must preserve the level and the normal-ordered Gram must
    match Q_m; it then gives the right side, Qinv times it, and the
    antinormal Gram the left.  Levels 1..m are read by one _read_levels
    call, the reader check_phi_symmetric and the verdict call, so the
    normal-ordered residual it tests is check_phi_symmetric's.  The first
    failure in level order raises: HypothesisFailure, or the ValueError
    of a level whose H_m is not invertible at round-off.  m must be an
    integer >= 1.  Raises ValueError when S was not built from K.  Like
    check_phi_symmetric, it reads the words as A_m = V_m B_m: when S's
    rank_tol makes a cut drop more than round-off, this is the residual
    of the projected words p_m A_m.
    """
    rho0 = check_state(rho0, d=K.d)
    m = require_word_length(m, "m", least=1)
    S.stack(K, m)  # refuses a K the system was not built from
    kms = _kms_condition(_read_levels(S, Qd.Q, range(1, m + 1), tol, rho0), tol)
    if isinstance(kms, Exception):
        raise kms
    return kms
