"""Subproduct systems generated by a Kraus set.

Level m of the system is (V_m, n, m): the n^m x r isometry whose columns
span the orthogonal complement of the kernel of the word map e_k ->
adjoint Kraus product inside the m-fold tensor power of the auxiliary
space; its row a is word a of index_words(n, m), labelled on request.
The level projector is p_m = V_m V_m*, and r <= d^2 is the rank.  The
levels nest: range(p_{m+l}) sits inside range(p_m) (x) range(p_l).

A weight Q enters a level only through Q_m = Q^(x)m p_m, and
SubproductSystem.weighted is the one place that forms it: one read-only
record per (level, Q) holds the mode products, the compression, the
eigenpair and the compatibility residual, so the checks of one verdict
share them.  The word stacks come from the Kraus set's own memo
(KrausSet.word_stack).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import KrausSet, apply, minimal_kraus, require_word_budget, word_labels
from .errors import HypothesisFailure
from .matcore import MAX_DIM, RANK_TOL, RESIDUAL_TOL, as_complex, dag, rank_mask, spectral_norm


@dataclass(frozen=True)
class Level:
    """One level (V_m, n, m) of a subproduct system.

    V is read-only.  The level memoizes one Weighted record per weight Q
    (built by SubproductSystem.weighted), keyed by Q's dtype, shape and
    bytes, so a different Q never reads a stale entry.  The memo lives as
    long as the level.
    """

    V: np.ndarray  # n^m x rank isometry onto the level subspace
    n: int  # alphabet size; n = 1 leaves m unreadable from len(V)
    m: int  # word length
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        V = self.V.view()
        V.flags.writeable = False
        object.__setattr__(self, "V", V)

    @property
    def words(self) -> tuple:
        """The 1-based Word labels indexing the rows of V, built on request."""
        return tuple(word_labels(self.n, self.m))

    @property
    def rank(self) -> int:
        return self.V.shape[1]

    @property
    def p(self) -> np.ndarray:
        """The dense level projector V V*, formed on request."""
        return self.V @ dag(self.V)

    def boundary_defect(self) -> float:
        """||p e_1 - e_1||: how far e_1^(x)m lies from the level subspace."""
        return float(np.linalg.norm(self.V @ self.V[0].conj() - np.eye(len(self.V), 1)[:, 0]))


class Weighted(NamedTuple):
    """Q_m = Q^(x)m p_m on one level, in level coordinates (SubproductSystem.weighted)."""

    V: np.ndarray  # the level isometry, n^m x r
    QV: np.ndarray  # Q^(x)m V
    H: np.ndarray  # V* Q^(x)m V
    VU: np.ndarray  # Q_m = VU diag(w) VU*, over the eigenvalues rank_mask keeps
    w: np.ndarray
    compat: float  # ||[Q^(x)m, p_m]||, zero iff Q^(x)m preserves the level


@dataclass(frozen=True)
class SubproductSystem:
    n: int
    M: int
    rank_tol: float  # matcore.rank_mask's tolerance for every rank cut on the levels
    levels: dict = field(default_factory=dict)  # m -> Level

    def level(self, m: int) -> Level:
        if m not in self.levels:
            raise ValueError(f"level {m} not built (max {self.M})")
        return self.levels[m]

    def weighted(self, Q, m: int, tol: float | None = None) -> Weighted:
        """The level-m record of the weight Q, built once per Q and read-only.

        Q^(x)m is applied to V one tensor factor at a time (mode products),
        so the n^m x n^m power is never formed.  H is diagonalized once and
        its eigenvalues are cut at the system's rank_tol.  The two terms of
        the commutator, (1 - p) Q^(x)m p - p Q^(x)m (1 - p), map between
        orthogonal subspaces, so compat is the larger of
        ||(1 - p) (Q^(x)m)^(*) V||; a Q equal to its adjoint gives the same
        term twice.  Every Q-weighted level-m quantity needs Q^(x)m to
        preserve the level: with tol, a compat above tol raises
        HypothesisFailure.
        """
        Q = as_complex(Q)
        if Q.shape != (self.n, self.n):
            raise ValueError(f"Q is {Q.shape[0]} x {Q.shape[1]} but the subproduct system's "
                             f"alphabet has size {self.n}")
        L = self.level(m)
        key = (Q.dtype.str, Q.shape, Q.tobytes())
        if key not in L._memo:
            terms = []
            for P in (Q,) if np.array_equal(Q, dag(Q)) else (Q, dag(Q)):
                X = L.V
                for k in range(m):
                    X = (P @ X.reshape(self.n ** k, self.n, -1)).reshape(L.V.shape)
                terms.append(X)
            H = dag(L.V) @ terms[0]
            w, U = np.linalg.eigh((H + dag(H)) / 2)
            keep = rank_mask(w, self.rank_tol)
            compat = max(spectral_norm(X - L.V @ (dag(L.V) @ X)) for X in terms)
            rec = Weighted(L.V, terms[0], H, L.V @ U[:, keep], w[keep], compat)
            for X in rec[1:5]:
                X.flags.writeable = False
            L._memo[key] = rec
        rec = L._memo[key]
        if tol is not None and rec.compat > tol:
            raise HypothesisFailure(
                f"Q^(x){m} does not preserve the level-{m} subspace (residual {rec.compat:.3g})"
            )
        return rec


def _level_isometry(K: KrausSet, m: int, rank_tol: float) -> np.ndarray:
    A = dag(K.word_stack(m)).reshape(K.n ** m, -1).T  # d^2 x n^m
    _, s, Vh = np.linalg.svd(A, full_matrices=False)
    return dag(Vh[rank_mask(s, rank_tol)])


def build_subproduct(K: KrausSet, M: int = 4, rank_tol: float = RANK_TOL,
                     max_dim: int = MAX_DIM) -> SubproductSystem:
    """Build levels 0..M of the subproduct system of K.

    K is reduced to a linearly independent set first when needed; the
    level-1 projector of the reduced set is then the full identity.
    rank_tol decides which words span each level, and the system keeps
    it: every later rank cut on its levels uses the same tolerance.
    """
    require_word_budget(K.n, M, max_dim)
    if _level_isometry(K, 1, rank_tol).shape[1] < K.n:
        K = minimal_kraus(K, rank_tol)
        if _level_isometry(K, 1, rank_tol).shape[1] < K.n:
            raise ValueError("level-1 dependence survived minimization")
    levels = {m: Level(_level_isometry(K, m, rank_tol), K.n, m) for m in range(M + 1)}
    return SubproductSystem(n=K.n, M=M, rank_tol=rank_tol, levels=levels)


def check_subproduct_inclusion(S: SubproductSystem, m: int, l: int) -> float:
    """Residual of range(p_{m+l}) within range(p_m (x) p_l)."""
    W = np.kron(S.level(m).V, S.level(l).V)
    V = S.level(m + l).V
    return spectral_norm(V - W @ (dag(W) @ V))


def check_Q_compatibility(S: SubproductSystem, Q: np.ndarray, m: int) -> float:
    """Norm of the commutator of the m-fold power of Q with p_m.

    Zero certifies that Q^{(x)m} preserves the level-m subspace, the
    standing hypothesis of every Q-weighted level-m quantity.  Read from
    the level's weighted record, so memoized on the level per Q.
    """
    return S.weighted(Q, m).compat


def verify_power_dilation(K: KrausSet, S: SubproductSystem, m: int, A: np.ndarray,
                          tol: float = RESIDUAL_TOL) -> float:
    """Residual of the level-m dilation identity D_m*(A (x) 1)D_m = Phi^m(A).

    D_m maps xi to the sum over words of K_w xi (x) p_m e_w.  Requires
    the reference vector e_1^{(x)m} to lie in the level-m subspace;
    otherwise a HypothesisFailure is raised (the first-column reading of
    the blocks is not available).  The Gram whitening of D_m cuts its
    eigenvalues at the system's rank_tol.
    """
    A = as_complex(A)
    defect = S.level(m).boundary_defect()
    if defect > tol:
        raise HypothesisFailure(
            f"e_1^(x){m} not in the level-{m} subspace (defect {defect:.3g})"
        )
    # D_m in level coordinates (p_m e_w -> V_m* e_w) as a (d, r, d) array
    V = S.level(m).V
    D = (dag(V) @ K.word_stack(m).reshape(V.shape[0], -1)).reshape(-1, K.d, K.d)
    D = D.transpose(1, 0, 2).reshape(-1, K.d)
    # whiten with the Gram pseudo-inverse square root (a no-op when D_m
    # is already an isometry, which the word relations guarantee)
    G = dag(D) @ D
    wG, UG = np.linalg.eigh((G + dag(G)) / 2)
    keep = rank_mask(wG, S.rank_tol)
    D = D @ ((UG[:, keep] * (1.0 / np.sqrt(wG[keep]))) @ dag(UG[:, keep]))
    lhs = dag(D) @ (A @ D.reshape(K.d, -1)).reshape(D.shape)
    rhs = A.copy()
    for _ in range(m):
        rhs = apply(K, rhs, "heisenberg")
    return spectral_norm(lhs - rhs)
