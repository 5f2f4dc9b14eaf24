"""Subproduct systems generated by a Kraus set.

Level m of the system is (V_m, T_m, B_m).  V_m is the n^m x r isometry
whose columns span the range of the word map: the column space of the
n^m x d^2 matrix A_m whose row a is the length-m Kraus product K_a of
word a of index_words(n, m), labelled on request.  The level projector
is p_m = V_m V_m*, and r <= d^2 is the rank.  B_m = V_m* A_m, an
(r, d, d) array, is the word stack compressed to the level.

The levels nest: range(p_{m+1}) sits inside range(p_m) (x) range(p_1),
so the tower is a tensor train and each level is built from the one
below it.  Level 1 is one SVD of the n x d^2 Kraus matrix.  For m >= 2
the r_{m-1} r_1 x d^2 matrix C of products B_{m-1}[i] B_1[j] satisfies
A_m = (V_{m-1} (x) V_1) C; its SVD cut by rank_mask gives the transfer
T_m (the kept left singular vectors) and B_m = T_m* C, so that
V_m = (V_{m-1} (x) V_1) T_m.  Since V_{m-1} (x) V_1 is an isometry, C
and A_m share their singular values, and with them the rank cuts, as
long as the cuts below dropped only zero singular values; a coarser
rank_tol builds level m from what the cut at level m - 1 kept, so the
levels stay nested.  No level reads a word stack or a d^2 x n^m matrix.

A weight Q enters a level only through Q_m = Q^(x)m p_m, and
SubproductSystem.weighted is the one place that forms it: one read-only
record per (level, Q) holds the mode products, the compression, the
compatibility residual and, on first use, the eigenpair, so the checks
of one verdict share them.  The checks read the words of a level through
B_m alone (SubproductSystem.stack): while the cuts dropped only round-off,
A_m = V_m B_m, so every word Gram is V_m (a Gram of B_m) V_m*.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channel import KrausSet, apply, minimal_kraus, require_word_budget, word_labels
from .errors import HypothesisFailure
from .matcore import (
    MAX_DIM,
    RANK_TOL,
    RESIDUAL_TOL,
    as_complex,
    dag,
    rank_mask,
    read_only,
    spectral_norm,
    svd_cut,
)


@dataclass(frozen=True)
class Level:
    """One level (V_m, T_m, B_m) of a subproduct system.

    For m >= 2, V_m = (V_{m-1} (x) V_1) T_m with the r_{m-1} r_1 x r
    transfer T_m; level 1 reads its letters directly, V_1 = (V_0 (x) 1_n) T_1
    with T_1 = V_1, and T_0 = V_0 = [[1]].  B_m = V_m* A_m is the compressed
    word stack (see the module docstring).
    V, T and B are read-only.  The level memoizes one Weighted record per
    weight Q (built by SubproductSystem.weighted), keyed by Q's dtype,
    shape and bytes, so a different Q never reads a stale entry.  The memo
    lives as long as the level.
    """

    V: np.ndarray  # n^m x rank isometry onto the level subspace
    T: np.ndarray  # transfer from the level below
    B: np.ndarray  # (rank, d, d) compressed word stack V* A_m
    n: int  # alphabet size; n = 1 leaves m unreadable from len(V)
    m: int  # word length
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("V", "T", "B"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

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


@dataclass(frozen=True, eq=False)
class Weighted:
    """Q_m = Q^(x)m p_m on one level, in level coordinates (SubproductSystem.weighted).

    V, QV, H and compat are formed with the record.  The eigenpair
    (U, w) of H in level coordinates, over the eigenvalues that rank_mask
    keeps, is formed on first access: only checks on a level that Q^(x)m
    preserves read it.  On such a level Q_m = (V U) diag(w) (V U)*.
    Every array is read-only.
    """

    V: np.ndarray  # the level isometry, n^m x r
    QV: np.ndarray  # Q^(x)m V
    H: np.ndarray  # V* Q^(x)m V
    compat: float  # ||[Q^(x)m, p_m]||, zero iff Q^(x)m preserves the level
    rank_tol: float  # the cut on the eigenvalues of H

    @functools.cached_property
    def _eig(self):
        w, U = np.linalg.eigh((self.H + dag(self.H)) / 2)
        keep = rank_mask(w, self.rank_tol)
        return read_only(U[:, keep]), read_only(w[keep])

    @property
    def U(self) -> np.ndarray:
        return self._eig[0]

    @property
    def w(self) -> np.ndarray:
        return self._eig[1]


@dataclass(frozen=True)
class SubproductSystem:
    n: int
    M: int
    rank_tol: float  # matcore.rank_mask's tolerance for every rank cut on the levels
    ops: np.ndarray  # the read-only Kraus array the levels were built from
    levels: dict = field(default_factory=dict)  # m -> Level

    def level(self, m: int) -> Level:
        if m not in self.levels:
            raise ValueError(f"level {m} not built (max {self.M})")
        return self.levels[m]

    def stack(self, K: KrausSet, m: int) -> np.ndarray:
        """B_m, for the Kraus set the system was built from; any other K raises ValueError."""
        if K.ops is not self.ops and not np.array_equal(K.ops, self.ops):
            raise ValueError("K is not the Kraus set the subproduct system was built from")
        return self.level(m).B

    def weighted(self, Q, m: int, tol: float | None = None) -> Weighted:
        """The level-m record of the weight Q, built once per Q and read-only.

        Q^(x)m is applied to V one tensor factor at a time (mode products),
        so the n^m x n^m power is never formed.  The two terms of the
        commutator, (1 - p) Q^(x)m p - p Q^(x)m (1 - p), map between
        orthogonal subspaces, so compat is the larger of
        ||(1 - p) (Q^(x)m)^(*) V||; a Q equal to its adjoint gives the same
        term twice.  H is diagonalized, and its eigenvalues cut at the
        system's rank_tol, only when the eigenpair is first read.  Every
        Q-weighted level-m quantity needs Q^(x)m to preserve the level:
        with tol, a compat above tol raises HypothesisFailure.
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
            compat = max(spectral_norm(X - L.V @ (dag(L.V) @ X)) for X in terms)
            L._memo[key] = Weighted(L.V, read_only(terms[0]), read_only(dag(L.V) @ terms[0]),
                                    compat, self.rank_tol)
        rec = L._memo[key]
        if tol is not None and rec.compat > tol:
            raise HypothesisFailure(
                f"Q^(x){m} does not preserve the level-{m} subspace (residual {rec.compat:.3g})"
            )
        return rec


def first_level(K: KrausSet, rank_tol: float = RANK_TOL) -> Level:
    """Level 1 of K's subproduct system, from one SVD of the n x d^2 Kraus matrix.

    Its rank is the number of linearly independent Kraus operators at
    rank_tol.
    """
    V, B = svd_cut(K.ops.reshape(K.n, -1), rank_tol)
    return Level(V, V, B.reshape(-1, K.d, K.d), K.n, 1)


def _next_level(below: Level, first: Level, rank_tol: float) -> Level:
    """Level m + 1 from level m and level 1 (see the module docstring)."""
    r0, r1, d = below.rank, first.rank, first.B.shape[1]
    C = (below.B[:, np.newaxis] @ first.B[np.newaxis]).reshape(r0 * r1, d * d)
    T, B = svd_cut(C, rank_tol)
    N, r = len(below.V), T.shape[1]  # r may be 0: a level of products that all vanish
    # (V_m (x) V_1) T: contract T's first index with V_m, then its second with V_1
    Y = (below.V @ T.reshape(r0, r1 * r)).reshape(N, r1, r)
    V = (first.V @ Y).reshape(N * first.n, r)
    return Level(V, T, B.reshape(r, d, d), first.n, below.m + 1)


def build_subproduct(K: KrausSet, M: int = 4, rank_tol: float = RANK_TOL,
                     max_dim: int = MAX_DIM) -> SubproductSystem:
    """Build levels 0..M of the subproduct system of K.

    K is reduced to a linearly independent set first when needed
    (minimal_kraus); the level-1 projector of the reduced set is then the
    full identity, and the system records the reduced set's operators.
    rank_tol decides which words span each level, and the system keeps
    it: every later rank cut on its levels uses the same tolerance.
    Each level above the first costs one SVD of an r_{m-1} r_1 x d^2
    matrix and two matrix products that form V_m; no word stack is built.
    """
    require_word_budget(K.n, M, max_dim)
    first = first_level(K, rank_tol)
    if first.rank < K.n:
        K = minimal_kraus(K, rank_tol)
        first = first_level(K, rank_tol)
        if first.rank < K.n:
            raise ValueError("level-1 dependence survived minimization")
    one = np.ones((1, 1), dtype=complex)
    levels = [Level(one, one, np.eye(K.d, dtype=complex)[np.newaxis], K.n, 0), first]
    while len(levels) <= M:
        levels.append(_next_level(levels[-1], first, rank_tol))
    return SubproductSystem(n=K.n, M=M, rank_tol=rank_tol, ops=K.ops,
                            levels=dict(enumerate(levels[:M + 1])))


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
    # D_m in level coordinates (p_m e_w -> V_m* e_w) is B_m, read as a (d, r, d) array
    D = S.level(m).B.transpose(1, 0, 2).reshape(-1, K.d)
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
