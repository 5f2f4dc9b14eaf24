"""Subproduct systems generated by a Kraus set.

Level m of the system is the r_{m-1} r_1 x r transfer T_m and the
compressed word stack B_m, linked to levels m - 1 and 1.  Together they
fix V_m, the n^m x r isometry whose columns span the range of the word
map: the column space of the n^m x d^2 matrix A_m whose row a is the
length-m Kraus product K_a of word a of index_words(n, m), labelled on
request.  The level projector is p_m = V_m V_m*, and r <= d^2 is the
rank.  B_m = V_m* A_m, an (r, d, d) array, is the word stack compressed
to the level.

The levels nest: range(p_{m+1}) sits inside range(p_m) (x) range(p_1),
so the tower is a tensor train and each level is built from the one
below it.  Level 1 is one SVD of the n x d^2 Kraus matrix, T_1 = V_1.
For m >= 2 the r_{m-1} r_1 x d^2 matrix C of products B_{m-1}[i] B_1[j]
satisfies A_m = (V_{m-1} (x) V_1) C; its SVD cut by rank_mask gives the
transfer T_m (the kept left singular vectors) and B_m = T_m* C, so that
V_m = (V_{m-1} (x) V_1) T_m.  Since V_{m-1} (x) V_1 is an isometry, C
and A_m share their singular values, and with them the rank cuts, as
long as the cuts below dropped only zero singular values; a coarser
rank_tol builds level m from what the cut at level m - 1 kept, so the
levels stay nested.  The build forms no word-space row: V_m is that
product expanded on first read (Level.V) and then kept.

A weight Q enters a level only through Q_m = Q^(x)m p_m, and
SubproductSystem.weighted is the one place that forms it, in r x r train
coordinates.  With H_m = V_m* Q^(x)m V_m and Q^(x)m V_m =
(Q^(x)(m-1) V_{m-1} (x) Q V_1) T_m,

    H_m = T_m* (H_{m-1} (x) H_1) T_m,
    G_m = Y* Y + T_m* (G_{m-1} (x) H_1* H_1) T_m,
    Y   = (1 - T_m T_m*) (H_{m-1} (x) H_1) T_m,

where G_m is the Gram of the out-of-level part (1 - p_m) Q^(x)m V_m.
The out-of-level part splits into (V_{m-1} (x) V_1) Y, inside
range(p_{m-1}) (x) range(p_1), and the carried part from level m - 1,
orthogonal to it.  The recursion needs p_1 = 1, which holds because
build_subproduct minimizes the Kraus set, so G_1 = 0 up to round-off
(level 1 takes the same step from level 0, with Q in place of H_1).  The
Gram is carried, not recomputed as a difference of Grams, so a level
that Q^(x)m preserves reads compat at round-off, not at sqrt(eps).  The
residual ||[Q^(x)m, p_m]|| is sqrt(lambda_max(G_m)), the larger of its
values for Q and Q*.  Every (x) is two mode products on T_m's
(r_{m-1}, r_1, r) reshape.  Each (level, Q) record is built once and
read-only, so the checks of one verdict share it.  The checks read the
words of a level through B_m alone (SubproductSystem.stack): while the
cuts dropped only round-off, A_m = V_m B_m, so every word Gram is
V_m (a Gram of B_m) V_m*, and the two Grams of B_m with a state are built
once per level and state (SubproductSystem.grams).  On a level that
Q^(x)m preserves, Q_m = V_m H_m V_m*, so every word-pair residual is
max |V_m E V_m*| for an r x r E, read in row blocks
(equilibrium._max_entry); V_m is the only word-space array a check
expands.  A single row of V_m or Q^(x)m V_m, and the boundary defect of
e_1^(x)m, are read through the train (Level.row, Level.boundary_defect),
with no word-space row.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    KrausSet,
    apply,
    gram,
    minimal_kraus,
    require_word_budget,
    require_word_length,
)
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


def _letter_product(F: np.ndarray, T: np.ndarray, r0: int) -> np.ndarray:
    """(1_{r0} (x) F) T, the mode product of F with T's middle index, as an r0 x len(F) r matrix."""
    r = T.shape[1]
    return (F @ T.reshape(r0, F.shape[1], r)).reshape(r0, len(F) * r)


def _expand(X: np.ndarray, F: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The word-space rows (X (x) F) T = (X (x) 1)(1 (x) F) T of a level, formed only when read."""
    return read_only((X @ _letter_product(F, T, X.shape[1])).reshape(len(X) * len(F), T.shape[1]))


@dataclass(frozen=True)
class Level:
    """One level (T_m, B_m) of a subproduct system, linked to levels m - 1 and 1.

    For m >= 2, V_m = (V_{m-1} (x) V_1) T_m with the r_{m-1} r_1 x r
    transfer T_m; level 1 reads its letters directly, V_1 = T_1, and
    T_0 = V_0 = [[1]], so levels 0 and 1 link to no other level.
    B_m = V_m* A_m is the compressed word stack (see the module
    docstring).  V is expanded from the train on first read and kept;
    T, B and V are read-only.  row and boundary_defect read the train
    without expanding V.
    """

    T: np.ndarray  # transfer from the level below
    B: np.ndarray  # (rank, d, d) compressed word stack V* A_m
    n: int  # alphabet size; n = 1 leaves m unreadable from len(V)
    m: int  # word length
    below: Level | None = field(default=None, repr=False, compare=False)  # level m - 1
    first: Level | None = field(default=None, repr=False, compare=False)  # level 1

    def __post_init__(self):
        for name in ("T", "B"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    @functools.cached_property
    def V(self) -> np.ndarray:
        """The n^m x rank isometry onto the level subspace."""
        if self.below is None:
            return self.T
        return _expand(self.below.V, self.first.V, self.T)

    @property
    def rank(self) -> int:
        return self.T.shape[1]

    def row(self, word, F: np.ndarray | None = None) -> np.ndarray:
        """Row `word` of V, or with an n x n F of F^(x)m V, read through the train.

        word holds m 0-based letters.  V_m[a] = (V_{m-1}[a'] (x) V_1[a_m]) T_m,
        with a' the word without its last letter, and F^(x)m V_m follows the
        same recursion from the rows of F V_1, so a row costs O(m r^2) and no
        word-space row is expanded.
        """
        if self.m == 0:  # the empty word, weighted by F^(x)0 = 1
            return self.T[0]
        if self.below is None:  # level 1, where V_1 = T_1
            return self.T[word[0]] if F is None else F[word[0]] @ self.T
        x = np.outer(self.below.row(word[:-1], F), self.first.row(word[-1:], F))
        return x.ravel() @ self.T

    @functools.cached_property
    def _origin(self) -> tuple:
        """(V[0], ||(1 - p) e_1||^2), from the same quantities of levels m - 1 and 1.

        With x = V_{m-1}[0] (x) V_1[0], V[0] = x T.  e_1^(x)m splits into its
        parts outside p_{m-1} (x) p_1, inside it but outside p, and inside p,
        so with a, b the squared defects of levels m - 1 and 1 the squared
        defect is a + b - ab + ||(1 - T T*) x*||^2.  Levels 0 and 1 read
        x = e_1 and a = b = 0.
        """
        if self.below is None:
            x, base = np.eye(1, len(self.T))[0].astype(complex), 0.0
        else:
            (u, a), (v, b) = self.below._origin, self.first._origin
            x, base = np.outer(u, v).ravel(), a + b - a * b
        v0 = x @ self.T
        y = x.conj() - self.T @ v0.conj()
        return v0, base + float(np.vdot(y, y).real)

    def boundary_defect(self) -> float:
        """||p e_1 - e_1||: how far e_1^(x)m lies from the level subspace.

        Read through the train (_origin), so no word-space row is expanded.
        """
        return float(np.sqrt(max(self._origin[1], 0.0)))


@dataclass(frozen=True, eq=False)
class Weighted:
    """Q_m = Q^(x)m p_m on one level, in level coordinates (SubproductSystem.weighted).

    H, the Grams G (for Q) and G_adj (for Q*) of the out-of-level part
    and compat are formed with the record, in r x r train coordinates
    from the records of levels m - 1 and 1 (see the module docstring).
    The eigenpair (U, w) of H in level coordinates, over the eigenvalues
    that rank_mask keeps, is formed on first read, and V is the level's
    own isometry, expanded on first read.  The checks read them only on
    levels that Q^(x)m preserves; there Q_m = V H V* = (V U) diag(w) (V U)*.
    Every array is read-only.  A record links to its level alone.
    """

    level: Level
    H: np.ndarray  # V* Q^(x)m V
    G: np.ndarray  # Gram of (1 - p_m) Q^(x)m V
    G_adj: np.ndarray  # the same for Q*
    compat: float  # ||[Q^(x)m, p_m]||, zero iff Q^(x)m preserves the level
    rank_tol: float  # the cut on the eigenvalues of H

    @property
    def V(self) -> np.ndarray:
        """The level isometry, n^m x r."""
        return self.level.V

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


@dataclass(frozen=True, eq=False)
class StateGrams:
    """The level-m Grams of a state rho (SubproductSystem.grams), read-only.

    While the cuts dropped only round-off, V_m normal V_m* is the
    normal-ordered word Gram Tr(K_a rho K_b*) and V_m antinormal V_m* the
    antinormal Tr(rho K_a K_b*).  phi_normal maps each Weighted record of
    the level to the normal-ordered residual max |V_m (normal - H/Tr H) V_m*|
    against its Q_m, filled by the first reader that computes it
    (equilibrium._phi_normal, shared by check_phi_symmetric, the KMS
    check and the verdict).
    """

    normal: np.ndarray  # gram(B_m rho, B_m)
    antinormal: np.ndarray  # gram(rho B_m, B_m)
    phi_normal: dict = field(default_factory=dict, repr=False)  # Weighted -> residual


def _weigh(H: np.ndarray, G: np.ndarray, F: np.ndarray, T: np.ndarray):
    """(H_m, G_m) from (H_{m-1}, G_{m-1}), the letter factor F and T_m (module docstring).

    With P = (1 (x) F) T, (H (x) F) T = (H (x) 1) P and
    T* (G (x) F* F) T = P* (G (x) 1) P.
    """
    P = _letter_product(F, T, len(H))
    X = (H @ P).reshape(T.shape)
    Th = dag(T)
    H = Th @ X
    Y = X - T @ H
    return H, dag(Y) @ Y + dag(P.reshape(T.shape)) @ (G @ P).reshape(T.shape)


def _top(G: np.ndarray) -> float:
    """The largest eigenvalue of a Gram; 0 for an empty one."""
    return float(np.linalg.eigvalsh(G)[-1]) if len(G) else 0.0


@dataclass(frozen=True)
class SubproductSystem:
    """Levels 0..M of a Kraus set's subproduct system (build_subproduct).

    The system memoizes one Weighted record per level and weight Q,
    keyed by Q's dtype, shape and bytes, so a different Q never reads a
    stale entry.  A second memo holds one StateGrams per level and state,
    keyed the same way by the state.  Both live as long as the system.
    """

    n: int
    M: int
    rank_tol: float  # matcore.rank_mask's tolerance for every rank cut on the levels
    ops: np.ndarray  # the read-only Kraus array the levels were built from
    levels: dict = field(default_factory=dict)  # m -> Level
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _grams: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def level(self, m: int) -> Level:
        if m not in self.levels:
            raise ValueError(f"level {m} not built (max {self.M})")
        return self.levels[m]

    def stack(self, K: KrausSet, m: int) -> np.ndarray:
        """B_m, for the Kraus set the system was built from; any other K raises ValueError."""
        if K.ops is not self.ops and not np.array_equal(K.ops, self.ops):
            raise ValueError("K is not the Kraus set the subproduct system was built from")
        return self.level(m).B

    def grams(self, m: int, rho: np.ndarray) -> StateGrams:
        """The level-m Grams of a checked d x d state rho, built once per level and state.

        Keyed by rho's dtype, shape and bytes, so another state, or rho
        written in place, never reads a stale entry.
        """
        key = (m, rho.dtype.str, rho.shape, rho.tobytes())
        g = self._grams.get(key)
        if g is None:
            B = self.level(m).B
            g = self._grams[key] = StateGrams(read_only(gram(B @ rho, B)),
                                              read_only(gram(rho @ B, B)))
        return g

    def weighted(self, Q, m: int, tol: float | None = None) -> Weighted:
        """The level-m record of the weight Q, built once per Q and read-only.

        The record of level m is built from those of levels m - 1 and 1
        in r x r train coordinates (module docstring), so neither the
        n^m x n^m power Q^(x)m nor any word-space row is formed.  H is
        diagonalized, and its eigenvalues cut at the system's rank_tol,
        only when the eigenpair is first read.  Every Q-weighted level-m
        quantity needs Q^(x)m to preserve the level: with tol, a compat
        above tol raises HypothesisFailure.
        """
        Q = np.asarray(Q, dtype=complex)
        key = (Q.dtype.str, Q.shape, Q.tobytes())
        rec = self._memo.get((m, key))
        if rec is None:  # a Q found in the memo passed these checks when it was stored
            Q = as_complex(Q)
            if Q.shape != (self.n, self.n):
                raise ValueError(f"Q is {Q.shape[0]} x {Q.shape[1]} but the subproduct "
                                 f"system's alphabet has size {self.n}")
            rec = self._record(Q, key, m, np.array_equal(Q, dag(Q)))
        if tol is not None and rec.compat > tol:
            raise HypothesisFailure(
                f"Q^(x){m} does not preserve the level-{m} subspace (residual {rec.compat:.3g})"
            )
        return rec

    def _record(self, Q: np.ndarray, key: tuple, m: int, hermitian: bool) -> Weighted:
        if (m, key) not in self._memo:
            L = self.level(m)
            if m >= 2:
                below = self._record(Q, key, m - 1, hermitian)
                first = self._record(Q, key, 1, hermitian)
                H, G, G_adj, F = below.H, below.G, below.G_adj, first.H
            else:  # level 0 weighs the empty word by 1, level 1 the letters by Q
                one = np.ones((1, 1), dtype=complex)
                H, G, G_adj, F = one, 0 * one, 0 * one, Q if m == 1 else one
            Hm, Gm = _weigh(H, G, F, L.T)
            grams = [Gm] if hermitian else [Gm, _weigh(dag(H), G_adj, dag(F), L.T)[1]]
            compat = float(np.sqrt(max(0.0, *map(_top, grams))))
            self._memo[m, key] = Weighted(L, read_only(Hm), read_only(Gm), read_only(grams[-1]),
                                          compat, self.rank_tol)
        return self._memo[m, key]


def first_level(K: KrausSet, rank_tol: float = RANK_TOL) -> Level:
    """Level 1 of K's subproduct system, from one SVD of the n x d^2 Kraus matrix.

    Its rank is the number of linearly independent Kraus operators at
    rank_tol.
    """
    V, B = svd_cut(K.ops.reshape(K.n, -1), rank_tol)
    return Level(V, B.reshape(-1, K.d, K.d), K.n, 1)


def _next_level(below: Level, first: Level, rank_tol: float) -> Level:
    """Level m + 1 from level m and level 1 (see the module docstring)."""
    r0, r1, d = below.rank, first.rank, first.B.shape[1]
    C = (below.B[:, np.newaxis] @ first.B[np.newaxis]).reshape(r0 * r1, d * d)
    T, B = svd_cut(C, rank_tol)  # T may have 0 columns: a level of products that all vanish
    return Level(T, B.reshape(-1, d, d), first.n, below.m + 1, below, first)


def build_subproduct(K: KrausSet, M: int = 4, rank_tol: float = RANK_TOL,
                     max_dim: int = MAX_DIM) -> SubproductSystem:
    """Build levels 0..M of the subproduct system of K.

    K is reduced to a linearly independent set first when needed
    (minimal_kraus); the level-1 projector of the reduced set is then the
    full identity, and the system records the reduced set's operators.
    rank_tol decides which words span each level, and the system keeps
    it: every later rank cut on its levels uses the same tolerance.
    Each level above the first costs one SVD of an r_{m-1} r_1 x d^2
    matrix; no word stack and no word-space row is formed.  M must be an
    integer (a bool is refused).
    """
    M = require_word_length(M, "M")
    require_word_budget(K.n, M, max_dim)
    first = first_level(K, rank_tol)
    if first.rank < K.n:
        K = minimal_kraus(K, rank_tol)
        first = first_level(K, rank_tol)
        if first.rank < K.n:
            raise ValueError("level-1 dependence survived minimization")
    one = np.ones((1, 1), dtype=complex)
    levels = [Level(one, np.eye(K.d, dtype=complex)[np.newaxis], K.n, 0), first]
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
    the level's weighted record, so memoized on the system per level and Q.
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
