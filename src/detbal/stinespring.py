"""Subproduct systems generated by a Kraus set.

Level m of the system fixes V_m, the n^m x r isometry whose columns span
the range of the word map: the column space of the n^m x d^2 matrix A_m
whose row a is the length-m Kraus product K_a of word a of
index_words(n, m), labelled on request.  The level projector is
p_m = V_m V_m*, and r <= d^2 is the rank.  B_m = V_m* A_m, an (r, d, d)
array, is the word stack compressed to the level.

The levels nest: range(p_m) sits inside range(p_{m-1}) (x) C^n, so the
tower is a left-canonical tensor train.  Level m is stored as its core
T_m, an r_{m-1} n x r isometry with V_m = (V_{m-1} (x) 1_n) T_m from
V_0 = [[1]], and B_m; it links to level m - 1 alone, and row a of V_m is
the product T_1[a_1] ... T_m[a_m] of the cores' letter slices.  Level 1
factors the n x d^2 Kraus matrix, V_1 = T_1, and build_subproduct first
reduces K to an independent set, so V_1 is unitary (p_1 = 1).  For
m >= 2 the r_{m-1} r_1 x d^2 matrix C of products B_{m-1}[i] B_1[j]
(channel.products, one matmul for all the pairs) satisfies
A_m = (V_{m-1} (x) V_1) C; its SVD cut by rank_mask keeps the
left singular vectors S and gives B_m = S* C, and the stored core is
T_m = (1 (x) V_1) S, one mode product of V_1.  Both SVDs are
matcore.svd_cut, which takes a wide matrix (few rows against d^2
columns, as at large d) by its short side: a QR of its adjoint, then the
SVD of the square triangular factor.  Since V_{m-1} (x) V_1 is an
isometry, C and A_m share their singular values, and with them the rank
cuts, as long as the cuts below dropped only zero singular values; a
coarser rank_tol builds level m from what the cut at level m - 1 kept,
so the levels stay nested.  The build forms no word-space row: V_m is
the train expanded on first read (Level.V) and then kept.

A weight Q enters a level only through Q_m = Q^(x)m p_m, and
SubproductSystem.weighted is the one place that forms it, in r x r train
coordinates.  With H_m = V_m* Q^(x)m V_m and Q^(x)m V_m =
(Q^(x)(m-1) V_{m-1} (x) Q) T_m,

    H_m = T_m* (H_{m-1} (x) Q) T_m,
    G_m = Y* Y + T_m* (G_{m-1} (x) Q* Q) T_m,
    Y   = (1 - T_m T_m*) (H_{m-1} (x) Q) T_m,

where G_m is the Gram of the out-of-level part (1 - p_m) Q^(x)m V_m,
and level 0 reads H_0 = 1, G_0 = 0.  The out-of-level part splits into
(V_{m-1} (x) 1) Y, inside range(p_{m-1}) (x) C^n, and the part carried
from level m - 1, orthogonal to it.  So the recursion holds for any
isometric core and needs no hypothesis on level 1.  The Gram is carried,
not recomputed as a difference of Grams, so a level that Q^(x)m
preserves reads compat at round-off, not at sqrt(eps).  The residual
||[Q^(x)m, p_m]|| is sqrt(lambda_max(G_m)), the larger of its values for
Q and Q*.  Every (x) is two mode products on T_m's (r_{m-1}, n, r)
reshape.  The first call for a Q weighs levels 0..M in one pass, with
one stacked eigvalsh per Gram size for compat, and the system keeps the
read-only records, so the checks of one verdict share them; G_m is a
local of the pass.

The checks read the words of a level through B_m alone
(SubproductSystem.stack): while the cuts dropped only round-off,
A_m = V_m B_m, so every word Gram is V_m (a Gram of B_m) V_m*, and on a
level that Q^(x)m preserves Q_m = V_m H_m V_m*.  So every word-pair
residual is max |V_m E V_m*| for an r x r E (equilibrium._max_entries),
V_m is the only word-space array a check expands, and all else a check
reads is r x r or d x d: equilibrium._read_levels reads the levels of
one rank in stacked calls, and the sphere defects of all in one.  Rows
of V_m and Q^(x)m V_m, and the boundary defect of e_1^(x)m, are read
through the train (Level.row, Level.boundary_defect).

Every function of Q_m on a preserved level is V_m P V_m* for
P = level_power(eigenpairs, z) over every eigenvalue of H_m (z = -1 for
the inverse the sphere sums and the KMS term read, z = -it for the
modular flow).  No eigenvalue is cut: for a positive definite Q,
H_m >= lambda_min(Q)^m > 0, and rank_tol decides only the ranks of the
levels (svd_cut).  eigenpairs marks a level whose H_m is not positive
definite at round-off, as a singular or indefinite Q gives, or a Q with
cond(Q)^m past 1/(r eps).  Two readers take these functions, and each
judges compat by equilibrium._compat_hypothesis first:
equilibrium._read_levels records the refusal as it records a level
Q^(x)m does not preserve, and equilibrium._level_power, the reader of
one level, raises it.  A weighted word sum sum_ab Qinv[b,a] Z_a Z_b*
is then _sphere(P, C) for C = V_m* Z, which Level.compress reads
through the train, one letter at a time.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    KrausSet,
    _rows,
    apply,
    products,
    remix,
    require_word_budget,
    require_word_length,
)
from .matcore import RANK_TOL, as_complex, dag, read_only, spectral_norm, svd_cut


def _letter_product(F: np.ndarray, T: np.ndarray, r0: int) -> np.ndarray:
    """(1_{r0} (x) F) T, the mode product of F with T's middle index, as an r0 x len(F) r matrix."""
    r = T.shape[1]
    return (F @ T.reshape(r0, F.shape[1], r)).reshape(r0, len(F) * r)


def _expand(X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The word-space rows (X (x) 1_n) T of a level, for its (r_{m-1}, n, r) core T."""
    r0, n, r = T.shape
    return read_only((X @ T.reshape(r0, n * r)).reshape(len(X) * n, r))


@dataclass(frozen=True)
class Level:
    """One level (T_m, B_m) of a subproduct system, linked to level m - 1.

    T_m is the r_{m-1} n x r core of the train: V_m = (V_{m-1} (x) 1_n) T_m
    from V_0 = T_0 = [[1]], so V_m[a_1..a_m] = T_1[a_1] ... T_m[a_m] for
    the slices T_k[a] = T_k.reshape(r_{k-1}, n, r_k)[:, a], and every core
    is an isometry (the train is left-canonical).  V_1 = T_1 is the first
    core itself.  B_m = V_m* A_m is the compressed word stack (see the
    module docstring).  V is expanded from the train on first read and
    kept; T, B and V are read-only.  compress, row and boundary_defect
    read the train without expanding V.
    """

    T: np.ndarray  # core: V = (V_below (x) 1_n) T
    B: np.ndarray  # (rank, d, d) compressed word stack V* A_m
    n: int  # alphabet size; n = 1 leaves m unreadable from len(V)
    m: int  # word length
    below: Level | None = field(default=None, repr=False, compare=False)  # level m - 1

    def __post_init__(self):
        for name in ("T", "B"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    @functools.cached_property
    def V(self) -> np.ndarray:
        """The n^m x rank isometry onto the level subspace, the tower's one word-space array.

        Expanding it is where the word budget refuses inside the tower
        (channel.require_word_budget): a level of more than MAX_DIM words
        raises ValueError here, while the train readers (compress, row,
        boundary_defect) and the weighted records work at any depth.
        """
        if self.m <= 1:  # V_0 = [[1]], so V_0 and V_1 are their cores
            return self.T
        require_word_budget(self.n, self.m)
        return _expand(self.below.V, self.core)

    @property
    def rank(self) -> int:
        return self.T.shape[1]

    @property
    def core(self) -> np.ndarray:
        """T as an (r_{m-1}, n, r) array, whose slice [:, a] is letter a's matrix T_m[a]."""
        return self.T.reshape(self.below.rank, self.n, self.rank)

    def compress(self, ops: np.ndarray) -> np.ndarray:
        """V* Z for Z the n^m words of an (n, k, k) stack ops, read through the train.

        C_0 = [1], C_1 = T_1* ops and C_m = T_m* [C_{m-1}[i] ops[j]], since
        the words of length m are the words of length m - 1 times a letter
        and V_m = (V_{m-1} (x) 1_n) T_m.  Each level from 2 on forms its
        pairs C_{m-1}[i] ops[j] in one products call, a single matmul, so a
        pass to level m makes m - 1 of them.  The identity holds for any
        stack and at any cut, and no word-space stack is formed; compress of
        the system's Kraus array is B_m.
        """
        if self.below is None:  # the empty word, 1
            return np.eye(ops.shape[-1], dtype=complex)[np.newaxis]
        return remix(ops if self.m == 1 else products(self.below.compress(ops), ops), self.T)

    def row(self, word, F: np.ndarray | None = None) -> np.ndarray:
        """Row `word` of V, or with an n x n F of F^(x)m V, read through the train.

        word holds m 0-based letters.  V_m[a] = V_{m-1}[a'] T_m[a_m], a
        product of core slices, with a' the word without its last letter;
        F^(x)m V_m reads sum_b F[a_m, b] T_m[b] in place of T_m[a_m].  A row
        costs O(m n r^2) and no word-space row is expanded.
        """
        if self.below is None:  # the empty word, weighted by F^(x)0 = 1
            return self.T[0]
        T = self.core
        return self.below.row(word[:-1], F) @ (T[:, word[-1]] if F is None else F[word[-1]] @ T)

    @functools.cached_property
    def _origin(self) -> tuple:
        """(V[0], ||(1 - p) e_1||^2), from the same quantities of level m - 1.

        e_1^(x)m = e_1^(x)(m-1) (x) e_1 splits into its part outside
        p_{m-1} (x) 1, of squared norm a, the squared defect of level m - 1,
        and its part inside, with coordinates x* in V_{m-1} (x) 1 for
        x = V_{m-1}[0] (x) e_1.  So V[0] = x T and the squared defect is
        a + ||(1 - T T*) x*||^2.  Level 0 holds the empty word: V_0[0] = 1,
        defect 0.
        """
        if self.below is None:
            return self.T[0], 0.0
        u, a = self.below._origin
        x = np.outer(u, np.eye(1, self.n)[0]).ravel()
        v0 = x @ self.T
        y = x.conj() - self.T @ v0.conj()
        return v0, a + float(np.vdot(y, y).real)

    def boundary_defect(self) -> float:
        """||p e_1 - e_1||: how far e_1^(x)m lies from the level subspace.

        Read through the train (_origin), so no word-space row is expanded.
        """
        return float(np.sqrt(max(self._origin[1], 0.0)))


@dataclass(frozen=True, eq=False)
class Weighted:
    """Q_m = Q^(x)m p_m on one level, in level coordinates (SubproductSystem.weighted).

    H and compat are formed in the pass that weighs the system's levels
    for Q, in r x r train coordinates from the level below (see the module
    docstring).  A record is plain data: H is read-only and nothing is
    written into it once it is built.  It links to its level alone.  On a
    level that Q^(x)m preserves, Q_m = V H V* for the level's isometry V,
    and every function of Q_m is V f(H) V* (eigenpairs, level_power).
    """

    level: Level
    H: np.ndarray  # V* Q^(x)m V
    compat: float  # ||[Q^(x)m, p_m]||, zero iff Q^(x)m preserves the level


def eigenpairs(recs) -> tuple:
    """(U, w, refusals) for Weighted records of one rank: one stacked eigh of their H's.

    U and w stack every eigenpair of each (H + H*)/2; no eigenvalue is
    cut, since for a positive definite Q, H_m >= lambda_min(Q)^m > 0.
    refusals[i] is None, or the ValueError naming record i's level when
    its smallest eigenvalue is not above len(w) eps times its largest: a
    singular or indefinite Q gives one, and so does a Q whose cond(Q)^m
    passes 1/(len(w) eps), where eigh no longer resolves the small end of
    the spectrum.  Below that, the inverse read from these eigenpairs is
    within about len(w) eps cond(H) of the exact one, relative to its
    norm.  A stacked eigh runs LAPACK on each matrix alone, so a record
    reads the bits it would read alone.
    """
    H = np.array([rec.H for rec in recs])
    w, U = np.linalg.eigh((H + dag(H)) / 2)
    r = w.shape[-1]
    resolved = np.all(w[:, :1] > r * np.finfo(float).eps * w[:, -1:], axis=-1)  # rank 0 passes
    return U, w, [None if ok else ValueError(
        f"Q_{m} is not invertible at round-off on level {m}: the smallest eigenvalue of "
        f"H_{m}, {x[0]:.3g}, is not above {r} eps times its largest, {x[-1]:.3g}")
        for m, ok, x in zip((rec.level.m for rec in recs), resolved, w)]


def level_power(U: np.ndarray, w: np.ndarray, z) -> np.ndarray:
    """U diag(w^z) U* over every eigenvalue, for the (U, w) of eigenpairs, stacked or not.

    V P V* is Q_m^z on the level for P = level_power(..., z): the inverse
    at z = -1, the modular flow at z = -it.
    """
    return (U * (w ** z)[..., np.newaxis, :]) @ dag(U)


def _sphere(P: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sum_ij P[j,i] X_i X_j* for a Hermitian r x r P and an (r, k, k) stack X, stacks batched.

    With (P X)_i = sum_j P[i,j] X_j and P = P*, the sum is sum_i X_i (P X)_i*.
    """
    PX = (P @ _rows(X)).reshape(X.shape)
    return (X @ dag(PX)).sum(-3)


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


@dataclass(frozen=True)
class SubproductSystem:
    """Levels 0..M of a Kraus set's subproduct system (build_subproduct).

    The system memoizes one tuple of Weighted records, levels 0..M, per
    weight Q, keyed by Q's dtype, shape and bytes, so a different Q never
    reads a stale entry.  The memo lives as long as the system.
    """

    n: int
    M: int
    ops: np.ndarray  # the read-only Kraus array the levels were built from
    levels: dict = field(default_factory=dict)  # m -> Level
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def level(self, m: int) -> Level:
        """Level m; an m that is not an integer (a bool, a float) raises ValueError."""
        m = require_word_length(m, "m")
        if m not in self.levels:
            raise ValueError(f"level {m} not built (max {self.M})")
        return self.levels[m]

    def stack(self, K: KrausSet, m: int) -> np.ndarray:
        """B_m, for the Kraus set the system was built from; any other K raises ValueError."""
        if K.ops is not self.ops and not np.array_equal(K.ops, self.ops):
            raise ValueError("K is not the Kraus set the subproduct system was built from")
        return self.level(m).B

    def weighted(self, Q, m: int) -> Weighted:
        """The level-m record of the weight Q; the first call for a Q weighs levels 0..M.

        A level that is not built raises ValueError before any is weighed.
        The pass builds each record from the record below in r x r train
        coordinates (module docstring), so no n^m x n^m power Q^(x)m and no
        word-space row is formed, and reads every compat with one stacked
        eigvalsh per Gram size; the memo keeps the tuple of records.  H is
        not diagonalized here, and compat is judged by
        equilibrium._compat_hypothesis alone, which also guards every
        function of Q_m (equilibrium._read_levels, equilibrium._level_power).
        """
        # refuses an m that is not an integer, before the memo, where True and 1.0 would
        # read level 1, and a level that is not built
        self.level(m)
        Q = np.asarray(Q, dtype=complex)
        key = (Q.dtype.str, Q.shape, Q.tobytes())
        recs = self._memo.get(key)
        if recs is not None:  # a Q found in the memo passed these checks when it was stored
            return recs[m]
        Q = as_complex(Q)
        if Q.shape != (self.n, self.n):
            raise ValueError(f"Q is {Q.shape[0]} x {Q.shape[1]} but the subproduct "
                             f"system's alphabet has size {self.n}")
        # level 0 weighs the empty word by 1 whatever Q is: H_0 = 1, G_0 = 0, compat 0
        H = read_only(np.ones((1, 1), dtype=complex))
        G = G_adj = 0 * H
        hermitian = np.array_equal(Q, dag(Q))
        Hs, grams, adj = [H], [], []  # H of every level; the Grams for Q and, unless Hermitian, Q*
        for level in (self.levels[j] for j in range(1, self.M + 1)):
            if not hermitian:  # the Gram for Q*, from the H of the level below
                G_adj = _weigh(dag(H), G_adj, dag(Q), level.T)[1]
                adj.append(G_adj)
            H, G = _weigh(H, G, Q, level.T)
            Hs.append(read_only(H))
            grams.append(G)
        # compat: sqrt(lambda_max) of G, and of G_adj if Q is not Hermitian (grams lists every G
        # first), by one stacked eigvalsh per Gram size, run on each Gram alone; empty reads 0
        grams += adj
        tops = [0.0] * len(grams)
        for size in {len(X) for X in grams} - {0}:
            at = [i for i, X in enumerate(grams) if len(X) == size]
            for i, top in zip(at, np.linalg.eigvalsh(np.array([grams[i] for i in at]))[:, -1]):
                tops[i] = float(top)
        compats = [0.0] + [float(np.sqrt(max(0.0, *tops[i::self.M]))) for i in range(self.M)]
        self._memo[key] = recs = tuple(Weighted(self.levels[j], H, compat)
                                       for j, (H, compat) in enumerate(zip(Hs, compats)))
        return recs[m]


def first_level(K: KrausSet, rank_tol: float = RANK_TOL) -> Level:
    """Level 1 of K's subproduct system, from the SVD of the n x d^2 Kraus matrix (svd_cut).

    Its rank is the number of linearly independent Kraus operators at
    rank_tol, and its core is V_1, the kept left singular vectors.  A
    dependent set is reduced to the operators B_1 the level keeps (as
    minimal_kraus does); their rows are orthogonal, so they are the
    letters of a level with core 1_r.  Either way V_1 is unitary: p_1 = 1.
    """
    V, B = svd_cut(K.ops.reshape(K.n, -1), rank_tol)
    if len(B) < K.n:
        V = np.eye(len(B), dtype=complex)
    one = np.ones((1, 1), dtype=complex)
    empty = Level(one, np.eye(K.d, dtype=complex)[np.newaxis], len(V), 0)
    return Level(V, B.reshape(-1, K.d, K.d), len(V), 1, empty)


def _next_level(below: Level, first: Level, rank_tol: float) -> Level:
    """Level m + 1 from the SVD of the products B_m[i] B_1[j] (see the module docstring).

    The r_m r_1 products are one products call, a single matmul, whatever the ranks.
    """
    # T may have 0 columns: a level of products that all vanish
    T, B = svd_cut(_rows(products(below.B, first.B)), rank_tol)
    core = _letter_product(first.T, T, below.rank).reshape(below.rank * first.n, T.shape[1])
    return Level(core, B.reshape(-1, *first.B.shape[1:]), first.n, below.m + 1, below)


def build_subproduct(K: KrausSet, M: int = 4, rank_tol: float = RANK_TOL) -> SubproductSystem:
    """Build levels 0..M of the subproduct system of K.

    K is reduced to a linearly independent set first when needed
    (first_level), and the system then records the reduced set's
    operators.  rank_tol decides which words span each level, and nothing
    else: every function of Q_m on its levels covers the whole level
    (eigenpairs).  Level m + 1 costs the SVD of the r_m r_1 x d^2 matrix
    of products B_m[i] B_1[j], taken by its short side when it is wide
    (svd_cut), and one mode product of V_1 with the kept singular
    vectors; no word stack and no word-space row is formed, so the build
    takes no word budget and M may be any integer of at least 0 (a bool
    is refused).  The budget refuses where a word-space array is formed:
    on reading Level.V of a level past it.
    """
    M = require_word_length(M, "M", least=0)
    first = first_level(K, rank_tol)
    levels = [first.below, first]
    while len(levels) <= M:
        levels.append(_next_level(levels[-1], first, rank_tol))
    return SubproductSystem(n=first.n, M=M,
                            ops=K.ops if first.n == K.n else first.B,
                            levels=dict(enumerate(levels[:M + 1])))


def check_subproduct_inclusion(S: SubproductSystem, m: int, l: int) -> float:
    """Residual of range(p_{m+l}) within range(p_m (x) p_l).

    V_{m+l} is read first: the kron of V_m and V_l has as many rows, so
    a level past the word budget refuses before the kron is formed.
    """
    V = S.level(m + l).V
    W = np.kron(S.level(m).V, S.level(l).V)
    return spectral_norm(V - W @ (dag(W) @ V))


def check_Q_compatibility(S: SubproductSystem, Q: np.ndarray, m: int) -> float:
    """Norm of the commutator of the m-fold power of Q with p_m.

    Zero certifies that Q^{(x)m} preserves the level-m subspace, the
    standing hypothesis of every Q-weighted level-m quantity.  Read from
    the level's weighted record, so memoized on the system per Q.
    """
    return S.weighted(Q, m).compat


def verify_power_dilation(K: KrausSet, S: SubproductSystem, m: int, A: np.ndarray) -> float:
    """Residual ||D_m*(A (x) 1)D_m - Phi^m(A)|| of the level-m dilation identity.

    D_m maps xi to the sum over words of K_w xi (x) p_m e_w; in level
    coordinates (p_m e_w -> V_m* e_w) it is B_m, so the left side is
    sum_k B_k* A B_k.  With the word stack split as A_m = V_m B_m + R,
    V_m* R = 0, the words give Phi^m(A) = sum_k B_k* A B_k +
    R*(A (x) 1)R, so the residual is at most ||A|| (Tr Phi^m(1) -
    ||B_m||_F^2), the mass the rank cuts drop: round-off at the default
    rank_tol.  No hypothesis on e_1^(x)m and no normalization of D_m
    enters, so the identity is checked for any operation, trace
    preserving or not.  m must be an integer.
    """
    B = S.level(m).B
    A = as_complex(A)
    rhs = A
    for _ in range(m):
        rhs = apply(K, rhs, "heisenberg")
    return spectral_norm((dag(B) @ A @ B).sum(0) - rhs)
