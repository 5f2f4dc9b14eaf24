"""Subproduct systems generated by a Kraus set.

Level m of the system is the pair (p_m, n_m): the projector, inside the
m-fold tensor power of the auxiliary space, onto the orthogonal
complement of the kernel of the word map e_k -> adjoint Kraus product,
together with its rank.  The levels nest: range(p_{m+l}) sits inside
range(p_m) (x) range(p_l).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channel import KrausSet, Word, apply, index_words, minimal_kraus, word_stack
from .errors import HypothesisFailure
from .matcore import MAX_DIM, RANK_TOL, RESIDUAL_TOL, as_complex, dag, spectral_norm


@dataclass(frozen=True)
class Level:
    p: np.ndarray
    rank: int
    words: tuple  # 1-based Word labels indexing the rows/columns of p


@dataclass(frozen=True)
class SubproductSystem:
    n: int
    M: int
    levels: dict = field(default_factory=dict)  # m -> Level

    def level(self, m: int) -> Level:
        if m not in self.levels:
            raise ValueError(f"level {m} not built (max {self.M})")
        return self.levels[m]


def _tensor_power(Q: np.ndarray, m: int) -> np.ndarray:
    return functools.reduce(np.kron, [Q] * m, np.ones((1, 1)))


def _level_projector(K: KrausSet, m: int, rank_tol: float):
    A = dag(word_stack(K.ops, m)).reshape(K.n ** m, -1).T  # d^2 x n^m
    _, s, Vh = np.linalg.svd(A, full_matrices=False)
    r = int(np.sum(s > rank_tol * s[0])) if s.size else 0
    Vr = Vh.conj().T[:, :r]
    return Vr @ dag(Vr), r, index_words(K.n, m)


def build_subproduct(K: KrausSet, M: int = 4, rank_tol: float = RANK_TOL,
                     max_dim: int = MAX_DIM) -> SubproductSystem:
    """Build levels 0..M of the subproduct system of K.

    K is reduced to a linearly independent set first when needed; the
    level-1 projector of the reduced set is then the full identity.
    """
    if K.n ** M > max_dim:
        raise ValueError("level dimension exceeds budget")
    p1, r1, _ = _level_projector(K, 1, rank_tol)
    if r1 < K.n:
        K = minimal_kraus(K, rank_tol)
        p1, r1, _ = _level_projector(K, 1, rank_tol)
        if r1 < K.n:
            raise ValueError("level-1 dependence survived minimization")
    levels = {0: Level(np.eye(1, dtype=complex), 1, (Word(()),))}
    for m in range(1, M + 1):
        p, r, ws = _level_projector(K, m, rank_tol)
        labels = tuple(Word(tuple(k + 1 for k in w)) for w in ws)
        levels[m] = Level(p, r, labels)
    return SubproductSystem(n=K.n, M=M, levels=levels)


def check_subproduct_inclusion(S: SubproductSystem, m: int, l: int) -> float:
    """Residual of range(p_{m+l}) within range(p_m (x) p_l)."""
    if m + l > S.M:
        raise ValueError("level out of range")
    pm = S.level(m).p
    pl = S.level(l).p
    pml = S.level(m + l).p
    return spectral_norm(np.kron(pm, pl) @ pml - pml)


def check_Q_compatibility(S: SubproductSystem, Q: np.ndarray, m: int) -> float:
    """Norm of the commutator of the m-fold power of Q with p_m.

    Zero certifies that Q^{(x)m} preserves the level-m subspace, the
    standing hypothesis of every Q-weighted level-m quantity.
    """
    if m > S.M:
        raise ValueError("level out of range")
    if m == 0:
        return 0.0
    Qf = _tensor_power(as_complex(Q), m)
    p = S.level(m).p
    return spectral_norm(Qf @ p - p @ Qf)


def verify_power_dilation(K: KrausSet, S: SubproductSystem, m: int, A: np.ndarray,
                          tol: float = RESIDUAL_TOL, rank_tol: float = RANK_TOL) -> float:
    """Residual of the level-m dilation identity V_m*(A (x) 1)V_m = Phi^m(A).

    V_m maps xi to the sum over words of K_w xi (x) p_m e_w.  Requires
    the reference vector e_1^{(x)m} to lie in the level-m subspace;
    otherwise a HypothesisFailure is raised (the first-column reading of
    the blocks is not available).
    """
    if m > S.M:
        raise ValueError("level out of range")
    A = as_complex(A)
    lev = S.level(m)
    p = lev.p
    N = K.n ** m
    e1 = np.zeros(N)
    e1[0] = 1.0
    defect = float(np.linalg.norm(p[:, 0] - e1))
    if defect > tol:
        raise HypothesisFailure(
            f"e_1^(x){m} not in the level-{m} subspace (defect {defect:.3g})"
        )
    # V_m as a (d, n^m, d) array: V_m[i, x, j] = sum_w p[x, w] K_w[i, j]
    Vm = (p @ word_stack(K.ops, m).reshape(N, -1)).reshape(N, K.d, K.d)
    Vm = Vm.transpose(1, 0, 2).reshape(K.d * N, K.d)
    # whiten with the Gram pseudo-inverse square root (a no-op when V_m
    # is already an isometry, which the word relations guarantee)
    G = dag(Vm) @ Vm
    wG, UG = np.linalg.eigh((G + dag(G)) / 2)
    keep = wG > rank_tol * max(wG[-1], 0.0)
    Ginvh = (UG[:, keep] * (1.0 / np.sqrt(wG[keep]))) @ dag(UG[:, keep])
    Vm = Vm @ Ginvh
    lhs = dag(Vm) @ (A @ Vm.reshape(K.d, -1)).reshape(Vm.shape)
    rhs = A.copy()
    for _ in range(m):
        rhs = apply(K, rhs, "heisenberg")
    return spectral_norm(lhs - rhs)
