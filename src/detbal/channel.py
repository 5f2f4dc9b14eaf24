"""Kraus sets, channel application, dilations, minimality and Choi data.

A unitary W on the product of the d-dimensional system space and the
n-dimensional auxiliary space is handled as an n x n matrix of d x d
blocks, system index major: block (j, k) is W.reshape(d,n,d,n)[:, j, :, k],
and the first block-column occupies the interleaved scalar columns
W[:, 0::n].
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .matcore import (
    MAX_DIM,
    RANK_TOL,
    RESIDUAL_TOL,
    as_complex,
    dag,
    frobenius_norm,
    orthonormal_completion,
    spectral_norm,
)

ZERO_OP_TOL = 1e-12


class KrausSet:
    """An ordered family of equal-shaped square operators on the system.

    Zero operators are rejected at construction: they carry no dynamics
    and make the correlation matrix singular.
    """

    def __init__(self, ops):
        ops = [as_complex(K) for K in ops]
        if len(ops) == 0:
            raise ValueError("need at least one Kraus operator")
        d = ops[0].shape[0]
        for K in ops:
            if K.shape != (d, d):
                raise ValueError("Kraus operators must share a square shape")
            if spectral_norm(K) <= ZERO_OP_TOL:
                raise ValueError("zero Kraus operator rejected")
        self.ops = tuple(ops)
        self.d = d
        self.n = len(ops)
        I = np.eye(d)
        self.unital_residual = spectral_norm(sum(dag(K) @ K for K in ops) - I)
        self.cotrace_residual = spectral_norm(sum(K @ dag(K) for K in ops) - I)

    def __iter__(self):
        return iter(self.ops)

    def __len__(self):
        return self.n

    def __getitem__(self, k):
        return self.ops[k]


@dataclass(frozen=True)
class Channel:
    kraus: KrausSet
    classification: str  # operation | channel | bistochastic


@dataclass(frozen=True)
class Word:
    """A word in the Kraus indices, letters 1-based for display."""

    letters: tuple

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.letters) + ")"


def classify(K: KrausSet, tol: float = RESIDUAL_TOL) -> Channel:
    if K.unital_residual < tol:
        kind = "bistochastic" if K.cotrace_residual < tol else "channel"
    else:
        kind = "operation"
    return Channel(K, kind)


def apply(K: KrausSet, X: np.ndarray, picture: str = "heisenberg") -> np.ndarray:
    """Apply the map defined by K to X in the requested picture."""
    X = as_complex(X)
    if X.shape != (K.d, K.d):
        raise ValueError("operand dimension mismatch")
    if picture == "heisenberg":
        return sum(dag(Kk) @ X @ Kk for Kk in K)
    if picture == "schrodinger":
        return sum(Kk @ X @ dag(Kk) for Kk in K)
    raise ValueError("picture must be 'heisenberg' or 'schrodinger'")


# ---------------------------------------------------------------------------
# block conventions


def block(W: np.ndarray, d: int, n: int, j: int, k: int) -> np.ndarray:
    return W.reshape(d, n, d, n)[:, j, :, k]


def blockwise_dagger(W: np.ndarray, d: int, n: int) -> np.ndarray:
    """W^c: replace every block by its own adjoint, indices in place."""
    R = as_complex(W).reshape(d, n, d, n)
    return R.conj().transpose(2, 1, 0, 3).reshape(d * n, d * n)


def require_invertible_F(F: np.ndarray) -> None:
    s = np.linalg.svd(F, compute_uv=False)
    if s[-1] <= 1e-12 * s[0]:
        raise ValueError("F must be invertible")


def f_conjugate(W: np.ndarray, F: np.ndarray, d: int, n: int) -> np.ndarray:
    """The F-conjugate dilation (1 (x) F) W^c (1 (x) F^-1)."""
    Wc = blockwise_dagger(W, d, n)
    return np.kron(np.eye(d), F) @ Wc @ np.kron(np.eye(d), np.linalg.inv(F))


def first_block_column(W: np.ndarray, d: int, n: int):
    return [block(W, d, n, j, 0) for j in range(n)]


# ---------------------------------------------------------------------------
# dilations


def isometry_from_kraus(K: KrausSet) -> np.ndarray:
    """V xi = sum_k K_k xi (x) e_k, shape (d*n, d)."""
    V = np.zeros((K.d * K.n, K.d), dtype=complex)
    for k, Kk in enumerate(K):
        e = np.zeros((K.n, 1))
        e[k] = 1.0
        V += np.kron(Kk, e)
    return V


def is_star_commuting(K: KrausSet, tol: float = 1e-10) -> bool:
    for A in K:
        for B in K:
            scale = max(1.0, spectral_norm(A) * spectral_norm(B))
            if spectral_norm(A @ B - B @ A) > tol * scale:
                return False
            if spectral_norm(A @ dag(B) - dag(B) @ A) > tol * scale:
                return False
    return True


def _simultaneous_diag(K: KrausSet, tol: float = 1e-9) -> np.ndarray:
    """Unitary T with T* K_j T diagonal for a commuting *-family."""
    rng = np.random.default_rng(12345)
    for _ in range(20):
        c = rng.normal(size=K.n) + 1j * rng.normal(size=K.n)
        H = sum(cj * Kj + np.conj(cj) * dag(Kj) for cj, Kj in zip(c, K))
        _, T = np.linalg.eigh(H)
        ok = True
        for Kj in K:
            D = dag(T) @ Kj @ T
            if np.max(np.abs(D - np.diag(np.diag(D)))) > tol * max(1.0, spectral_norm(Kj)):
                ok = False
                break
        if ok:
            return T
    raise ValueError("simultaneous diagonalization failed")


def symmetric_unitary_first_col(v: np.ndarray) -> np.ndarray:
    """Complex symmetric unitary S (S = S^T) with first column v, |v| = 1.

    Built as D H D with H the real Householder reflection taking e_1 to
    the modulus vector of v and D a phase diagonal splitting the first
    phase evenly, which keeps S symmetric.
    """
    v = as_complex(v).reshape(-1)
    nv = v.shape[0]
    mod_v = np.abs(v)
    u = mod_v - np.eye(nv)[:, 0]
    nu = np.linalg.norm(u)
    if nu < 1e-14:
        H = np.eye(nv)
    else:
        u = u / nu
        H = np.eye(nv) - 2.0 * np.outer(u, u)
    phases = np.angle(v)
    phi = phases - phases[0] / 2.0
    phi[0] = phases[0] / 2.0
    D = np.diag(np.exp(1j * phi))
    return D @ H @ D


def _completion_structured(K: KrausSet) -> np.ndarray:
    """Block-symmetric unitary completion for a commuting *-family.

    Diagonalize the family simultaneously; in each joint eigenslot the
    first-column entries form a unit vector (unitality), which a
    symmetric unitary extends.  Blockwise symmetry W_{jk} = W_{kj} makes
    the blockwise-dagger matrix exactly unitary as well.
    """
    T = _simultaneous_diag(K)
    diags = [np.diag(dag(T) @ Kj @ T) for Kj in K]
    slots = []
    for i in range(K.d):
        v = np.array([diags[j][i] for j in range(K.n)])
        slots.append(symmetric_unitary_first_col(v))
    W = np.zeros((K.d * K.n, K.d * K.n), dtype=complex)
    R = W.reshape(K.d, K.n, K.d, K.n)
    for j in range(K.n):
        for k in range(K.n):
            D = np.diag([slots[i][j, k] for i in range(K.d)])
            R[:, j, :, k] = T @ D @ dag(T)
    return W


def dilation_from_kraus(K: KrausSet, tol: float = RESIDUAL_TOL):
    """Return (V, W): the canonical isometry and a deterministic unitary
    completion whose first block-column is V.

    Commuting *-families get a block-symmetric completion (so the
    blockwise-dagger matrix stays unitary); anything else gets the
    generic Gram-Schmidt completion.
    """
    if K.unital_residual >= tol:
        raise ValueError("dilation requires a channel (sum K*K = 1)")
    V = isometry_from_kraus(K)
    W = None
    if is_star_commuting(K):
        try:
            W = _completion_structured(K)
        except ValueError:
            W = None
        if W is not None and spectral_norm(dag(W) @ W - np.eye(K.d * K.n)) > 1e-10:
            W = None
    if W is None:
        W = orthonormal_completion(V)
    return V, W


def kraus_from_dilation(W: np.ndarray, d: int, n: int, mode: str = "first_column",
                        sigma=None, tol: float = RESIDUAL_TOL) -> KrausSet:
    """Extract Kraus operators from a unitary on the system-bath space.

    mode "first_column" reads the n blocks of the first block-column.
    mode "general_state" takes a diagonal bath density sigma (matrix or
    vector of probabilities) and returns the n*n operators
    sqrt(sigma_k) * W_{jk}, ordered with j major.
    """
    W = as_complex(W)
    if W.shape != (d * n, d * n):
        raise ValueError("dilation shape mismatch")
    if spectral_norm(dag(W) @ W - np.eye(d * n)) > tol:
        raise ValueError("dilation is not unitary within tolerance")
    if mode == "first_column":
        return KrausSet(first_block_column(W, d, n))
    if mode == "general_state":
        if sigma is None:
            raise ValueError("general_state mode requires sigma")
        sigma = as_complex(sigma)
        if sigma.ndim == 2:
            if spectral_norm(sigma - np.diag(np.diag(sigma))) > 1e-12:
                raise ValueError("sigma must be supplied in diagonalized form")
            probs = np.diag(sigma).real
        else:
            probs = sigma.real
        if probs.shape != (n,) or np.any(probs < -1e-12) or abs(probs.sum() - 1) > 1e-10:
            raise ValueError("sigma must be an n-point probability vector")
        ops = []
        for j in range(n):
            for k in range(n):
                ops.append(np.sqrt(max(probs[k], 0.0)) * block(W, d, n, j, k))
        return KrausSet(ops)
    raise ValueError("mode must be 'first_column' or 'general_state'")


# ---------------------------------------------------------------------------
# words and powers


def index_words(n: int, m: int):
    """All length-m words over {0,...,n-1}, leftmost letter most significant."""
    return list(itertools.product(range(n), repeat=m))


def word_operator(K, w) -> np.ndarray:
    return functools.reduce(np.matmul, (K[k] for k in w), np.eye(K[0].shape[0], dtype=complex))


def word_stack(ops, m: int) -> np.ndarray:
    """Every length-m product K_{w1}...K_{wm} as an (n**m, d, d) array.

    Row a is the word at position a of index_words(n, m), so the
    leftmost letter is the most significant digit of a in base n.
    """
    K = np.asarray(tuple(ops), dtype=complex)
    n, d, _ = K.shape
    W = np.eye(d, dtype=complex)[np.newaxis]
    for _ in range(m):
        W = np.matmul(W[:, np.newaxis], K[np.newaxis]).reshape(-1, d, d)
    return W


def gram(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt pairings G[a, b] = Tr(X_a Y_b*) of two operator stacks."""
    return X.reshape(len(X), -1) @ Y.reshape(len(Y), -1).conj().T


def pair_sum(X: np.ndarray, C: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The operator sum over a, b of C[a, b] X_a Y_b for stacks X, Y."""
    N, d, _ = Y.shape
    CY = (C @ Y.reshape(N, -1)).reshape(N, d, d)
    return np.einsum("aij,ajk->ik", X, CY)


def power_kraus(K: KrausSet, m: int, max_dim: int = MAX_DIM):
    """All n**m ordered Kraus products of length m.

    Returns (words, ops) with 1-based Word labels in lexicographic
    order.  These represent the m-th channel power with one operator per
    word, excessively many but convenient.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if K.n ** m > max_dim:
        raise ValueError("word count exceeds dimension budget")
    labels = [Word(tuple(k + 1 for k in w)) for w in index_words(K.n, m)]
    return labels, list(word_stack(K.ops, m))


# ---------------------------------------------------------------------------
# minimality and Choi data


def minimal_kraus(K: KrausSet, rank_tol: float = RANK_TOL) -> KrausSet:
    """Remix to a linearly independent Kraus set for the same channel.

    Diagonalizes the Gram matrix Tr(K_j K_k*) and keeps the eigencolumns
    above threshold.  The output basis is one of many; the channel is
    unchanged.
    """
    A = word_stack(K.ops, 1)
    G = gram(A, A)
    w, U = np.linalg.eigh((G + dag(G)) / 2)
    order = np.argsort(w)[::-1]
    w, U = w[order], U[:, order]
    keep = w > rank_tol * max(w[0], 0.0)
    return remix(A, U[:, keep])


def remix(ops, U: np.ndarray) -> KrausSet:
    """The Kraus set whose r-th operator is sum_j conj(U[j, r]) K_j."""
    A = np.asarray(tuple(ops), dtype=complex)
    return KrausSet(np.tensordot(U.conj(), A, axes=(0, 0)))


def channel_choi(K: KrausSet) -> np.ndarray:
    """Choi matrix sum_{ij} |i><j| (x) Phi_*(|i><j|), a d^2 x d^2 PSD matrix."""
    C = np.zeros((K.d * K.d, K.d * K.d), dtype=complex)
    for Kk in K:
        w = Kk.T.reshape(-1)
        C += np.outer(w, w.conj())
    return C


def channel_distance(K1: KrausSet, K2: KrausSet) -> float:
    """Frobenius norm of the Choi difference; zero iff equal as maps."""
    if K1.d != K2.d:
        raise ValueError("channels act on different system dimensions")
    return frobenius_norm(channel_choi(K1) - channel_choi(K2))
