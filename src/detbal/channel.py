"""Kraus sets, channel application, dilations, minimality and Choi data.

A Kraus set holds its operators as one complex (n, d, d) array, so every
channel quantity is a contraction over the leading Kraus index.  Stacks
of words grow by products, which forms every product X_i Y_j of two
operator stacks as one 2-D matmul: numpy runs a broadcast
X[:, None] @ Y[None] as one small matmul per pair, and at d <= 5 that
loop, not the arithmetic, is the cost.  The commutators that
is_star_commuting judges are products too.

A unitary W on the product of the d-dimensional system space and the
n-dimensional auxiliary space is handled as an n x n matrix of d x d
blocks, system index major: entry (x, y) of block W_{jk} sits at row
x n + j and column y n + k of W.  This module owns that layout: blocks
gives the (n, n, d, d) view whose [j, k] is W_{jk}, from_blocks builds
W back from such an array, and every other function that reads or builds
blocks goes through them, but f_conjugate, whose mode products act on a
reshape of W^c here.  The one other place that knows the layout is
matcore.orthonormal_completion, which keeps the isometry it completes at
the interleaved columns W[:, 0::n], the first block-column.

A pair (W, F) of such a W and an invertible n x n intertwiner F, as in
Van Daele and Wang's A_u(F), is checked in one place,
require_dilation_pair, which every function taking a pair calls.
"""
from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .matcore import (
    MAX_DIM,
    RANK_TOL,
    RESIDUAL_TOL,
    as_complex,
    dag,
    frobenius_norm,
    isometry_defect,
    orthonormal_completion,
    spectral_norm,
    svd_cut,
)

ZERO_OP_TOL = 1e-12
COMMUTE_TOL = 1e-10  # is_star_commuting: commutator norm per unit of ||K_i|| ||K_j||
DIAG_TOL = 1e-9  # _simultaneous_diag: off-diagonal entry per unit of ||K_j||


def _is_zero(ops: np.ndarray, tol=ZERO_OP_TOL) -> np.ndarray:
    """Mask of the operators in an (n, d, d) stack of spectral norm at most tol.

    tol is one bound, or one per operator.  Since
    ||K||_2 <= ||K||_F <= sqrt(d) ||K||_2, an operator whose Frobenius norm
    is at most tol / 2 is within it and one whose Frobenius norm exceeds
    2 sqrt(d) tol is not (margins for rounding); only those in between
    take an SVD, so the mask is the one the spectral norms give.
    """
    fro = np.linalg.norm(ops.reshape(len(ops), -1), axis=1)
    zero = fro <= tol / 2
    near = (fro <= 2 * np.sqrt(ops.shape[-1]) * tol) ^ zero
    if near.any():
        zero[near] = (np.linalg.svd(ops[near], compute_uv=False)[:, 0]
                      <= np.broadcast_to(tol, fro.shape)[near])
    return zero


class KrausSet:
    """An ordered family of equal-shaped square operators on the system.

    ``ops`` holds the family as one complex (n, d, d) array.  Zero
    operators are rejected at construction: they carry no dynamics and
    make the correlation matrix singular.

    ``ops`` is read-only: the attribute cannot be rebound and the array
    cannot be written in place, so data built from it (a subproduct
    system records it, and the residuals below are kept) cannot go
    stale.  unital_residual and cotrace_residual are formed on first
    read and then kept.
    """

    def __init__(self, ops):
        if isinstance(ops, np.ndarray) and ops.ndim == 3:  # one conversion, into the set's own copy
            ops = as_complex(np.array(ops, dtype=complex))
        else:
            ops = [as_complex(K) for K in ops]
        if len(ops) == 0:
            raise ValueError("need at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or any(K.shape != shape for K in ops):
            raise ValueError("Kraus operators must share a square shape")
        d = shape[0]
        A = np.asarray(ops)
        if _is_zero(A).any():
            raise ValueError("zero Kraus operator rejected")
        A.flags.writeable = False
        self._ops = A
        self.d = d
        self.n = len(A)

    @property
    def ops(self) -> np.ndarray:
        return self._ops

    @functools.cached_property
    def unital_residual(self) -> float:
        """||sum_k K_k* K_k - 1||: zero when K is a channel."""
        return spectral_norm((dag(self.ops) @ self.ops).sum(0) - np.eye(self.d))

    @functools.cached_property
    def cotrace_residual(self) -> float:
        """||sum_k K_k K_k* - 1||: zero when the channel is also unital."""
        return spectral_norm((self.ops @ dag(self.ops)).sum(0) - np.eye(self.d))

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
        return (dag(K.ops) @ X @ K.ops).sum(0)
    if picture == "schrodinger":
        return (K.ops @ X @ dag(K.ops)).sum(0)
    raise ValueError("picture must be 'heisenberg' or 'schrodinger'")


# ---------------------------------------------------------------------------
# block conventions


def blocks(W: np.ndarray, d: int, n: int) -> np.ndarray:
    """The (n, n, d, d) view of W whose [j, k] is the block W_{jk}."""
    return W.reshape(d, n, d, n).transpose(1, 3, 0, 2)


def from_blocks(X: np.ndarray) -> np.ndarray:
    """The dn x dn matrix whose block W_{jk} is X[j, k], for an (n, n, d, d) array X."""
    n, d = X.shape[1], X.shape[-1]
    return X.transpose(2, 0, 3, 1).reshape(d * n, d * n)


def block(W: np.ndarray, d: int, n: int, j: int, k: int) -> np.ndarray:
    return blocks(W, d, n)[j, k]


def blockwise_dagger(W: np.ndarray, d: int, n: int) -> np.ndarray:
    """W^c: replace every block by its own adjoint, indices in place."""
    return from_blocks(dag(blocks(as_complex(W), d, n)))


def require_dilation_pair(W, F):
    """(W, F, d, n) for a block matrix W and an intertwiner F, both complex.

    The one check of the pair (W, F) that the A_u(F) relations are stated
    for: F is a nonempty square matrix, n x n, and invertible (its
    smallest singular value is above 1e-12 of its largest), and W is a
    square matrix with n x n blocks of size d.  Whether W is unitary is
    each caller's own question.
    """
    W, F = as_complex(W), as_complex(F)
    n = F.shape[0] if F.ndim == 2 else 0
    if n == 0 or F.shape != (n, n):
        raise ValueError("F must be square")
    s = np.linalg.svd(F, compute_uv=False)
    if s[-1] <= 1e-12 * s[0]:
        raise ValueError("F must be invertible")
    if W.ndim != 2 or W.shape[0] != W.shape[1] or W.shape[0] % n != 0:
        raise ValueError("W must be square with n x n block structure")
    return W, F, W.shape[0] // n, n


def f_conjugate(W: np.ndarray, F: np.ndarray, d: int, n: int) -> np.ndarray:
    """The F-conjugate dilation (1 (x) F) W^c (1 (x) F^-1).

    F and F^-1 act on the block indices alone, as mode products on the
    (d, n, d, n) reshape of W^c, so no dn x dn Kronecker factor is formed.
    """
    Wc = blockwise_dagger(W, d, n).reshape(d, n, d * n)
    return ((F @ Wc).reshape(-1, n) @ np.linalg.inv(F)).reshape(d * n, d * n)


def first_block_column(W: np.ndarray, d: int, n: int) -> np.ndarray:
    """The blocks W_{j0} as an (n, d, d) stack."""
    return blocks(W, d, n)[:, 0]


# ---------------------------------------------------------------------------
# dilations


def isometry_from_kraus(K: KrausSet) -> np.ndarray:
    """V xi = sum_k K_k xi (x) e_k, shape (d*n, d)."""
    return K.ops.transpose(1, 0, 2).reshape(K.d * K.n, K.d)


def is_star_commuting(K: KrausSet) -> bool:
    """Whether every pair of operators commutes, [K_i, K_j] = [K_i, K_j*] = 0, up to COMMUTE_TOL.

    A pair passes when both commutators have spectral norm at most
    COMMUTE_TOL max(1, ||K_i|| ||K_j||), decided by _is_zero: a Frobenius
    norm screen, and an SVD only for a commutator near that bound.  The
    commutators come from one products call on the stack X = (K, K*):
    G[a, i, b, j] = X_{a i} X_{b j}, so [K_i, X_{b j}] is
    G[0, i, b, j] - G[b, j, 0, i].
    """
    n, d, ops = K.n, K.d, K.ops
    X = np.concatenate((ops, dag(ops)))
    G = products(X, X).reshape(2, n, 2, n, d, d)
    norms = np.linalg.svd(ops, compute_uv=False)[:, 0]  # largest singular values: spectral norms
    scale = COMMUTE_TOL * np.maximum(1.0, np.outer(norms, norms)).ravel()
    comms = G[0].transpose(1, 0, 2, 3, 4) - G[:, :, 0].transpose(0, 2, 1, 3, 4)  # [b, i, j]
    return bool(_is_zero(comms.reshape(-1, d, d), np.tile(scale, 2)).all())


def _simultaneous_diag(K: KrausSet) -> np.ndarray:
    """Unitary T with T* K_j T diagonal for a commuting *-family, off-diagonals within DIAG_TOL."""
    rng = np.random.default_rng(12345)
    scale = DIAG_TOL * np.maximum(1.0, np.linalg.norm(K.ops, 2, axis=(1, 2)))
    off_diag = 1.0 - np.eye(K.d)
    for _ in range(20):
        c = rng.normal(size=K.n) + 1j * rng.normal(size=K.n)
        C = np.tensordot(c, K.ops, axes=1)
        _, T = np.linalg.eigh(C + dag(C))
        if np.all(np.abs((dag(T) @ K.ops @ T) * off_diag).max(axis=(1, 2)) <= scale):
            return T
    raise ValueError("simultaneous diagonalization failed")


def symmetric_unitary_first_col(v: np.ndarray) -> np.ndarray:
    """Complex symmetric unitary S (S = S^T) with first column v, |v| = 1.

    Built as D H D with H the real Householder reflection taking e_1 to
    the modulus vector of v and D a phase diagonal splitting the first
    phase evenly, which keeps S symmetric.  A stack of vectors along the
    last axis gives the stack of their unitaries.
    """
    v = as_complex(v)
    nv = v.shape[-1]
    u = np.abs(v) - np.eye(nv)[0]
    nu = np.linalg.norm(u, axis=-1, keepdims=True)
    u = u / np.where(nu < 1e-14, np.inf, nu)  # H = 1 when |v| is already e_1
    H = np.eye(nv) - 2.0 * u[..., :, np.newaxis] * u[..., np.newaxis, :]
    phases = np.angle(v)
    phi = phases - phases[..., :1] / 2.0
    phi[..., 0] = phases[..., 0] / 2.0
    D = np.exp(1j * phi)
    return D[..., :, np.newaxis] * H * D[..., np.newaxis, :]


def _completion_structured(K: KrausSet) -> np.ndarray:
    """Block-symmetric unitary completion for a commuting *-family.

    Diagonalize the family simultaneously; in each joint eigenslot the
    first-column entries form a unit vector (unitality), which a
    symmetric unitary extends.  Blockwise symmetry W_{jk} = W_{kj} makes
    the blockwise-dagger matrix exactly unitary as well.
    """
    T = _simultaneous_diag(K)
    # slot i holds the vector (T* K_j T)_ii over j, one (n, n) unitary each
    slots = symmetric_unitary_first_col(np.diagonal(dag(T) @ K.ops @ T, axis1=1, axis2=2).T)
    return from_blocks(np.einsum("ai,ijk,bi->jkab", T, slots, T.conj()))


def dilation_from_kraus(K: KrausSet, tol: float = RESIDUAL_TOL):
    """Return (V, W): the canonical isometry and a deterministic unitary
    completion whose first block-column is V.

    Commuting *-families get a block-symmetric completion (so the
    blockwise-dagger matrix stays unitary); anything else, and a family
    _simultaneous_diag fails to diagonalize, gets the generic Gram-Schmidt
    completion.  The block-symmetric W is not checked for unitarity: it
    is (T (x) 1)(sum_i |i><i| (x) S_i)(T (x) 1)*, with T the unitary
    eigenvector matrix of an eigh and each S_i = D H D a Householder
    reflection between phase diagonals, so it is unitary for any input,
    to round-off.
    """
    if K.unital_residual >= tol:
        raise ValueError("dilation requires a channel (sum K*K = 1)")
    V = isometry_from_kraus(K)
    if is_star_commuting(K):
        try:
            return V, _completion_structured(K)
        except ValueError:
            pass
    return V, orthonormal_completion(V)


def kraus_from_dilation(W: np.ndarray, d: int, n: int, mode: str = "first_column",
                        sigma=None, tol: float = RESIDUAL_TOL) -> KrausSet:
    """Extract Kraus operators from a unitary on the system-bath space.

    mode "first_column" reads the n blocks of the first block-column.
    mode "general_state" takes a diagonal bath density sigma (matrix or
    vector of real probabilities) and returns the products sqrt(sigma_k) W_{jk},
    ordered with j major.  Products of spectral norm at most ZERO_OP_TOL
    (zero blocks, zero-weight bath states) carry no dynamics and are
    dropped.
    """
    W = as_complex(W)
    if W.shape != (d * n, d * n):
        raise ValueError("dilation shape mismatch")
    if np.abs(isometry_defect(W)).max() > tol:
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
            sigma = np.diag(sigma)
        probs = sigma.real
        if (probs.shape != (n,) or np.any(probs < -1e-12) or np.any(np.abs(sigma.imag) > 1e-12)
                or abs(probs.sum() - 1) > 1e-10):
            raise ValueError("sigma must be an n-point probability vector")
        scale = np.sqrt(np.maximum(probs, 0.0))[:, np.newaxis, np.newaxis]
        ops = (blocks(W, d, n) * scale).reshape(n * n, d, d)
        return KrausSet(ops[~_is_zero(ops)])
    raise ValueError("mode must be 'first_column' or 'general_state'")


# ---------------------------------------------------------------------------
# words and powers


def index_words(n: int, m: int):
    """All length-m words over {0,...,n-1}, leftmost letter most significant."""
    return list(itertools.product(range(n), repeat=m))


def word_labels(n: int, m: int) -> list:
    """The 1-based Word labels of index_words(n, m), in the same order."""
    return [Word(tuple(k + 1 for k in w)) for w in index_words(n, m)]


def require_word_length(m, name: str, least: int | None = None) -> int:
    """m as an int, the one check of a word length or level; it raises ValueError naming m.

    A bool, or anything but an integer, is refused, and so is an m below
    least when least is given.  The floors in use: 1 for the verdict, KMS
    and Crooks checks, 0 for build_subproduct and power_kraus.
    """
    if type(m) is not int:  # the common case skips the slower abstract-class check
        if isinstance(m, bool) or not isinstance(m, numbers.Integral):
            raise ValueError(f"{name} must be an integer (got {name}={m!r})")
        m = int(m)
    if least is not None and m < least:
        raise ValueError(f"{name} must be at least {least} (got {name}={m})")
    return m


def require_word_budget(n: int, m: int) -> None:
    """Refuse a level of more than MAX_DIM words of length m over n letters."""
    if n ** m > MAX_DIM:
        raise ValueError(f"level of {n}**{m} = {n ** m} words exceeds the budget "
                         f"of {MAX_DIM} words per level")


def word_operator(K, w) -> np.ndarray:
    return functools.reduce(np.matmul, (K[k] for k in w), np.eye(K[0].shape[0], dtype=complex))


def products(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Every product X_i Y_j of an (a, k, k) and a (b, k, k) stack as an (a b, k, k) stack, i major.

    Formed as one (a k, k) x (k, b k) matmul of X's stacked rows with Y's
    side-by-side columns, then one transpose copy into stack order.  The
    broadcast X[:, None] @ Y[None] gives the same products one small
    matmul at a time: at k = 2 and a b = 512 that takes 165-177 us against
    19-26 us here, and at k = 5, a b = 128, 59 us against 20 us (one core
    of an Intel Xeon, OpenBLAS).  An empty stack (a rank-0 level) gives an
    empty stack.
    """
    (a, k), b = X.shape[:2], len(Y)
    P = X.reshape(a * k, k) @ Y.transpose(1, 0, 2).reshape(k, b * k)
    return P.reshape(a, k, b, k).transpose(0, 2, 1, 3).reshape(a * b, k, k)


def word_stack(ops, m: int) -> np.ndarray:
    """Every length-m product K_{w1}...K_{wm} of an (n, d, d) array as an
    (n**m, d, d) array.

    Row a is the word at position a of index_words(n, m), so the
    leftmost letter is the most significant digit of a in base n: each
    step is products of the words so far with the letters.
    """
    W = np.eye(ops.shape[1], dtype=complex)[np.newaxis]
    for _ in range(m):
        W = products(W, ops)  # every word, then every letter
    return W


def _rows(ops: np.ndarray) -> np.ndarray:
    """Each operator of a stack flattened to a row; an empty stack gives 0 rows."""
    return ops.reshape(*ops.shape[:-2], ops.shape[-2] * ops.shape[-1])


def gram(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt pairings G[..., a, b] = Tr(X_a Y_b*) of two operator stacks.

    Leading axes beyond the stack's own batch the stacks: one Gram per
    pair of stacks, each formed as it would be formed alone.
    """
    return _rows(X) @ dag(_rows(Y))


def power_kraus(K: KrausSet, m: int):
    """All n**m ordered Kraus products of length m.

    Returns (words, ops) with 1-based Word labels in lexicographic
    order.  These represent the m-th channel power with one operator per
    word, excessively many but convenient.
    """
    m = require_word_length(m, "m", least=0)
    require_word_budget(K.n, m)
    return word_labels(K.n, m), list(word_stack(K.ops, m))


# ---------------------------------------------------------------------------
# minimality and Choi data


def minimal_kraus(K: KrausSet, rank_tol: float = RANK_TOL) -> KrausSet:
    """Remix to a linearly independent Kraus set for the same channel.

    Takes the SVD U s Vh of the n x d^2 Kraus matrix (svd_cut, by its
    short side when n is small against d^2) and returns the operators
    U* K, which are s Vh, for the singular values s the rank rule keeps,
    largest first: the rule and the operators of level 1 of the
    subproduct system (stinespring.first_level).  The output basis is
    one of many; the channel is unchanged up to the dropped s.
    """
    return KrausSet(svd_cut(K.ops.reshape(K.n, -1), rank_tol)[1].reshape(-1, K.d, K.d))


def remix(ops: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The stack whose r-th operator is sum_j conj(U[j, r]) ops_j, as one matmul U* ops.

    Leading axes of ops and U beyond the stack's own batch the remix.
    """
    flat = dag(U) @ _rows(ops)
    return flat.reshape(*flat.shape[:-1], *ops.shape[-2:])


def channel_choi(K: KrausSet) -> np.ndarray:
    """Choi matrix sum_{ij} |i><j| (x) Phi_*(|i><j|), a d^2 x d^2 PSD matrix."""
    B = K.ops.transpose(0, 2, 1).reshape(K.n, -1)  # row k is K_k^T flattened
    return B.T @ B.conj()


def channel_distance(K1: KrausSet, K2: KrausSet) -> float:
    """Frobenius norm of the Choi difference; zero iff equal as maps."""
    if K1.d != K2.d:
        raise ValueError("channels act on different system dimensions")
    return frobenius_norm(channel_choi(K1) - channel_choi(K2))
