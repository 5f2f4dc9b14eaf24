"""Dense complex linear algebra primitives shared by all other modules.

Conventions used throughout the package:

* matrices are numpy arrays of complex dtype, row-major;
* tensor factors are indexed left-major, i.e. the first factor is the
  most significant index of a Kronecker product;
* every numerical-rank decision follows one rule, ``rank_mask``.
"""
from __future__ import annotations

import numpy as np

RANK_TOL = 1e-9
RESIDUAL_TOL = 1e-8
MAX_DIM = 4096


def rank_mask(values: np.ndarray, rank_tol: float = RANK_TOL) -> np.ndarray:
    """The rank rule: True where a value is positive and above rank_tol times the largest.

    The largest is taken along the last axis, so a stack of value lists is
    cut list by list, each as it would be cut alone.
    """
    return (values > 0) & (values > rank_tol * values.max(axis=-1, initial=0.0, keepdims=True))


def svd_cut(X: np.ndarray, rank_tol: float = RANK_TOL):
    """(U, B) for the SVD X = U s Vh cut by rank_mask on s: the kept left vectors and B = s Vh.

    A wide X, with at least 4 times as many columns as rows and at least
    1024 entries, is factored by its short side: with X* = Q R, X = R* Q*,
    so the r x r SVD of R* gives U and s, and B = U* X.  The QR is
    backward stable, so s and the rank cut are X's to O(eps ||X||), and B
    is s Vh up to a unitary inside degenerate singular values.  Every other
    shape takes one SVD of X: below those bounds the extra LAPACK call costs
    more than it saves, and they keep every X of fewer than 64 columns
    (every level of a d < 8 channel) on the one SVD.
    """
    rows, cols = X.shape
    if cols >= 4 * rows and rows * cols >= 1024:
        U, s, _ = np.linalg.svd(dag(np.linalg.qr(dag(X), mode="r")))
        U = U[:, :np.count_nonzero(rank_mask(s, rank_tol))]
        return U, dag(U) @ X
    U, s, Vh = np.linalg.svd(X, full_matrices=False)
    k = np.count_nonzero(rank_mask(s, rank_tol))  # s descends, so the kept values lead
    return U[:, :k], s[:k, np.newaxis] * Vh[:k]


def read_only(X: np.ndarray) -> np.ndarray:
    """A view of X that cannot be written through."""
    X = X.view()
    X.flags.writeable = False
    return X


def dag(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose; of every matrix in a stack when A.ndim > 2."""
    return A.conj().swapaxes(-1, -2)


def spectral_norm(A: np.ndarray) -> float:
    return float(np.linalg.svd(A, compute_uv=False).max(initial=0.0))


def isometry_defect(X: np.ndarray) -> np.ndarray:
    """Eigenvalues s^2 - 1 of X*X - 1 (and of XX* - 1 for square X), s the singular values of X."""
    s = np.linalg.svd(X, compute_uv=False)
    return (s - 1) * (s + 1)


def frobenius_norm(A: np.ndarray) -> float:
    return float(np.linalg.norm(A))


def as_complex(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if not np.isfinite(A).all():  # on complex input both parts
        raise ValueError("matrix entries must be finite")
    return A


def is_hermitian(A: np.ndarray, tol: float = 1e-10) -> bool:
    return spectral_norm(A - dag(A)) <= tol * max(1.0, spectral_norm(A))


def tensor_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor as the major index.

    Raises ValueError when the result would exceed MAX_DIM rows or columns.
    """
    A = as_complex(A)
    B = as_complex(B)
    if A.shape[0] * B.shape[0] > MAX_DIM or A.shape[1] * B.shape[1] > MAX_DIM:
        raise ValueError(
            f"tensor product dimension {A.shape[0] * B.shape[0]} exceeds limit {MAX_DIM}"
        )
    return np.kron(A, B)


def partial_trace(M: np.ndarray, dimA: int, dimB: int, which: str) -> np.ndarray:
    """Trace out one factor of a matrix on a dimA*dimB product space.

    Parameters
    ----------
    M : square matrix of size dimA*dimB.
    which : "A" traces out the first factor, "B" the second.

    Tr(result) equals Tr(M).
    """
    M = as_complex(M)
    if M.shape != (dimA * dimB, dimA * dimB):
        raise ValueError(f"expected shape {(dimA * dimB,) * 2}, got {M.shape}")
    R = M.reshape(dimA, dimB, dimA, dimB)
    if which == "B":
        return np.einsum("ikjk->ij", R)
    if which == "A":
        return np.einsum("kikj->ij", R)
    raise ValueError("which must be 'A' or 'B'")


def matrix_power_analytic(Q: np.ndarray, z: complex, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Q**z for positive definite Q via Hermitian eigendecomposition.

    z may be complex (e.g. -1j*t for a flow parameter).  Rejects
    non-Hermitian input and any eigenvalue the rank rule drops, since
    fractional powers of a singular matrix are not defined here.
    """
    Q = as_complex(Q)
    if not is_hermitian(Q):
        raise ValueError("matrix power requires a Hermitian matrix")
    w, U = np.linalg.eigh((Q + dag(Q)) / 2)
    if not rank_mask(w, rank_tol).all():
        raise ValueError("matrix power requires positive definite input")
    return (U * np.power(w.astype(complex), z)) @ dag(U)


def orthonormal_completion(V: np.ndarray, tol: float = RESIDUAL_TOL) -> np.ndarray:
    """Complete an isometry V of shape (d*n, d) to a unitary W.

    W is viewed as an n x n block matrix over d x d blocks with the
    first factor (system) index major; its first block-column equals V,
    which places V's columns at positions 0, n, 2n, ... of W.
    """
    V = as_complex(V)
    dn, d = V.shape
    if dn % d != 0:
        raise ValueError("isometry rows must be a multiple of its columns")
    n = dn // d
    if np.abs(isometry_defect(V)).max() > tol:
        raise ValueError("input is not an isometry within tolerance")
    # Gram-Schmidt over [V | I]; V's columns survive unchanged.
    cols = [V[:, i].copy() for i in range(d)]
    for i in range(dn):
        v = np.zeros(dn, dtype=complex)
        v[i] = 1.0
        for c in cols:
            v = v - c * (c.conj() @ v)
        nv = np.linalg.norm(v)
        if nv > 1e-9:
            cols.append(v / nv)
        if len(cols) == dn:
            break
    if len(cols) < dn:
        raise ValueError("completion failed to reach full rank")
    W = np.zeros((dn, dn), dtype=complex)
    W[:, 0::n] = V
    rest = [c for c in range(dn) if c % n != 0]
    for src, tgt in enumerate(rest):
        W[:, tgt] = cols[d + src]
    return W


def projector_onto_span(vectors, rank_tol: float = RANK_TOL, dim: int | None = None):
    """Hermitian idempotent projecting onto the numerical span of vectors.

    Returns (P, rank).  An empty list yields the zero projector of size
    dim, which must then be supplied.
    """
    if len(vectors) == 0:
        if dim is None:
            raise ValueError("dim required for an empty vector list")
        return np.zeros((dim, dim), dtype=complex), 0
    A = np.column_stack([as_complex(v).reshape(-1) for v in vectors])
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    Ur = U[:, rank_mask(s, rank_tol)]
    return Ur @ dag(Ur), Ur.shape[1]


def eig_projector(R: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """Projector onto eigenvectors of Hermitian(R) with |eigenvalue| > tol."""
    H = (R + dag(R)) / 2
    w, U = np.linalg.eigh(H)
    keep = np.abs(w) > tol
    Uk = U[:, keep]
    return Uk @ dag(Uk), int(np.sum(keep))
