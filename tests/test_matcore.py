import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import loop_oracle as oracle
from detbal.matcore import (
    MAX_DIM,
    RANK_TOL,
    as_complex,
    dag,
    eig_projector,
    frobenius_norm,
    is_hermitian,
    matrix_power_analytic,
    orthonormal_completion,
    partial_trace,
    projector_onto_span,
    rank_mask,
    spectral_norm,
    svd_cut,
    tensor_product,
)
from conftest import random_hermitian, random_unitary


def test_dag_and_norms():
    A = np.array([[1, 2j], [0, -1]], dtype=complex)
    assert np.allclose(dag(A), np.array([[1, 0], [-2j, -1]]))
    # spectral norm of a rank-one |v><w| is |v||w|
    v = np.array([3.0, 4.0])
    w = np.array([1.0, 1.0])
    R = np.outer(v, w)
    assert abs(spectral_norm(R) - 5 * np.sqrt(2)) < 1e-12
    assert abs(frobenius_norm(np.eye(3)) - np.sqrt(3)) < 1e-15


def test_spectral_norm_is_bitwise_numpy_two_norm():
    rng = np.random.default_rng(11)
    for shape in [(1, 1), (4, 4), (5, 7), (7, 5), (9, 2)] * 20:
        A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert spectral_norm(A) == float(np.linalg.norm(A, 2))
    assert spectral_norm(np.zeros((3, 0))) == 0.0


def test_is_hermitian():
    H = random_hermitian(4, 3)
    assert is_hermitian(H)
    assert not is_hermitian(H + 1e-6 * 1j * np.eye(4))


def test_tensor_product_matches_kron():
    A = random_hermitian(2, 0)
    B = random_hermitian(3, 1)
    assert np.allclose(tensor_product(A, B), np.kron(A, B))


def test_tensor_product_dimension_budget():
    big = np.eye(MAX_DIM // 2 + 1)
    with pytest.raises(ValueError):
        tensor_product(big, np.eye(3))


def test_partial_trace_product_state():
    A = random_hermitian(2, 5)
    B = random_hermitian(3, 6)
    M = np.kron(A, B)
    assert np.allclose(partial_trace(M, 2, 3, "B"), A * np.trace(B))
    assert np.allclose(partial_trace(M, 2, 3, "A"), B * np.trace(A))


def test_partial_trace_preserves_trace():
    M = random_hermitian(6, 7)
    assert abs(np.trace(partial_trace(M, 2, 3, "A")) - np.trace(M)) < 1e-12
    assert abs(np.trace(partial_trace(M, 3, 2, "B")) - np.trace(M)) < 1e-12


def test_matrix_power_basics():
    Q = np.diag([2.0, 0.5]).astype(complex)
    assert np.allclose(matrix_power_analytic(Q, 2), np.diag([4.0, 0.25]))
    assert np.allclose(matrix_power_analytic(Q, -1), np.diag([0.5, 2.0]))
    assert np.allclose(matrix_power_analytic(Q, 0.5), np.diag([np.sqrt(2), np.sqrt(0.5)]))


def test_matrix_power_complex_exponent():
    # 2^z = exp(z ln 2), so z = -i pi / ln 2 sends both 2 and 1/2 to -1
    Q = np.diag([2.0, 0.5]).astype(complex)
    z = -1j * np.pi / np.log(2.0)
    assert np.max(np.abs(matrix_power_analytic(Q, z) + np.eye(2))) < 1e-12


def test_matrix_power_group_law():
    Q = random_hermitian(4, 11)
    Q = Q @ Q.conj().T + 0.5 * np.eye(4)  # positive definite
    za, zb = 0.3 - 0.7j, -1.1 + 0.2j
    lhs = matrix_power_analytic(Q, za) @ matrix_power_analytic(Q, zb)
    rhs = matrix_power_analytic(Q, za + zb)
    assert spectral_norm(lhs - rhs) < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan), complex(0, -np.inf)],
                         ids=["nan-real", "inf-real", "nan-imag", "inf-imag"])
def test_as_complex_rejects_non_finite_entries(bad):
    A = np.eye(3, dtype=complex)
    A[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        as_complex(A)


def test_rank_mask_keeps_positive_values_above_the_relative_cut():
    w = np.array([-1.0, 0.0, 1e-12, 2e-9, 1.0])
    assert rank_mask(w, 1e-9).tolist() == [False, False, False, True, True]
    assert rank_mask(w, 0.0).tolist() == [False, False, True, True, True]
    # with no positive value nothing is kept, whatever the tolerance
    assert not rank_mask(np.array([-3.0, -1.0, 0.0]), 1e-9).any()
    assert not rank_mask(np.zeros(0), 1e-9).any()


def test_matrix_power_rejects_bad_input():
    with pytest.raises(ValueError):
        matrix_power_analytic(np.array([[0, 1], [0, 0]], dtype=complex), 0.5)
    with pytest.raises(ValueError):
        matrix_power_analytic(np.diag([1.0, 0.0]).astype(complex), 0.5)


def test_orthonormal_completion_first_block_column():
    # isometry with d=2, n=2: completion must place V at columns 0, n, ...
    rng = np.random.default_rng(2)
    X = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    V, _ = np.linalg.qr(X)
    W = orthonormal_completion(V)
    assert spectral_norm(dag(W) @ W - np.eye(4)) < 1e-12
    assert np.allclose(W[:, 0::2], V)


def test_orthonormal_completion_rejects_non_isometry():
    with pytest.raises(ValueError):
        orthonormal_completion(np.ones((4, 2), dtype=complex))


def test_projector_onto_span():
    v1 = np.array([1.0, 1.0]) / np.sqrt(2)
    P, r = projector_onto_span([v1])
    assert r == 1
    assert np.allclose(P, np.full((2, 2), 0.5))
    # a nearly dependent second vector does not raise the rank
    P2, r2 = projector_onto_span([v1, v1 + 1e-13 * np.array([1.0, -1.0])])
    assert r2 == 1
    assert spectral_norm(P2 - P) < 1e-9


def test_projector_onto_span_empty():
    P, r = projector_onto_span([], dim=3)
    assert r == 0
    assert np.allclose(P, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        projector_onto_span([])


def test_projector_idempotent_property():
    rng = np.random.default_rng(4)
    vecs = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(3)]
    P, r = projector_onto_span(vecs)
    assert r == 3
    assert spectral_norm(P @ P - P) < 1e-12
    assert is_hermitian(P)
    for v in vecs:
        assert np.linalg.norm(P @ v - v) < 1e-10


def test_eig_projector():
    R = np.diag([1.0, 1e-12, -0.5]).astype(complex)
    P, rank = eig_projector(R, 1e-8)
    assert rank == 2
    assert np.allclose(np.diag(P).real, [1.0, 0.0, 1.0])


def test_eig_projector_unitary_invariance():
    R = np.diag([0.7, 0.0, 0.0, -0.2]).astype(complex)
    U = random_unitary(4, 9)
    _, rank = eig_projector(U @ R @ dag(U), 1e-8)
    assert rank == 2


# svd_cut factors a wide X (cols >= 4 rows and rows * cols >= 1024) by its short
# side and every other X by one SVD; shapes on both sides of that rule, tall ones
# and a level whose products all vanish (0 rows)
WIDE = [(1, 1024), (1, 1600), (2, 576), (2, 1024), (3, 400), (4, 256), (6, 1024),
        (6, 1600), (8, 144), (16, 64)]
DIRECT = [(0, 16), (0, 1600), (1, 4), (1, 1023), (2, 9), (2, 256), (4, 16), (8, 64),
          (16, 36), (16, 63), (32, 36), (9, 4)]
SINGULAR_VALUE = {"order_one": None, "above_cut": 10 * RANK_TOL, "below_cut": 0.1 * RANK_TOL,
                  "zero": 0.0}


def _level_like_matrix(rows, cols, kinds, thin, zero_rows, scale, seed):
    """(X, rank): X has `zero_rows` exact-zero rows and, on the others, either the
    product of thin Gaussian factors or s_0 = 1 and s_k of the drawn kinds, off the cut."""
    rng = np.random.default_rng(seed)
    z = min(zero_rows, rows)
    k = min(rows - z, cols)
    if thin:
        t = sum(kind != "zero" for kind in kinds[:k])
        A, B = (rng.normal(size=sh) + 1j * rng.normal(size=sh) for sh in ((rows - z, t), (t, cols)))
        X, rank = A @ B, t
    else:
        s = np.array([1.0] + [rng.uniform(0.1, 1.0) if SINGULAR_VALUE[kind] is None
                              else SINGULAR_VALUE[kind] for kind in kinds[1:k]])[:k]
        W, _ = np.linalg.qr(rng.normal(size=(cols, k)) + 1j * rng.normal(size=(cols, k)))
        X, rank = (random_unitary(rows - z, seed)[:, :k] * s) @ dag(W), int(np.sum(s > RANK_TOL))
    out = np.zeros((rows, cols), dtype=complex)
    out[np.sort(rng.permutation(rows)[:rows - z])] = X
    return scale * out, rank


@pytest.mark.parametrize("shape", WIDE + DIRECT, ids=lambda sh: f"{sh[0]}x{sh[1]}")
@hypothesis.settings(max_examples=8, deadline=None, database=None)
@hypothesis.given(kinds=st.lists(st.sampled_from(list(SINGULAR_VALUE)), min_size=32, max_size=32),
                  thin=st.booleans(), zero_rows=st.integers(0, 2),
                  scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2 ** 32 - 1))
def test_svd_cut_matches_the_direct_svd(shape, kinds, thin, zero_rows, scale, seed):
    rows, cols = shape
    X, rank = _level_like_matrix(rows, cols, kinds, thin, zero_rows, scale, seed)
    U, B = svd_cut(X)
    Ud, Bd = oracle.svd_cut_direct(X)
    assert U.shape == (rows, rank) and B.shape == (rank, cols) and Ud.shape[1] == rank
    if shape in DIRECT:  # the direct body, bit for bit
        np.testing.assert_array_equal(U, Ud)
        np.testing.assert_array_equal(B, Bd)
    s = np.linalg.svd(X, compute_uv=False)
    nX = s.max(initial=0.0)
    assert spectral_norm(dag(U) @ U - np.eye(rank)) <= 1e-14
    assert spectral_norm(U @ B - U @ (dag(U) @ X)) <= 1e-13 * nX
    assert spectral_norm(B @ dag(B) - np.diag(s[:rank] ** 2)) <= 1e-13 * nX ** 2
    # U B is X cut to its kept singular values
    assert spectral_norm(X - U @ B) <= s[rank:].max(initial=0.0) + 1e-13 * nX
