import numpy as np
import pytest

from detbal import channel
from detbal.channel import (
    KrausSet,
    Word,
    apply,
    block,
    blocks,
    blockwise_dagger,
    channel_choi,
    channel_distance,
    classify,
    dilation_from_kraus,
    first_block_column,
    from_blocks,
    index_words,
    is_star_commuting,
    isometry_from_kraus,
    kraus_from_dilation,
    minimal_kraus,
    power_kraus,
    symmetric_unitary_first_col,
    word_operator,
)
from detbal.factories import commuting_db_kraus, gad_kraus
from detbal.matcore import dag, orthonormal_completion, spectral_norm
from conftest import random_channel, random_hermitian, random_unitary


def test_kraus_set_validation():
    with pytest.raises(ValueError):
        KrausSet([])
    with pytest.raises(ValueError):
        KrausSet([np.eye(2), np.zeros((2, 2))])
    with pytest.raises(ValueError):
        KrausSet([np.eye(2), np.eye(3)])


def test_classify():
    assert classify(KrausSet([np.eye(2)])).classification == "bistochastic"
    assert classify(gad_kraus(0.75, 0.5)).classification == "channel"
    sub = KrausSet([0.5 * np.eye(2)])
    assert classify(sub).classification == "operation"
    assert abs(sub.unital_residual - 0.75) < 1e-12


def test_apply_pictures_are_adjoint():
    K = random_channel(3, 2, 17)
    A = random_hermitian(3, 18)
    rho = np.eye(3) / 3
    lhs = np.trace(apply(K, A, "heisenberg") @ rho)
    rhs = np.trace(A @ apply(K, rho, "schrodinger"))
    assert abs(lhs - rhs) < 1e-12
    with pytest.raises(ValueError):
        apply(K, A, "between")


def test_apply_unitary_conjugation():
    U = random_unitary(2, 19)
    K = KrausSet([U])
    A = random_hermitian(2, 20)
    assert np.allclose(apply(K, A), dag(U) @ A @ U)


def test_gad_fixed_point():
    p, g = 0.75, 0.5
    K = gad_kraus(p, g)
    rho = np.diag([p, 1 - p]).astype(complex)
    assert spectral_norm(apply(K, rho, "schrodinger") - rho) < 1e-14
    assert K.unital_residual < 1e-14


def test_block_convention_on_kron():
    # W = kron(S, T) with the system factor major: block (j, k) is T[j,k] S
    S = random_hermitian(3, 1)
    T = random_hermitian(2, 2)
    W = np.kron(S, T)
    for j in range(2):
        for k in range(2):
            assert np.allclose(block(W, 3, 2, j, k), T[j, k] * S)
    assert np.allclose(blockwise_dagger(W, 3, 2), np.kron(dag(S), T.conj()))


def test_blockwise_dagger_involution():
    W = random_unitary(6, 3)
    assert np.allclose(blockwise_dagger(blockwise_dagger(W, 3, 2), 3, 2), W)


def test_isometry_and_dilation_round_trip():
    K = random_channel(2, 3, 21)
    V, W = dilation_from_kraus(K)
    assert spectral_norm(dag(V) @ V - np.eye(2)) < 1e-12
    assert spectral_norm(dag(W) @ W - np.eye(6)) < 1e-10
    assert np.allclose(W[:, 0::3], V)
    K2 = kraus_from_dilation(W, 2, 3)
    for a, b in zip(K.ops, K2.ops):
        assert np.allclose(a, b)


def test_dilation_requires_channel():
    with pytest.raises(ValueError):
        dilation_from_kraus(KrausSet([0.5 * np.eye(2)]))


def test_structured_dilation_for_commuting_family():
    # commuting *-families get a completion whose blockwise dagger is unitary
    K = commuting_db_kraus(np.pi / 6)
    assert is_star_commuting(K)
    _, W = dilation_from_kraus(K)
    Wc = blockwise_dagger(W, 2, 2)
    assert spectral_norm(dag(W) @ W - np.eye(4)) < 1e-10
    assert spectral_norm(dag(Wc) @ Wc - np.eye(4)) < 1e-10


def test_is_star_commuting_negative():
    assert not is_star_commuting(gad_kraus(0.75, 0.5))
    assert not is_star_commuting(random_channel(2, 2, 22))


def test_swap_dilation_extracts_rank_one_kraus():
    # SWAP(x (x) y) = y (x) x; its first block-column is |e_1><e_k|
    d = 3
    SWAP = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            SWAP[i * d + j, j * d + i] = 1.0
    K = kraus_from_dilation(SWAP, d, d)
    for k, op in enumerate(K):
        expected = np.zeros((d, d))
        expected[0, k] = 1.0
        assert np.allclose(op, expected)


def test_kraus_from_dilation_rejects_non_unitary():
    with pytest.raises(ValueError):
        kraus_from_dilation(np.ones((4, 4)), 2, 2)


def test_general_state_mode():
    W = random_unitary(6, 23)
    sigma = np.array([0.5, 0.3, 0.2])
    K = kraus_from_dilation(W, 2, 3, "general_state", sigma)
    assert K.n == 9
    assert K.unital_residual < 1e-12
    # matrix form of sigma agrees with the vector form
    K2 = kraus_from_dilation(W, 2, 3, "general_state", np.diag(sigma))
    for a, b in zip(K.ops, K2.ops):
        assert np.allclose(a, b)
    with pytest.raises(ValueError):
        kraus_from_dilation(W, 2, 3, "general_state", None)
    with pytest.raises(ValueError):
        kraus_from_dilation(W, 2, 3, "general_state", np.array([0.7, 0.4, -0.1]))


@pytest.mark.parametrize("W, d, n, sigma", [
    # the library's own gad dilation has zero blocks
    (dilation_from_kraus(gad_kraus(0.75, 0.5))[1], 2, 4, [0.25] * 4),
    # a zero-weight bath state leaves a zero product in every row
    (np.eye(4), 2, 2, [1.0, 0.0]),
])
def test_general_state_mode_drops_zero_products(W, d, n, sigma):
    assert kraus_from_dilation(W, d, n, "general_state", sigma).unital_residual <= 1e-12


@pytest.mark.parametrize("as_matrix", [False, True])
def test_general_state_mode_refuses_a_complex_sigma(as_matrix):
    # the real parts alone are [0.25] * 4, a probability vector, so a check of the real parts
    # alone would read this sigma as the uniform bath
    _, W = dilation_from_kraus(gad_kraus(0.75, 0.5))
    sigma = np.array([0.25 + 0.3j, 0.25 - 0.3j, 0.25, 0.25])
    with pytest.raises(ValueError, match="^sigma must be an n-point probability vector$"):
        kraus_from_dilation(W, 2, 4, "general_state", np.diag(sigma) if as_matrix else sigma)


def test_general_state_mode_on_gad_with_a_pure_bath_matches_first_column():
    _, W = dilation_from_kraus(gad_kraus(0.75, 0.5))
    K = kraus_from_dilation(W, 2, 4, "general_state", [1.0, 0.0, 0.0, 0.0])
    assert channel_distance(K, kraus_from_dilation(W, 2, 4, "first_column")) <= 1e-12


def test_index_words_order():
    assert index_words(2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert index_words(3, 0) == [()]


def test_word_operator_order():
    K = random_channel(2, 2, 24)
    assert np.allclose(word_operator(K.ops, (0, 1)), K[0] @ K[1])
    assert np.allclose(word_operator(K.ops, ()), np.eye(2))


def test_power_kraus():
    K = commuting_db_kraus(0.7)
    labels0, ops0 = power_kraus(K, 0)
    assert labels0 == [Word(())]
    assert np.allclose(ops0[0], np.eye(2))
    labels2, ops2 = power_kraus(K, 2)
    assert labels2[1] == Word((1, 2))
    assert np.allclose(ops2[1], K[0] @ K[1])
    # the word family represents the channel power
    A = random_hermitian(2, 25)
    twice = apply(K, apply(K, A))
    assert spectral_norm(sum(dag(op) @ A @ op for op in ops2) - twice) < 1e-12


@pytest.mark.parametrize("m, message", [(2.0, r"m must be an integer \(got m=2\.0\)"),
                                        (True, r"m must be an integer \(got m=True\)"),
                                        (-1, r"m must be at least 0 \(got m=-1\)")])
def test_power_kraus_refuses_a_length_that_is_not_a_nonnegative_integer(m, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        power_kraus(commuting_db_kraus(0.7), m)


def test_minimal_kraus_collapses_duplicates():
    I2 = np.eye(2, dtype=complex)
    K = KrausSet([I2 / np.sqrt(2), I2 / np.sqrt(2)])
    Km = minimal_kraus(K)
    assert Km.n == 1
    assert channel_distance(K, Km) < 1e-12


def test_minimal_kraus_drops_dependent_operator():
    A = np.array([[0.3, 0.1], [0.0, 0.2]], dtype=complex)
    B = np.array([[0.0, 0.4], [0.1, 0.0]], dtype=complex)
    K = KrausSet([A, 2 * A, B])
    Km = minimal_kraus(K)
    assert Km.n == 2
    assert channel_distance(K, Km) < 1e-12


def test_minimal_kraus_keeps_independent_set():
    K = gad_kraus(0.75, 0.5)
    assert minimal_kraus(K).n == 4


def test_choi_of_identity_channel():
    K = KrausSet([np.eye(2)])
    C = channel_choi(K)
    w = np.linalg.eigvalsh(C)
    assert abs(np.trace(C) - 2.0) < 1e-12
    assert np.sum(w > 1e-10) == 1  # maximally entangled, rank one


def test_choi_matches_direct_construction():
    K = random_channel(3, 2, 26)
    d = 3
    C = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            Eij = np.zeros((d, d), dtype=complex)
            Eij[i, j] = 1.0
            C += np.kron(Eij, apply(K, Eij, "schrodinger"))
    assert spectral_norm(channel_choi(K) - C) < 1e-12


def test_channel_distance_remix_invariant():
    K = random_channel(2, 3, 27)
    U = random_unitary(3, 28)
    K2 = KrausSet([sum(U[j, r] * K[j] for j in range(3)) for r in range(3)])
    assert channel_distance(K, K2) < 1e-12


def test_channel_distance_separates_maps():
    I2 = np.eye(2, dtype=complex)
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    dist = channel_distance(KrausSet([I2]), KrausSet([X]))
    # vec(I) and vec(X) are orthogonal, each of norm sqrt(2)
    assert abs(dist - np.sqrt(8)) < 1e-12


def test_symmetric_unitary_first_col():
    rng = np.random.default_rng(29)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = v / np.linalg.norm(v)
    S = symmetric_unitary_first_col(v)
    assert spectral_norm(S - S.T) < 1e-12
    assert spectral_norm(dag(S) @ S - np.eye(4)) < 1e-12
    assert np.linalg.norm(S[:, 0] - v) < 1e-12


def test_first_block_column_shapes():
    W = random_unitary(6, 30)
    cols = first_block_column(W, 2, 3)
    assert len(cols) == 3
    assert all(c.shape == (2, 2) for c in cols)
    V = isometry_from_kraus(KrausSet(cols))
    assert np.allclose(V, W[:, 0::3])


@pytest.mark.parametrize("d, n", [(3, 2), (2, 3), (1, 4), (4, 1)])
def test_blocks_reads_the_block_layout_and_from_blocks_inverts_it(d, n):
    W = random_unitary(d * n, 10 * d + n)
    X = blocks(W, d, n)
    assert X.shape == (n, n, d, d)
    for j in range(n):
        for k in range(n):
            assert np.array_equal(X[j, k], W[j::n, k::n])
    assert np.array_equal(from_blocks(X), W)


def test_dilation_falls_back_to_gram_schmidt_when_diagonalization_fails(monkeypatch):
    K = commuting_db_kraus(np.pi / 6)
    structured = dilation_from_kraus(K)[1]

    def fail(K):
        raise ValueError("simultaneous diagonalization failed")

    monkeypatch.setattr(channel, "_simultaneous_diag", fail)
    V, W = dilation_from_kraus(K)
    assert np.array_equal(W, orthonormal_completion(V))
    assert not np.allclose(W, structured)
    assert spectral_norm(dag(W) @ W - np.eye(4)) < 1e-12
    assert np.array_equal(first_block_column(W, 2, 2), K.ops)
