"""The (n, d, d) Kraus-array contractions against the per-operator loops
they replaced.

Every quantity must match its oracle (``loop_oracle``) to
1e-12 * max(1, |ref|) entrywise on random channels over the (d, n) grid,
gad, commuting_db, a measurement channel (whose commuting family takes
the structured completion) and the truncated SU_q(2) ladder.
"""
import numpy as np
import pytest

import loop_oracle as oracle
from detbal.channel import (
    ZERO_OP_TOL,
    KrausSet,
    _completion_structured,
    apply,
    channel_choi,
    dilation_from_kraus,
    first_block_column,
    is_star_commuting,
    isometry_from_kraus,
    kraus_from_dilation,
)
from detbal.equilibrium import orthogonalize_kraus, zero_mean_check
from detbal.factories import commuting_db_kraus, gad_kraus, measurement_channel
from detbal.qgroup import suq2_generators
from detbal.reversal import crooks_dual, reversed_kraus

from conftest import random_channel, random_hermitian, random_unitary

RTOL = 1e-12

CASES = {
    **{f"random-d{d}-n{n}": (lambda d=d, n=n: random_channel(d, n, 7000 + 3 * d + n))
       for d in (2, 3, 4) for n in (2, 3, 4)},
    "gad": lambda: gad_kraus(0.75, 0.5),
    "commuting_db": lambda: commuting_db_kraus(np.pi / 6),
    "measurement": lambda: measurement_channel()[0],
    "suq2": lambda: suq2_generators(0.5, 6)[2],
}
COMMUTING = ("commuting_db", "measurement")


def assert_close(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert float(np.max(np.abs(new - ref))) <= RTOL * scale


def full_rank_state(d, seed):
    X = random_hermitian(d, seed)
    rho = X @ X + np.eye(d)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("case", sorted(CASES))
def test_channel_quantities_match_loop_oracle(case):
    K = CASES[case]()
    unital, cotrace = oracle.kraus_residuals(K)
    assert_close(K.unital_residual, unital)
    assert_close(K.cotrace_residual, cotrace)
    X = random_hermitian(K.d, 1) + 1j * random_hermitian(K.d, 2)
    for picture in ("heisenberg", "schrodinger"):
        assert_close(apply(K, X, picture), oracle.apply_loop(K, X, picture))
    assert_close(isometry_from_kraus(K), oracle.isometry_from_kraus(K))
    assert_close(channel_choi(K), oracle.channel_choi(K))
    assert is_star_commuting(K) == oracle.is_star_commuting(K)
    assert is_star_commuting(K) == (case in COMMUTING)
    rho0 = full_rank_state(K.d, 3)
    assert_close(zero_mean_check(K, rho0), np.abs(oracle.means(K, rho0)))
    assert_close(crooks_dual(K, rho0).ops, oracle.crooks_dual(K, rho0).ops)


@pytest.mark.parametrize("case", sorted(CASES))
def test_dilation_blocks_match_loop_oracle(case):
    K = CASES[case]()
    _, W = dilation_from_kraus(K)
    assert_close(first_block_column(W, K.d, K.n), oracle.first_block_column(W, K.d, K.n))
    # a Haar unitary has no zero blocks, which KrausSet would reject
    U = random_unitary(K.d * K.n, 5)
    probs = np.arange(1.0, K.n + 1) / (K.n * (K.n + 1) / 2)
    assert_close(kraus_from_dilation(U, K.d, K.n, "general_state", probs).ops,
                 oracle.general_state_kraus(U, K.d, K.n, probs))
    if case in COMMUTING:
        assert_close(_completion_structured(K), oracle._completion_structured(K))


@pytest.mark.parametrize("case", sorted(CASES))
def test_reversed_kraus_matches_loop_oracle(case):
    K = CASES[case]()
    rho0 = full_rank_state(K.d, 4)
    Kp, Qraw, _ = orthogonalize_kraus(K, rho0)
    Qfe = Qraw.with_normalization("first_entry")
    assert_close(reversed_kraus(Kp, Qfe).ops, oracle.reversed_kraus(Kp, Qfe).ops)


def test_star_commuting_when_only_the_last_pair_fails():
    # every pair commutes, and only (N, N) fails [A, B*] = 0: the loop
    # reaches that pair last, so the all-pairs form must still see it
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    K = KrausSet([0.5 * np.eye(2), 0.3 * np.eye(2), N])
    assert oracle.is_star_commuting(K) is False
    assert is_star_commuting(K) is False
    assert is_star_commuting(KrausSet([0.5 * np.eye(2), 0.3 * np.eye(2), N + N.T])) is True


@pytest.mark.parametrize("k", [0, 1, 2])
def test_star_commuting_matches_the_oracle_near_the_bound_of_every_pair(k):
    # commuting normal operators of norms 0.1, 1 and 10, so each pair has its own bound;
    # operator k gains eps N with N nilpotent, which fails [K_k, K_k*] = 0 before
    # [K_k, K_k] and moves each pair (i, k) across its bound at its own eps
    base = [0.1 * np.diag([1.0, -0.5, 0.25]), np.diag([0.3, 1.0, -0.7]),
            10 * np.diag([1.0, 0.2, -0.6])]
    N = np.zeros((3, 3))
    N[0, 2] = 1.0
    decisions = set()
    for eps in np.geomspace(1e-13, 1e-8, 41):
        K = KrausSet([op + eps * N if j == k else op for j, op in enumerate(base)])
        decisions.add(is_star_commuting(K))
        assert is_star_commuting(K) is oracle.is_star_commuting(K), eps
    assert decisions == {True, False}


def _svd_inputs(monkeypatch):
    """The arrays given to numpy.linalg.svd, or to numpy.linalg.norm as a spectral norm, until the test ends."""
    inputs = []
    svd, norm = np.linalg.svd, np.linalg.norm

    def counted_svd(a, *args, **kwargs):
        inputs.append(a)
        return svd(a, *args, **kwargs)

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            inputs.append(x)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return inputs


@pytest.mark.parametrize("delta, commuting", [(0.95e-10, True), (1.05e-10, False)])
def test_star_commuting_decides_a_borderline_commutator_by_its_spectral_norm(
        monkeypatch, delta, commuting):
    # [A, B] = [A, B*] has spectral norm 6 delta against the bound tol ||A|| ||B|| = 6e-10
    # (1 + delta / 2), and Frobenius norm sqrt(2) times that: inside the screen's margin, so
    # the SVD decides, one call besides the operators' own norms
    A, B = 3 * np.diag([1.0, -1.0]), 2 * np.eye(2) + delta * np.array([[0.0, 1.0], [1.0, 0.0]])
    K = KrausSet([A, B])
    scale = 1e-10 * 3 * (2 + delta)
    fro = np.linalg.norm(A @ B - B @ A)
    assert scale / 2 < fro <= 2 * np.sqrt(2) * scale
    inputs = _svd_inputs(monkeypatch)
    assert is_star_commuting(K) is commuting
    assert len(inputs) == 2 and inputs[0] is K.ops
    assert oracle.is_star_commuting(K) is commuting


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_star_commuting_refuses_a_haar_channel_without_an_svd_of_a_commutator(monkeypatch, seed):
    # the Frobenius screen decides every pair: the only SVD is of the operators, for the bound
    K = random_channel(3, 3, seed)
    inputs = _svd_inputs(monkeypatch)
    assert is_star_commuting(K) is False
    assert len(inputs) == 1 and inputs[0] is K.ops


def test_zero_operator_rule_is_the_spectral_norm():
    # Frobenius norm 1.27e-12 > ZERO_OP_TOL, spectral norm 0.9e-12 < ZERO_OP_TOL: still zero
    small = np.diag([0.9e-12, 0.9e-12])
    assert np.linalg.norm(small) > ZERO_OP_TOL > np.linalg.norm(small, 2)
    with pytest.raises(ValueError, match="zero Kraus operator"):
        KrausSet([np.eye(2), small])
    # just above the bound in spectral norm, below 2 sqrt(d) ZERO_OP_TOL in Frobenius norm
    for above in (np.diag([1.01e-12, 0.0]), np.diag([1.01e-12, 1.01e-12])):
        assert KrausSet([np.eye(2), above]).n == 2


def test_kraus_residuals_are_formed_on_first_read():
    Kp, _, _ = orthogonalize_kraus(random_channel(2, 3, 1), np.eye(2) / 2)
    assert "unital_residual" not in vars(Kp) and "cotrace_residual" not in vars(Kp)
    assert Kp.unital_residual < 1e-12
    assert "unital_residual" in vars(Kp) and "cotrace_residual" not in vars(Kp)


# (list input, array input) that KrausSet must refuse with the same message.  An
# (n, d, d) array cannot mix shapes, so that case pairs the list with an (n, d)
# array, whose operators are its 1-d rows.
REFUSED = {
    "empty": ([], np.zeros((0, 2, 2))),
    "non-square": ([np.ones((2, 3))] * 2, np.ones((2, 2, 3))),
    "mixed shapes": ([np.eye(2), np.eye(3)], np.ones((2, 2))),
    "zero operator": ([np.eye(2), np.zeros((2, 2))], np.array([np.eye(2), np.zeros((2, 2))])),
    "nan": ([np.eye(2), np.full((2, 2), np.nan)], np.array([np.eye(2), np.full((2, 2), np.nan)])),
    "inf": ([np.full((2, 2), np.inf)], np.full((1, 2, 2), np.inf)),
    "scalars": ([1, 2], np.ones(3)),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_array_and_list_input_are_refused_with_the_same_message(case):
    as_list, as_array = REFUSED[case]
    with pytest.raises(ValueError) as from_list:
        KrausSet(as_list)
    with pytest.raises(ValueError) as from_array:
        KrausSet(as_array)
    assert str(from_array.value) == str(from_list.value)


@pytest.mark.parametrize("dtype", [float, complex])
def test_array_input_is_copied_once_into_a_read_only_stack(dtype):
    A = random_channel(2, 3, 4).ops.real.astype(dtype)
    K = KrausSet(A)
    np.testing.assert_array_equal(K.ops, KrausSet(list(A)).ops)
    assert K.ops.dtype == complex and not K.ops.flags.writeable
    assert not np.shares_memory(K.ops, A)
    A[0, 0, 0] += 1.0  # the caller's array stays writable and the set does not see it
    assert K.ops[0, 0, 0] != A[0, 0, 0]
