"""Identities the theory guarantees, as hypothesis properties over small inputs.

- ``isometry_defect`` is the spectrum of the unitarity residual:
  max|s^2 - 1| equals ||X*X - 1||, and also ||XX* - 1|| for square X.
- ``crooks_dual`` is an involution for a fixed full-rank state:
  rho^{1/2} (rho^{1/2} K* rho^{-1/2})* rho^{-1/2} = K.
- ``classical_reverse`` is an involution: reversing diag(pi) M^T
  diag(pi)^{-1} with the same pi gives back M.
- With rho0 = 1/d, trace cyclicity makes the normal and antinormal
  level-1 Grams equal, Tr(K_j K_k*)/d both.  So the normal-ordered phi
  residual is at round-off, and the antinormal one is within tol exactly
  when the trace-balanced Q is scalar.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from conftest import random_channel, random_unitary  # noqa: E402
from detbal.channel import KrausSet  # noqa: E402
from detbal.equilibrium import check_phi_symmetric, orthogonalize_kraus  # noqa: E402
from detbal.matcore import RESIDUAL_TOL, dag, isometry_defect, spectral_norm  # noqa: E402
from detbal.stinespring import build_subproduct  # noqa: E402
from detbal.reversal import ClassicalChain, classical_reverse, crooks_dual  # noqa: E402

SEEDS = st.integers(0, 2 ** 32 - 1)


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(rows=st.integers(1, 6), cols=st.integers(1, 6),
                  scale=st.sampled_from([1e-9, 1e-3, 1.0]), seed=SEEDS)
def test_isometry_defect_is_the_spectrum_of_the_unitarity_residual(rows, cols, scale, seed):
    # X is an isometry plus a perturbation of the drawn scale
    rows, cols = max(rows, cols), min(rows, cols)
    rng = np.random.default_rng(seed)
    X = random_unitary(rows, seed)[:, :cols] + scale * (
        rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)))
    new = np.abs(isometry_defect(X)).max()
    residuals = [dag(X) @ X - np.eye(cols)] + ([X @ dag(X) - np.eye(rows)] if rows == cols else [])
    for R in residuals:
        ref = spectral_norm(R)
        assert abs(new - ref) <= 1e-12 * max(1.0, ref), (new, ref)


def _full_rank_state(d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = X @ dag(X) + 0.1 * np.eye(d)
    return rho / np.trace(rho).real


@hypothesis.settings(max_examples=30, deadline=None, database=None)
@hypothesis.given(d=st.sampled_from([2, 3]), n=st.sampled_from([1, 2, 3]), seed=SEEDS)
def test_crooks_dual_is_an_involution(d, n, seed):
    K = random_channel(d, n, seed)
    rho0 = _full_rank_state(d, seed)
    back = crooks_dual(crooks_dual(K, rho0), rho0)
    np.testing.assert_allclose(back.ops, K.ops, rtol=0, atol=1e-12)


def _chain(n, reversible, seed):
    """A positive column-stochastic n-state chain: M_jk = S_jk / sum_j S_jk,
    which satisfies detailed balance when S is symmetric."""
    rng = np.random.default_rng(seed)
    S = rng.uniform(0.05, 1.0, size=(n, n))
    if reversible:
        S = S + S.T
    return S / S.sum(axis=0)


@hypothesis.settings(max_examples=30, deadline=None, database=None)
@hypothesis.given(n=st.sampled_from([2, 3]), reversible=st.booleans(), seed=SEEDS)
def test_classical_reverse_is_an_involution(n, reversible, seed):
    C = ClassicalChain(_chain(n, reversible, seed))
    Mhat, db, _ = classical_reverse(C)
    if reversible:
        assert db
    M, _, _ = classical_reverse(ClassicalChain(Mhat, C.pi))
    np.testing.assert_allclose(M, C.M, rtol=0, atol=1e-12)


def _weyl_mixture(d, n, equal, seed):
    """sum_i w_i U_i . U_i* over n distinct Weyl unitaries X^a Z^b of dimension d:
    weights 1/n, or a permutation of (1, ..., n) / sum, never equal for n >= 2."""
    rng = np.random.default_rng(seed)
    X = np.roll(np.eye(d), 1, axis=0)
    Z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    w = np.full(n, 1.0 / n) if equal else rng.permutation(np.arange(1.0, n + 1)) * 2 / (n * (n + 1))
    ab = (divmod(int(i), d) for i in rng.choice(d * d, n, replace=False))
    return KrausSet([np.sqrt(wi) * np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b)
                     for wi, (a, b) in zip(w, ab)])


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(d=st.sampled_from([2, 3]), n=st.integers(1, 3),
                  family=st.sampled_from(["haar", "weyl_equal", "weyl_unequal"]), seed=SEEDS)
def test_maximally_mixed_level_one_antinormal_phi_holds_iff_Q_is_scalar(d, n, family, seed):
    if family == "haar":
        K = random_channel(d, n, seed)
    else:
        K = _weyl_mixture(d, n, family == "weyl_equal", seed)
    rho0 = np.eye(d) / d
    Kp, Qraw, _ = orthogonalize_kraus(K, rho0)
    Qd = Qraw.with_normalization("trace_balanced")
    S = build_subproduct(Kp, 1)
    normal, anti = (check_phi_symmetric(Kp, rho0, Qd, S, 1, ordering)
                    for ordering in ("normal", "antinormal"))
    k = len(Qd.Q)
    scalar = spectral_norm(Qd.Q - np.trace(Qd.Q) / k * np.eye(k)) <= RESIDUAL_TOL
    assert normal <= 1e-12
    assert (anti <= RESIDUAL_TOL) == scalar, (anti, Qd.Q)
    # the draw reaches both sides: one operator, or equal Weyl weights, give a scalar Q
    assert scalar == (n == 1 or family == "weyl_equal")
