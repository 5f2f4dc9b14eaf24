"""The verdict's residual kernels against the forms they stand for.

``equilibrium._max_entries`` reads max |V E V*| for a (k, r, r) stack of
E's in row blocks whose height depends on k.  Every maximum must equal
the dense max |V E V*| to 1e-15 * max(1, |ref|), under the default row
budget and under budgets of a few rows, with one-row blocks and tails.

``CorrelationData.is_diagonal`` decides a small off-diagonal part by its
Frobenius norm and falls back to spectral norms; it must answer as the
spectral-norm test alone does.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from detbal import equilibrium  # noqa: E402
from detbal.equilibrium import CorrelationData, _max_entries  # noqa: E402
from detbal.matcore import dag, spectral_norm  # noqa: E402


def _isometry(N, r, rng):
    X = rng.normal(size=(N, r)) + 1j * rng.normal(size=(N, r))
    return np.linalg.qr(X)[0]


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(N=st.integers(1, 3000), r=st.integers(1, 6), k=st.integers(1, 3),
                  rows=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
@hypothesis.example(N=1, r=1, k=3, rows=1, seed=0)  # one word: a single one-row block
@hypothesis.example(N=7, r=2, k=3, rows=3, seed=1)  # a one-row tail
@hypothesis.example(N=1024, r=2, k=3, rows=341, seed=2)  # the same at the default budget
@hypothesis.example(N=64, r=5, k=2, rows=1, seed=3)  # one row per block
def test_stacked_maxima_equal_the_dense_max(N, r, k, rows, seed):
    rng = np.random.default_rng(seed)
    r = min(r, N)
    V = _isometry(N, r, rng)
    Es = rng.normal(size=(k, r, r)) + 1j * rng.normal(size=(k, r, r))
    by_default = _max_entries(V, Es)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equilibrium, "ROW_BLOCK", rows * k * N)  # `rows` rows per stacked block
        by_rows = _max_entries(V, Es)
    for stacked in (by_default, by_rows):
        assert stacked.shape == (k,)
        for j, E in enumerate(Es):
            ref = np.abs(V @ E @ dag(V)).max()
            assert abs(stacked[j] - ref) <= 1e-15 * max(1.0, ref), (j, stacked[j], ref)


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(n=st.integers(1, 5), log_off=st.floats(-12, -8), log_diag=st.floats(-2, 2),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_is_diagonal_answers_as_the_spectral_norm_test(n, log_off, log_diag, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    off = X + dag(X) - np.diag(np.diag(X + dag(X)))
    off *= 10.0 ** log_off / max(spectral_norm(off), 1e-300)
    Q = np.diag(rng.uniform(0.1, 1.0, n) * 10.0 ** log_diag) + off
    for tol in (1e-10, 3e-11, 1e-9):
        expected = spectral_norm(off) <= tol * max(1.0, spectral_norm(Q))
        assert CorrelationData(Q, "raw", Q).is_diagonal(tol) == expected, tol
