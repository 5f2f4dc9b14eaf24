"""The verdict depends on the channel, not on its Kraus representation or basis.

A unitary remix K_j -> sum_k U[j, k] K_k gives the same channel, so the
verdict, its reason and every residual must be unchanged, to
1e-10 * max(1, |residual|), for Haar-random U.  Conjugating the system,
K_j -> V K_j V* and rho0 -> V rho0 V*, is covariant: every correlation,
word relation and sphere sum is carried along unitarily, so the verdict,
its reason, the level ranks and every residual must be unchanged too.
hypothesis draws U or V and the channel (gad, commuting_db, or a seeded
random one with d, n <= 3).
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from conftest import random_channel, random_unitary  # noqa: E402
from detbal.channel import KrausSet  # noqa: E402
from detbal.factories import commuting_db_kraus, gad_kraus  # noqa: E402
from detbal.matcore import dag  # noqa: E402
from detbal.reversal import detailed_balance_verdict  # noqa: E402


def _random_state(d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = X @ X.conj().T + 0.1 * np.eye(d)
    return rho / np.trace(rho).real


CHANNELS = st.one_of(
    st.just((gad_kraus(0.75, 0.5), np.diag([0.75, 0.25]).astype(complex))),
    st.just((commuting_db_kraus(np.pi / 6), np.eye(2, dtype=complex) / 2)),
    st.builds(lambda d, n, seed: (random_channel(d, n, seed), _random_state(d, seed)),
              st.sampled_from([2, 3]), st.sampled_from([2, 3]), st.integers(0, 2 ** 32 - 1)),
)


def assert_same_report(new, ref):
    assert (new.verdict, new.reason) == (ref.verdict, ref.reason)
    assert new.info["level_ranks"] == ref.info["level_ranks"]
    assert len(new.checks) == len(ref.checks)
    for c, c_ref in zip(new.checks, ref.checks):
        assert (c.name, c.level, c.passed) == (c_ref.name, c_ref.level, c_ref.passed)
        assert (c.hypothesis_failure is None) == (c_ref.hypothesis_failure is None)
        if c_ref.residual is not None:
            assert abs(c.residual - c_ref.residual) <= 1e-10 * max(1.0, abs(c_ref.residual)), \
                (c.name, c.level, c.residual, c_ref.residual)


@hypothesis.settings(max_examples=30, deadline=None, database=None)
@hypothesis.given(channel=CHANNELS, seed=st.integers(0, 2 ** 32 - 1))
def test_verdict_is_invariant_under_unitary_remix(channel, seed):
    K, rho0 = channel
    U = random_unitary(K.n, seed)
    ref = detailed_balance_verdict(K, rho0, M=2)
    new = detailed_balance_verdict(KrausSet(np.tensordot(U, K.ops, axes=1)), rho0, M=2)
    assert_same_report(new, ref)


@hypothesis.settings(max_examples=30, deadline=None, database=None)
@hypothesis.given(channel=CHANNELS, seed=st.integers(0, 2 ** 32 - 1))
def test_verdict_is_covariant_under_unitary_conjugation(channel, seed):
    K, rho0 = channel
    V = random_unitary(K.d, seed)
    ref = detailed_balance_verdict(K, rho0, M=2)
    new = detailed_balance_verdict(KrausSet(V @ K.ops @ dag(V)), V @ rho0 @ dag(V), M=2)
    assert_same_report(new, ref)
