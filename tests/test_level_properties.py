"""Invariants of the subproduct levels, over random channels with d, n in {2, 3}.

Each level is stored as an isometry V_m; these properties hold for any
Kraus set and any weight Q, so hypothesis draws the channel and Q.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import loop_oracle as oracle  # noqa: E402
from conftest import random_channel  # noqa: E402
from detbal.matcore import dag  # noqa: E402
from detbal.stinespring import (  # noqa: E402
    build_subproduct,
    check_Q_compatibility,
    check_subproduct_inclusion,
)

M = 3


@hypothesis.settings(max_examples=25, deadline=None, database=None)
@hypothesis.given(d=st.sampled_from([2, 3]), n=st.sampled_from([2, 3]),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_level_invariants(d, n, seed):
    S = build_subproduct(random_channel(d, n, seed), M)
    rng = np.random.default_rng(seed)
    Q = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for m in range(M + 1):
        V = S.level(m).V
        r = S.level(m).rank
        assert r <= min(d * d, n ** m)
        np.testing.assert_allclose(dag(V) @ V, np.eye(r), rtol=0, atol=1e-12)
        for l in range(1, M - m + 1):
            assert check_subproduct_inclusion(S, m, l) <= 1e-12
        ref = oracle.check_Q_compatibility(S, Q, m)
        assert abs(check_Q_compatibility(S, Q, m) - ref) <= 1e-12 * max(1.0, ref)
