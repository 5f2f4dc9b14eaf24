"""Which factorization each level matrix takes, and that the result does not depend on it.

``matcore.svd_cut`` factors a wide level matrix (cols >= 4 rows and
rows * cols >= 1024) by its short side and every other one by one SVD
(``loop_oracle.svd_cut_direct``).  On the suq2 ladder, whose levels are
r x N^2, and on a Haar tower whose levels keep the direct SVD, the
levels built either way must have the same ranks, and every check that
reads them must agree to 1e-12 * max(1, |ref|), with equal pass flags
and defect ranks.  The verdict's channels (d <= 4, so at most 16
columns) never reach the wide path; the suq2 levels at N = 32 always do.
"""
import numpy as np
import pytest

import loop_oracle as oracle
from conftest import random_channel, random_hermitian
from detbal import channel, matcore, stinespring
from detbal.channel import KrausSet
from detbal.factories import commuting_db_kraus, gad_kraus
from detbal.qgroup import (
    au_relations_check,
    bu_relations_check,
    first_row_q_sphere,
    suq2_dilation,
    suq2_generators,
)
from detbal.reversal import detailed_balance_verdict
from detbal.stinespring import build_subproduct, check_subproduct_inclusion, verify_power_dilation
from test_relation_records import assert_records_match

RTOL = 1e-12
SUQ2 = [(q, N) for N in (4, 8, 16, 24, 32, 40) for q in (0.3, 0.55, 0.8)]


@pytest.fixture
def qr_calls(monkeypatch):
    """The input shape of every np.linalg.qr call, through detbal.matcore's numpy, until the
    test ends; the tests draw their channels before it starts."""
    shapes = []
    qr = np.linalg.qr

    def counted(A, *args, **kwargs):
        shapes.append(A.shape)
        return qr(A, *args, **kwargs)

    monkeypatch.setattr(matcore.np.linalg, "qr", counted)
    return shapes


def _build_direct(monkeypatch, K, M):
    """build_subproduct(K, M) with every level matrix factored by one SVD."""
    with monkeypatch.context() as mp:
        for mod in (stinespring, channel):
            mp.setattr(mod, "svd_cut", oracle.svd_cut_direct)
        return build_subproduct(K, M)


def _close(got, want):
    assert abs(got - want) <= RTOL * max(1.0, abs(want)), (got, want)


def _assert_levels_agree(K, S, S_ref, A):
    M = S.M
    assert [S.level(m).rank for m in range(M + 1)] == [S_ref.level(m).rank for m in range(M + 1)]
    for m in range(1, M + 1):
        for l in range(1, M - m + 1):
            _close(check_subproduct_inclusion(S, m, l), check_subproduct_inclusion(S_ref, m, l))
        _close(verify_power_dilation(K, S, m, A), verify_power_dilation(K, S_ref, m, A))


@pytest.mark.parametrize("q,N", SUQ2)
def test_suq2_levels_and_records_match_the_direct_svd(monkeypatch, q, N):
    a, c, K, F = suq2_generators(q, N)
    W = suq2_dilation(a, c, q)
    S, S_ref = build_subproduct(K, 3), _build_direct(monkeypatch, K, 3)
    _assert_levels_agree(K, S, S_ref, random_hermitian(N, N))
    assert_records_match(first_row_q_sphere(W, F, S, 3), first_row_q_sphere(W, F, S_ref, 3))
    assert_records_match(au_relations_check(W, F), oracle.au_relations_check(W, F))
    assert_records_match(bu_relations_check(W, F), oracle.bu_relations_check(W, F))


HAAR_6_2 = random_channel(6, 2, 606)


def test_haar_tower_matches_the_direct_svd(monkeypatch, qr_calls):
    # d = 6, n = 2 to M = 5: every level is the full word space, and level 5
    # factors the 16 * 2 x 36 matrix of level-4 and level-1 products
    K = HAAR_6_2
    S, S_ref = build_subproduct(K, 5), _build_direct(monkeypatch, K, 5)
    assert [S.level(m).rank for m in range(6)] == [1, 2, 4, 8, 16, 32]
    assert qr_calls == []  # at most 36 columns, and never 4 times the rows past 1024 entries
    _assert_levels_agree(K, S, S_ref, random_hermitian(6, 607))


def _diagonal_orthogonal(n, seed):
    O, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return KrausSet([np.diag(O[:, j]).astype(complex) for j in range(n)])


# one verdict per (channel, M) cell shape of the kms_deep and haar_levels benchmarks
VERDICT_CELLS = [
    ("commuting n=2 M=4", commuting_db_kraus(0.4), np.eye(2) / 2, 4),
    *((f"diagonal n={n} M={M}", _diagonal_orthogonal(n, n), np.eye(n) / n, M)
      for n, M in ((4, 2), (5, 2), (3, 3))),
    ("gad M=4", gad_kraus(0.7, 0.4), np.diag([0.7, 0.3]), 4),
    *((f"haar d={d} n={n} M={M}", random_channel(d, n, 10 * d + n), np.eye(d) / d, M)
      for d, n, M in ((2, 4, 4), (3, 2, 8), (3, 3, 5), (2, 3, 6), (4, 2, 8), (2, 2, 9))),
]


@pytest.mark.parametrize("cell", VERDICT_CELLS, ids=[c[0] for c in VERDICT_CELLS])
def test_verdict_levels_keep_the_direct_svd(qr_calls, cell):
    _, K, rho0, M = cell
    detailed_balance_verdict(K, rho0, M)
    assert qr_calls == []


@pytest.mark.parametrize("q", [0.3, 0.8])
def test_suq2_levels_take_the_wide_path(qr_calls, q):
    S = build_subproduct(suq2_generators(q, 32)[2], 3)
    # levels 1..3 factor 1024 columns by their 2, 4 and 6 rows
    assert qr_calls == [(1024, S.level(m - 1).rank * 2) for m in (1, 2, 3)]
