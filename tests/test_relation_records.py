"""Relation records read from spectra against the dense records they replaced.

The au/bu unitarity records take the eigenvalues s^2 - 1 of W*W - 1 and
WW* - 1 from the singular values of W.  Every field must match the dense
record of ``loop_oracle`` (spectral norm, ``eig_projector`` rank, residual
off the defect) to 1e-12 * max(1, |ref|), with pass flags and defect
ranks equal.  The first-row sphere records are compared with the same
oracle in ``test_word_stack``.  The general record of a non-Hermitian
residual skips the defect projector when it would be 0, and skips the
eigensolve too when ||R|| <= tol/2 settles that; it is compared with the
dense record directly, on every side of both shortcuts.
"""
import numpy as np
import pytest

import loop_oracle as oracle
from conftest import random_unitary
from detbal.channel import dilation_from_kraus, f_conjugate
from detbal.factories import commuting_db_kraus
from detbal import qgroup
from detbal.matcore import dag, spectral_norm
from detbal.qgroup import (
    _relation_record,
    au_relations_check,
    bu_relations_check,
    suq2_dilation,
    suq2_generators,
)

RTOL = 1e-12
SUQ2 = [(0.3, 4), (0.55, 6), (0.8, 9)]
F_COMPLEX = np.array([[1.0, 0.3j], [0.2, 0.8]])


def _suq2(q, N):
    a, c, K, F = suq2_generators(q, N)
    return suq2_dilation(a, c, q), F


def _near_isometry(dn, seed):
    """U diag(s) V* with s within 3e-9 of 1 but for s^2 - 1 = 3e-8 and -0.75:
    defect rank 2 and a nonzero residual off the defect at the default tol 1e-8."""
    rng = np.random.default_rng(seed)
    s = 1.0 + rng.uniform(-3e-9, 3e-9, dn)
    s[-2:] = np.sqrt(1 + 3e-8), 0.5
    return (random_unitary(dn, seed) * s) @ dag(random_unitary(dn, seed + 1))


def _cases():
    for q, N in SUQ2:
        W, F = _suq2(q, N)
        yield f"suq2-{q}-{N}", W, F
        yield f"suq2-{q}-{N}-diagF", W, np.diag([1.0, q])
    U = random_unitary(6, 42)
    yield "haar-diagF", U, np.diag([1.0, 0.7])
    yield "haar-complexF", U, F_COMPLEX
    yield "commuting", dilation_from_kraus(commuting_db_kraus(np.pi / 6))[1], np.eye(2)
    yield "scaled-haar", 1.1 * U, F_COMPLEX
    yield "near-isometry", _near_isometry(6, 5), np.diag([1.0, 0.7])


CASES = list(_cases())


def assert_records_match(new, ref):
    assert (new.relation, new.verdict, new.info) == (ref.relation, ref.verdict, ref.info)
    for c, c_ref in zip(new.checks, ref.checks, strict=True):
        assert (c.name, c.passed, c.level, c.defect_rank, c.tolerance) == \
            (c_ref.name, c_ref.passed, c_ref.level, c_ref.defect_rank, c_ref.tolerance)
        for field in ("residual", "frobenius", "off_defect_residual"):
            got, want = getattr(c, field), getattr(c_ref, field)
            assert (got is None) == (want is None), (c.name, field)
            if want is not None:
                assert abs(got - want) <= RTOL * max(1.0, abs(want)), (c.name, field, got, want)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("check", ["au_relations_check", "bu_relations_check"])
def test_relation_records_match_dense_oracle(case, check):
    _, W, F = case
    assert_records_match(globals()[check](W, F), getattr(oracle, check)(W, F))


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_f_conjugate_matches_the_dense_kronecker_form(case):
    _, W, F = case
    n = F.shape[0]
    d = W.shape[0] // n
    ref = oracle.f_conjugate(W, F, d, n)
    assert np.max(np.abs(f_conjugate(W, F, d, n) - ref)) <= RTOL * max(1.0, np.max(np.abs(ref)))


def test_near_isometry_case_has_a_defect_and_an_off_defect_residual():
    rep = au_relations_check(_near_isometry(6, 5), np.diag([1.0, 0.7]))
    left = rep.check("W_unitary_left")
    assert left.defect_rank == 2
    assert 1e-10 < left.off_defect_residual < left.tolerance
    assert rep.check("W_unitary_right").defect_rank == 2


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The number of np.linalg.eigvalsh calls, through detbal.qgroup's numpy, until the test ends."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(qgroup.np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize("N", [8, 16, 24, 32, 40])
@pytest.mark.parametrize("q", [0.3, 0.8])
def test_suq2_bu_check_runs_no_eigensolve(eigvalsh_calls, q, N):
    # self_conjugacy holds at round-off on the ladder, so its norm settles the record
    rep = bu_relations_check(*_suq2(q, N))
    assert rep.check("self_conjugacy").residual <= 1e-8 / 2
    assert eigvalsh_calls == []


def _general_residuals():
    """(id, R, defect rank) with R not Hermitian."""
    W, F = _suq2(0.55, 32)
    yield "suq2-self-conjugacy", W - f_conjugate(W, F, 32, 2), 0
    rng = np.random.default_rng(8)
    X = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    v = random_unitary(6, 9)[:, 0]
    # ||R|| at, just above and well above tol/2, and at tol: no defect either way
    for t in (0.5, 0.51, 0.75, 1.0):
        yield f"norm-{t}-tol", t * 1e-8 * X / spectral_norm(X), 0
    yield "hermitian-norm-0.9-tol", 0.9e-8 * (X + dag(X)) / spectral_norm(X + dag(X)), 0
    yield "rank-one-defect", 0.5 * np.outer(v, v.conj()) + 1e-10 * X, 1
    yield "defect-just-above-tol", 3e-8 * np.outer(v, v.conj()) + 1e-10 * X, 1
    yield "full-defect", X, 6
    yield "skew-hermitian", X - dag(X), 0  # Hermitian part 0, residual far above tol


GENERAL = list(_general_residuals())


@pytest.mark.parametrize("case", GENERAL, ids=[c[0] for c in GENERAL])
def test_general_record_matches_dense_oracle(eigvalsh_calls, case):
    name, R, rank = case
    new = _relation_record(name, R, 1e-8)
    assert len(eigvalsh_calls) == (spectral_norm(R) > 1e-8 / 2)  # the eigensolve only above tol/2
    ref = oracle._relation_record(name, R, 1e-8)
    assert ref.defect_rank == rank
    assert (new.name, new.passed, new.defect_rank, new.tolerance) == \
        (ref.name, ref.passed, ref.defect_rank, ref.tolerance)
    for field in ("residual", "frobenius", "off_defect_residual"):
        got, want = getattr(new, field), getattr(ref, field)
        assert abs(got - want) <= RTOL * max(1.0, abs(want)), (field, got, want)
