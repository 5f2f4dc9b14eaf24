"""Word-at-a-time and dense-projector reference implementations.

These are the loop versions that the library replaced with contractions
over ``word_stack``: each builds its words one at a time with
``word_operator`` and walks word pairs in Python.  The level functions
(``_qm_function``, ``trace_qm``, ``kms_state_eval``,
``check_Q_compatibility``, ``check_subproduct_inclusion``) work on the
dense n^m x n^m projector ``p_m`` and the dense power ``Q^(x)m``, which
the library replaced with the level isometry ``V_m``.  ``test_word_stack``
compares the library against them.  They are slow (cubic in the word
count for the KMS residual), so keep their inputs small.

The per-operator bodies at the end (Kraus residuals, ``apply``, the
isometry, the star-commutation test, the structured completion, the
general-state extraction, the Choi matrix, the means and the two
reversals) walk the Kraus set one operator at a time, as the library did
before it held the set as one (n, d, d) array; ``test_kraus_array``
compares the library against them.

The relation records at the end (``_relation_record``,
``au_relations_check``, ``bu_relations_check``) take every residual
through the dense record: a spectral norm, the defect projector of
``eig_projector`` and the norm of the residual on its complement, as
the library did before it read Hermitian residuals from their spectra.
``first_row_q_sphere`` above records through the same dense
``_relation_record``; ``test_relation_records`` and ``test_word_stack``
compare the library against them.
"""
import functools

import numpy as np

from detbal.channel import (
    KrausSet,
    apply,
    block,
    f_conjugate,
    index_words,
    symmetric_unitary_first_col,
    word_operator,
)
from detbal.equilibrium import check_state
from detbal.errors import HypothesisFailure
from detbal.matcore import (
    RANK_TOL,
    RESIDUAL_TOL,
    as_complex,
    dag,
    eig_projector,
    frobenius_norm,
    spectral_norm,
)
from detbal.qgroup import _shapes
from detbal.report import CheckRecord, RelationsReport


def _tensor_power(Q, m):
    return functools.reduce(np.kron, [Q] * m, np.ones((1, 1)))


def _qm_function(Q, S, m, fn, rank_tol=RANK_TOL):
    p = S.level(m).p
    H = p @ _tensor_power(Q, m) @ p
    H = (H + dag(H)) / 2
    w, U = np.linalg.eigh(H)
    keep = w > rank_tol * max(abs(w[-1]), 1e-300)
    return (U[:, keep] * fn(w[keep].astype(complex))) @ dag(U[:, keep])


def trace_qm(Qd, S, m):
    p = S.level(m).p
    return float(np.trace(_tensor_power(Qd.Q, m) @ p).real)


def kms_state_eval(Qd, S, j, k, ordering="normal"):
    jl = tuple(j.letters) if hasattr(j, "letters") else tuple(j)
    kl = tuple(k.letters) if hasattr(k, "letters") else tuple(k)
    if len(jl) != len(kl):
        return 0.0 + 0.0j
    m = len(jl)
    if m == 0:
        return 1.0 + 0.0j
    a = np.ravel_multi_index(tuple(x - 1 for x in jl), (S.n,) * m)
    b = np.ravel_multi_index(tuple(x - 1 for x in kl), (S.n,) * m)
    p = S.level(m).p
    Qm = _tensor_power(Qd.Q, m) @ p
    trq = np.trace(Qm).real
    if ordering == "normal":
        return complex(Qm[b, a] / trq)
    if ordering == "antinormal":
        return complex(p[a, b] / trq)
    raise ValueError("ordering must be 'normal' or 'antinormal'")


def check_subproduct_inclusion(S, m, l):
    if m + l > S.M:
        raise ValueError("level out of range")
    pm = S.level(m).p
    pl = S.level(l).p
    pml = S.level(m + l).p
    return spectral_norm(np.kron(pm, pl) @ pml - pml)


def check_Q_compatibility(S, Q, m):
    if m > S.M:
        raise ValueError("level out of range")
    if m == 0:
        return 0.0
    Qf = _tensor_power(as_complex(Q), m)
    p = S.level(m).p
    return spectral_norm(Qf @ p - p @ Qf)


def check_phi_symmetric(K, rho0, Qd, S, m, ordering="normal", tol=RESIDUAL_TOL):
    rho0 = check_state(rho0)
    S.weighted(Qd.Q, m, tol)
    ws = index_words(K.n, m)
    p = S.level(m).p
    Qm = _tensor_power(Qd.Q, m) @ p
    trq = float(np.trace(Qm).real)
    ops = [word_operator(K.ops, w) for w in ws]
    mx = 0.0
    for a in range(len(ws)):
        for b in range(len(ws)):
            if ordering == "normal":
                v = np.trace(ops[a] @ rho0 @ dag(ops[b])) - Qm[a, b] / trq
            elif ordering == "antinormal":
                v = np.trace(rho0 @ ops[a] @ dag(ops[b])) - p[a, b] / trq
            else:
                raise ValueError("ordering must be 'normal' or 'antinormal'")
            mx = max(mx, abs(v))
    return mx


def kms_condition_residual(K, rho0, Qd, S, m, tol=RESIDUAL_TOL):
    rho0 = check_state(rho0)
    mx = 0.0
    for mp in range(1, m + 1):
        S.weighted(Qd.Q, mp, tol)
        norm_res = check_phi_symmetric(K, rho0, Qd, S, mp, "normal", tol)
        if norm_res > tol:
            raise HypothesisFailure(
                f"normal-ordered correlations fail at level {mp} (residual {norm_res:.3g})"
            )
        Qinv = _qm_function(Qd.Q, S, mp, lambda w: 1.0 / w)
        ws = index_words(K.n, mp)
        ops = [word_operator(K.ops, w) for w in ws]
        for a in range(len(ws)):
            for b in range(len(ws)):
                lhs = np.trace(rho0 @ ops[a] @ dag(ops[b]))
                rhs = sum(
                    Qinv[a, r] * np.trace(rho0 @ dag(ops[b]) @ ops[r])
                    for r in range(len(ws))
                )
                mx = max(mx, abs(lhs - rhs))
    return mx


def q_sphere_residual(K, Qd, S, m, tol=RESIDUAL_TOL, rank_tol=RANK_TOL):
    S.weighted(Qd.Q, m, tol)
    Qinv = _qm_function(Qd.Q, S, m, lambda w: 1.0 / w, rank_tol)
    ws = index_words(K.n, m)
    ops = [word_operator(K.ops, w) for w in ws]
    Sm = np.zeros((K.d, K.d), dtype=complex)
    for a in range(len(ws)):
        for b in range(len(ws)):
            Sm += Qinv[b, a] * ops[a] @ dag(ops[b])
    R = Sm - np.eye(K.d)
    P, _ = eig_projector(R, tol)
    return spectral_norm(R), P


def first_row_q_sphere(W, F, S, m, tol=RESIDUAL_TOL, rank_tol=RANK_TOL):
    W, F, d, n = _shapes(W, F)
    if n != S.n:
        raise ValueError("subproduct system size mismatch")
    Q = dag(F) @ F
    lev = S.level(m)
    p = lev.p
    e1 = np.zeros(n ** m)
    e1[0] = 1.0
    hyp_q11 = float(abs(Q[0, 0] - 1.0))
    hyp_e1 = float(np.linalg.norm(p[:, 0] - e1))
    z = [block(W, d, n, 0, k) for k in range(n)]
    Qinv = _qm_function(Q, S, m, lambda w: 1.0 / w, rank_tol)
    ws = index_words(n, m)
    zops = [word_operator(z, wd) for wd in ws]
    G_row = np.zeros((d, d), dtype=complex)
    G_mirror = np.zeros((d, d), dtype=complex)
    for a_ in range(len(ws)):
        for b in range(len(ws)):
            G_row += Qinv[b, a_] * dag(zops[a_]) @ zops[b]
            G_mirror += Qinv[b, a_] * zops[a_] @ dag(zops[b])
    I = np.eye(d)
    checks = [
        CheckRecord(name="hypothesis_Q11", residual=hyp_q11, tolerance=tol,
                    passed=bool(hyp_q11 < tol), level=m),
        CheckRecord(name="hypothesis_boundary_vector", residual=hyp_e1,
                    tolerance=tol, passed=bool(hyp_e1 < tol), level=m),
        _relation_record("row_sphere", G_row - I, tol),
        _relation_record("mirror_sphere", G_mirror - I, tol),
    ]
    for c_ in checks[2:]:
        c_.level = m
    return RelationsReport(
        relation="first_row_q_sphere",
        verdict=all(c.passed for c in checks),
        tolerance=tol,
        checks=checks,
        info={"Q_diag": [float(x) for x in np.diag(Q).real]},
    )


def crooks_check(K, Kbar, rho0, m):
    if K.n != Kbar.n or K.d != Kbar.d:
        raise ValueError("Kraus sets must share shape")
    rho0 = check_state(rho0)
    mx = 0.0
    for mp in range(1, m + 1):
        for w in index_words(K.n, mp):
            A = word_operator(K.ops, w)
            B = word_operator(Kbar.ops, tuple(reversed(w)))
            mx = max(mx, abs(np.trace(rho0 @ dag(B) @ B) - np.trace(rho0 @ dag(A) @ A)))
    return float(mx)


def _level_projector(K: KrausSet, m: int, rank_tol: float):
    ws = index_words(K.n, m)
    cols = [dag(word_operator(K.ops, w)).reshape(-1) for w in ws]
    A = np.column_stack(cols)  # d^2 x n^m
    _, s, Vh = np.linalg.svd(A, full_matrices=True)
    r = int(np.sum(s > rank_tol * s[0])) if s.size else 0
    Vr = Vh.conj().T[:, :r]
    return Vr @ dag(Vr), r, ws


def verify_power_dilation(K, S, m, A, tol=RESIDUAL_TOL, rank_tol=RANK_TOL):
    if m > S.M:
        raise ValueError("level out of range")
    A = as_complex(A)
    lev = S.level(m)
    p = lev.p
    e1 = np.zeros(K.n ** m)
    e1[0] = 1.0
    defect = float(np.linalg.norm(p[:, 0] - e1))
    if defect > tol:
        raise HypothesisFailure(
            f"e_1^(x){m} not in the level-{m} subspace (defect {defect:.3g})"
        )
    ws = index_words(K.n, m)
    Vm = np.zeros((K.d * K.n ** m, K.d), dtype=complex)
    for idx, w in enumerate(ws):
        Vm += np.kron(word_operator(K.ops, w), p[:, idx].reshape(-1, 1))
    G = dag(Vm) @ Vm
    wG, UG = np.linalg.eigh((G + dag(G)) / 2)
    keep = wG > rank_tol * max(wG[-1], 0.0)
    Ginvh = (UG[:, keep] * (1.0 / np.sqrt(wG[keep]))) @ dag(UG[:, keep])
    Vm = Vm @ Ginvh
    lhs = dag(Vm) @ np.kron(A, np.eye(K.n ** m)) @ Vm
    rhs = A.copy()
    for _ in range(m):
        rhs = apply(K, rhs, "heisenberg")
    return spectral_norm(lhs - rhs)


# ---------------------------------------------------------------------------
# per-operator bodies


def kraus_residuals(K):
    I = np.eye(K.d)
    unital = spectral_norm(sum(dag(Kk) @ Kk for Kk in K) - I)
    cotrace = spectral_norm(sum(Kk @ dag(Kk) for Kk in K) - I)
    return unital, cotrace


def apply_loop(K, X, picture="heisenberg"):
    X = as_complex(X)
    if picture == "heisenberg":
        return sum(dag(Kk) @ X @ Kk for Kk in K)
    if picture == "schrodinger":
        return sum(Kk @ X @ dag(Kk) for Kk in K)
    raise ValueError("picture must be 'heisenberg' or 'schrodinger'")


def isometry_from_kraus(K):
    V = np.zeros((K.d * K.n, K.d), dtype=complex)
    for k, Kk in enumerate(K):
        e = np.zeros((K.n, 1))
        e[k] = 1.0
        V += np.kron(Kk, e)
    return V


def first_block_column(W, d, n):
    return [block(W, d, n, j, 0) for j in range(n)]


def is_star_commuting(K, tol=1e-10):
    for A in K:
        for B in K:
            scale = max(1.0, spectral_norm(A) * spectral_norm(B))
            if spectral_norm(A @ B - B @ A) > tol * scale:
                return False
            if spectral_norm(A @ dag(B) - dag(B) @ A) > tol * scale:
                return False
    return True


def _simultaneous_diag(K, tol=1e-9):
    rng = np.random.default_rng(12345)
    for _ in range(20):
        c = rng.normal(size=K.n) + 1j * rng.normal(size=K.n)
        H = sum(cj * Kj + np.conj(cj) * dag(Kj) for cj, Kj in zip(c, K))
        _, T = np.linalg.eigh(H)
        ok = True
        for Kj in K:
            D = dag(T) @ Kj @ T
            if np.max(np.abs(D - np.diag(np.diag(D)))) > tol * max(1.0, spectral_norm(Kj)):
                ok = False
                break
        if ok:
            return T
    raise ValueError("simultaneous diagonalization failed")


def _completion_structured(K):
    T = _simultaneous_diag(K)
    diags = [np.diag(dag(T) @ Kj @ T) for Kj in K]
    slots = []
    for i in range(K.d):
        v = np.array([diags[j][i] for j in range(K.n)])
        slots.append(symmetric_unitary_first_col(v))
    W = np.zeros((K.d * K.n, K.d * K.n), dtype=complex)
    R = W.reshape(K.d, K.n, K.d, K.n)
    for j in range(K.n):
        for k in range(K.n):
            D = np.diag([slots[i][j, k] for i in range(K.d)])
            R[:, j, :, k] = T @ D @ dag(T)
    return W


def general_state_kraus(W, d, n, probs):
    """The ops of kraus_from_dilation(W, d, n, "general_state", probs)."""
    ops = []
    for j in range(n):
        for k in range(n):
            ops.append(np.sqrt(max(probs[k], 0.0)) * block(W, d, n, j, k))
    return ops


def channel_choi(K):
    C = np.zeros((K.d * K.d, K.d * K.d), dtype=complex)
    for Kk in K:
        w = Kk.T.reshape(-1)
        C += np.outer(w, w.conj())
    return C


def means(K, rho0):
    """The mean vector Tr(rho0 K_j) of orthogonalize_kraus and zero_mean_check."""
    return np.array([np.trace(rho0 @ Kj) for Kj in K])


def reversed_kraus(K, Qd):
    qkk = np.diag(Qd.Q).real
    return KrausSet([dag(Kk) / np.sqrt(qkk[k]) for k, Kk in enumerate(K)])


def crooks_dual(K, rho0, rank_tol=RANK_TOL):
    rho0 = check_state(rho0)
    w, U = np.linalg.eigh((rho0 + dag(rho0)) / 2)
    if w[0] <= rank_tol * w[-1]:
        raise ValueError("crooks_dual requires an invertible state")
    rh = (U * np.sqrt(w)) @ dag(U)
    rih = (U * (1.0 / np.sqrt(w))) @ dag(U)
    return KrausSet([rh @ dag(Kj) @ rih for Kj in K])



def _relation_record(name: str, R: np.ndarray, tol: float) -> CheckRecord:
    res = spectral_norm(R)
    P, rank = eig_projector(R, tol)
    Pc = np.eye(R.shape[0]) - P
    return CheckRecord(
        name=name,
        residual=res,
        tolerance=tol,
        passed=bool(res < tol),
        frobenius=frobenius_norm(R),
        defect_rank=rank,
        off_defect_residual=spectral_norm(Pc @ R @ Pc),
    )


def au_relations_check(W, F, tol: float = RESIDUAL_TOL) -> RelationsReport:
    W, F, d, n = _shapes(W, F)
    I = np.eye(d * n)
    Wc_F = f_conjugate(W, F, d, n)
    checks = [
        _relation_record("W_unitary_left", dag(W) @ W - I, tol),
        _relation_record("W_unitary_right", W @ dag(W) - I, tol),
        _relation_record("conjugate_unitary_left", dag(Wc_F) @ Wc_F - I, tol),
        _relation_record("conjugate_unitary_right", Wc_F @ dag(Wc_F) - I, tol),
    ]
    return RelationsReport(
        relation="au",
        verdict=all(c.passed for c in checks),
        tolerance=tol,
        checks=checks,
        info={"d": d, "n": n},
    )


def bu_relations_check(W, F, tol: float = RESIDUAL_TOL) -> RelationsReport:
    W, F, d, n = _shapes(W, F)
    rep = au_relations_check(W, F, tol)
    Wc_F = f_conjugate(W, F, d, n)
    checks = list(rep.checks)
    checks.append(_relation_record("self_conjugacy", W - Wc_F, tol))
    FFc = F @ F.conj()
    lam = np.trace(FFc) / n
    if abs(lam) < 1e-14:
        scalar_res = float("inf")
    else:
        scalar_res = spectral_norm(FFc - lam * np.eye(n)) / abs(lam)
    checks.append(CheckRecord(name="F_Fc_scalar", residual=float(scalar_res),
                              tolerance=tol, passed=bool(scalar_res < tol)))
    return RelationsReport(
        relation="bu",
        verdict=all(c.passed for c in checks),
        tolerance=tol,
        checks=checks,
        info={"d": d, "n": n, "lambda": [float(lam.real), float(lam.imag)]},
    )
