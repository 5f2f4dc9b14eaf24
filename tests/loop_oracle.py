"""Word-at-a-time and dense-projector reference implementations.

These are the loop versions that the library replaced with contractions
over ``word_stack``: each builds its words one at a time with
``word_operator`` and walks word pairs in Python.  The level functions
(``_qm_function``, ``trace_qm``, ``kms_state_eval``,
``check_Q_compatibility``, ``check_subproduct_inclusion``) work on the
dense n^m x n^m projector ``p_m`` (``_qm_function`` on the expanded
``V_m``, inverting ``V_m* Q^(x)m V_m`` with no eigenvalue cut) and the
dense power ``Q^(x)m``, which the library replaced with the level
isometry ``V_m``.  ``verify_power_dilation`` builds ``D_m`` word by word
and compares ``D_m*(A (x) 1)D_m`` with ``Phi^m(A)`` as stated, with no
hypothesis on ``e_1^(x)m`` and no whitening.  ``test_word_stack``
compares the library against them.  They are slow (cubic in the word
count for the KMS residual), so keep their inputs small.

``svd_cut_direct`` factors every level matrix by one SVD, as
``matcore.svd_cut`` did before it factored wide ones by their short side;
``test_matcore`` and ``test_level_factorization`` compare against it.

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
compare the library against them.  Its sums walk word pairs by default;
``sums=_first_row_sums_by_words`` takes them from the n^m-word stack in
word space instead, for levels too deep for the pair loop.
"""
import functools

import numpy as np

from detbal.channel import (
    KrausSet,
    apply,
    block,
    index_words,
    remix,
    require_dilation_pair,
    symmetric_unitary_first_col,
    word_labels,
    word_operator,
    word_stack,
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
    rank_mask,
    spectral_norm,
)
from detbal.report import CheckRecord, RelationsReport


def _tensor_power(Q, m):
    return functools.reduce(np.kron, [Q] * m, np.ones((1, 1)))


def projector(L):
    """The dense n^m x n^m level projector p_m = V_m V_m* of a stinespring.Level."""
    return L.V @ dag(L.V)


def weighted_isometry(Q, L):
    """The dense n^m x r array Q^(x)m V_m of a stinespring.Level."""
    return _tensor_power(Q, L.m) @ L.V


def words(L):
    """The 1-based Word labels indexing the rows of a stinespring.Level's V_m."""
    return tuple(word_labels(L.n, L.m))


def _qm_function(Q, S, m, fn):
    """fn(Q_m) on the whole level: VU fn(w) VU* from the eigenpairs of H = V* Q^(x)m V."""
    L = S.level(m)
    H = dag(L.V) @ weighted_isometry(Q, L)
    w, U = np.linalg.eigh((H + dag(H)) / 2)
    VU = L.V @ U
    return (VU * fn(w.astype(complex))) @ dag(VU)


def trace_qm(Qd, S, m):
    p = projector(S.level(m))
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
    p = projector(S.level(m))
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
    pm = projector(S.level(m))
    pl = projector(S.level(l))
    pml = projector(S.level(m + l))
    return spectral_norm(np.kron(pm, pl) @ pml - pml)


def check_Q_compatibility(S, Q, m):
    if m > S.M:
        raise ValueError("level out of range")
    if m == 0:
        return 0.0
    Qf = _tensor_power(as_complex(Q), m)
    p = projector(S.level(m))
    return spectral_norm(Qf @ p - p @ Qf)


def _require_compatible(S, Q, m, tol):
    """Raise the library's HypothesisFailure where the dense compat exceeds tol."""
    compat = check_Q_compatibility(S, Q, m)
    if compat > tol:
        raise HypothesisFailure(
            f"Q^(x){m} does not preserve the level-{m} subspace (residual {compat:.3g})"
        )


def check_phi_symmetric(K, rho0, Qd, S, m, ordering="normal", tol=RESIDUAL_TOL):
    rho0 = check_state(rho0)
    _require_compatible(S, Qd.Q, m, tol)
    ws = index_words(K.n, m)
    p = projector(S.level(m))
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
        _require_compatible(S, Qd.Q, mp, tol)
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


def q_sphere_residual(K, Qd, S, m, tol=RESIDUAL_TOL):
    _require_compatible(S, Qd.Q, m, tol)
    Qinv = _qm_function(Qd.Q, S, m, lambda w: 1.0 / w)
    ws = index_words(K.n, m)
    ops = [word_operator(K.ops, w) for w in ws]
    Sm = np.zeros((K.d, K.d), dtype=complex)
    for a in range(len(ws)):
        for b in range(len(ws)):
            Sm += Qinv[b, a] * ops[a] @ dag(ops[b])
    R = Sm - np.eye(K.d)
    P, _ = eig_projector(R, tol)
    return spectral_norm(R), P


def _first_row_sums_by_pairs(z, Q, S, m):
    """(row, mirror) sums of the blocks z over word pairs one at a time, Qinv dense."""
    Qinv = _qm_function(Q, S, m, lambda w: 1.0 / w)
    ws = index_words(len(z), m)
    zops = [word_operator(z, wd) for wd in ws]
    d = len(z[0])
    G_row = np.zeros((d, d), dtype=complex)
    G_mirror = np.zeros((d, d), dtype=complex)
    for a_ in range(len(ws)):
        for b in range(len(ws)):
            G_row += Qinv[b, a_] * dag(zops[a_]) @ zops[b]
            G_mirror += Qinv[b, a_] * zops[a_] @ dag(zops[b])
    return G_row, G_mirror


def _first_row_sums_by_words(z, Q, S, m):
    """(row, mirror) sums of the blocks z from every word at once, in word space.

    Qinv = VU diag(1/w) VU* from the eigenpairs of H = V* Q^(x)m V, with
    Q^(x)m V formed by one mode product of Q per letter on the expanded
    V, so no n^m x n^m array is formed; each sum is then one remix of the
    n^m-word stack times its adjoint.  This is the word-space form the
    library used before it read the words through the train, and it
    reaches levels of thousands of words, where the pair loop cannot.
    """
    V, n = S.level(m).V, len(z)
    X = V.reshape((n,) * m + (V.shape[1],))
    for ax in range(m):
        X = np.moveaxis(np.tensordot(Q, X, axes=(1, ax)), 0, ax)
    H = dag(V) @ X.reshape(V.shape)
    w, U = np.linalg.eigh((H + dag(H)) / 2)
    VU = V @ U
    Z = word_stack(np.array(z), m)
    B, C = (remix(Z, A) / np.sqrt(w)[:, np.newaxis, np.newaxis] for A in (VU, VU.conj()))
    return (dag(C) @ C).sum(0), (B @ dag(B)).sum(0)


def first_row_q_sphere(W, F, S, m, tol=RESIDUAL_TOL, sums=_first_row_sums_by_pairs):
    W, F, d, n = require_dilation_pair(W, F)
    if n != S.n:
        raise ValueError("subproduct system size mismatch")
    Q = dag(F) @ F
    lev = S.level(m)
    e1 = np.zeros(n ** m)
    e1[0] = 1.0
    hyp_q11 = float(abs(Q[0, 0] - 1.0))
    hyp_e1 = float(np.linalg.norm(lev.V @ lev.V[0].conj() - e1))  # p e_1, read as V V[0]*
    z = [block(W, d, n, 0, k) for k in range(n)]
    G_row, G_mirror = sums(z, Q, S, m)
    I = np.eye(d)
    checks = [
        CheckRecord(name="hypothesis_Q11", residual=hyp_q11, tolerance=tol, level=m),
        CheckRecord(name="hypothesis_boundary_vector", residual=hyp_e1, tolerance=tol, level=m),
        _relation_record("row_sphere", G_row - I, tol),
        _relation_record("mirror_sphere", G_mirror - I, tol),
    ]
    for c_ in checks[2:]:
        c_.level = m
    return RelationsReport(
        relation="first_row_q_sphere",
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


def verify_power_dilation(K, S, m, A):
    """||D_m*(A (x) 1)D_m - Phi^m(A)|| for D_m = sum_w K_w (x) p_m e_w, built word by word."""
    if m > S.M:
        raise ValueError("level out of range")
    A = as_complex(A)
    p = projector(S.level(m))
    ws = index_words(K.n, m)
    Vm = np.zeros((K.d * K.n ** m, K.d), dtype=complex)
    for idx, w in enumerate(ws):
        Vm += np.kron(word_operator(K.ops, w), p[:, idx].reshape(-1, 1))
    lhs = dag(Vm) @ np.kron(A, np.eye(K.n ** m)) @ Vm
    rhs = A.copy()
    for _ in range(m):
        rhs = apply(K, rhs, "heisenberg")
    return spectral_norm(lhs - rhs)


def svd_cut_direct(X, rank_tol=RANK_TOL):
    """matcore.svd_cut as one SVD of X at every shape, the body its wide inputs bypass."""
    U, s, Vh = np.linalg.svd(X, full_matrices=False)
    keep = rank_mask(s, rank_tol)
    return U[:, keep], s[keep, np.newaxis] * Vh[keep]


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
        frobenius=frobenius_norm(R),
        defect_rank=rank,
        off_defect_residual=spectral_norm(Pc @ R @ Pc),
    )


def f_conjugate(W, F, d, n):
    """(1 (x) F) W^c (1 (x) F^-1) with W^c built block by block and both
    Kronecker factors formed densely."""
    Wc = np.zeros((d * n, d * n), dtype=complex)
    R = Wc.reshape(d, n, d, n)
    for j in range(n):
        for k in range(n):
            R[:, j, :, k] = dag(block(W, d, n, j, k))
    return np.kron(np.eye(d), F) @ Wc @ np.kron(np.eye(d), np.linalg.inv(F))


def au_relations_check(W, F, tol: float = RESIDUAL_TOL) -> RelationsReport:
    W, F, d, n = require_dilation_pair(W, F)
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
        tolerance=tol,
        checks=checks,
        info={"d": d, "n": n},
    )


def bu_relations_check(W, F, tol: float = RESIDUAL_TOL) -> RelationsReport:
    W, F, d, n = require_dilation_pair(W, F)
    rep = au_relations_check(W, F, tol)
    Wc_F = f_conjugate(W, F, d, n)
    checks = list(rep.checks)
    checks.append(_relation_record("self_conjugacy", W - Wc_F, tol))
    FFc = F @ F.conj()
    lam = np.trace(FFc) / n
    scalar_res = spectral_norm(FFc - lam * np.eye(n)) / abs(lam) if lam else float("inf")
    checks.append(CheckRecord(name="F_Fc_scalar", residual=float(scalar_res), tolerance=tol))
    return RelationsReport(
        relation="bu",
        tolerance=tol,
        checks=checks,
        info={"d": d, "n": n, "lambda": [float(lam.real), float(lam.imag)]},
    )
