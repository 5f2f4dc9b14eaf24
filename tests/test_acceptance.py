"""Acceptance gate: one test per numbered criterion.

Each test records its outcome with ``record_acceptance`` *before*
asserting, so the terminal summary prints a PASS/FAIL line for every
criterion even when one fails.  Frozen constants were computed with an
independent reference implementation.
"""
import numpy as np

from detbal.channel import (
    KrausSet,
    Word,
    apply,
    channel_distance,
    dilation_from_kraus,
    index_words,
    isometry_from_kraus,
)
from detbal.equilibrium import (
    CorrelationData,
    balance_scalar,
    correlation_matrix,
    kms_condition_residual,
    modular_flow,
    orthogonalize_kraus,
    zero_mean_check,
)
from detbal.factories import commuting_db_kraus, gad_kraus
from detbal.matcore import dag, spectral_norm
from detbal.qgroup import bu_relations_check, suq2_dilation, suq2_generators
from detbal.reversal import (
    ClassicalChain,
    classical_reverse,
    crooks_check,
    crooks_dual,
    detailed_balance_verdict,
    q_sphere_residual,
    reversed_kraus,
    reversed_unitary,
)
from detbal.stinespring import build_subproduct, check_subproduct_inclusion

import loop_oracle as oracle
from conftest import (
    random_channel,
    random_hermitian,
    random_unitary,
    record_acceptance,
)

# 50 random channels covering every (d, n) pair with d, n <= 4
_PAIRS = [(d, n) for d in (2, 3, 4) for n in (2, 3, 4)]
CHANNEL_POOL = [(_PAIRS[i % 9][0], _PAIRS[i % 9][1], 7000 + i) for i in range(50)]


def test_c1_stinespring_reconstruction():
    worst = 0.0
    for d, n, seed in CHANNEL_POOL:
        K = random_channel(d, n, seed)
        V = isometry_from_kraus(K)
        A = random_hermitian(d, seed + 1)
        res = spectral_norm(dag(V) @ np.kron(A, np.eye(n)) @ V - apply(K, A))
        worst = max(worst, res)
    ok = worst < 1e-10
    record_acceptance("C1", ok, f"50 channels, worst residual {worst:.2e}")
    assert ok


def test_c2_subproduct_inclusions():
    worst = 0.0
    for d, n, seed in CHANNEL_POOL:
        S = build_subproduct(random_channel(d, n, seed), 3)
        for m, l in ((1, 1), (1, 2), (2, 1)):
            worst = max(worst, check_subproduct_inclusion(S, m, l))
    ok = worst < 1e-9
    record_acceptance("C2", ok, f"all m+l <= 3, worst residual {worst:.2e}")
    assert ok


def test_c3_correlation_matrix_is_density_matrix():
    min_eig, trace_err, spec_shift = np.inf, 0.0, 0.0
    for d, n, seed in CHANNEL_POOL:
        K = random_channel(d, n, seed)
        rho0 = np.eye(d) / d
        q = correlation_matrix(K, rho0, "raw").Q
        w = np.linalg.eigvalsh(q)
        min_eig = min(min_eig, float(w[0]))
        trace_err = max(trace_err, abs(float(np.trace(q).real) - 1.0))
        U = random_unitary(n, seed + 2)
        remixed = KrausSet(
            [sum(U[k, j] * K[j] for j in range(n)) for k in range(n)]
        )
        w2 = np.linalg.eigvalsh(correlation_matrix(remixed, rho0, "raw").Q)
        spec_shift = max(spec_shift, float(np.max(np.abs(w - w2))))
    ok = min_eig > -1e-12 and trace_err < 1e-12 and spec_shift < 1e-10
    record_acceptance(
        "C3", ok,
        f"min eig {min_eig:.1e}, trace err {trace_err:.1e}, remix shift {spec_shift:.1e}",
    )
    assert ok


def test_c4_orthogonalization():
    worst_offdiag, worst_choi = 0.0, 0.0
    multi_mean = []
    for d, n, seed in CHANNEL_POOL:
        K = random_channel(d, n, seed)
        rho0 = np.eye(d) / d
        Kp, Qraw, _ = orthogonalize_kraus(K, rho0)
        q = Qraw.Q
        worst_offdiag = max(
            worst_offdiag, float(np.max(np.abs(q - np.diag(np.diag(q)))))
        )
        worst_choi = max(worst_choi, channel_distance(K, Kp))
        means = zero_mean_check(Kp, rho0)
        surviving = sum(mu > 1e-10 for mu in means)
        if surviving > 1:
            multi_mean.append((d, n, seed, surviving))
    diag_ok = worst_offdiag < 1e-10
    choi_ok = worst_choi < 1e-10
    mean_ok = not multi_mean
    detail = f"off-diag {worst_offdiag:.1e}, choi dist {worst_choi:.1e}"
    if not mean_ok:
        d, n, seed, cnt = multi_mean[0]
        detail += (
            f"; zero-mean clause fails on {len(multi_mean)}/50 channels"
            f" (e.g. d={d} n={n} seed={seed}: {cnt} means above 1e-10)"
        )
    record_acceptance("C4", diag_ok and choi_ok and mean_ok, detail)
    assert diag_ok and choi_ok
    # A rho0-orthogonal Kraus set has at most one operator with nonzero
    # mean only when the identity lies in the span of the family; for a
    # generic channel several means survive orthogonalization, so this
    # clause fails honestly rather than being weakened.
    assert mean_ok, f"multiple nonzero means on {len(multi_mean)}/50 channels"


# --- criterion 5: test family ------------------------------------------------

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)


def _ad_kraus(g: float) -> KrausSet:
    return KrausSet([
        np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex),
        np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex),
    ])


def _single_unitary() -> KrausSet:
    # exp(0.3i sigma_y), written in closed form
    sy = np.array([[0, -1j], [1j, 0]])
    return KrausSet([np.cos(0.3) * np.eye(2) + 1j * np.sin(0.3) * sy])


def _mixed(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex) / d


# (label, KrausSet, rho0, satisfies, frozen (sphere, wbar) for violators)
def _c5_family():
    yield "commuting_db(pi/6)", commuting_db_kraus(np.pi / 6), _mixed(2), True, None
    yield "commuting_db(pi/5)", commuting_db_kraus(np.pi / 5), _mixed(2), True, None
    yield "commuting_db(1.0)", commuting_db_kraus(1.0), _mixed(2), True, None
    yield "identity", KrausSet([np.eye(2, dtype=complex)]), _mixed(2), True, None
    yield "unitary", _single_unitary(), _mixed(2), True, None
    yield "qubit measurement", KrausSet([np.diag([1.0, 0j]), np.diag([0j, 1.0])]), _mixed(2), True, None
    yield "I,X mix", KrausSet([np.eye(2) / np.sqrt(2), _X / np.sqrt(2)]), _mixed(2), True, None
    yield "I,Z mix", KrausSet([np.eye(2) / np.sqrt(2), _Z / np.sqrt(2)]), _mixed(2), True, None
    yield "qutrit diagonal pair", KrausSet([
        np.diag([1.0, 0.5, -0.5]).astype(complex),
        np.diag([0.0, np.sqrt(3) / 2, np.sqrt(3) / 2]).astype(complex),
    ]), _mixed(3), True, None
    yield "qutrit measurement", KrausSet([
        np.diag([1.0, 0, 0]).astype(complex),
        np.diag([0, 1.0, 0]).astype(complex),
        np.diag([0, 0, 1.0]).astype(complex),
    ]), _mixed(3), True, None
    yield "gad(0.75,0.5)", gad_kraus(0.75, 0.5), np.diag([0.75, 0.25]), False, (0.5, 34.7584966739)
    yield "ad(0.3)", _ad_kraus(0.3), _mixed(2), False, (0.7059411824, 2.2296674950)
    yield "bit flip", KrausSet([np.sqrt(0.8) * np.eye(2), np.sqrt(0.2) * _X]), _mixed(2), False, (0.2, 0.9325485849)
    yield "qutrit projective pair", KrausSet([
        np.diag([1.0, 1.0, 0]).astype(complex),
        np.diag([0, 0, 1.0]).astype(complex),
    ]), _mixed(3), False, (0.4142135624, 1.0)
    yield "shift", KrausSet([
        np.array([[1, 0], [0, 0]], dtype=complex),
        np.array([[0, 1], [0, 0]], dtype=complex),
    ]), _mixed(2), False, (1.0, 3.0)
    yield "haar(2,2)", random_channel(2, 2, 11), _mixed(2), False, (0.6778395228, 2.2880185316)
    yield "haar(2,3)", random_channel(2, 3, 12), _mixed(2), False, (0.4295201051, 3.4741465760)
    yield "haar(3,2)", random_channel(3, 2, 13), _mixed(3), False, (0.4902023980, 1.3904533918)
    yield "skew diagonal pair", KrausSet([
        np.diag([np.cos(0.7), np.sin(0.3)]).astype(complex),
        np.diag([np.sin(0.7), -np.cos(0.3)]).astype(complex),
    ]), _mixed(2), False, (0.0789390060, 0.5889359795)
    yield "gad(0.6,0.25)", gad_kraus(0.6, 0.25), np.diag([0.6, 0.4]), False, (0.75, 46.9121441650)


def test_c5_q_sphere_iff_reversed_unitary():
    rows = []
    for label, K, rho0, satisfies, frozen in _c5_family():
        Kp, Qraw, _ = orthogonalize_kraus(K, rho0)
        Qtb = Qraw.with_normalization("trace_balanced")
        S = build_subproduct(Kp, 1)
        sphere, _ = q_sphere_residual(Kp, Qtb, S, 1)
        _, W = dilation_from_kraus(Kp)
        F = np.diag(np.sqrt(np.diag(Qtb.Q)))
        _, wres = reversed_unitary(W, F, Kp.d, Kp.n)
        rows.append((label, satisfies, sphere, wres, frozen))

    equivalence = all((s < 1e-8) == (w < 1e-6) for _, _, s, w, _ in rows)
    sat_ok = all(s < 1e-8 and w < 1e-6 for _, sat, s, w, _ in rows if sat)
    separation = all(s > 1e-2 and w > 1e-2 for _, sat, s, w, _ in rows if not sat)
    frozen_ok = all(
        abs(s - f[0]) < 1e-6 and abs(w - f[1]) < 1e-6
        for _, _, s, w, f in rows if f is not None
    )
    ok = equivalence and sat_ok and separation and frozen_ok
    min_vio = min(s for _, sat, s, _, _ in rows if not sat)
    record_acceptance(
        "C5", ok,
        f"{len(rows)} instances, equivalence holds, min violator residual {min_vio:.1e}",
    )
    for label, sat, s, w, f in rows:
        assert (s < 1e-8) == (w < 1e-6), (label, s, w)
        if sat:
            assert s < 1e-8 and w < 1e-6, (label, s, w)
        else:
            assert s > 1e-2 and w > 1e-2, (label, s, w)
        if f is not None:
            assert abs(s - f[0]) < 1e-6 and abs(w - f[1]) < 1e-6, (label, s, w, f)


def test_c6_crooks_regression():
    K = commuting_db_kraus(np.pi / 6)
    rho0 = _mixed(2)
    report = detailed_balance_verdict(K, rho0)
    Qfe = correlation_matrix(K, rho0, "first_entry")
    cdb_crooks = crooks_check(K, reversed_kraus(K, Qfe), rho0, 3)

    G = gad_kraus(0.75, 0.5)
    grho = np.diag([0.75, 0.25]).astype(complex)
    gad_crooks = crooks_check(G, crooks_dual(G, grho), grho, 2)
    gad_report = detailed_balance_verdict(G, grho)

    ok = (
        report.verdict
        and cdb_crooks < 1e-10
        and gad_crooks < 1e-10
        and not gad_report.verdict
        and gad_report.reason == "q_sphere"
    )
    record_acceptance(
        "C6", ok,
        f"commuting_db crooks {cdb_crooks:.1e}, gad crooks {gad_crooks:.1e},"
        f" gad reason {gad_report.reason}",
    )
    assert report.verdict and cdb_crooks < 1e-10
    assert gad_crooks < 1e-10
    assert not gad_report.verdict and gad_report.reason == "q_sphere"


def test_c7_kms_and_modular_flow():
    rho0 = _mixed(2)
    Kp, Qraw, _ = orthogonalize_kraus(commuting_db_kraus(np.pi / 6), rho0)
    Qtb = Qraw.with_normalization("trace_balanced")
    S = build_subproduct(Kp, 2)
    Qtb.attach_levels(S)
    kms = max(kms_condition_residual(Kp, rho0, Qtb, S, m) for m in (1, 2))

    a, c, K, F = suq2_generators(0.5, 6)
    Qz = dag(F) @ F
    Qd = CorrelationData(Q=Qz, normalization="first_entry", raw=Qz)
    S2 = build_subproduct(K, 2)
    Qd.attach_levels(S2)
    words = [Word((i + 1, j + 1)) for i, j in index_words(2, 2)]

    def flow(t):
        return np.vstack([modular_flow(Qd, S2, w, t) for w in words])

    t1, t2 = 0.37, -0.82
    group_law = spectral_norm(flow(t1) @ flow(t2) - flow(t1 + t2))
    M1 = np.vstack([modular_flow(Qd, S2, Word((i,)), t1) for i in (1, 2)])
    p2 = oracle.projector(S2.level(2))
    hom = spectral_norm(flow(t1) @ p2 - p2 @ np.kron(M1, M1) @ p2)

    ok = kms < 1e-10 and group_law < 1e-9 and hom < 1e-9
    record_acceptance(
        "C7", ok,
        f"kms {kms:.1e}, group law {group_law:.1e}, homomorphism {hom:.1e}",
    )
    assert ok


def test_c8_classical_baseline():
    chains = [np.array([[0.7, 0.7], [0.3, 0.3]])]
    rng = np.random.default_rng(31)
    for _ in range(8):
        alpha, beta = rng.uniform(0.05, 0.95, size=2)
        chains.append(np.array([[1 - alpha, beta], [alpha, 1 - beta]]))
    two_state_ok = True
    for M in chains:
        _, db, res = classical_reverse(ClassicalChain(M))
        two_state_ok = two_state_ok and db and res < 1e-12

    cycle = ClassicalChain(np.array([
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
    ]))
    Mhat, cycle_db, res = classical_reverse(cycle)
    pi = cycle.pi
    analytic = max(
        abs(cycle.M[j, k] * pi[k] - cycle.M[k, j] * pi[j])
        for j in range(3) for k in range(3)
    )
    Mback, _, _ = classical_reverse(ClassicalChain(Mhat, pi))
    double = float(np.max(np.abs(Mback - cycle.M)))

    ok = (
        two_state_ok
        and not cycle_db
        and abs(res - analytic) < 1e-15
        and abs(res - 1.0 / 3.0) < 1e-12
        and double < 1e-12
    )
    record_acceptance(
        "C8", ok,
        f"9 two-state chains balanced, cycle residual {res:.6f}, double reversal {double:.1e}",
    )
    assert ok


def test_c9_quantum_group_certificates():
    F2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    worst = 0.0
    su2_ok = True
    for theta, phi, psi in (
        ((0.3, 1.1, 2.0), (0.2, -0.7, 0.4), (1.5, 0.9, -0.3)),
        ((0.5,), (0.0,), (0.0,)),
        ((1.2, 0.4), (0.3, -1.0), (0.8, 2.2)),
    ):
        A = np.diag(np.cos(theta) * np.exp(1j * np.asarray(phi)))
        B = np.diag(np.sin(theta) * np.exp(1j * np.asarray(psi)))
        d = A.shape[0]
        W = np.zeros((2 * d, 2 * d), dtype=complex)
        R = W.reshape(d, 2, d, 2)
        R[:, 0, :, 0] = A
        R[:, 0, :, 1] = -B.conj()
        R[:, 1, :, 0] = B
        R[:, 1, :, 1] = A.conj()
        report = bu_relations_check(W, F2)
        su2_ok = su2_ok and report.verdict
        worst = max(worst, max(c.residual for c in report.checks))

    q, N = 0.5, 6
    a, c, K, F = suq2_generators(q, N)
    rep = suq2_report = bu_relations_check(suq2_dilation(a, c, q), F)
    boundary = 1 - q ** (2 * N)
    trunc_ok = True
    off_defect = 0.0
    for name in ("W_unitary_left", "W_unitary_right",
                 "conjugate_unitary_left", "conjugate_unitary_right"):
        chk = rep.check(name)
        trunc_ok = trunc_ok and chk.defect_rank == 1
        trunc_ok = trunc_ok and abs(chk.residual - boundary) < 1e-10
        off_defect = max(off_defect, chk.off_defect_residual)
    trunc_ok = trunc_ok and off_defect < 1e-10
    trunc_ok = trunc_ok and suq2_report.check("self_conjugacy").residual < 1e-10
    trunc_ok = trunc_ok and suq2_report.check("F_Fc_scalar").residual < 1e-10

    ok = su2_ok and worst < 1e-10 and trunc_ok
    record_acceptance(
        "C9", ok,
        f"su(2)-form worst {worst:.1e}, truncated off-defect {off_defect:.1e},"
        f" boundary 1-q^12 matched",
    )
    assert ok


def test_c10_balance_scalar_uniqueness():
    worst_eq, worst_gap = 0.0, 0.0
    unique = True
    for size, seed in zip(range(2, 7), range(40, 45)):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        q = X @ dag(X) + 0.1 * np.eye(size)
        s = balance_scalar(q)
        worst_eq = max(
            worst_eq, abs(np.trace(s * q) - np.trace(np.linalg.inv(s * q)))
        )

        # independent bisection on t -> Tr(tq) - Tr((tq)^-1), which is
        # strictly increasing for positive definite q
        def g(t):
            return float((np.trace(t * q) - np.trace(np.linalg.inv(t * q))).real)

        lo, hi = 1e-8, 1e8
        assert g(lo) < 0 < g(hi)
        for _ in range(200):
            mid = (lo + hi) / 2
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        worst_gap = max(worst_gap, abs((lo + hi) / 2 - s))
        unique = unique and g(0.9 * s) < 0 < g(1.1 * s)

    ok = worst_eq < 1e-12 and worst_gap < 1e-10 and unique
    record_acceptance(
        "C10", ok,
        f"trace equation {worst_eq:.1e}, bisection gap {worst_gap:.1e}, sign change",
    )
    assert ok
