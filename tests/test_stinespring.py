import numpy as np
import pytest

from detbal.channel import KrausSet, Word, apply, channel_distance, index_words, minimal_kraus
from detbal.factories import commuting_db_kraus, gad_kraus
from detbal.matcore import dag, spectral_norm
from detbal.stinespring import (
    build_subproduct,
    check_Q_compatibility,
    check_subproduct_inclusion,
    first_level,
    verify_power_dilation,
)
import loop_oracle as oracle
from conftest import random_channel, random_hermitian, random_unitary


def test_identity_channel_levels_are_rank_one():
    S = build_subproduct(KrausSet([np.eye(2)]), 3)
    for m in range(4):
        assert S.level(m).rank == 1


def test_minimal_kraus_cuts_what_level_one_cuts():
    # gad's singular values relative to the largest are 1, 0.505, 0.292, 0.147:
    # rank_tol = 0.5 keeps two, on the singular values and not on their squares
    G = gad_kraus(0.75, 0.5)
    assert first_level(G, 0.5).rank == minimal_kraus(G, 0.5).n == 2
    assert build_subproduct(G, 2, 0.5).n == 2
    # a complex dependent set: the kept operators are level 1's B, and the channel stays
    A, B, C = random_channel(2, 3, 7001).ops
    K = KrausSet([A, B, C, 1j * A + (0.5 - 0.2j) * B])
    Km = minimal_kraus(K)
    np.testing.assert_array_equal(Km.ops, first_level(K).B)
    assert Km.n == 3 and channel_distance(K, Km) <= 1e-12


def test_level_zero_and_labels():
    K = commuting_db_kraus(np.pi / 6)
    S = build_subproduct(K, 2)
    assert S.level(0).rank == 1
    assert oracle.words(S.level(2))[1] == Word((1, 2))
    with pytest.raises(ValueError):
        S.level(3)


def test_commuting_db_level_two_rank():
    # the two words (1,2) and (2,1) coincide, so one dimension drops
    S = build_subproduct(commuting_db_kraus(np.pi / 6), 2)
    assert S.level(1).rank == 2
    assert S.level(2).rank == 2


def test_measurement_pair_level_two_projector():
    K = KrausSet([np.diag([1.0, 0j]), np.diag([0j, 1.0])])
    S = build_subproduct(K, 2)
    p2 = oracle.projector(S.level(2))
    assert np.allclose(p2, np.diag([1.0, 0.0, 0.0, 1.0]))


def test_qutrit_commuting_pair_rank():
    K = KrausSet([
        np.diag([1.0, 0.5, -0.5]).astype(complex),
        np.diag([0.0, np.sqrt(3) / 2, np.sqrt(3) / 2]).astype(complex),
    ])
    S = build_subproduct(K, 2)
    assert S.level(2).rank == 3


def test_generic_channel_has_full_level_ranks():
    S = build_subproduct(random_channel(3, 2, 77), 3)
    assert [S.level(m).rank for m in (1, 2, 3)] == [2, 4, 8]


def test_projector_properties():
    S = build_subproduct(random_channel(2, 2, 31), 3)
    for m in (1, 2, 3):
        p = oracle.projector(S.level(m))
        assert spectral_norm(p @ p - p) < 1e-12
        assert spectral_norm(p - dag(p)) < 1e-12


def test_word_relation_reproduces_kraus_products():
    # K_w = sum_r (p_m)_{w,r} K_r over length-m words
    K = commuting_db_kraus(0.9)
    S = build_subproduct(K, 2)
    p2 = oracle.projector(S.level(2))
    ws = index_words(2, 2)
    ops = [K[a] @ K[b] for a, b in ws]
    for i in range(len(ws)):
        mixed = sum(p2[i, r] * ops[r] for r in range(len(ws)))
        assert spectral_norm(mixed - ops[i]) < 1e-12


def test_auto_minimalization():
    I2 = np.eye(2, dtype=complex)
    S = build_subproduct(KrausSet([I2 / np.sqrt(2), I2 / np.sqrt(2)]), 2)
    assert S.n == 1
    assert S.level(1).rank == 1


def test_inclusion_residuals_small():
    for seed in (32, 33):
        S = build_subproduct(random_channel(2, 2, seed), 3)
        for m, l in [(1, 1), (1, 2), (2, 1)]:
            assert check_subproduct_inclusion(S, m, l) < 1e-9
    with pytest.raises(ValueError):
        check_subproduct_inclusion(S, 2, 2)


def test_inclusion_for_commuting_family():
    S = build_subproduct(commuting_db_kraus(np.pi / 6), 4)
    for m in (1, 2, 3):
        assert check_subproduct_inclusion(S, m, 4 - m) < 1e-10


def test_swap_symmetry_for_commuting_set():
    # commuting operators make the level-2 kernel swap-invariant
    K = commuting_db_kraus(np.pi / 6)
    S = build_subproduct(K, 2)
    p2 = oracle.projector(S.level(2))
    SW = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            SW[i * 2 + j, j * 2 + i] = 1.0
    assert spectral_norm(SW @ p2 - p2 @ SW) < 1e-12


def test_rank_is_remix_invariant():
    K = random_channel(2, 3, 34)
    U = random_unitary(3, 35)
    K2 = KrausSet([sum(U[j, r] * K[j] for j in range(3)) for r in range(3)])
    S1 = build_subproduct(K, 2)
    S2 = build_subproduct(K2, 2)
    assert S1.level(2).rank == S2.level(2).rank


def test_q_compatibility_identity_weight():
    S = build_subproduct(random_channel(2, 2, 36), 2)
    assert check_Q_compatibility(S, np.eye(2), 2) < 1e-14
    assert check_Q_compatibility(S, np.eye(2), 0) == 0.0


def test_power_dilation_level_one():
    K = random_channel(3, 2, 37)
    S = build_subproduct(K, 2)
    A = random_hermitian(3, 38)
    assert verify_power_dilation(K, S, 1, A) < 1e-10


def test_power_dilation_full_rank_channel():
    K = random_channel(3, 2, 77)
    S = build_subproduct(K, 3)
    A = random_hermitian(3, 39)
    for m in (1, 2, 3):
        assert verify_power_dilation(K, S, m, A) < 1e-10


def test_power_dilation_measurement_pair():
    K = KrausSet([np.diag([1.0, 0j]), np.diag([0j, 1.0])])
    S = build_subproduct(K, 2)
    A = random_hermitian(2, 40)
    assert verify_power_dilation(K, S, 2, A) < 1e-12


def test_power_dilation_unitary_channel():
    K = KrausSet([random_unitary(2, 41)])
    S = build_subproduct(K, 3)
    A = random_hermitian(2, 42)
    assert verify_power_dilation(K, S, 3, A) < 1e-12


def _unit_hermitian(d, seed):
    A = random_hermitian(d, seed)
    return A / spectral_norm(A)


@pytest.mark.parametrize("K", [commuting_db_kraus(np.pi / 6), gad_kraus(0.75, 0.5)],
                         ids=["commuting_db", "gad"])
def test_power_dilation_holds_where_e1_leaves_the_level(K):
    # words (1,2) and (2,1) collapse, so e_1^(x)m leaves the level space from m = 2; the
    # identity D_m*(A (x) 1)D_m = Phi^m(A) needs no such hypothesis, and the check returns
    # its residual
    S = build_subproduct(K, 5)
    for m in range(2, 6):
        assert S.level(m).boundary_defect() > 0.5, m
        for seed in range(3):
            assert verify_power_dilation(K, S, m, _unit_hermitian(2, seed)) <= 1e-14, (m, seed)
    # the channel-power identity itself, over the word family
    A = random_hermitian(2, 43)
    twice = apply(K, apply(K, A))
    ops = [K[a] @ K[b] for a, b in index_words(K.n, 2)]
    direct = sum(dag(op) @ A @ op for op in ops)
    assert spectral_norm(direct - twice) < 1e-12


def test_power_dilation_of_an_operation_that_is_not_trace_preserving():
    # 0.5 gad: D_1 is no isometry, and the identity holds for it as it stands
    K = KrausSet(np.sqrt(0.5) * gad_kraus(0.75, 0.5).ops)
    S = build_subproduct(K, 1)
    for seed in range(3):
        assert verify_power_dilation(K, S, 1, _unit_hermitian(2, seed)) <= 1e-14


def test_build_subproduct_budget():
    # the build forms only r x r cores and r x d x d stacks, so it takes any depth; V_m, the
    # tower's one word-space array, refuses past 4096 rows
    S = build_subproduct(random_channel(2, 4, 44), 7)
    with pytest.raises(ValueError, match=r"4\*\*7 = 16384 words exceeds the budget of 4096"):
        S.level(7).V
    assert S.level(6).V.shape[0] == 4096
