"""Towers past the word budget: the train readers work at any depth, and the budget refuses
only where a word-space array would be formed (Level.V and what expands it)."""
import numpy as np
import pytest

from detbal.channel import KrausSet
from detbal.equilibrium import orthogonalize_kraus
from detbal.factories import commuting_db_kraus
from detbal.qgroup import first_row_q_sphere, suq2_dilation, suq2_generators
from detbal.reversal import detailed_balance_verdict, q_sphere_residual
from detbal.stinespring import (
    build_subproduct,
    check_Q_compatibility,
    check_subproduct_inclusion,
    verify_power_dilation,
)
from conftest import random_channel, random_hermitian

MIXED2 = np.eye(2, dtype=complex) / 2


@pytest.fixture(scope="module")
def deep_commuting_db():
    Kp, Qraw, _ = orthogonalize_kraus(commuting_db_kraus(np.pi / 6), MIXED2)
    Qtb = Qraw.with_normalization("trace_balanced")
    S = build_subproduct(Kp, 40)
    Qtb.attach_levels(S)
    return Kp, Qtb, S


@pytest.mark.parametrize("m", [13, 20, 40])
def test_train_readers_hold_past_the_word_budget(deep_commuting_db, m):
    # 2**13 words and more: every reader here goes through the train, never through V
    Kp, Qtb, S = deep_commuting_db
    assert q_sphere_residual(Kp, Qtb, S, m)[0] <= 1e-13
    assert check_Q_compatibility(S, Qtb.Q, m) <= 1e-13
    assert verify_power_dilation(Kp, S, m, random_hermitian(2, m)) <= 1e-13


def test_first_row_q_sphere_past_the_word_budget():
    a, c, K, F = suq2_generators(0.5, 12)
    S = build_subproduct(K, 14)
    rep = first_row_q_sphere(suq2_dilation(a, c, 0.5), F, S, 14)
    assert rep.relation == "first_row_q_sphere"
    assert [c.level for c in rep.checks] == [14] * 4


def test_inclusion_past_the_word_budget_refuses_before_the_kron(monkeypatch):
    Kp = orthogonalize_kraus(commuting_db_kraus(np.pi / 6), MIXED2)[0]
    S = build_subproduct(Kp, 13)

    def spy(*args):
        raise AssertionError("np.kron formed a word-space array")

    monkeypatch.setattr(np, "kron", spy)
    with pytest.raises(ValueError, match=r"2\*\*13 = 8192 words exceeds the budget of 4096"):
        check_subproduct_inclusion(S, 6, 7)


def test_verdict_refuses_a_rank_tol_that_cuts_the_kraus_rank():
    # a channel whose correlation matrix passes rank_tol 0.6 (eigenvalue ratio 0.905) while
    # its Kraus matrix does not (singular-value ratio 0.577): level 1's cut refuses
    K = KrausSet([[[1 / np.sqrt(2), 0.5], [0, -0.5]], [[0, 0.5], [1 / np.sqrt(2), -0.5]]])
    assert K.unital_residual < 1e-15
    with pytest.raises(ValueError) as exc:
        detailed_balance_verdict(K, np.diag([0.95, 0.05]), 2, rank_tol=0.6)
    assert str(exc.value) == ("rank_tol=0.6 leaves 1 of the 2 Kraus operators linearly "
                              "independent; the verdict needs an independent set")


def test_false_verdict_answers_past_the_word_budget():
    # 4**7 words at level 7; compat fails below it, so no level past the budget is expanded
    rep = detailed_balance_verdict(random_channel(2, 4, 44), MIXED2, 7)
    assert not rep.verdict
    assert rep.max_level == 7
