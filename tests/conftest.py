"""Shared helpers: seeded random inputs, a word-stack refusal, word-row and Gram counters
and the acceptance summary hook."""
import sys

import numpy as np
import pytest

from detbal import KrausSet, channel, stinespring


def random_channel(d: int, n: int, seed: int) -> KrausSet:
    """Haar-style random channel: QR of a complex Gaussian (d*n, d) block."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d * n, d)) + 1j * rng.normal(size=(d * n, d))
    V, _ = np.linalg.qr(X)
    return KrausSet([V[k * d:(k + 1) * d, :] for k in range(n)])


def random_hermitian(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (X + X.conj().T) / 2


def random_unitary(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    U, _ = np.linalg.qr(X)
    return U


@pytest.fixture
def refuse_word_stacks(monkeypatch):
    """A call that makes every detbal binding of channel.word_stack raise, until the test ends."""
    def refuse(*args, **kwargs):
        raise AssertionError("a word stack was built")

    def patch():
        for name, mod in list(sys.modules.items()):
            if (name == "detbal" or name.startswith("detbal.")) and hasattr(mod, "word_stack"):
                monkeypatch.setattr(mod, "word_stack", refuse)

    return patch


@pytest.fixture
def expanded_rows(monkeypatch):
    """The row count of every word-space expansion (a level's V_m) formed until the test ends."""
    rows = []
    expand = stinespring._expand

    def counted(*args):
        out = expand(*args)
        rows.append(len(out))
        return out

    monkeypatch.setattr(stinespring, "_expand", counted)
    return rows


@pytest.fixture
def formed_grams(monkeypatch):
    """The number of Gram matrices each channel.gram call formed, through any detbal
    binding of it, until the test ends: the depth of its batch of operator-stack pairs,
    1 for a single pair."""
    depths = []
    gram = channel.gram

    def counted(X, Y):
        depths.append(int(np.prod(X.shape[:-3])))
        return gram(X, Y)

    for name, mod in list(sys.modules.items()):
        if (name == "detbal" or name.startswith("detbal.")) and getattr(mod, "gram", None) is gram:
            monkeypatch.setattr(mod, "gram", counted)
    return depths


# one (criterion -> (passed, detail)) entry per acceptance criterion;
# test_acceptance records before asserting so failures still report
ACCEPTANCE_RESULTS = {}


def record_acceptance(criterion: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[criterion] = (bool(passed), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for crit in sorted(ACCEPTANCE_RESULTS, key=lambda c: int(c.lstrip("C"))):
        passed, detail = ACCEPTANCE_RESULTS[crit]
        status = "PASS" if passed else "FAIL"
        line = f"ACCEPTANCE {crit}: {status}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
