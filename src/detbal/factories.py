"""Deterministic example factories emitting channel spec dictionaries."""
from __future__ import annotations

import numpy as np

from .channel import KrausSet, first_block_column
from .matcore import dag
from .qgroup import suq2_dilation, suq2_generators
from .serialize import channel_spec_dict, classical_spec_dict

EXAMPLE_NAMES = ("measurement", "gad", "commuting_db", "suq2", "classical")

_DEFAULT_A = np.diag([1.0, -1.0]).astype(complex)
_DEFAULT_B = np.array([[0.9, 0.35 - 0.2j], [0.35 + 0.2j, -0.4]], dtype=complex)


def _expi_hermitian(H: np.ndarray) -> np.ndarray:
    """exp(-i H) for Hermitian H via eigendecomposition."""
    w, U = np.linalg.eigh((H + dag(H)) / 2)
    return (U * np.exp(-1j * w)) @ dag(U)


def measurement_channel(A=None, B=None):
    """Kraus set of the interaction W = exp(-i A (x) B), plus W itself.

    A acts on the system, B on the auxiliary space, both Hermitian.  The
    resulting Kraus operators commute pairwise; a diagonal B decouples
    the evolution and produces zero operators, which are rejected.
    """
    A = _DEFAULT_A if A is None else np.asarray(A, dtype=complex)
    B = _DEFAULT_B if B is None else np.asarray(B, dtype=complex)
    d, n = A.shape[0], B.shape[0]
    W = _expi_hermitian(np.kron(A, B))
    K = KrausSet(first_block_column(W, d, n))
    X, Y = K.ops[:, np.newaxis], K.ops[np.newaxis]
    worst = np.linalg.norm(X @ Y - Y @ X, 2, axis=(2, 3)).max()
    if worst > 1e-10:
        raise ValueError(f"measurement Kraus operators fail to commute ({worst:.3g})")
    return K, W


def gad_kraus(p: float, gamma: float) -> KrausSet:
    """Generalized amplitude damping with decay gamma and bias p.

    The state diag(p, 1-p) is a fixed point of the evolution.
    """
    sp, sq = np.sqrt(p), np.sqrt(1.0 - p)
    sg, sgbar = np.sqrt(gamma), np.sqrt(1.0 - gamma)
    return KrausSet([
        sp * np.array([[1, 0], [0, sgbar]], dtype=complex),
        sp * np.array([[0, sg], [0, 0]], dtype=complex),
        sq * np.array([[sgbar, 0], [0, 1]], dtype=complex),
        sq * np.array([[0, 0], [sg, 0]], dtype=complex),
    ])


def commuting_db_kraus(theta: float) -> KrausSet:
    """The two-operator diagonal family K1 = diag(cos t, sin t),
    K2 = diag(sin t, -cos t); detailed balanced for the maximally mixed
    state."""
    return KrausSet([
        np.diag([np.cos(theta), np.sin(theta)]).astype(complex),
        np.diag([np.sin(theta), -np.cos(theta)]).astype(complex),
    ])


_CYCLE3 = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


def gen_example(name: str, params: dict | None = None) -> dict:
    """Build the named example as a spec dictionary.

    Recognized names: measurement (A, B), gad (p, gamma),
    commuting_db (theta), suq2 (q, N), classical (M, pi); A, B and M
    are lists of rows of numbers, pi a list, the rest numbers.
    """
    if params is not None and not isinstance(params, dict):
        raise ValueError(f"params must be an object of named parameters (got {params!r})")
    params = dict(params or {})
    if name == "measurement":
        A = _param(params, "A", None, 2)
        B = _param(params, "B", None, 2)
        _check_no_extras(name, params)
        K, W = measurement_channel(A, B)
        rho0 = np.eye(K.d) / K.d
        return channel_spec_dict(K, rho0=rho0, dilation=W)
    if name == "gad":
        p = _param(params, "p", 0.75)
        gamma = _param(params, "gamma", 0.5)
        _check_no_extras(name, params)
        K = gad_kraus(p, gamma)
        rho0 = np.diag([p, 1.0 - p]).astype(complex)
        return channel_spec_dict(K, rho0=rho0)
    if name == "commuting_db":
        theta = _param(params, "theta", np.pi / 6)
        _check_no_extras(name, params)
        K = commuting_db_kraus(theta)
        return channel_spec_dict(K, rho0=np.eye(2, dtype=complex) / 2)
    if name == "suq2":
        q = _param(params, "q", 0.5)
        N = _param(params, "N", 6)
        _check_no_extras(name, params)
        a, c, K, F = suq2_generators(q, N)
        W = suq2_dilation(a, c, q)
        return channel_spec_dict(K, F=F, dilation=W)
    if name == "classical":
        M = _param(params, "M", _CYCLE3, 2)
        pi = _param(params, "pi", None, 1)
        _check_no_extras(name, params)
        return classical_spec_dict(M, pi)
    raise ValueError(f"unknown example name {name!r}")


def _param(params: dict, key: str, default, ndim: int = 0):
    """Pop params[key], a number or an ndim-deep list of numbers; default when absent."""
    if key not in params:
        return default
    value = params.pop(key)
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        a = None
    if a is None or a.dtype.kind not in "iuf" or a.ndim != ndim:
        what = ("a number", "a list of numbers", "a list of rows of numbers")[ndim]
        raise ValueError(f"parameter {key!r} must be {what} (got {value!r})")
    return float(a) if ndim == 0 else a


def _check_no_extras(name: str, params: dict) -> None:
    if params:
        raise ValueError(f"unknown parameters for {name}: {sorted(params)}")
