"""Deterministic example factories emitting channel spec dictionaries.

EXAMPLES is the one table of the named examples: each name maps to the
builder of its spec dictionary and to its parameters, each with its
default and its ndim (0 for a number, 1 for a list of numbers, 2 for a
list of rows of numbers).  gen_example and the CLI's --name choices read
it.
"""
from __future__ import annotations

import numpy as np

from .channel import KrausSet, first_block_column, is_star_commuting
from .matcore import dag, is_hermitian
from .qgroup import suq2_dilation, suq2_generators
from .serialize import channel_spec_dict, classical_spec_dict

_DEFAULT_A = np.diag([1.0, -1.0]).astype(complex)
_DEFAULT_B = np.array([[0.9, 0.35 - 0.2j], [0.35 + 0.2j, -0.4]], dtype=complex)


def _expi_hermitian(H: np.ndarray) -> np.ndarray:
    """exp(-i H) for Hermitian H via eigendecomposition."""
    w, U = np.linalg.eigh((H + dag(H)) / 2)
    return (U * np.exp(-1j * w)) @ dag(U)


def measurement_channel(A=None, B=None):
    """Kraus set of the interaction W = exp(-i A (x) B), plus W itself.

    A acts on the system, B on the auxiliary space, both Hermitian: a
    non-Hermitian one raises ValueError naming it.  The resulting Kraus
    operators commute pairwise; a diagonal B decouples the evolution and
    produces zero operators, which are rejected.
    """
    A = _DEFAULT_A if A is None else np.asarray(A, dtype=complex)
    B = _DEFAULT_B if B is None else np.asarray(B, dtype=complex)
    for name, X in (("A", A), ("B", B)):
        if not is_hermitian(X):
            raise ValueError(f"measurement parameter {name} must be Hermitian")
    d, n = A.shape[0], B.shape[0]
    W = _expi_hermitian(np.kron(A, B))
    K = KrausSet(first_block_column(W, d, n))
    if not is_star_commuting(K):
        raise ValueError("measurement Kraus operators fail to commute")
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


def _measurement_spec(A, B) -> dict:
    K, W = measurement_channel(A, B)
    return channel_spec_dict(K, rho0=np.eye(K.d) / K.d, dilation=W)


def _gad_spec(p, gamma) -> dict:
    return channel_spec_dict(gad_kraus(p, gamma), rho0=np.diag([p, 1.0 - p]).astype(complex))


def _commuting_db_spec(theta) -> dict:
    return channel_spec_dict(commuting_db_kraus(theta), rho0=np.eye(2, dtype=complex) / 2)


def _suq2_spec(q, N) -> dict:
    a, c, K, F = suq2_generators(q, N)
    return channel_spec_dict(K, F=F, dilation=suq2_dilation(a, c, q))


_CYCLE3 = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]

EXAMPLES = {  # name -> (builder, {parameter: (default, ndim)})
    "measurement": (_measurement_spec, {"A": (None, 2), "B": (None, 2)}),
    "gad": (_gad_spec, {"p": (0.75, 0), "gamma": (0.5, 0)}),
    "commuting_db": (_commuting_db_spec, {"theta": (np.pi / 6, 0)}),
    "suq2": (_suq2_spec, {"q": (0.5, 0), "N": (6, 0)}),
    "classical": (classical_spec_dict, {"M": (_CYCLE3, 2), "pi": (None, 1)}),
}
EXAMPLE_NAMES = tuple(EXAMPLES)


def gen_example(name: str, params: dict | None = None) -> dict:
    """Build the named example of EXAMPLES as a spec dictionary.

    params maps parameter names to values.  An absent one takes its
    default; a value that is not a number or a list of the parameter's
    ndim, an unknown parameter or an unknown name raises ValueError.
    """
    if params is not None and not isinstance(params, dict):
        raise ValueError(f"params must be an object of named parameters (got {params!r})")
    if name not in EXAMPLES:
        raise ValueError(f"unknown example name {name!r}")
    build, defaults = EXAMPLES[name]
    params = dict(params or {})
    kwargs = {key: _param(params, key, default, ndim) for key, (default, ndim) in defaults.items()}
    if params:
        raise ValueError(f"unknown parameters for {name}: {sorted(params)}")
    return build(**kwargs)


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
