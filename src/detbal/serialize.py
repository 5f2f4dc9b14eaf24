"""Channel spec files: a small JSON format with complex entries as [re, im].

Two formats are recognized: ``detbal-channel/1`` (Kraus operators plus
optional state, weight matrix, intertwiner, dilation and analysis
options) and ``detbal-classical/1`` (a column-stochastic transition
matrix with optional stationary vector).  decode_matrix reads one
[re, im] matrix, and decode_square is the one reader of a matrix of a
known size (a spec's rho0, F and dilation, and the CLI's --F file).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .channel import KrausSet
from .errors import SpecFileError
from .matcore import RANK_TOL, RESIDUAL_TOL

CHANNEL_FORMAT = "detbal-channel/1"
CLASSICAL_FORMAT = "detbal-classical/1"

DEFAULT_OPTIONS = {
    "max_level": 2,
    "residual_tol": RESIDUAL_TOL,
    "rank_tol": RANK_TOL,
}
CHANNEL_KEYS = ("format", "d", "kraus", "rho0", "F", "dilation", "options")
CLASSICAL_KEYS = ("format", "transition", "pi")


def encode_matrix(A: np.ndarray) -> list:
    A = np.asarray(A, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in A]


def decode_matrix(obj) -> np.ndarray:
    try:
        A = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecFileError(f"malformed matrix payload: {exc}") from None
    if A.ndim != 3 or A.shape[2] != 2:
        raise SpecFileError("matrix entries must be [re, im] pairs")
    return A[..., 0] + 1j * A[..., 1]


def decode_square(obj, size: int, key: str) -> np.ndarray:
    """obj decoded as a size x size matrix: the one reader of a sized spec
    matrix (rho0, F, dilation and the CLI's --F); any other shape raises
    "{key} dimension mismatch"."""
    A = decode_matrix(obj)
    if A.shape != (size, size):
        raise SpecFileError(f"{key} dimension mismatch")
    return A


def encode_real_matrix(A: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.asarray(A, dtype=float)]


@dataclass
class ChannelSpec:
    kraus: KrausSet
    rho0: np.ndarray | None = None
    F: np.ndarray | None = None
    dilation: np.ndarray | None = None
    options: dict = field(default_factory=lambda: dict(DEFAULT_OPTIONS))

    @property
    def d(self):
        return self.kraus.d


def channel_spec_dict(kraus, rho0=None, F=None, dilation=None, options=None) -> dict:
    """Assemble a JSON-ready channel spec dictionary."""
    out = {
        "format": CHANNEL_FORMAT,
        "d": int(kraus[0].shape[0]),
        "kraus": [encode_matrix(K) for K in kraus],
    }
    for key, A in (("rho0", rho0), ("F", F), ("dilation", dilation)):
        if A is not None:
            out[key] = encode_matrix(A)
    merged = dict(DEFAULT_OPTIONS)
    if options:
        merged.update(options)
    out["options"] = merged
    return out


def parse_channel_spec(payload: dict) -> ChannelSpec:
    if not isinstance(payload, dict):
        raise SpecFileError("spec payload must be an object")
    fmt = payload.get("format")
    if fmt != CHANNEL_FORMAT:
        raise SpecFileError(f"unrecognized format {fmt!r}")
    if not payload.get("kraus"):
        raise SpecFileError("spec carries no Kraus operators")
    if not isinstance(payload["kraus"], list):
        raise SpecFileError(f"kraus must be a list of operators (got {payload['kraus']!r})")
    try:
        kraus = KrausSet([decode_matrix(K) for K in payload["kraus"]])
    except ValueError as exc:
        raise SpecFileError(str(exc)) from None
    d = payload.get("d")
    if d is not None and (isinstance(d, bool) or not isinstance(d, int)):
        raise SpecFileError(f"d must be an integer (got {d!r})")
    if d is not None and d != kraus.d:
        raise SpecFileError(f"declared dimension {d} does not match operators")
    if "Q" in payload:
        raise SpecFileError("a spec carries no Q: the weight is computed from rho0")
    sizes = {"rho0": kraus.d, "F": kraus.n, "dilation": kraus.d * kraus.n}
    spec = ChannelSpec(kraus=kraus, **{key: decode_square(payload[key], size, key)
                                       for key, size in sizes.items() if key in payload})
    options = payload.get("options", {})
    if not isinstance(options, dict):
        raise SpecFileError("options must be an object")
    spec.options = {**DEFAULT_OPTIONS, **options}
    for key in ("max_level", "residual_tol", "rank_tol"):
        v, kind = spec.options[key], int if key == "max_level" else (int, float)
        if isinstance(v, bool) or not isinstance(v, kind) or not 0 < v < np.inf:
            what = "an integer >= 1" if kind is int else "a finite number > 0"
            raise SpecFileError(f"options.{key} must be {what} (got {v!r})")
    _refuse_unknown(payload, CHANNEL_KEYS)
    _refuse_unknown(options, tuple(DEFAULT_OPTIONS), "options.")
    return spec


def _refuse_unknown(obj: dict, known: tuple, prefix: str = "") -> None:
    """Refuse a key of obj outside known, naming it: a misspelt key is an error, not a default."""
    for key in obj:
        if key not in known:
            raise SpecFileError(f"unknown key '{prefix}{key}' (known keys: {', '.join(known)})")


def classical_spec_dict(M, pi=None) -> dict:
    out = {"format": CLASSICAL_FORMAT, "transition": encode_real_matrix(M)}
    if pi is not None:
        out["pi"] = [float(x) for x in np.asarray(pi, dtype=float)]
    return out


def parse_classical_spec(payload: dict):
    """Returns (M, pi-or-None) from a classical spec payload."""
    if not isinstance(payload, dict) or payload.get("format") != CLASSICAL_FORMAT:
        raise SpecFileError("not a classical chain spec")
    if "transition" not in payload:
        raise SpecFileError("classical spec carries no transition matrix")
    M = _real_array(payload, "transition", "transition matrix")
    pi = _real_array(payload, "pi", "stationary vector pi") if "pi" in payload else None
    _refuse_unknown(payload, CLASSICAL_KEYS)
    return M, pi


def _real_array(payload: dict, key: str, what: str) -> np.ndarray:
    """payload[key] as a float array; an entry that is not a number raises SpecFileError."""
    try:
        return np.asarray(payload[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecFileError(f"malformed {what}: {exc}") from None


def load_payload(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON in {path}: {exc}") from None


def dump_payload(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
