"""The refusals of the public entry points, each pinned to its message."""
import numpy as np
import pytest

from detbal.channel import KrausSet, apply, channel_distance, kraus_from_dilation
from detbal.equilibrium import check_state
from detbal.errors import SpecFileError
from detbal.factories import commuting_db_kraus, gen_example
from detbal.matcore import orthonormal_completion, partial_trace
from detbal.reversal import ClassicalChain
from detbal.serialize import encode_matrix, parse_channel_spec, parse_classical_spec
from detbal.stinespring import build_subproduct

K2 = commuting_db_kraus(0.4)  # d = 2, n = 2
SWAP = np.eye(4)[[0, 2, 1, 3]]
STOCHASTIC = [[0.5, 0.5], [0.5, 0.5]]


@pytest.mark.parametrize("call, error, message", [
    (lambda: apply(K2, np.eye(3)), ValueError, "operand dimension mismatch"),
    (lambda: kraus_from_dilation(SWAP, 2, 3), ValueError, "dilation shape mismatch"),
    (lambda: kraus_from_dilation(SWAP, 2, 2, "general_state", np.ones((2, 2)) / 2), ValueError,
     "sigma must be supplied in diagonalized form"),
    (lambda: kraus_from_dilation(SWAP, 2, 2, "last_column"), ValueError,
     "mode must be 'first_column' or 'general_state'"),
    (lambda: channel_distance(K2, KrausSet([np.eye(3)])), ValueError,
     "channels act on different system dimensions"),
    (lambda: check_state(np.ones((2, 3))), ValueError, "state must be a square matrix"),
    (lambda: gen_example("nope"), ValueError, "unknown example name 'nope'"),
    (lambda: gen_example("classical", {"M": [[1, 0], [0]]}), ValueError,
     "parameter 'M' must be a list of rows of numbers (got [[1, 0], [0]])"),
    (lambda: partial_trace(np.eye(3), 2, 2, "A"), ValueError, "expected shape (4, 4), got (3, 3)"),
    (lambda: partial_trace(np.eye(4), 2, 2, "C"), ValueError, "which must be 'A' or 'B'"),
    (lambda: orthonormal_completion(np.zeros((5, 2))), ValueError,
     "isometry rows must be a multiple of its columns"),
    (lambda: ClassicalChain(STOCHASTIC, [1, 0]), ValueError,
     "stationary vector must be entrywise positive"),
    (lambda: ClassicalChain(STOCHASTIC, [0.5, 0.6]), ValueError,
     "stationary vector must sum to one"),
    (lambda: parse_channel_spec({"format": "detbal-channel/1",
                                 "kraus": [encode_matrix(np.eye(2)), encode_matrix(np.eye(3))]}),
     SpecFileError, "Kraus operators must share a square shape"),
    (lambda: parse_classical_spec({"format": "x"}), SpecFileError, "not a classical chain spec"),
    (lambda: parse_classical_spec({"format": "detbal-classical/1"}), SpecFileError,
     "classical spec carries no transition matrix"),
    (lambda: build_subproduct(K2, 1).weighted(np.eye(3), 1), ValueError,
     "Q is 3 x 3 but the subproduct system's alphabet has size 2"),
])
def test_refusal_names_its_cause(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
