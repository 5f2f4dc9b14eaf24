import json
import re

import numpy as np
import pytest

from detbal.cli import main
from detbal.factories import gen_example
from detbal.serialize import (
    channel_spec_dict,
    classical_spec_dict,
    decode_matrix,
    dump_payload,
    encode_matrix,
    load_payload,
    parse_channel_spec,
    parse_classical_spec,
)
from detbal.errors import SpecFileError
from detbal.factories import gad_kraus
from conftest import random_channel


def write_example(tmp_path, name, params=None):
    path = tmp_path / f"{name}.json"
    dump_payload(gen_example(name, params), str(path))
    return str(path)


def test_matrix_encoding_round_trip():
    A = np.array([[1.0 + 2.0j, -0.5], [0.0, 0.25 - 1e-17j]])
    B = decode_matrix(encode_matrix(A))
    assert np.array_equal(A, B)


def test_decode_matrix_rejects_malformed():
    with pytest.raises(SpecFileError):
        decode_matrix([[1.0, 2.0], [3.0, 4.0]])  # bare reals, no pairs
    with pytest.raises(SpecFileError):
        decode_matrix(None)
    with pytest.raises(SpecFileError):
        decode_matrix([[["x", 0]]])


def test_channel_spec_round_trip(tmp_path):
    K = random_channel(2, 3, 60)
    rho = np.eye(2, dtype=complex) / 2
    payload = channel_spec_dict(K, rho0=rho)
    path = tmp_path / "chan.json"
    dump_payload(payload, str(path))
    spec = parse_channel_spec(load_payload(str(path)))
    assert spec.d == 2
    for a, b in zip(spec.kraus.ops, K.ops):
        assert np.array_equal(a, b)  # json float round trip is exact
    assert np.array_equal(spec.rho0, rho)
    assert spec.options["max_level"] == 2


def test_parse_channel_spec_errors():
    K = gad_kraus(0.75, 0.5)
    good = channel_spec_dict(K)
    bad = dict(good)
    bad["format"] = "detbal-channel/9"
    with pytest.raises(SpecFileError):
        parse_channel_spec(bad)
    bad = dict(good)
    bad["d"] = 3
    with pytest.raises(SpecFileError):
        parse_channel_spec(bad)
    bad = dict(good)
    bad["rho0"] = encode_matrix(np.eye(3))
    with pytest.raises(SpecFileError):
        parse_channel_spec(bad)
    bad = dict(good)
    bad["kraus"] = []
    with pytest.raises(SpecFileError):
        parse_channel_spec(bad)
    with pytest.raises(SpecFileError):
        parse_channel_spec([1, 2, 3])


def test_classical_spec_round_trip(tmp_path):
    M = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    path = tmp_path / "chain.json"
    dump_payload(classical_spec_dict(M, np.ones(3) / 3), str(path))
    M2, pi2 = parse_classical_spec(load_payload(str(path)))
    assert np.array_equal(M, M2)
    assert np.array_equal(pi2, np.ones(3) / 3)


def test_analyze_commuting_db(tmp_path, capsys):
    path = write_example(tmp_path, "commuting_db")
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "detailed balance verdict: true" in out


def test_analyze_gad_fails_with_sphere_reason(tmp_path, capsys):
    path = write_example(tmp_path, "gad")
    assert main(["analyze", path, "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] is False
    assert data["reason"] == "q_sphere"
    sphere = [c for c in data["checks"] if c["name"] == "q_sphere" and c["level"] == 1]
    assert abs(sphere[0]["residual"] - 0.5) < 1e-9


def test_analyze_rejects_max_level_below_one(tmp_path, capsys):
    # a level-0 run checks nothing but a vacuous KMS condition
    path = write_example(tmp_path, "gad")
    assert main(["analyze", path, "--max-level", "0"]) == 2
    assert "M=0" in capsys.readouterr().err


def test_analyze_missing_and_corrupt_files(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["analyze", str(bad)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format": "something-else"}))
    assert main(["analyze", str(wrong)]) == 2
    capsys.readouterr()


def test_analyze_rejects_operation(tmp_path, capsys):
    payload = channel_spec_dict([0.5 * np.eye(2, dtype=complex)])
    path = tmp_path / "op.json"
    dump_payload(payload, str(path))
    assert main(["analyze", str(path)]) == 2
    assert "channel" in capsys.readouterr().err


def test_reverse_crooks_mode(tmp_path, capsys):
    path = write_example(tmp_path, "gad")
    out_path = str(tmp_path / "rev.json")
    assert main(["reverse", path, "--mode", "crooks", "--depth", "2",
                 "-o", out_path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classification"] == "channel"
    assert data["crooks_residual"] < 1e-10
    rev = parse_channel_spec(load_payload(out_path))
    assert rev.kraus.n == 4
    assert rev.kraus.unital_residual < 1e-10


def test_reverse_qsphere_mode_warns(tmp_path, capsys):
    path = write_example(tmp_path, "gad")
    assert main(["reverse", path, "--mode", "qsphere"]) == 0
    captured = capsys.readouterr()
    assert "operation, not a channel" in captured.err
    assert (tmp_path / "gad.reversed.json").exists()


def test_reverse_default_output_path(tmp_path, capsys):
    path = write_example(tmp_path, "commuting_db")
    assert main(["reverse", path, "--mode", "qsphere", "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert "crooks check at depth 3" in out
    rev = parse_channel_spec(load_payload(str(tmp_path / "commuting_db.reversed.json")))
    assert rev.kraus.unital_residual < 1e-10


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_reverse_rejects_depth_below_one(tmp_path, capsys, depth):
    path = write_example(tmp_path, "gad")
    out_path = tmp_path / "rev.json"
    assert main(["reverse", path, "--mode", "crooks", "--depth", depth,
                 "-o", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert "--depth" in captured.err
    assert captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("mode, message", [("qsphere", "correlation matrix is singular"),
                                           ("crooks", "crooks_dual requires an invertible state")])
def test_reverse_reads_the_spec_rank_tol(tmp_path, capsys, mode, message):
    # at rank_tol 0.5 two of gad's four Kraus operators and rho0 = diag(0.75, 0.25)
    # are cut, as analyze and stinespring cut them from the same spec
    payload = gen_example("gad")
    payload["options"]["rank_tol"] = 0.5
    path, out_path = tmp_path / "gad.json", tmp_path / "rev.json"
    dump_payload(payload, str(path))
    assert main(["reverse", str(path), "--mode", mode, "-o", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not out_path.exists()


def test_a_spec_carrying_Q_exits_two(tmp_path, capsys):
    # the weight Q is computed from rho0, so a file's Q is refused, not ignored
    payload = gen_example("gad")
    payload["Q"] = {"matrix": encode_matrix(np.diag([5.0, 1, 1, 1])), "normalization": "bogus"}
    path = tmp_path / "gad_q.json"
    dump_payload(payload, str(path))
    assert main(["analyze", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a spec carries no Q: the weight is computed from rho0\n"


def _misspell_rho0(payload):
    payload["rh0"] = payload.pop("rho0")


def _misspell_max_level(payload):
    payload["options"]["max_levle"] = payload["options"].pop("max_level")


@pytest.mark.parametrize("misspell, key", [(_misspell_rho0, "rh0"),
                                           (_misspell_max_level, "options.max_levle")])
def test_a_misspelt_spec_key_exits_two_naming_it(tmp_path, capsys, misspell, key):
    # read as absent, "rh0" would analyze the maximally mixed state and "max_levle" level 2
    payload = gen_example("gad")
    misspell(payload)
    path = tmp_path / "typo.json"
    dump_payload(payload, str(path))
    assert main(["analyze", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: unknown key '{key}' (known keys: ")


def test_a_misspelt_classical_key_exits_two_naming_it(tmp_path, capsys):
    path = tmp_path / "chain.json"
    dump_payload({**classical_spec_dict(np.eye(2)), "p": [0.5, 0.5]}, str(path))
    assert main(["classical", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown key 'p' (known keys: format, transition, pi)\n"


def test_reverse_refuses_depth_over_the_word_budget(tmp_path, capsys):
    path = write_example(tmp_path, "gad")
    out_path = tmp_path / "rev.json"
    assert main(["reverse", path, "--mode", "crooks", "--depth", "7",
                 "-o", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert "4**7" in captured.err and "4096" in captured.err
    assert captured.out == ""
    assert not out_path.exists()


def test_analyze_names_the_word_budget(tmp_path, capsys):
    path = write_example(tmp_path, "commuting_db")
    assert main(["analyze", path, "--max-level", "13"]) == 2
    err = capsys.readouterr().err
    assert "2**13" in err and "4096" in err


def test_analyze_names_both_sizes_when_rank_tol_shrinks_the_alphabet(tmp_path, capsys):
    # at rank_tol 0.5 gad's correlation matrix keeps one of its four eigenvalues, so
    # orthogonalize_kraus refuses before the tower is built, with the message
    # `reverse --mode qsphere` gives on this spec
    path = write_example(tmp_path, "gad")
    assert main(["analyze", path, "--rank-tol", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: correlation matrix is singular at rank_tol=0.5: it keeps 1 "
                            "of its 4 eigenvalues\n")


def test_stinespring_command(tmp_path, capsys):
    path = write_example(tmp_path, "commuting_db")
    assert main(["stinespring", path, "--max-level", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] is True
    assert data["ranks"]["1"] == 2 or data["ranks"][1] == 2
    assert all(v < 1e-9 for v in data["inclusion_residuals"].values())
    # every level reads a number: the identity holds at level 2 although e_1^(x)2 is outside it
    assert data["power_dilation_residuals"]["2"] < 1e-12


def test_stinespring_rejects_max_level_below_one(tmp_path, capsys):
    path = write_example(tmp_path, "commuting_db")
    assert main(["stinespring", path, "--max-level", "0"]) == 2
    captured = capsys.readouterr()
    assert "--max-level" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("options, key, commands", [
    ({"max_level": "two"}, "max_level", ["analyze"]),
    ({"max_level": 2.5}, "max_level", ["analyze"]),
    ({"max_level": True}, "max_level", ["analyze"]),
    ({"rank_tol": "x"}, "rank_tol", ["analyze", "stinespring"]),
    ({"rank_tol": -1}, "rank_tol", ["analyze"]),
    ({"residual_tol": 0}, "residual_tol", ["analyze"]),
    ([1, 2], "options", ["analyze"]),
], ids=["max_level-str", "max_level-float", "max_level-bool", "rank_tol-str",
        "rank_tol-negative", "residual_tol-zero", "options-list"])
def test_bad_spec_options_exit_two(tmp_path, capsys, options, key, commands):
    payload = gen_example("gad")
    payload["options"] = {**payload["options"], **options} if isinstance(options, dict) else options
    path = tmp_path / "bad_options.json"
    dump_payload(payload, str(path))
    for command in commands:
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert key in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("fields, key, command", [
    ({"d": [2]}, "d", "analyze"),
    ({"d": 2.5}, "d", "analyze"),
    ({"d": True}, "d", "analyze"),
    ({"kraus": 5}, "kraus", "analyze"),
    ({"kraus": {"a": 1}}, "kraus", "analyze"),
    ({"format": "detbal-classical/1", "transition": [[1.0]], "pi": {"a": 1}}, "pi", "classical"),
], ids=["d-list", "d-float", "d-bool", "kraus-int", "kraus-object", "pi-object"])
def test_malformed_spec_fields_exit_two_naming_the_field(tmp_path, capsys, fields, key, command):
    # exit 1 is a false verdict, so a malformed file must not end in an uncaught TypeError
    payload = {**gen_example("gad"), **fields}
    path = tmp_path / "bad_field.json"
    dump_payload(payload, str(path))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and re.search(rf"\b{key}\b", line), line


def test_analyze_rejects_negative_rank_tol_flag(tmp_path, capsys):
    path = write_example(tmp_path, "gad")
    assert main(["analyze", path, "--rank-tol", "-1"]) == 2
    assert "rank_tol" in capsys.readouterr().err


def test_qgroup_check_suq2(tmp_path, capsys):
    path = write_example(tmp_path, "suq2")
    assert main(["qgroup-check", path, "--relation", "bu", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["self_conjugacy"]["passed"] is True
    assert by_name["W_unitary_left"]["defect_rank"] == 1
    assert by_name["W_unitary_left"]["off_defect_residual"] < 1e-10
    assert abs(by_name["W_unitary_left"]["residual"] - (1 - 0.5 ** 12)) < 1e-10


def test_qgroup_check_au_with_F_file(tmp_path, capsys):
    path = write_example(tmp_path, "suq2")
    f_path = tmp_path / "F.json"
    f_path.write_text(json.dumps({"matrix": encode_matrix(np.diag([1.0, 0.5]))}))
    assert main(["qgroup-check", path, "--relation", "au", "--F", str(f_path)]) == 1
    out = capsys.readouterr().out
    assert "au relations: false" in out


def test_qgroup_check_json_leaves_out_an_infinite_residual(tmp_path, capsys):
    # F Fbar = diag(-i, i) is traceless, so F_Fc_scalar has no finite residual
    path = write_example(tmp_path, "commuting_db")
    f_path = tmp_path / "F.json"
    f_path.write_text(json.dumps({"matrix": encode_matrix(np.array([[0, 1], [1j, 0]]))}))
    assert main(["qgroup-check", path, "--relation", "bu", "--F", str(f_path), "--json"]) == 1

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    data = json.loads(capsys.readouterr().out, parse_constant=refuse)
    (scalar,) = [c for c in data["checks"] if c["name"] == "F_Fc_scalar"]
    assert scalar["passed"] is False and "residual" not in scalar


def test_qgroup_check_rejects_spec_F_of_wrong_size(tmp_path, capsys):
    # an 8 x 8 F for gad's n = 4 would otherwise be read as d = 1, n = 8
    payload = gen_example("gad")
    payload["F"] = encode_matrix(np.eye(8))
    path = tmp_path / "gad_F8.json"
    dump_payload(payload, str(path))
    assert main(["qgroup-check", str(path), "--relation", "au"]) == 2
    captured = capsys.readouterr()
    assert "F dimension mismatch" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("f_payload", [[1, 2], {"matrix": encode_matrix(np.eye(3))}],
                         ids=["list", "3x3"])
def test_qgroup_check_rejects_bad_F_file(tmp_path, capsys, f_payload):
    path = write_example(tmp_path, "suq2")
    f_path = tmp_path / "F.json"
    f_path.write_text(json.dumps(f_payload))
    assert main(["qgroup-check", path, "--relation", "au", "--F", str(f_path)]) == 2
    captured = capsys.readouterr()
    assert "F" in captured.err
    assert captured.out == ""


def test_qgroup_check_dilation_key_preferred(tmp_path, capsys):
    # hand-built spec whose stored dilation satisfies the bu relations
    th = np.array([0.3, 1.1, 2.0])
    A = np.diag(np.cos(th)).astype(complex)
    B = np.diag(np.sin(th)).astype(complex)
    W = np.zeros((6, 6), dtype=complex)
    R = W.reshape(3, 2, 3, 2)
    R[:, 0, :, 0] = A
    R[:, 0, :, 1] = -B
    R[:, 1, :, 0] = B
    R[:, 1, :, 1] = A
    F = np.array([[0.0, 1.0], [-1.0, 0.0]])
    payload = channel_spec_dict([A, B], F=F, dilation=W)
    path = tmp_path / "su2.json"
    dump_payload(payload, str(path))
    assert main(["qgroup-check", str(path), "--relation", "bu"]) == 0
    assert "bu relations: true" in capsys.readouterr().out


def test_classical_command(tmp_path, capsys):
    path = write_example(tmp_path, "classical")
    out_path = str(tmp_path / "rev_chain.json")
    assert main(["classical", path, "--reverse", "-o", out_path, "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["detailed_balance"] is False
    assert abs(data["residual"] - 1.0 / 3.0) < 1e-12
    # uniform stationary distribution, so the reversal is the transpose
    M, pi = parse_classical_spec(load_payload(path))
    Mhat, _ = parse_classical_spec(load_payload(out_path))
    assert np.max(np.abs(Mhat - M.T)) < 1e-12


def test_classical_reversible_chain_exits_zero(tmp_path, capsys):
    M = [[0.7, 0.7], [0.3, 0.3]]
    path = tmp_path / "two.json"
    dump_payload(classical_spec_dict(np.array(M)), str(path))
    assert main(["classical", str(path)]) == 0
    capsys.readouterr()


def test_classical_non_finite_spec_exits_two(tmp_path, capsys):
    path = tmp_path / "nan.json"
    dump_payload(classical_spec_dict(np.full((2, 2), 0.5), [np.nan, np.nan]), str(path))
    assert main(["classical", str(path), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "stationary vector entries must be finite" in err


def test_gen_example_all_names(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("measurement", "gad", "commuting_db", "suq2", "classical"):
        assert main(["gen-example", "--name", name]) == 0
        assert (tmp_path / f"{name}.json").exists()
    capsys.readouterr()
    spec = parse_channel_spec(load_payload(str(tmp_path / "commuting_db.json")))
    assert np.allclose(spec.kraus[0], np.diag([np.sqrt(3) / 2, 0.5]))
    assert spec.rho0 is not None
    suq2 = parse_channel_spec(load_payload(str(tmp_path / "suq2.json")))
    assert suq2.F is not None and suq2.dilation is not None


def test_gen_example_params_and_errors(tmp_path, capsys):
    out = str(tmp_path / "g.json")
    assert main(["gen-example", "--name", "gad",
                 "--params", '{"p": 0.6, "gamma": 0.25}', "-o", out]) == 0
    spec = parse_channel_spec(load_payload(out))
    assert abs(spec.rho0[0, 0].real - 0.6) < 1e-12
    assert main(["gen-example", "--name", "gad", "--params", "{bad", "-o", out]) == 2
    assert main(["gen-example", "--name", "gad",
                 "--params", '{"decay": 1}', "-o", out]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("params, named", [
    ("[1, 2]", "params"), ("5", "params"), ('{"p": null}', "'p'"), ('{"p": [1]}', "'p'"),
])
def test_gen_example_rejects_non_numeric_params(tmp_path, capsys, params, named):
    out = tmp_path / "g.json"
    assert main(["gen-example", "--name", "gad", "--params", params, "-o", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("N", ["6.5", "Infinity"])
def test_gen_example_suq2_rejects_non_integer_N(tmp_path, capsys, N):
    out = tmp_path / "s.json"
    params = f'{{"N": {N}}}'
    assert main(["gen-example", "--name", "suq2", "--params", params, "-o", str(out)]) == 2
    assert "N must be an integer" in capsys.readouterr().err
    assert not out.exists()
    assert main(["gen-example", "--name", "suq2", "--params", '{"N": 6}', "-o", str(out)]) == 0
    capsys.readouterr()
    assert parse_channel_spec(load_payload(str(out))).d == 6


def test_gen_example_measurement_rejects_decoupled_interaction(tmp_path, capsys):
    # a diagonal auxiliary operator produces a zero Kraus block
    out = str(tmp_path / "m.json")
    code = main(["gen-example", "--name", "measurement",
                 "--params", '{"B": [[1.0, 0.0], [0.0, -1.0]]}', "-o", out])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("name, matrix", [("A", [[1.0, 0.5], [0.0, -1.0]]),
                                          ("B", [[0.3, 1.0], [0.2, 0.0]])])
def test_gen_example_measurement_refuses_a_non_hermitian_parameter(tmp_path, capsys, name, matrix):
    # a non-Hermitian B would be read as its Hermitian part, [[0.3, 0.6], [0.6, 0.0]] here, which builds
    with pytest.raises(ValueError, match=f"{name} must be Hermitian"):
        gen_example("measurement", {name: matrix})
    out = tmp_path / "m.json"
    params = json.dumps({name: matrix})
    assert main(["gen-example", "--name", "measurement", "--params", params, "-o", str(out)]) == 2
    assert f"{name} must be Hermitian" in capsys.readouterr().err
    assert not out.exists()
    gen_example("measurement", {"B": [[0.3, 0.6], [0.6, 0.0]]})


def test_qgroup_check_without_F_uses_the_identity(tmp_path, capsys):
    path = write_example(tmp_path, "commuting_db")
    assert "F" not in load_payload(path)
    for relation in ("au", "bu"):
        assert main(["qgroup-check", path, "--relation", relation]) == 0
        out = capsys.readouterr().out
        assert f"{relation} relations: true" in out
    assert "lambda: [1.0, 0.0]" in out
