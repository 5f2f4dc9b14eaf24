"""Command-line entry points.

Exit codes: 0 when the requested verdict holds (or the command has no
verdict), 1 when the analysis ran but the verdict is false, 2 on input
errors.  Inputs are read through serialize and factories alone: a spec
file by parse_channel_spec, a --F file by decode_square, and example
names and parameters by the factories.EXAMPLES table.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .channel import classify, dilation_from_kraus, minimal_kraus
from .equilibrium import orthogonalize_kraus
from .errors import SpecFileError
from .factories import EXAMPLE_NAMES, gen_example
from .qgroup import au_relations_check, bu_relations_check
from .reversal import (
    ClassicalChain,
    classical_reverse,
    crooks_check,
    crooks_dual,
    detailed_balance_verdict,
    reversed_kraus,
)
from .serialize import (
    channel_spec_dict,
    classical_spec_dict,
    decode_square,
    dump_payload,
    load_payload,
    parse_channel_spec,
    parse_classical_spec,
)
from .stinespring import build_subproduct, check_subproduct_inclusion, verify_power_dilation


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _emit(report_dict: dict, human: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report_dict, indent=1))
    else:
        print(human)


def _load_channel(path: str):
    return parse_channel_spec(load_payload(path))


def _default_rho0(spec):
    if spec.rho0 is not None:
        return spec.rho0
    return np.eye(spec.d, dtype=complex) / spec.d


def cmd_analyze(args) -> int:
    spec = _load_channel(args.spec)
    opts = spec.options
    M = args.max_level if args.max_level is not None else int(opts["max_level"])
    tol = args.residual_tol if args.residual_tol is not None else float(opts["residual_tol"])
    rank_tol = args.rank_tol if args.rank_tol is not None else float(opts["rank_tol"])
    report = detailed_balance_verdict(spec.kraus, _default_rho0(spec), M, tol, rank_tol)
    _emit(report.to_dict(), report.render(), args.json)
    return 0 if report.verdict else 1


def cmd_reverse(args) -> int:
    spec = _load_channel(args.spec)
    if args.depth < 1:
        return _fail(f"--depth must be at least 1 (got {args.depth})")
    tol = float(spec.options["residual_tol"])
    rank_tol = float(spec.options["rank_tol"])
    rho0 = _default_rho0(spec)
    if args.mode == "qsphere":
        Kfwd, Qraw, _ = orthogonalize_kraus(spec.kraus, rho0, rank_tol=rank_tol)
        Kbar = reversed_kraus(Kfwd, Qraw.with_normalization("first_entry"))
    else:
        Kfwd = spec.kraus
        Kbar = crooks_dual(spec.kraus, rho0, rank_tol)
    kind = classify(Kbar, tol).classification
    if kind == "operation":
        print("warning: reversed set is an operation, not a channel", file=sys.stderr)
    residual = crooks_check(Kfwd, Kbar, rho0, args.depth)
    out_payload = channel_spec_dict(Kbar, rho0=rho0, options=spec.options)
    out_path = args.output or _derive_path(args.spec, ".reversed.json")
    dump_payload(out_payload, out_path)
    report = {
        "mode": args.mode,
        "depth": args.depth,
        "crooks_residual": residual,
        "classification": kind,
        "unital_residual": Kbar.unital_residual,
        "output": out_path,
    }
    human = "\n".join([
        f"reversed channel written to {out_path}",
        f"classification: {kind} (unital residual {Kbar.unital_residual:.3e})",
        f"crooks check at depth {args.depth}: {residual:.3e}",
    ])
    _emit(report, human, args.json)
    return 0


def cmd_stinespring(args) -> int:
    spec = _load_channel(args.spec)
    tol = float(spec.options["residual_tol"])
    rank_tol = float(spec.options["rank_tol"])
    if args.max_level < 1:
        return _fail(f"--max-level must be at least 1 (got {args.max_level})")
    K = minimal_kraus(spec.kraus, rank_tol)
    S = build_subproduct(K, args.max_level, rank_tol)
    ranks = {m: S.level(m).rank for m in range(S.M + 1)}
    inclusions = {}
    for m in range(1, S.M):
        for l in range(1, S.M - m + 1):
            inclusions[f"{m}+{l}"] = check_subproduct_inclusion(S, m, l)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(K.d, K.d)) + 1j * rng.normal(size=(K.d, K.d))
    A = X + X.conj().T
    dilations = {str(m): verify_power_dilation(K, S, m, A) for m in range(1, S.M + 1)}
    ok = all(v < tol for v in inclusions.values())
    report = {
        "ranks": ranks,
        "inclusion_residuals": inclusions,
        "power_dilation_residuals": dilations,
        "verdict": ok,
    }
    lines = [f"level ranks: {ranks}"]
    lines += [f"inclusion {k}: {v:.3e}" for k, v in inclusions.items()]
    lines += [f"power dilation m={k}: {v:.3e}" for k, v in dilations.items()]
    _emit(report, "\n".join(lines), args.json)
    return 0 if ok else 1


def cmd_qgroup_check(args) -> int:
    spec = _load_channel(args.spec)
    if args.F is not None:
        fobj = load_payload(args.F)
        if not isinstance(fobj, dict):
            raise SpecFileError("--F payload must be an object carrying a matrix")
        F = decode_square(fobj.get("matrix"), spec.kraus.n, "F")
    elif spec.F is not None:
        F = spec.F
    else:
        F = np.eye(spec.kraus.n, dtype=complex)
    W = spec.dilation if spec.dilation is not None else dilation_from_kraus(spec.kraus)[1]
    tol = float(spec.options["residual_tol"])
    if args.relation == "au":
        report = au_relations_check(W, F, tol)
    else:
        report = bu_relations_check(W, F, tol)
    _emit(report.to_dict(), report.render(), args.json)
    return 0 if report.verdict else 1


def cmd_classical(args) -> int:
    M, pi = parse_classical_spec(load_payload(args.spec))
    chain = ClassicalChain(M, pi)
    Mhat, db, residual = classical_reverse(chain)
    report = {
        "detailed_balance": db,
        "residual": residual,
        "n": chain.n,
        "pi": [float(x) for x in chain.pi],
    }
    lines = [
        f"classical detailed balance: {'true' if db else 'false'}",
        f"flux asymmetry residual: {residual:.6e}",
    ]
    if args.reverse:
        out_path = args.output or _derive_path(args.spec, ".reversed.json")
        dump_payload(classical_spec_dict(Mhat, chain.pi), out_path)
        report["output"] = out_path
        lines.append(f"reversed chain written to {out_path}")
    _emit(report, "\n".join(lines), args.json)
    return 0 if db else 1


def cmd_gen_example(args) -> int:
    payload = gen_example(args.name, json.loads(args.params) if args.params else {})
    out_path = args.output or f"{args.name}.json"
    dump_payload(payload, out_path)
    print(f"wrote {out_path}")
    return 0


def _derive_path(path: str, suffix: str) -> str:
    base, _ = os.path.splitext(path)
    return base + suffix


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="detbal",
        description="Detailed-balance analysis for finite-dimensional quantum channels.",
    )
    ap.add_argument("--version", action="version", version=f"detbal {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the detailed-balance pipeline on a channel spec")
    p.add_argument("spec")
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("--residual-tol", type=float, default=None)
    p.add_argument("--rank-tol", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reverse", help="emit the time-reversed channel")
    p.add_argument("spec")
    p.add_argument("--mode", choices=("qsphere", "crooks"), required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reverse)

    p = sub.add_parser("stinespring", help="build and check the subproduct system")
    p.add_argument("spec")
    p.add_argument("--max-level", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stinespring)

    p = sub.add_parser("qgroup-check", help="check quantum-group defining relations")
    p.add_argument("spec")
    p.add_argument("--relation", choices=("au", "bu"), required=True)
    p.add_argument("--F", default=None, help="JSON file with a {\"matrix\": [re,im]} payload")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_qgroup_check)

    p = sub.add_parser("classical", help="analyze a classical chain")
    p.add_argument("spec")
    p.add_argument("--reverse", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("gen-example", help="write a named example spec file")
    p.add_argument("--name", choices=EXAMPLE_NAMES, required=True)
    p.add_argument("--params", default=None, help="JSON object of parameters")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen_example)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # SpecFileError, LinAlgError and JSONDecodeError too
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
