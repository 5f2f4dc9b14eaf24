"""In-memory spans around the library's public calls, and self times.

A span records its name, start, end, parent span and job id.  Spans are
kept in a list and written out once, when the run ends.  A span's self
time is its duration minus the time its child spans cover.  A call's
span is named after the module and qualified name of the function, as
``reversal.crooks_check`` or ``equilibrium.CorrelationData.attach_levels``.
"""
from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from detbal import cli, reversal
from detbal.equilibrium import CorrelationData


def span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"


class Tracer:
    """Collects spans and the counts computed at the same call sites."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, job id]
        self.counts = defaultdict(float)
        self.job = None
        self._stack = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, perf_counter(), None, parent, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def call(self, fn, *args, **kwargs):
        """Call fn inside its span and add the counts it implies."""
        name = span_name(fn)
        with self.span(name):
            out = fn(*args, **kwargs)
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, val in counter(args, out).items():
                self.counts[key] += val
        return out

    def self_times(self) -> dict:
        """Summed self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)


class NullTracer:
    """Stands in for Tracer in untraced runs: it only makes the call."""

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NULL = NullTracer()


# ---------------------------------------------------------------------------
# tracing the library's composite entry points in place

# The public functions that detailed_balance_verdict, time_reversal_invariance
# and the CLI subcommands call, by the name each looks up in its module's
# globals.  kms_condition_residual's own re-run of check_phi_symmetric goes
# through detbal.equilibrium and so stays inside the kms span.
HOOKED = {
    reversal: ("check_state", "orthogonalize_kraus", "zero_mean_check", "build_subproduct",
               "check_phi_symmetric", "q_sphere_residual", "kms_condition_residual",
               "dilation_from_kraus", "reversed_unitary", "kraus_from_dilation",
               "channel_distance"),
    cli: ("load_payload", "parse_channel_spec", "parse_classical_spec", "channel_spec_dict",
          "classical_spec_dict", "dump_payload", "classify", "minimal_kraus",
          "dilation_from_kraus", "orthogonalize_kraus", "build_subproduct",
          "check_subproduct_inclusion", "verify_power_dilation", "reversed_kraus",
          "crooks_dual", "crooks_check", "ClassicalChain", "classical_reverse",
          "au_relations_check", "bu_relations_check", "detailed_balance_verdict"),
}
HOOKED_METHODS = (CorrelationData, ("attach_levels", "with_normalization"))


@contextmanager
def traced(t: Tracer):
    """Route the calls listed in HOOKED and HOOKED_METHODS through spans on t.

    Rebinding the names where the entry points look them up traces the
    real entry points without editing them.  Every binding is restored
    on exit.
    """
    saved = [(mod, name, getattr(mod, name)) for mod, names in HOOKED.items() for name in names]
    cls, methods = HOOKED_METHODS
    saved += [(cls, name, cls.__dict__[name]) for name in methods]

    def wrap(fn):
        return lambda *args, **kwargs: t.call(fn, *args, **kwargs)

    try:
        for owner, name, fn in saved:
            setattr(owner, name, wrap(fn))
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


# ---------------------------------------------------------------------------
# counts computed from the arguments and results of a traced call


def _verdict_counts(args, rep):
    """Word pairs and KMS terms the verdict's checks walked, from its report.

    Every completed phi_symmetric or q_sphere check at level m walks
    (n^m)^2 word pairs.  kms_condition_residual walks the levels in
    order: it stops where Q^(x)m fails to preserve the level, re-runs
    the normal-ordered check ((n^m)^2 pairs), stops if that fails, and
    otherwise walks (n^m)^2 pairs with n^m terms each.
    """
    n, tol = len(rep.info["lambdas"]), rep.residual_tol
    compat, normal = {}, {}
    pairs = terms = 0
    for c in rep.checks:
        if c.name == "q_compatibility":
            compat[c.level] = c.residual
        elif c.name != "kms_condition" and c.residual is not None:
            pairs += (n ** c.level) ** 2
            if c.name == "phi_symmetric_normal":
                normal[c.level] = c.residual
    for m in range(1, rep.max_level + 1):
        N = n ** m
        if compat[m] > tol:
            break
        pairs += N * N
        if normal[m] > tol:
            break
        pairs += N * N
        terms += N ** 3
    return {"equilibrium.word_pairs": pairs, "equilibrium.kms_terms": terms,
            "equilibrium.hypothesis_failures": len(rep.info["hypothesis_failures"])}


def _subproduct_counts(args, S):
    dims = [S.n ** m for m in range(1, S.M + 1)]
    ranks = [S.level(m).rank for m in range(1, S.M + 1)]
    return {
        "stinespring.level_dim_sum": sum(dims),
        "stinespring.level_rank_sum": sum(ranks),
        "stinespring.projector_bytes": sum(16 * N * N for N in dims),
    }


def _crooks_counts(args, _):
    n, m = args[0].n, args[3]
    return {"reversal.crooks_words": sum(n ** k for k in range(1, m + 1))}


def _file_bytes(args, _):
    # load_payload(path) and dump_payload(payload, path) both end in the path
    return {"serialize.bytes": os.path.getsize(args[-1])}


COUNTERS = {
    "reversal.detailed_balance_verdict": _verdict_counts,
    "stinespring.build_subproduct": _subproduct_counts,
    "reversal.crooks_check": _crooks_counts,
    "serialize.load_payload": _file_bytes,
    "serialize.dump_payload": _file_bytes,
}
