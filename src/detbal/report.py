"""Structured check records and report containers.

Reports are plain data: every check carries its residual(s), the
tolerance it was judged against and an optional defect rank or
hypothesis-failure note, so a false verdict is always traceable to a
reason.  Every decision is derived from that data in one place: a
record passes when no hypothesis failed and its residual is below its
tolerance (CheckRecord.passed), and a report's verdict is that every
record passes (the verdict of _Report, the base of both report types,
which also renders their info and check lines).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class CheckRecord:
    name: str
    residual: float | None
    tolerance: float
    frobenius: float | None = None
    level: int | None = None
    defect_rank: int | None = None
    off_defect_residual: float | None = None
    hypothesis_failure: str | None = None

    @property
    def passed(self) -> bool:
        """The pass rule of every check: no hypothesis failed, and the residual is below tol."""
        return self.hypothesis_failure is None and bool(self.residual < self.tolerance)

    def to_dict(self) -> dict:
        """The record as JSON data: a field that is None or a non-finite float is left out."""
        out = {"name": self.name, "tolerance": self.tolerance, "passed": self.passed}
        for key in ("residual", "frobenius", "level", "defect_rank",
                    "off_defect_residual", "hypothesis_failure"):
            val = getattr(self, key)
            if val is not None and (not isinstance(val, float) or math.isfinite(val)):
                out[key] = val
        return out

    def render(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        where = f" m={self.level}" if self.level is not None else ""
        if self.hypothesis_failure is not None:
            return f"  [{tag}] {self.name}{where}: hypothesis failure: {self.hypothesis_failure}"
        extra = ""
        if self.defect_rank is not None:
            extra = f" defect_rank={self.defect_rank}"
            if self.off_defect_residual is not None:
                extra += f" off_defect={self.off_defect_residual:.3e}"
        return (f"  [{tag}] {self.name}{where}: residual={self.residual:.3e}"
                f" (tol {self.tolerance:.1e}){extra}")


@dataclass(kw_only=True)
class _Report:
    """What every report owns: its records, its info, the verdict that
    every record passes, and the info and check lines of its rendering
    and its dict.  A report type adds its own fields, its header lines
    (_header_lines) and the leading keys of its dict (_leading_keys)."""

    checks: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        checks = [c.to_dict() for c in self.checks]
        return {**self._leading_keys(), "checks": checks, "info": self.info}

    def render(self) -> str:
        info = (f"  {key}: {val}" for key, val in self.info.items())
        return "\n".join([*self._header_lines(), *info, *(c.render() for c in self.checks)])


@dataclass
class AnalysisReport(_Report):
    reason: str | None
    residual_tol: float
    rank_tol: float
    max_level: int

    def _leading_keys(self) -> dict:
        return {"verdict": self.verdict, "reason": self.reason, "residual_tol": self.residual_tol,
                "rank_tol": self.rank_tol, "max_level": self.max_level}

    def _header_lines(self) -> list:
        return [f"detailed balance verdict: {'true' if self.verdict else 'false'}"
                + (f" (reason: {self.reason})" if self.reason else ""),
                f"tolerances: residual {self.residual_tol:.1e}, rank {self.rank_tol:.1e},"
                f" max level {self.max_level}"]


@dataclass
class RelationsReport(_Report):
    relation: str
    tolerance: float

    def check(self, name: str) -> CheckRecord:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def _leading_keys(self) -> dict:
        return {"relation": self.relation, "verdict": self.verdict, "tolerance": self.tolerance}

    def _header_lines(self) -> list:
        return [f"{self.relation} relations: {'true' if self.verdict else 'false'}"
                f" (tol {self.tolerance:.1e})"]
