"""Machine-readable verification reports.

A report is a flat list of named checks, each either an equality check
(|lhs - rhs| <= tolerance) or a bound check (lhs <= rhs + tolerance).  The
JSON rendering is deterministic: fixed key order, floats printed with 17
significant digits, no timestamps or wall times, so identical (seed, flags)
produce identical report bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CheckResult:
    name: str
    kind: str  # "eq" or "bound"
    lhs: float
    rhs: float
    tolerance: float

    def __post_init__(self):
        if self.kind not in ("eq", "bound"):
            raise ValueError(f"unknown check kind {self.kind!r}")

    @property
    def passed(self) -> bool:
        if self.kind == "eq":
            return abs(self.lhs - self.rhs) <= self.tolerance
        return self.lhs <= self.rhs + self.tolerance


def equality(name: str, lhs: float, rhs: float, tolerance: float) -> CheckResult:
    return CheckResult(name, "eq", float(lhs), float(rhs), float(tolerance))


def bound(name: str, lhs: float, rhs: float, tolerance: float) -> CheckResult:
    return CheckResult(name, "bound", float(lhs), float(rhs), float(tolerance))


def count_zero(name: str, count: int) -> CheckResult:
    """A violation counter that must be exactly zero."""
    return CheckResult(name, "eq", float(count), 0.0, 0.0)


@dataclass
class Running:
    """A check filled in while the trials run: a maximum from 0, or a count.
    `observed` tells whether the value was measured: a maximum once it has
    seen a value, a counter from the start, since a run without a violation
    never calls it."""

    name: str
    kind: str
    tolerance: float
    observed: bool = False
    value: float = 0.0

    def observe(self, value: float) -> None:
        """Keep the larger of the two values, as ``max`` does; a NaN raises
        FloatingPointError naming the check, since no comparison would keep it."""
        self.observed = True
        if not value <= self.value:
            if math.isnan(value):
                raise FloatingPointError(f"check {self.name} observed NaN")
            self.value = value

    def count(self, violated) -> None:
        if violated:
            self.value += 1


class Tracker:
    """A suite's running checks, declared once in report order; `tolerances`
    maps the keys that :meth:`eq` and :meth:`bound` name to values."""

    def __init__(self, tolerances: dict):
        self.tolerances = tolerances
        self.running: list[Running] = []

    def _declare(self, name: str, kind: str, tolerance: float, observed: bool = False) -> Running:
        self.running.append(Running(name, kind, tolerance, observed))
        return self.running[-1]

    def eq(self, name: str, key: str) -> Running:
        """A maximum deviation that must stay within tolerance `key` of 0."""
        return self._declare(name, "eq", self.tolerances[key])

    def bound(self, name: str, key: str) -> Running:
        """A maximum excess that must stay below tolerance `key`."""
        return self._declare(name, "bound", self.tolerances[key])

    def count(self, name: str) -> Running:
        """A violation counter that must stay 0."""
        return self._declare(name, "eq", 0.0, observed=True)

    def emit(self, report: "SuiteReport") -> None:
        """Add the checks in declaration order, and a note for each maximum
        that never observed a value: its 0 was not measured."""
        for r in self.running:
            report.add(CheckResult(r.name, r.kind, float(r.value), 0.0, float(r.tolerance)))
            if not r.observed:
                report.notes.append(f"{r.name}: no value was observed, so it reports 0")


@dataclass
class SuiteReport:
    suite: str
    seed: int
    grid: str
    checks: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    table: list[dict] | None = None

    def add(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "seed": self.seed,
            "grid": self.grid,
            "checks": [
                {
                    "name": c.name,
                    "kind": c.kind,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "tolerance": c.tolerance,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
        }
        if self.notes:
            out["notes"] = list(self.notes)
        if self.table is not None:
            out["table"] = self.table
        return out


def merge_reports(suite: str, seed: int, grid: str, reports) -> SuiteReport:
    """Flatten several reports into one, prefixing check names with the suite."""
    merged = SuiteReport(suite, seed, grid)
    for rep in reports:
        for c in rep.checks:
            merged.add(CheckResult(f"{rep.suite}/{c.name}", c.kind, c.lhs, c.rhs, c.tolerance))
        merged.notes.extend(f"{rep.suite}: {note}" for note in rep.notes)
        if rep.table is not None:
            merged.table = (merged.table or []) + rep.table
    return merged


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_render(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("reports must contain finite numbers only")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot render {type(obj)} in a report")


def render_json(report: SuiteReport) -> str:
    """Deterministic JSON text (17 significant digits, fixed order)."""
    return _render(report.to_json(), 0) + "\n"
