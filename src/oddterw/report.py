"""Structured pass/fail results for verification checks."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

#: Witness lists are capped so a report stays readable; the cap is recorded.
MAX_WITNESSES = 50


@dataclass
class CheckResult:
    """Outcome of one verification check."""

    name: str
    status: str
    witnesses: list = field(default_factory=list)
    ms: int = 0
    params: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @classmethod
    def from_witnesses(cls, name: str, witnesses: list, **kwargs) -> "CheckResult":
        truncated = len(witnesses) > MAX_WITNESSES
        result = cls(
            name=name,
            status=FAIL if witnesses else PASS,
            witnesses=witnesses[:MAX_WITNESSES],
            **kwargs,
        )
        if truncated:
            result.params["witnesses_truncated"] = len(witnesses)
        return result

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "status": self.status,
            "witnesses": self.witnesses,
            "ms": self.ms,
        }
        if self.params:
            out["params"] = self.params
        if self.notes:
            out["notes"] = self.notes
        return out


@dataclass
class VerificationReport:
    """Aggregated report over a set of checks for one parameter m."""

    m: int
    field: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def to_dict(self) -> dict:
        return {"m": self.m, "field": self.field, "checks": [c.to_dict() for c in self.checks]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def render_text(self) -> str:
        lines = [f"m = {self.m}   field = {self.field}"]
        for c in self.checks:
            lines.append(f"  {c.name:<40s} {c.status.upper():<7s} ({c.ms} ms)")
            for note in c.notes:
                lines.append(f"      note: {note}")
            for w in c.witnesses[:5]:
                lines.append(f"      witness: {w}")
            if len(c.witnesses) > 5:
                lines.append(f"      ... {len(c.witnesses) - 5} more witnesses")
        verdict = "ALL CHECKS PASSED" if self.all_passed else "FAILURES PRESENT"
        lines.append(verdict)
        return "\n".join(lines)


def load_report_schema() -> dict:
    """The JSON schema that verification reports validate against."""
    text = resources.files("oddterw").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)
