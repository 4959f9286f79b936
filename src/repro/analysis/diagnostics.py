"""Structured diagnostics emitted by the static dataflow verifier.

Every finding of :mod:`repro.analysis` is a :class:`Diagnostic`: a rule
identifier (from :mod:`repro.analysis.rules`), a severity, a location in
the design or graph, a human-readable message, an actionable fix hint and
the paper section the violated invariant comes from. A whole run is an
:class:`AnalysisReport`, which renders both as terminal text (``repro
check``) and as a machine-readable JSON document (CI artifacts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Dict, List, Optional

from repro.analysis.rules import RULES
from repro.errors import ConfigurationError
from repro.report.base import Report


class Severity(Enum):
    """How bad a finding is."""

    ERROR = "error"      # the design/graph is wrong; simulation would fail
    WARNING = "warning"  # legal but suspicious or wasteful
    INFO = "info"        # analysis facts worth surfacing (bottleneck, skips)

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static verifier."""

    rule: str
    severity: Severity
    #: Where the finding anchors, e.g. ``"layer:conv1"``, ``"boundary:conv1->pool1"``,
    #: ``"channel:a.out->b.in"`` or ``"design"``.
    location: str
    message: str
    #: Actionable suggestion; empty when there is nothing to do.
    hint: str = ""

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ConfigurationError(f"unknown analysis rule id {self.rule!r}")

    @property
    def paper_ref(self) -> str:
        """Paper section the violated invariant comes from."""
        return RULES[self.rule].paper_ref

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
            "paper_ref": self.paper_ref,
        }

    def format(self) -> str:
        """One-to-two-line terminal rendering."""
        head = (
            f"{self.severity.value.upper():7s} {self.rule:16s} "
            f"{self.location}: {self.message} [{self.paper_ref}]"
        )
        if self.hint:
            head += f"\n        hint: {self.hint}"
        return head


@dataclass
class AnalysisReport(Report):
    """All diagnostics of one verifier run over one design/graph."""

    kind: ClassVar[str] = "analysis"

    design_name: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Rule ids that actually ran (a rule can be skipped, e.g. graph rules
    #: when elaboration is disabled).
    rules_run: List[str] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def note_rule(self, rule: str) -> None:
        if rule not in RULES:
            raise ConfigurationError(f"unknown analysis rule id {rule!r}")
        if rule not in self.rules_run:
            self.rules_run.append(rule)

    def merge(self, other: "AnalysisReport") -> "AnalysisReport":
        """Fold ``other``'s findings into this report (returns self)."""
        self.diagnostics.extend(other.diagnostics)
        for r in other.rules_run:
            if r not in self.rules_run:
                self.rules_run.append(r)
        return self

    # -- views ---------------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def ok(self) -> bool:
        """True when the design passed (no errors; warnings allowed)."""
        return not self.errors

    def error_rules(self) -> List[str]:
        """Distinct rule ids with at least one error, in emission order."""
        seen: List[str] = []
        for d in self.errors:
            if d.rule not in seen:
                seen.append(d.rule)
        return seen

    def counts(self) -> Dict[str, int]:
        out = {"error": 0, "warning": 0, "info": 0}
        for d in self.diagnostics:
            out[d.severity.value] += 1
        return out

    # -- rendering -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "design": self.design_name,
            "ok": self.ok,
            "counts": self.counts(),
            "rules_run": list(self.rules_run),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def summary(self) -> str:
        c = self.counts()
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"check {self.design_name}: {verdict} "
            f"({c['error']} error(s), {c['warning']} warning(s))"
        )

    def format_text(self) -> str:
        """Terminal report: findings sorted most-severe-first, then a verdict."""
        lines = [f"=== repro check: {self.design_name} ==="]
        lines += [
            d.format()
            for d in sorted(self.diagnostics, key=lambda d: -d.severity.rank)
        ]
        c = self.counts()
        lines.append(
            f"{'PASS' if self.ok else 'FAIL'}: {c['error']} error(s), "
            f"{c['warning']} warning(s), {c['info']} info "
            f"({len(self.rules_run)} rules run)"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self.counts()
        return (
            f"AnalysisReport({self.design_name!r}, {c['error']}E/"
            f"{c['warning']}W/{c['info']}I)"
        )


def make(
    rule: str,
    severity: Severity,
    location: str,
    message: str,
    hint: str = "",
) -> Diagnostic:
    """Shorthand constructor used by the rule implementations."""
    return Diagnostic(
        rule=rule, severity=severity, location=location, message=message, hint=hint
    )
