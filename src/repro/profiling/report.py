"""ProfileReport: measured-vs-predicted performance of one design.

Everything in here is derived from the schedulers' native counters
(:mod:`repro.dataflow.counters`) plus the static perf model — no
per-cycle sampling is involved unless the optional high-resolution
:class:`~repro.dataflow.trace.Tracer` backend was attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional

from repro.analysis.diagnostics import AnalysisReport
from repro.report.base import Report
from repro.report.tables import format_kv, format_table


@dataclass
class ProfileReport(Report):
    """Measured performance of one simulated design run.

    ``cores`` holds one entry per compute-core actor: the measured
    initiation interval (productive cycles per output coordinate, from
    the native counters) against the Eq. 4 prediction. ``throughput``
    and ``latency`` compare the observed pipeline interval and fill
    latency with the perf model. ``analysis`` carries the
    ``PROFILE.II_MISMATCH`` diagnostics; :attr:`ok` is False when any is
    error-level.
    """

    kind: ClassVar[str] = "profile"

    design_name: str = ""
    scheduler: str = "event"
    images: int = 0
    seed: int = 0
    cycles: int = 0
    tolerance: float = 0.05
    cores: List[dict] = field(default_factory=list)
    throughput: Dict[str, object] = field(default_factory=dict)
    latency: Dict[str, object] = field(default_factory=dict)
    bottleneck: Dict[str, object] = field(default_factory=dict)
    #: Whole-run busy fraction per actor, derived from the counters
    #: (``trace.counter_busy_fractions``) — the paper's "all layers
    #: concurrently active" claim, measured.
    utilization: Dict[str, float] = field(default_factory=dict)
    channel_stats: Dict[str, dict] = field(default_factory=dict)
    actor_stats: Dict[str, list] = field(default_factory=dict)
    scheduler_stats: Dict[str, object] = field(default_factory=dict)
    analysis: Optional[AnalysisReport] = None
    #: High-resolution sample backend, present only when the profiler ran
    #: with ``sample_every``; feeds Chrome-trace counter tracks. Not
    #: serialised (samples scale with cycle count).
    tracer: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.analysis.ok if self.analysis is not None else True

    def max_ii_error(self) -> float:
        """Worst relative II error across the compute cores."""
        return max((c["rel_err"] for c in self.cores), default=0.0)

    def to_dict(self) -> dict:
        return {
            "design": self.design_name,
            "scheduler": self.scheduler,
            "images": self.images,
            "seed": self.seed,
            "cycles": self.cycles,
            "tolerance": self.tolerance,
            "ok": self.ok,
            "cores": self.cores,
            "throughput": self.throughput,
            "latency": self.latency,
            "bottleneck": self.bottleneck,
            "utilization": self.utilization,
            "channel_stats": self.channel_stats,
            "actor_stats": self.actor_stats,
            "scheduler_stats": self.scheduler_stats,
            "analysis": (
                self.analysis.to_dict() if self.analysis is not None else None
            ),
        }

    def summary(self) -> str:
        state = "ok" if self.ok else "II MISMATCH"
        return (
            f"profile {self.design_name}: {len(self.cores)} cores, "
            f"max II error {100.0 * self.max_ii_error():.2f}%, {state}"
        )

    # -- rendering ---------------------------------------------------------

    def _stall_hotspots(self, top: int = 5) -> List[tuple]:
        rows = []
        for name, st in self.channel_stats.items():
            total = st["full_stall_cycles"] + st["empty_stall_cycles"]
            if total:
                rows.append(
                    (name, st["full_stall_cycles"], st["empty_stall_cycles"])
                )
        rows.sort(key=lambda r: -(r[1] + r[2]))
        return rows[:top]

    def format_text(self) -> str:
        parts = [
            format_kv(
                f"profile: {self.design_name}",
                [
                    ("scheduler", self.scheduler),
                    ("images", self.images),
                    ("cycles", self.cycles),
                ],
            )
        ]
        if self.cores:
            parts.append("\nPer-core initiation interval (Eq. 4 cross-check):")
            parts.append(
                format_table(
                    ["core", "measured II", "Eq.4 II", "error %", "verdict"],
                    [
                        [
                            c["actor"],
                            c["measured_ii"],
                            c["predicted_ii"],
                            100.0 * c["rel_err"],
                            "ok" if c["within_tolerance"] else "MISMATCH",
                        ]
                        for c in self.cores
                    ],
                )
            )
        tp = list(self.throughput.items()) + list(self.latency.items())
        if tp:
            parts.append("")
            parts.append(format_kv("throughput and latency", tp))
        if self.bottleneck:
            parts.append("")
            parts.append(
                format_kv("bottleneck attribution", list(self.bottleneck.items()))
            )
        hot = self._stall_hotspots()
        if hot:
            parts.append("\nMost-stalled channels:")
            parts.append(
                format_table(
                    ["channel", "full-stall cycles", "empty-stall cycles"],
                    [list(r) for r in hot],
                )
            )
        if self.analysis is not None and self.analysis.diagnostics:
            parts.append("")
            parts.append(self.analysis.format_text())
        parts.append("")
        parts.append(self.summary())
        return "\n".join(parts)
