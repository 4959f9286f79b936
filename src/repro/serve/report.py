"""The ServeReport: one JSON/text shape for every serving run.

Joins the unified Report API (``{"schema_version": 2, "kind": "serve",
...}``): tail-latency percentiles, throughput, the batch-size histogram,
knee prediction vs. measured per-image cycles, per-request digest
verification against single-shot simulation, and (chaos mode) the
measured-vs-analytical throttled interval cross-check. Latencies are
virtual µs on the board clock — the loadtest measures what the *paper's
board* would serve, using the simulator as the device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.report import Report, format_kv, format_table


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of pre-sorted values."""
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    rank = max(1, -(-len(sorted_values) * q // 100))  # ceil without math
    return float(sorted_values[int(rank) - 1])


def latency_stats(latencies_us: Sequence[float]) -> Dict[str, float]:
    """The tail summary every serving system quotes (virtual µs)."""
    s = sorted(latencies_us)
    return {
        "p50_us": round(percentile(s, 50), 3),
        "p95_us": round(percentile(s, 95), 3),
        "p99_us": round(percentile(s, 99), 3),
        "mean_us": round(sum(s) / len(s), 3),
        "max_us": round(s[-1], 3),
    }


@dataclass
class ServeReport(Report):
    """Everything one serving run measured, in the shared envelope."""

    kind = "serve"

    design: str
    requests: int
    rate: float
    dist: str
    seed: int
    replicas: int
    mode: str
    scheduler: str
    #: Admission policy actually applied.
    admission: Dict[str, Any]
    #: Convergence-knee prediction vs measurement.
    knee: Dict[str, Any]
    #: Tail latency of the measured replay (virtual µs).
    latency: Dict[str, float]
    #: Virtual throughput: requests / makespan.
    images_per_sec: float
    #: Virtual µs from first arrival to last completion.
    makespan_us: float
    #: batch size -> number of batches.
    batch_histogram: Dict[int, int]
    #: Digest verification vs single-shot simulation.
    digests: Dict[str, Any]
    #: Chaos cross-check (None when no fault armed).
    chaos: Optional[Dict[str, Any]] = None
    #: Host-side execution cost (real seconds, not virtual).
    wall: Dict[str, float] = field(default_factory=dict)
    #: Plan-cache counters sampled from one replica worker.
    plan_cache: Dict[str, int] = field(default_factory=dict)
    ok: bool = True
    failures: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "design": self.design,
            "requests": self.requests,
            "rate": self.rate,
            "dist": self.dist,
            "seed": self.seed,
            "replicas": self.replicas,
            "mode": self.mode,
            "scheduler": self.scheduler,
            "admission": dict(self.admission),
            "knee": dict(self.knee),
            "latency": dict(self.latency),
            "images_per_sec": self.images_per_sec,
            "makespan_us": self.makespan_us,
            "batch_histogram": {
                str(k): v for k, v in sorted(self.batch_histogram.items())
            },
            "digests": dict(self.digests),
            "chaos": dict(self.chaos) if self.chaos else None,
            "wall": dict(self.wall),
            "plan_cache": dict(self.plan_cache),
            "ok": self.ok,
            "failures": list(self.failures),
        }

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAILED"
        return (
            f"serve {self.design}: {self.requests} req @ {self.rate:g}/s -> "
            f"{self.images_per_sec:.1f} img/s, "
            f"p50 {self.latency['p50_us']:.0f} us, "
            f"p99 {self.latency['p99_us']:.0f} us [{verdict}]"
        )

    def format_text(self) -> str:
        pairs = [
            ("design", self.design),
            ("requests", f"{self.requests} ({self.dist}, "
                         f"{self.rate:g} req/s, seed {self.seed})"),
            ("fleet", f"{self.replicas} replica(s), {self.mode} mode, "
                      f"{self.scheduler} engine"),
            ("admission", f"target {self.admission['target_batch']}, "
                          f"max {self.admission['max_batch']}, "
                          f"max wait {self.admission['max_wait_us']:.0f} us"),
            ("knee (Eq. 4)", f"batch {self.knee['predicted']} "
                             f"@ tol {self.knee['tolerance']:g}"),
            ("throughput", f"{self.images_per_sec:.1f} images/s (virtual)"),
            ("latency p50/p95/p99",
             f"{self.latency['p50_us']:.0f} / {self.latency['p95_us']:.0f} / "
             f"{self.latency['p99_us']:.0f} us"),
            ("digests", f"{self.digests['matched']}/{self.digests['checked']}"
                        f" match single-shot"),
        ]
        if "measured_per_image" in self.knee:
            pairs.append(
                ("per-image cycles",
                 f"measured {self.knee['measured_per_image']:.1f} vs II "
                 f"{self.knee['bottleneck_ii']} "
                 f"({100 * self.knee['rel_err']:+.2f}%)")
            )
        if self.chaos:
            rel = self.chaos.get("rel_err")
            err = f"{100 * rel:+.2f}%" if rel is not None else "n/a"
            pairs.append(
                ("chaos", f"{self.chaos['scenario']} on replica "
                          f"{self.chaos['replica']}: interval "
                          f"{self.chaos['measured_interval']} vs predicted "
                          f"{self.chaos['predicted_interval']} ({err}), "
                          f"p99 x{self.chaos['p99_ratio']:.2f}")
            )
        if self.wall:
            pairs.append(
                ("host wall", f"{self.wall['total_s']:.2f} s "
                              f"({self.wall['images_per_sec']:.1f} img/s)")
            )
        pairs.append(("verdict", "OK" if self.ok else
                      f"FAILED ({'; '.join(self.failures)})"))
        text = format_kv(f"serving loadtest: {self.design}", pairs)
        rows = [
            [str(size), str(count)]
            for size, count in sorted(self.batch_histogram.items())
        ]
        text += "\n\n" + format_table(
            ["batch", "count"], rows, title="batch sizes"
        )
        return text
