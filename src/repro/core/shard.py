"""Sharded co-simulation harness: run and verify a multi-FPGA plan.

:func:`run_shard` is the executable counterpart of
:func:`~repro.core.multi_fpga.plan_split`: for each requested device
count it builds the *same* design as one multi-device simulation
(``build_network(multi_plan=...)`` cuts the graph at the planned
boundaries and inserts paced link actors), runs it on the requested
engines, and machine-checks the co-simulation against the plan:

* **value equivalence** — the sharded output digest must equal the
  single-device digest bit for bit, per engine (and the engines agree
  with each other by the existing three-way equivalence contract);
* **timing agreement** — on the compiled engine the measured
  steady-state interval (deltas of per-image completion cycles) must
  equal ``MultiFpgaPlan.interval`` exactly on unthrottled runs, link
  stages included. The interpreted engines carry pipeline-level
  scheduling slack the performance model deliberately excludes (the
  profiler's 10% ``INTERVAL_TOLERANCE``), so their exact contract is
  relative: the sharded interval must equal
  ``max(single-device measured interval, link stage cycles)`` — cutting
  the pipeline adds exactly the planned link stages and nothing else —
  and every compute core must hold the Eq. 4 per-core II identity at
  0.00% (link parks are excluded from fires, so a link at modeled
  bandwidth never perturbs core II);
* **fault campaign** — optional link throttles
  (:class:`~repro.faults.DmaThrottle` on the ``link*.wire`` channels)
  must preserve the digest (timing-only faults) while the degraded
  interval tracks the analytical replay in
  :func:`repro.faults.analytical.throttled_link_rate`, seed-exactly
  phased per wire.

The result is a :class:`ShardReport` behind the unified Report envelope
(``repro shard --json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.core.builder import BuiltNetwork, build_network, random_weights, seeded_batch
from repro.core.multi_fpga import LinkModel, MultiFpgaPlan, plan_split
from repro.core.network_design import NetworkDesign
from repro.core.perf_model import Stage, pacing_stage, repriced
from repro.dataflow.simulator import USER_SCHEDULERS
from repro.errors import ConfigurationError
from repro.fpga.device import Device, XC7VX485T
from repro.report.base import Report


@dataclass(frozen=True)
class EngineRun:
    """One engine's verdict on one sharded build."""

    engine: str
    cycles: int
    digest: str
    #: Digest equals the same engine's single-device digest.
    digest_match: bool
    #: Max per-image completion delta (None when images < 2).
    measured_interval: Optional[int]
    #: The exact expectation: ``plan.interval`` on the compiled engine,
    #: ``max(single-device measured, link stages)`` on the interpreted
    #: engines (which carry modeled-out pipeline scheduling slack).
    expected_interval: Optional[int]
    #: |measured - expected| / expected * 100 (None when unmeasurable).
    interval_error_pct: Optional[float]
    #: Worst per-core Eq. 4 relative II error (fires identity); 0.0 on
    #: every engine — link stages never perturb core II.
    core_ii_rel_err: float
    #: True when the engine that ran is not the one asked for (a
    #: "compiled" run that fell back to "event").
    fell_back: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "engine": self.engine,
            "cycles": self.cycles,
            "digest": self.digest,
            "digest_match": self.digest_match,
            "measured_interval": self.measured_interval,
            "expected_interval": self.expected_interval,
            "interval_error_pct": self.interval_error_pct,
            "core_ii_rel_err": self.core_ii_rel_err,
            "fell_back": self.fell_back,
        }


@dataclass(frozen=True)
class DeviceRun:
    """One device count: the plan plus every engine's run."""

    n_devices: int
    plan: MultiFpgaPlan
    engines: Tuple[EngineRun, ...]

    @property
    def ok(self) -> bool:
        return all(
            e.digest_match
            and not e.fell_back
            and e.core_ii_rel_err == 0.0
            and (e.interval_error_pct in (None, 0.0))
            for e in self.engines
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_devices": self.n_devices,
            "ok": self.ok,
            "plan": self.plan.to_dict(),
            "engines": [e.to_dict() for e in self.engines],
        }


@dataclass(frozen=True)
class ThrottleRun:
    """One link-throttle scenario cross-checked against the analytics."""

    n_devices: int
    period: int
    burst: int
    digest_match: bool
    #: max(plan stages, per-wire analytical throttled stream cycles).
    predicted_interval: float
    measured_interval: int
    error_pct: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_devices": self.n_devices,
            "period": self.period,
            "burst": self.burst,
            "digest_match": self.digest_match,
            "predicted_interval": round(self.predicted_interval, 2),
            "measured_interval": self.measured_interval,
            "error_pct": round(self.error_pct, 3),
        }


class ShardReport(Report):
    """Digest/timing verdicts of a sharded co-simulation sweep."""

    kind: ClassVar[str] = "shard"

    def __init__(
        self,
        design_name: str,
        images: int,
        seed: int,
        baseline_digests: Dict[str, str],
        runs: List[DeviceRun],
        throttles: List[ThrottleRun],
    ):
        self.design_name = design_name
        self.images = images
        self.seed = seed
        self.baseline_digests = dict(baseline_digests)
        self.runs = list(runs)
        self.throttles = list(throttles)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.runs) and all(
            t.digest_match for t in self.throttles
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "design": self.design_name,
            "images": self.images,
            "seed": self.seed,
            "ok": self.ok,
            "baseline_digests": self.baseline_digests,
            "runs": [r.to_dict() for r in self.runs],
            "throttles": [t.to_dict() for t in self.throttles],
        }

    def summary(self) -> str:
        lines = [
            f"shard {self.design_name}: {self.images} image(s), "
            f"seed {self.seed}, {'OK' if self.ok else 'MISMATCH'}"
        ]
        for r in self.runs:
            for e in r.engines:
                err = (
                    "n/a"
                    if e.interval_error_pct is None
                    else f"{e.interval_error_pct:.2f}%"
                )
                lines.append(
                    f"  {r.n_devices} device(s) [{e.engine}]: "
                    f"digest {'match' if e.digest_match else 'MISMATCH'}, "
                    f"interval {e.measured_interval} vs expected "
                    f"{e.expected_interval} (err {err}, plan "
                    f"{r.plan.interval}, core II err "
                    f"{e.core_ii_rel_err * 100:.2f}%, "
                    f"bottleneck {r.plan.bottleneck})"
                )
        for t in self.throttles:
            lines.append(
                f"  throttle p={t.period} b={t.burst} on {t.n_devices} "
                f"device(s): digest "
                f"{'match' if t.digest_match else 'MISMATCH'}, interval "
                f"{t.measured_interval} vs predicted "
                f"{t.predicted_interval:.1f} (err {t.error_pct:.2f}%)"
            )
        return "\n".join(lines)


def _throttled_prediction(
    built: BuiltNetwork, plan: MultiFpgaPlan, period: int, burst: int, seed: int
) -> float:
    """Analytical faulted interval: the plan's stage list with every
    throttled wire re-priced by the exact commit replay, phased with the
    same seeded RNG the injector draws from."""
    from repro.faults.analytical import throttled_link_rate
    from repro.faults.injectors import target_rng

    beat = plan.link.beat_interval()
    stages = plan.stages
    for d in range(plan.n_devices - 1):
        name = f"link{d}.wire"
        capacity = built.graph.channels[name].capacity
        phase = target_rng(seed, f"dma:{name}").randrange(period)
        rate = throttled_link_rate(
            period, burst, beat=beat, capacity=capacity, phase=phase
        )
        stages = repriced(
            stages, f"link{d}", plan.segments[d].egress_words * rate
        )
    return float(pacing_stage(stages).cycles)


def run_shard(
    design: NetworkDesign,
    devices: Sequence[int] = (1, 2, 4),
    images: int = 4,
    seed: int = 0,
    link: Optional[LinkModel] = None,
    device: Device = XC7VX485T,
    fit: bool = True,
    engines: Sequence[str] = ("event", "compiled"),
    throttles: Sequence[Tuple[int, int]] = (),
) -> ShardReport:
    """Co-simulate ``design`` at each device count and verify the shards.

    Weights and the batch derive from ``seed`` alone
    (:func:`~repro.core.builder.seeded_batch`, as in
    ``repro.faults.harness.run_design``) and are built once, so every run
    in the sweep (each one a :func:`~repro.faults.harness.run_built`)
    processes identical data. ``throttles`` is a sequence of
    ``(period, burst)`` DMA-throttle parameters applied to every
    ``link*.wire`` channel of each multi-device placement (event engine
    only — faults perturb interpreted execution).
    """
    from repro.faults import DmaThrottle, FaultScenario, run_built
    from repro.profiling import core_ii_rows

    for engine in engines:
        if engine not in USER_SCHEDULERS:
            raise ConfigurationError(
                f"unknown engine {engine!r}; expected one of {USER_SCHEDULERS}"
            )
    if images < 1:
        raise ConfigurationError(f"images must be >= 1, got {images}")
    weights = random_weights(design, seed=seed)
    batch = seeded_batch(design, seed, images)

    def run(plan: Optional[MultiFpgaPlan], engine: str, scenario=None):
        """One run of the sweep, over the shared weights/batch copy."""
        out = run_built(
            build_network(design, weights, batch, multi_plan=plan),
            seed, scenario=scenario, scheduler=engine,
        )
        if out.deadlock is not None:
            raise out.deadlock
        return out

    # Per-engine single-device baselines: the digest reference and the
    # measured monolithic interval (interpreted engines carry pipeline
    # scheduling slack the model excludes; sharding must add exactly the
    # planned link stages on top of it).
    baselines: Dict[str, str] = {}
    baseline_ivs: Dict[str, Optional[int]] = {}
    for engine in engines:
        base_run = run(None, engine)
        baselines[engine] = base_run.digest
        baseline_ivs[engine] = base_run.built.measured_interval()

    plans: Dict[int, MultiFpgaPlan] = {}
    runs: List[DeviceRun] = []
    for n in devices:
        plan = plan_split(design, n, device=device, link=link, fit=fit)
        plans[n] = plan
        link_stages = [s for s in plan.stages if s.kind == "link"]
        engine_runs: List[EngineRun] = []
        for engine in engines:
            out = run(plan if n > 1 else None, engine)
            fell_back = out.scheduler != engine
            measured = out.built.measured_interval()
            if engine == "compiled" and not fell_back:
                expected: Optional[int] = plan.interval
            else:
                # The measured monolithic pipeline is one stage; the cut
                # adds the planned link stages next to it.
                base = baseline_ivs[engine]
                expected = (
                    None
                    if base is None
                    else pacing_stage(
                        [Stage("single-device", "measured", base), *link_stages]
                    ).cycles
                )
            err = (
                None
                if measured is None or expected is None
                else abs(measured - expected) / expected * 100.0
            )
            engine_runs.append(
                EngineRun(
                    engine=engine,
                    cycles=out.cycles,
                    digest=out.digest,
                    digest_match=out.digest == baselines[engine],
                    measured_interval=measured,
                    expected_interval=expected,
                    interval_error_pct=err,
                    core_ii_rel_err=max(
                        row["rel_err"]
                        for row in core_ii_rows(
                            design, out.built.result.actor_stats, images
                        )
                    ),
                    fell_back=fell_back,
                )
            )
        runs.append(DeviceRun(n_devices=n, plan=plan, engines=tuple(engine_runs)))

    throttle_runs: List[ThrottleRun] = []
    ref_digest = next(iter(baselines.values()), None)
    for n in devices:
        if n < 2:
            continue
        plan = plans[n]
        for period, burst in throttles:
            scenario = FaultScenario(
                name=f"link-throttle-p{period}-b{burst}",
                faults=(
                    DmaThrottle(
                        channels="link*.wire", period=period, burst=burst
                    ),
                ),
            )
            out = run(plan, "event", scenario)
            predicted = _throttled_prediction(out.built, plan, period, burst, seed)
            cc = out.built.image_completion_cycles()
            if len(cc) < 2:
                raise ConfigurationError(
                    "a throttle campaign needs images >= 2 to measure the "
                    "degraded interval"
                )
            # Mean delta: periodic throttle phases drift across images,
            # the analytic replay models the long-run rate.
            measured = math.ceil((cc[-1] - cc[0]) / (len(cc) - 1))
            throttle_runs.append(
                ThrottleRun(
                    n_devices=n,
                    period=period,
                    burst=burst,
                    digest_match=out.digest == ref_digest,
                    predicted_interval=predicted,
                    measured_interval=measured,
                    error_pct=abs(measured - predicted) / predicted * 100.0,
                )
            )

    return ShardReport(
        design_name=design.name,
        images=images,
        seed=seed,
        baseline_digests=baselines,
        runs=runs,
        throttles=throttle_runs,
    )
