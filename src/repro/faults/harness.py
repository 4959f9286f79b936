"""Fault-injection harness: clean-vs-faulty runs, reports, campaigns.

The harness operationalises the two invariants DESIGN.md section 10
states about the reproduction:

1. **Latency insensitivity** — a correctly buffered design is a Kahn
   network with bounded FIFOs: timing faults (jitter, DMA throttle,
   actor slow-down) may change *when* beats move, never *which values*
   move. For any timing-only scenario, the faulty run's output digest
   must equal the clean run's, under both schedulers.
2. **Analyzer/simulator agreement** — shrinking a literal filter-chain
   FIFO below the sizing model's minimum must (a) be flagged by the
   static verifier's BUFFER.FULL rule and (b) deadlock the simulator
   with the *same channel* named in both reports.

:func:`faultsim` runs one (design, scenario, seed) experiment and emits
a JSON-ready report with the verdict; :func:`run_campaign` sweeps
designs x scenarios x seeds, caching clean runs. Every design runs as
given. An unblocked design too large to cycle-simulate (the reference
AlexNet/VGG-16) is refused (:func:`simulable_design`); the caller asks
for its blocked form or for :func:`pilot_design`, a deterministic
downscale that preserves the layer topology — every layer kind, kernel,
stride and pad — while shrinking feature maps and input resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.core.block_transform import design_is_blocked
from repro.core.builder import BuiltNetwork, build_network, random_weights, seeded_batch
from repro.core.layer_spec import (
    ConvLayerSpec,
    FCLayerSpec,
    LayerSpec,
    PoolLayerSpec,
)
from repro.core.network_design import NetworkDesign
from repro.dataflow.deadlock import shrink_agreement
from repro.dataflow.digest import stable_digest
from repro.dataflow.graph import DataflowGraph
from repro.errors import ConfigurationError, DeadlockError, ReproError
from repro.faults.injectors import ArmedFaults, arm_faults
from repro.faults.scenario import FaultScenario, FifoShrink
from repro.report.base import MappingReport
from repro.sst.sizing import capacity_one_jams

if TYPE_CHECKING:  # import cycle: depths calls this harness
    from repro.analysis.depths import DepthPlan

#: Above this many parameters an unblocked design is not cycle-simulated.
PILOT_WEIGHT_LIMIT = 2_000_000
#: A pilot's feature maps per layer, classes, and largest input side tried.
PILOT_MAX_FM = 4
PILOT_MAX_CLASSES = 8
PILOT_MAX_INPUT = 256


# -- pilot designs -----------------------------------------------------------


def _pilot_specs(
    design: NetworkDesign,
    input_shape: Tuple[int, int, int],
) -> List[LayerSpec]:
    """Downscaled spec chain over ``input_shape``; raises if it won't fit."""
    specs: List[LayerSpec] = []
    shape = input_shape
    for spec in design.specs:
        if isinstance(spec, ConvLayerSpec):
            new: LayerSpec = ConvLayerSpec(
                name=spec.name,
                in_fm=shape[0],
                out_fm=min(spec.out_fm, PILOT_MAX_FM),
                kh=spec.kh,
                kw=spec.kw,
                stride=spec.stride,
                pad=spec.pad,
                activation=spec.activation,
            )
        elif isinstance(spec, PoolLayerSpec):
            new = PoolLayerSpec(
                name=spec.name,
                in_fm=shape[0],
                out_fm=shape[0],
                kh=spec.kh,
                kw=spec.kw,
                stride=spec.stride,
                mode=spec.mode,
            )
        elif isinstance(spec, FCLayerSpec):
            new = FCLayerSpec(
                name=spec.name,
                in_fm=shape[0] * shape[1] * shape[2],
                out_fm=min(spec.out_fm, PILOT_MAX_CLASSES),
                activation=spec.activation,
            )
            shape = (new.in_fm, 1, 1)
        else:  # pragma: no cover - specs are exhaustive
            raise ConfigurationError(f"unknown spec kind {spec.kind!r}")
        shape = new.out_shape(shape)
        specs.append(new)
    return specs


def pilot_design(design: NetworkDesign) -> NetworkDesign:
    """Deterministic simulable downscale preserving the layer topology.

    Keeps every layer's kind, kernel, stride, padding and activation;
    shrinks feature-map counts to :data:`PILOT_MAX_FM`
    (:data:`PILOT_MAX_CLASSES` for FC outputs) and scans square input
    sizes ascending for the smallest one
    every window fits — so the pilot is a pure function of the design,
    the same in every process and on every seed.
    """
    c0 = design.input_shape[0]
    for hw in range(4, PILOT_MAX_INPUT + 1):
        shape = (c0, hw, hw)
        try:
            specs = _pilot_specs(design, shape)
            return NetworkDesign(f"{design.name}-pilot{hw}", shape, specs)
        except ReproError:
            continue
    raise ConfigurationError(
        f"no input size up to {PILOT_MAX_INPUT} makes a simulable pilot of "
        f"{design.name!r}"
    )


def simulable_design(design: NetworkDesign, scheduler: str) -> NetworkDesign:
    """``design`` itself, if a harness may simulate it on ``scheduler``.

    On an interpreted engine an unblocked design above
    :data:`PILOT_WEIGHT_LIMIT` would take hours of simulation and raises
    :class:`ConfigurationError`; block convolution makes a design
    simulable at full size. A ``"compiled"`` run spends no such time and
    is never refused here.
    """
    if (
        scheduler != "compiled"
        and design.weight_count() > PILOT_WEIGHT_LIMIT
        and not design_is_blocked(design)
    ):
        raise ConfigurationError(
            f"{design.name!r} has {design.weight_count():,} weights and no "
            f"blocked conv layer, too large to cycle-simulate; pass "
            f"pilot_design(design) for a downscale (the '-pilot' presets) "
            f"or block its conv layers (with_blocking)"
        )
    return design


# -- single runs -------------------------------------------------------------


@dataclass
class RunOutcome:
    """One simulation of one built design, clean or faulted."""

    cycles: int
    finished: bool
    digest: Optional[str]
    #: The engine that ran: the one asked for (a compiled run that the
    #: engine refuses raises :class:`~repro.errors.CompilationError`).
    scheduler: str
    #: The built network that ran (graph, sink, per-channel counters).
    built: BuiltNetwork = field(repr=False)
    #: Present only on faulted runs.
    armed: Optional[ArmedFaults] = None
    #: The deadlock, when the run jammed instead of finishing.
    deadlock: Optional[DeadlockError] = None

    def to_dict(self) -> dict:
        d: dict = {
            "cycles": self.cycles,
            "finished": self.finished,
            "digest": self.digest,
            "scheduler": self.scheduler,
        }
        if self.armed is not None:
            d["armed"] = self.armed.describe()
            d["hold_cycles"] = self.armed.hold_cycles()
            d["corruption_hits"] = self.armed.corruption_hits()
        if self.deadlock is not None:
            d["deadlock"] = {
                "cycle": self.deadlock.cycle,
                "blocked": self.deadlock.blocked,
                "channels": self.deadlock.channels,
            }
        return d


def resolve_shrink(scenario: FaultScenario, graph: DataflowGraph) -> FaultScenario:
    """Replace ``FifoShrink(channels="auto")`` with a concrete target.

    Picks the alphabetically first literal chain FIFO that a capacity-1
    shrink provably jams: ``repro.sst.sizing.capacity_one_jams`` — the
    chain run-ahead recursion with that FIFO at 1 — evaluated on the
    capacities the graph actually carries. No-op for scenarios without
    an auto shrink.
    """
    if not any(
        isinstance(f, FifoShrink) and f.channels == "auto"
        for f in scenario.faults
    ):
        return scenario
    from repro.analysis.depths import chain_members
    from repro.analysis.graph_rules import literal_chains

    candidates: List[str] = []
    for base, asm in literal_chains(graph).items():
        fifos, taps, depths = chain_members(graph, base, asm)
        jams = capacity_one_jams(
            depths,
            [graph.channels[name].capacity for name in fifos],
            [graph.channels[name].capacity for name in taps],
        )
        candidates += [fifos[i] for i in jams]
    if not candidates:
        raise ConfigurationError(
            "no provably-deadlocking chain FIFO in the graph (build with "
            "memory_system='literal' and a window tall enough that a line "
            "FIFO exceeds the tap slack)"
        )
    target = min(candidates)
    faults = tuple(
        FifoShrink(channels=target, capacity=1)
        if isinstance(f, FifoShrink) and f.channels == "auto"
        else f
        for f in scenario.faults
    )
    return FaultScenario(scenario.name, faults)


def run_built(
    built: BuiltNetwork,
    seed: int = 0,
    scenario: Optional[FaultScenario] = None,
    scheduler: str = "event",
    stall_limit: int = 10_000,
) -> RunOutcome:
    """The arm -> run -> digest half of :func:`run_design`.

    For callers that build several networks over one weights/batch copy
    (the shard sweep). ``seed`` phases the armed faults; a deadlock lands
    in :attr:`RunOutcome.deadlock` instead of raising.
    """
    armed = None
    if scenario is not None:
        scenario = resolve_shrink(scenario, built.graph)
        armed = arm_faults(built.graph, scenario, seed)
    deadlock = None
    try:
        result = built.run(
            stall_limit=stall_limit, scheduler=scheduler, faults=armed,
        )
        cycles = result.cycles
    except DeadlockError as err:
        # Kept for its report, not for where it was raised: the traceback
        # runs through this very frame, whose `deadlock` would close a
        # reference cycle around the whole built network.
        deadlock, cycles = err.with_traceback(None), err.cycle
    finished = deadlock is None
    return RunOutcome(
        cycles=cycles,
        finished=finished,
        digest=stable_digest(built.outputs()) if finished else None,
        scheduler=scheduler,
        built=built,
        armed=armed,
        deadlock=deadlock,
    )


def run_design(
    design: NetworkDesign,
    seed: int = 0,
    images: int = 2,
    scenario: Optional[FaultScenario] = None,
    scheduler: str = "event",
    memory_system: str = "behavioral",
    stall_limit: int = 10_000,
    depth_plan: Optional["DepthPlan"] = None,
) -> RunOutcome:
    """Build, (optionally) arm, and cycle-simulate one design.

    The one seeded experiment faultsim and shrink validation and bisect
    are made of (the shard sweep builds its own networks and runs each
    through :func:`run_built`). Weights and the input batch are derived
    from ``seed`` alone, so a clean and a faulted run with the same seed
    process identical data — the precondition for digest comparison.
    ``depth_plan`` passes through to
    :func:`~repro.core.builder.build_network`.
    """
    built = build_network(
        design,
        random_weights(design, seed=seed),
        seeded_batch(design, seed, images),
        memory_system=memory_system,
        depth_plan=depth_plan,
    )
    return run_built(
        built, seed, scenario=scenario, scheduler=scheduler, stall_limit=stall_limit
    )


# -- report wrappers ---------------------------------------------------------


class FaultRunReport(MappingReport):
    """One (design, scenario, seed) faultsim experiment."""

    kind: ClassVar[str] = "faultsim"

    def summary(self) -> str:
        d = self._data
        return (
            f"faultsim {d['design']}/{d['scenario']['name']} "
            f"seed {d['seed']}: {d['verdict']}"
        )


class CampaignReport(MappingReport):
    """A designs x scenarios x seeds fault-campaign summary."""

    kind: ClassVar[str] = "fault-campaign"

    def to_dict(self) -> Dict:
        d = dict(self._data)
        d["runs"] = [r.envelope() for r in self._data["runs"]]
        return d

    def summary(self) -> str:
        d = self._data
        state = "ok" if d["ok"] else "FAILED"
        return (
            f"fault campaign: {d['passed']}/{d['experiments']} passed "
            f"({state})"
        )


def _stall_delta(clean: RunOutcome, faulty: RunOutcome, top: int = 5) -> dict:
    """Per-channel stall-cycle shift the fault scenario introduced.

    Comes straight from the schedulers' native channel counters: how many
    extra full/empty stall cycles the faulty run paid over the clean one,
    and which channels absorbed the hit.
    """

    def per_channel(outcome: RunOutcome) -> Dict[str, Tuple[int, int]]:
        return {
            name: (ch.stats.full_stall_cycles, ch.stats.empty_stall_cycles)
            for name, ch in outcome.built.graph.channels.items()
        }

    c, f = per_channel(clean), per_channel(faulty)
    deltas = {
        name: (f[name][0] - c.get(name, (0, 0))[0])
        + (f[name][1] - c.get(name, (0, 0))[1])
        for name in f
    }
    hot = sorted(deltas.items(), key=lambda kv: -abs(kv[1]))[:top]
    return {
        "full_delta": sum(fv[0] for fv in f.values())
        - sum(cv[0] for cv in c.values()),
        "empty_delta": sum(fv[1] for fv in f.values())
        - sum(cv[1] for cv in c.values()),
        "clean_total": sum(cv[0] + cv[1] for cv in c.values()),
        "faulty_total": sum(fv[0] + fv[1] for fv in f.values()),
        "top_channels": [[name, delta] for name, delta in hot if delta],
    }


# -- the faultsim experiment -------------------------------------------------


def _shrink_verdict(faulty: RunOutcome, design: NetworkDesign) -> dict:
    """Cross-validate a shrink deadlock against the static verifier."""
    from repro.analysis import analyze_graph

    info: dict = {"expected": "deadlock_matches_analysis"}
    if faulty.deadlock is None:
        info["verdict"] = "shrink_did_not_deadlock"
        info["ok"] = False
        return info
    shrunk = sorted(faulty.armed.shrunk) if faulty.armed else []
    blocked, flagged, matches = shrink_agreement(
        faulty.deadlock, analyze_graph(faulty.built.graph, design), shrunk
    )
    info["shrunk_channels"] = shrunk
    info["blocked_channels"] = blocked
    info["analysis_flagged"] = [d.to_dict() for d in flagged]
    info["matched_channels"] = matches
    if not flagged:
        info["verdict"] = "analysis_missed_shrink"
        info["ok"] = False
    elif not matches:
        info["verdict"] = "deadlock_channel_mismatch"
        info["ok"] = False
    else:
        info["verdict"] = "deadlock_matches_analysis"
        info["ok"] = True
    return info


def faultsim(
    design: NetworkDesign,
    scenario: FaultScenario,
    seed: int = 0,
    images: int = 2,
    _clean_cache: Optional[Dict] = None,
) -> FaultRunReport:
    """One experiment: clean run vs faulted run, verdict, JSON report.

    Both runs are on the event engine (faults perturb interpreted
    execution). ``_clean_cache`` lets the campaign runner share clean
    runs across scenarios.
    """
    simulable_design(design, "event")
    # Shrink targets only exist in the literal SST chains.
    memory_system = "literal" if scenario.has_kind("shrink") else "behavioral"
    run = partial(
        run_design, design, seed=seed, images=images,
        memory_system=memory_system,
    )
    key = (design.name, seed, images, memory_system)
    clean = _clean_cache.get(key) if _clean_cache is not None else None
    if clean is None:
        clean = run(scenario=None)
        if _clean_cache is not None:
            _clean_cache[key] = clean
    faulty = run(scenario=scenario)
    report: dict = {
        "design": design.name,
        "scenario": scenario.to_dict(),
        "seed": seed,
        "images": images,
        "scheduler": clean.scheduler,
        "memory_system": memory_system,
        "clean": clean.to_dict(),
        "faulty": faulty.to_dict(),
        "stall_delta": _stall_delta(clean, faulty),
    }
    if clean.finished and faulty.finished:
        report["cycle_overhead"] = faulty.cycles - clean.cycles
        report["cycle_overhead_pct"] = round(
            100.0 * (faulty.cycles - clean.cycles) / max(clean.cycles, 1), 2
        )
    if scenario.timing_only():
        ok = (
            clean.finished
            and faulty.finished
            and clean.digest == faulty.digest
        )
        report["invariant"] = "latency_insensitive"
        report["verdict"] = (
            "latency_insensitive" if ok else "LATENCY_SENSITIVITY_VIOLATED"
        )
        report["ok"] = ok
    elif scenario.has_kind("shrink"):
        info = _shrink_verdict(faulty, design)
        report["invariant"] = "deadlock_matches_analysis"
        report.update(info)
    else:  # corruption (possibly mixed with timing faults)
        hits = faulty.armed.corruption_hits() if faulty.armed else 0
        if hits == 0:
            report["verdict"] = "corruption_not_injected"
            report["ok"] = False
        elif faulty.finished and faulty.digest != clean.digest:
            report["verdict"] = "corruption_detected"
            report["ok"] = True
        elif not faulty.finished:
            # A corrupted control value can jam the pipeline; the digest
            # check still "detected" the fault (no silent wrong answer).
            report["verdict"] = "corruption_detected"
            report["ok"] = True
        else:
            report["verdict"] = "CORRUPTION_MISSED"
            report["ok"] = False
        report["invariant"] = "corruption_detected"
    return FaultRunReport(report)


def run_campaign(
    designs: Sequence[Tuple[str, NetworkDesign]],
    scenarios: Sequence[FaultScenario],
    seeds: Sequence[int],
    images: int = 2,
) -> CampaignReport:
    """Sweep designs x scenarios x seeds; one report per experiment.

    Clean runs are cached per (design, seed) so an N-scenario campaign
    pays for each baseline once. Returns a :class:`CampaignReport` (a
    read-only mapping) with the full report list, a per-scenario stall
    aggregate, and an overall ``ok``.
    """
    cache: Dict = {}
    runs: List[FaultRunReport] = []
    for name, design in designs:
        for scenario in scenarios:
            for seed in seeds:
                runs.append(
                    faultsim(
                        design, scenario, seed=seed, images=images,
                        _clean_cache=cache,
                    )
                )
    failed = [r for r in runs if not r.get("ok")]
    by_scenario: Dict[str, List[int]] = {}
    for r in runs:
        delta = r["stall_delta"]
        by_scenario.setdefault(r["scenario"]["name"], []).append(
            delta["full_delta"] + delta["empty_delta"]
        )
    stall_deltas = {
        name: {
            "experiments": len(vals),
            "mean_total_delta": round(sum(vals) / len(vals), 1),
            "max_total_delta": max(vals),
        }
        for name, vals in sorted(by_scenario.items())
    }
    return CampaignReport(
        {
            "experiments": len(runs),
            "passed": len(runs) - len(failed),
            "failed": len(failed),
            "ok": not failed,
            "stall_deltas": stall_deltas,
            "runs": runs,
        }
    )
