"""Profile a design: simulate, read native counters, cross-check Eq. 4.

The measured initiation interval comes from a counter identity rather
than sampling: each compute-core process performs exactly one productive
beat per non-stalled cycle of its life, and each core process touches
each output coordinate once per group. Hence

    measured II = max over the core's processes of
                  fires / (output coordinates x images)

equals ``max(IN_FM/IN_PORTS, OUT_FM/OUT_PORTS)`` (Eq. 4) exactly when
the implementation sustains the paper's per-core rate — independent of
where the pipeline bottleneck sits, because stalled cycles (empty
inputs, full outputs, gate backpressure, fixed-latency waits) are
excluded from ``fires``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.analysis.diagnostics import AnalysisReport, Severity, make
from repro.core.builder import build_network, random_weights, seeded_batch
from repro.core.layer_spec import ConvLayerSpec, FCLayerSpec
from repro.core.network_design import NetworkDesign
from repro.core.perf_model import network_perf
from repro.dataflow.trace import Tracer, counter_busy_fractions
from repro.faults.harness import simulable_design
from repro.profiling.report import ProfileReport

#: Relative II error above which PROFILE.II_MISMATCH is an error.
II_TOLERANCE = 0.05
#: Relative pipeline-interval error above which a warning is issued.
INTERVAL_TOLERANCE = 0.10


def _core_coords(placement) -> int:
    """Output coordinates one core process walks per image.

    Blocked convolutions walk every tile coordinate, including the
    overhang positions of boundary tiles that the merge stage later
    drops, so the measured-II identity must divide by the tile count
    rather than the raster output area.
    """
    spec = placement.spec
    if isinstance(spec, FCLayerSpec):
        return 1
    if isinstance(spec, ConvLayerSpec):
        plan = spec.block_plan(placement.in_shape[1], placement.in_shape[2])
        if plan is not None:
            return plan.coords
    _k, oh, ow = placement.out_shape
    return oh * ow


def core_ii_rows(
    design: NetworkDesign, actor_stats: Dict[str, list], images: int
) -> Iterator[dict]:
    """One row per compute-core actor: the fires identity against Eq. 4.

    ``measured_ii = fires / (coords x images)`` over the core's busiest
    process, ``predicted_ii`` the layer's Eq. 4 II, ``rel_err`` their
    relative distance. The profiler and the shard harness both read it.
    """
    actors = sorted(actor_stats)
    for placement in design.placements:
        spec = placement.spec
        coords = _core_coords(placement)
        prefix = f"{spec.name}.core"
        for actor in actors:
            if not (actor == prefix or actor.startswith(prefix)):
                continue
            fires = max(p["fires"] for p in actor_stats[actor])
            measured = fires / (coords * images)
            predicted = float(spec.ii)
            yield {
                "layer": spec.name,
                "actor": actor,
                "kind": spec.kind,
                "coords": coords,
                "fires": fires,
                "measured_ii": measured,
                "predicted_ii": predicted,
                "rel_err": abs(measured - predicted) / predicted,
            }


def _stage_of_actor(name: str) -> str:
    """Map an actor name to its pipeline stage (layer or DMA endpoint)."""
    if name == "dma_in" or name.startswith("dma_in."):
        return "dma_in"
    if name.startswith("dma_out"):
        return "dma_out"
    return name.split(".", 1)[0]


def profile_design(
    design: NetworkDesign,
    images: int = 3,
    seed: int = 0,
    scheduler: str = "event",
    loop_overhead: int = 0,
    sample_every: Optional[int] = None,
    tolerance: float = II_TOLERANCE,
    multi_plan=None,
) -> ProfileReport:
    """Simulate ``design`` and return its :class:`ProfileReport`.

    Weights and inputs are derived from ``seed`` alone
    (:func:`~repro.core.builder.seeded_batch`, the fault harness's batch,
    so profile and faultsim runs are comparable). The design is simulated
    as given; one too large to simulate is refused
    (:func:`~repro.faults.simulable_design`).
    ``sample_every`` attaches the high-resolution
    :class:`~repro.dataflow.trace.Tracer` backend (disables the event
    engine's bulk cycle-skipping; counters are unaffected).

    ``multi_plan`` profiles the *sharded* co-simulation of a
    :class:`~repro.core.multi_fpga.MultiFpgaPlan`: the link stages join
    the performance model's stage list, so the predicted interval, fill
    and bottleneck are the linked model's, and the link actors show up in
    the per-stage bottleneck attribution as ``link{d}``. The per-core II
    identity is untouched — cutting the pipeline never changes
    productive fire counts.
    """
    simulable_design(design)
    built = build_network(
        design,
        random_weights(design, seed=seed),
        seeded_batch(design, seed, images),
        loop_overhead=loop_overhead,
        multi_plan=multi_plan,
    )
    tracer = Tracer(sample_every) if sample_every else None
    result = built.run(tracer=tracer, scheduler=scheduler)
    perf = network_perf(
        design,
        loop_overhead=float(loop_overhead),
        links=multi_plan.link_perfs() if multi_plan is not None else (),
    )

    analysis = AnalysisReport(design_name=design.name)
    analysis.note_rule("PROFILE.II_MISMATCH")

    # -- per-core measured II vs Eq. 4 ----------------------------------
    cores: List[dict] = []
    for row in core_ii_rows(design, result.actor_stats, images):
        within = row["rel_err"] <= tolerance
        cores.append({**row, "within_tolerance": within})
        if not within:
            analysis.add(
                make(
                    "PROFILE.II_MISMATCH",
                    Severity.ERROR,
                    row["actor"],
                    f"measured II {row['measured_ii']:.3f} deviates from the "
                    f"Eq. 4 prediction {row['predicted_ii']:.3f} by "
                    f"{100.0 * row['rel_err']:.1f}% "
                    f"(> {100.0 * tolerance:.0f}%)",
                    hint=(
                        "the core is not sustaining one group per "
                        "cycle; check port widths, window stage "
                        "pacing, and queue_depth backpressure"
                    ),
                )
            )

    # -- steady-state throughput and latency ----------------------------
    completions = built.image_completion_cycles()
    latency: Dict[str, object] = {
        "fill_measured": completions[0],
        "fill_predicted": perf.fill_latency,
    }
    dma_last = max(
        (
            st["last_push_cycle"]
            for name, st in result.channel_stats.items()
            if _stage_of_actor(built.graph.channels[name].writer) == "dma_in"
        ),
        default=-1,
    )
    if dma_last >= 0:
        latency["drain_measured"] = result.cycles - dma_last
    throughput: Dict[str, object] = {}
    if len(completions) >= 2:
        measured_iv = completions[-1] - completions[-2]
        predicted_iv = perf.interval
        iv_err = abs(measured_iv - predicted_iv) / max(predicted_iv, 1)
        throughput = {
            "interval_measured": measured_iv,
            "interval_predicted": predicted_iv,
            "interval_rel_err": iv_err,
            "completion_cycles": completions,
        }
        if iv_err > INTERVAL_TOLERANCE:
            analysis.add(
                make(
                    "PROFILE.II_MISMATCH",
                    Severity.WARNING,
                    design.name,
                    f"steady-state pipeline interval {measured_iv} "
                    f"deviates from the perf-model prediction "
                    f"{predicted_iv} by {100.0 * iv_err:.1f}%",
                    hint=(
                        "per-core IIs agree but the pipeline-level "
                        "cadence does not; look at DMA pacing and "
                        "inter-layer buffer skew"
                    ),
                )
            )

    # -- bottleneck attribution -----------------------------------------
    busy_per_stage: Dict[str, int] = {}
    for actor, procs in result.actor_stats.items():
        stage = _stage_of_actor(actor)
        busy = max(p["fires"] for p in procs)
        if busy > busy_per_stage.get(stage, -1):
            busy_per_stage[stage] = busy
    bottleneck: Dict[str, object] = {}
    if busy_per_stage:
        measured_stage = max(busy_per_stage, key=lambda s: busy_per_stage[s])
        bottleneck = {
            "measured": measured_stage,
            "measured_busy_per_image": busy_per_stage[measured_stage] / images,
            "predicted": perf.bottleneck,
        }

    return ProfileReport(
        design_name=design.name,
        scheduler=result.scheduler_stats["scheduler"],
        images=images,
        seed=seed,
        cycles=result.cycles,
        tolerance=tolerance,
        cores=cores,
        throughput=throughput,
        latency=latency,
        bottleneck=bottleneck,
        utilization=counter_busy_fractions(result.actor_stats, result.cycles),
        channel_stats=result.channel_stats,
        actor_stats=result.actor_stats,
        scheduler_stats=result.scheduler_stats,
        analysis=analysis,
        tracer=tracer,
    )
