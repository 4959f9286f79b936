"""The compiled steady-state engine.

The second user engine, next to the interpreted ``"event"`` engine and
its ``"lockstep"`` test oracle (:mod:`repro.dataflow.scheduler`):
instead of interpreting actor processes cycle by cycle, it compiles a
*verified* design graph down to a handful of fused kernels (numpy, and
small C passes for the conv, FC and max-pool cores) and executes whole
streams at once.

Two passes keep the refusal contract clean:

* **compile** (at engine construction): the strict-only gate — a
  :class:`~repro.core.network_design.NetworkDesign` must be attached to
  the graph, no tracer may be installed, the static verifier
  (:func:`repro.analysis.analyze_design`) must pass — followed by
  :func:`~repro.analysis.steady_state.extract_schedule`, which solves
  rates, closed-form fires, and the analytic timing frame. Everything
  that can refuse, refuses here — a host that cannot build or load the
  cores' C object (:mod:`repro.compiled.native`) included — before
  any actor or channel state is touched, so a refused graph raises
  :class:`~repro.errors.CompilationError` to the caller with nothing
  run; the interpreted run of it is a new build asked for ``"event"``.
* **execute** (at :meth:`run`): the fused kernels
  (:mod:`repro.compiled.kernels`) stream every channel's full beat
  sequence through the pipeline in topological order; only then are the
  sink and channel statistics mutated.

The equivalence contract with the interpreted engines covers values
(sink stream, hence output digests), per-process ``fires`` (hence
measured II and bottleneck attribution), and channel beat totals. Cycle
timing is *modeled* (the perf-model steady state: completions at
``fill + i * interval``) rather than measured — by construction it
matches the prediction the profiler checks measurements against.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis import analyze_design
from repro.analysis.steady_state import (
    SteadySchedule,
    extract_schedule,
    port_maps,
)
from repro.compiled import native
from repro.compiled.kernels import run_kernels
from repro.compiled.plan_cache import (
    GLOBAL_PLAN_CACHE,
    CompiledPlan,
    _structure_crc,
    design_digest,
    plan_key,
)
from repro.core.compute_core import ConvCoreActor
from repro.core.fc_core import FCCoreActor
from repro.dataflow.actors import ArraySource, ListSink
from repro.errors import CompilationError, SimulationError
from repro.profiling.synthesis import (
    synthesize_actor_stats,
    synthesize_channel_stats,
)


class CompiledEngine:
    """Steady-state execution of one verified design graph.

    Satisfies the engine protocol of
    :class:`~repro.dataflow.simulator.Simulator` (the constructor plus
    ``run``, ``actor_stats``, ``scheduler_stats``). The run is a single
    fused pass to completion. Armed faults are rejected with
    :class:`~repro.errors.ConfigurationError` by the factory in
    :mod:`repro.dataflow.simulator`, before this class is reached. Its
    end of life is empty: a compiled run starts no process and hooks no
    channel or gate.
    """

    name = "compiled"

    def __init__(self, sim):
        # What the engine reads of the simulator, copied: the simulator
        # owns the engine, never the other way round.
        self._actors = sim.actors
        self._channels = sim.channels

        if sim.tracer is not None:
            raise CompilationError(
                "a tracer is attached; tracing samples interpreted "
                "execution and cannot observe a compiled run"
            )
        design = sim.design
        if design is None:
            raise CompilationError(
                "the graph carries no NetworkDesign (hand-built graphs "
                "cannot be compiled; build via repro.core.builder)"
            )
        self.design = design
        sources = [a for a in sim.actors if type(a) is ArraySource]
        plan = self._lower(sim, design, sources)
        self.schedule: SteadySchedule = plan.schedule
        self._in_ports, self._out_ports = plan.in_ports, plan.out_ports
        sinks = [a for a in sim.actors if type(a) is ListSink]
        self._source, self._sink = sources[0], sinks[0]

    @staticmethod
    def _lower(sim, design, sources) -> CompiledPlan:
        """Verify and lower ``design``, through the per-process plan cache.

        The solved plan is cached per (digest, stream geometry, graph
        structure) — see :mod:`repro.compiled.plan_cache`. A plan miss
        runs the static verifier first; a design that fails it raises the
        same :class:`CompilationError` on every attempt.
        """
        first = design.placements[0].spec
        if first.kind == "pool":
            # Values would be right and the interval too, but a compiled
            # run's cycles are core/perf_model.py's, and its fill recursion
            # runs 16-31 % long on pool-first designs (1x8x8 -> pool 2x2/s2
            # -> fc 16->4: first completion at 147, 127 on the event
            # engine; DESIGN.md section 12 has the cause).
            raise CompilationError(
                f"design {design.name!r} starts with pool layer "
                f"{first.name!r}; the compiled engine's fill-latency model "
                f"is not exact for a leading pool stage"
            )
        if any(type(a) in (ConvCoreActor, FCCoreActor) for a in sim.actors):
            native.cores()  # built once per cache, loaded once per process
        overhead = max(
            (a.coord_overhead for a in sim.actors
             if type(a) is ConvCoreActor),
            default=0,
        )
        multi_plan = sim.multi_plan
        key = plan_key(
            design_digest(design),
            sources[0].n_values if sources else -1,
            sources[0].interval if sources else -1,
            int(overhead),
            _structure_crc(sim.actors, sim.channels),
            multi_plan.link.beat_interval() if multi_plan is not None else 0,
        )
        plan = GLOBAL_PLAN_CACHE.get_plan(key)
        if plan is None:
            report = analyze_design(design)
            if not report.ok:
                raise CompilationError(
                    f"design {design.name!r} fails static verification "
                    f"(error rule(s) [{', '.join(report.error_rules())}]); "
                    f"only designs that pass `repro check` compile"
                )
            schedule = extract_schedule(
                sim.actors, sim.channels, design, multi_plan=multi_plan
            )
            in_ports, out_ports = port_maps(sim.actors, sim.channels)
            plan = CompiledPlan(schedule, in_ports, out_ports)
            GLOBAL_PLAN_CACHE.put_plan(key, plan)
        return plan

    # -- engine protocol ---------------------------------------------------

    def run(self, max_cycles: int) -> int:
        sched = self.schedule
        if sched.cycles > max_cycles:
            raise SimulationError(
                f"compiled run of {self.design.name!r} spans "
                f"{sched.cycles} modeled cycles, exceeding "
                f"max_cycles={max_cycles}"
            )
        run_kernels(self._actors, self._in_ports, self._out_ports, sched.order)
        # Modeled output timing: each image's last beat lands at its
        # perf-model completion cycle, earlier beats back-to-back.
        # interval >= per-image output beats, so images never overlap.
        ts = self._sink.timestamps
        for done in sched.completions:
            ts.extend(range(done - sched.per_image_out + 1, done + 1))
        synthesize_channel_stats(sched, self._channels, self._source.name)
        return sched.cycles

    def actor_stats(self) -> Dict[str, list]:
        return synthesize_actor_stats(self.schedule)

    def scheduler_stats(self) -> Dict[str, object]:
        return {
            "scheduler": "compiled",
            "executed_cycles": 0,
            "skipped_cycles": self.schedule.cycles,
            "parks": 0,
            "wakeups": 0,
        }
