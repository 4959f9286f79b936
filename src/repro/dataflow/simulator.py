"""Cycle-level simulator driving actors and channels.

The simulator advances a set of :class:`~repro.dataflow.actor.Actor`
processes in clock cycles under a two-phase protocol:

1. channels touched in the previous cycle commit their staged pushes and
   snapshot occupancy (:meth:`Channel.begin_cycle`, which the event engine
   inlines for a channel without a fault hook);
2. each runnable process is resumed once, in creation order; it performs at
   most one beat per port and then yields.

Because channel firing rules are answered against the cycle-start snapshot,
the result (both values *and* timing) is independent of the order in which
processes are resumed within a cycle.

Two interchangeable engines implement this contract (see
:mod:`repro.dataflow.scheduler`): the default ``"event"`` scheduler parks
blocked processes on channel wait-lists and a wakeup heap and skips cycles
in which nothing can run, while the ``"lockstep"`` scheduler is the simple
reference loop that resumes everything every cycle. They produce identical
results; the event engine is asymptotically faster on stalling workloads
and reports deadlocks immediately (no runnable process, no pending wakeup,
no channel activity) instead of after ``stall_limit`` idle cycles.
``"lockstep"`` is the test and ledger oracle: :data:`SCHEDULERS` keeps it,
the user-facing surfaces offer :data:`USER_SCHEDULERS` only.

A simulation runs once: :meth:`Simulator.run` creates the engine and runs
it to completion, or raises on a deadlock or at ``max_cycles``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional, Sequence

from repro.dataflow.actor import Actor
from repro.dataflow.channel import Channel
from repro.dataflow.scheduler import EventEngine, LockstepEngine
from repro.errors import ConfigurationError, SimulationError
from repro.report.base import Report


def _compiled_engine(sim):
    """Factory for the ``"compiled"`` engine.

    Imported lazily: :mod:`repro.compiled` depends on the builder and
    analyzer stacks, which in turn import this module. Armed faults are
    rejected outright (faults perturb interpreted execution, which a
    compiled run never performs); every other reason the graph cannot be
    lowered is the engine constructor's
    :class:`~repro.errors.CompilationError`, raised to the caller.
    """
    from repro.compiled import CompiledEngine

    if sim.faults is not None:
        raise ConfigurationError(
            "faults require an interpreted engine (use 'event'); "
            "the compiled engine executes fused kernels and cannot apply "
            "fault plans"
        )
    return CompiledEngine(sim)


#: Engine name -> engine factory (see :mod:`repro.dataflow.scheduler` for
#: the interpreted engines, :mod:`repro.compiled` for the compiled one).
SCHEDULERS = {
    "event": EventEngine,
    "lockstep": LockstepEngine,
    "compiled": _compiled_engine,
}

#: The engines a user-facing surface (CLI choices, ``run_shard``) offers.
USER_SCHEDULERS = ("event", "compiled")


@dataclass
class SimulationResult(Report):
    """Outcome of a simulation run.

    ``actor_stats`` maps actor name to one counter dict per process (see
    :class:`~repro.dataflow.counters.ProcCounters`): fires, per-kind
    stall cycles, lifetime. ``scheduler_stats`` carries engine-specific
    scheduling metrics (parks, wakeups, executed vs skipped cycles) and
    is *not* part of the cross-engine equivalence contract.
    """

    kind: ClassVar[str] = "simulation"

    cycles: int = 0
    channel_stats: Dict[str, dict] = field(default_factory=dict)
    actor_stats: Dict[str, list] = field(default_factory=dict)
    scheduler_stats: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "channel_stats": self.channel_stats,
            "actor_stats": self.actor_stats,
            "scheduler_stats": self.scheduler_stats,
        }

    def summary(self) -> str:
        return str(self)

    def __str__(self) -> str:
        return f"SimulationResult({self.cycles} cycles)"


class Simulator:
    """Drives a set of actors and channels cycle by cycle.

    Parameters
    ----------
    actors:
        The actors to simulate. Their ports must already be bound.
    channels:
        All channels in the graph. Channels bound to the actors but missing
        from this list would silently never commit pushes, so the simulator
        cross-checks and raises if it finds an unregistered channel.
    stall_limit:
        Number of consecutive cycles without any channel activity after
        which a deadlock is declared (default 10_000). The event scheduler
        usually detects deadlock exactly and immediately; this limit
        remains the bound for legacy actors that poll with bare ``yield``.
    scheduler:
        ``"event"`` (default) or its reference loop ``"lockstep"``; both
        give bit-identical results (cycles, outputs, channel stats) on
        well-formed graphs.
        ``"compiled"`` lowers verified design graphs to fused vectorized
        kernels (see :mod:`repro.compiled`) — bit-identical outputs and
        fires, modeled timing — or raises
        :class:`~repro.errors.CompilationError` when the graph cannot be
        lowered; the interpreted run is a new build asked for ``"event"``.
    design:
        The :class:`~repro.core.network_design.NetworkDesign` this graph
        was elaborated from, when built via :mod:`repro.core.builder`;
        ``None`` for hand-built graphs. Required by the compiled engine's
        strict-only gate.
    """

    def __init__(
        self,
        actors: Sequence[Actor],
        channels: Sequence[Channel],
        stall_limit: int = 10_000,
        tracer=None,
        scheduler: str = "event",
        design=None,
        multi_plan=None,
    ):
        self.actors = list(actors)
        self.channels = list(channels)
        self.stall_limit = int(stall_limit)
        #: Optional :class:`~repro.dataflow.trace.Tracer` sampling activity.
        self.tracer = tracer
        if scheduler not in SCHEDULERS:
            raise ConfigurationError(
                f"unknown scheduler {scheduler!r}; "
                f"expected one of {sorted(SCHEDULERS)}"
            )
        self.scheduler = scheduler
        #: Design provenance for the compiled engine (None if hand-built).
        self.design = design
        #: Multi-FPGA shard provenance (None for single-device graphs);
        #: the compiled engine folds its link stages into the timing frame.
        self.multi_plan = multi_plan
        #: Optional :class:`repro.faults.ArmedFaults`. Set (by
        #: ``BuiltNetwork.run(faults=...)``) *before* ``run``; the engine
        #: reads it once at creation. None on the no-fault hot path.
        self.faults: Optional[Any] = None
        self._ran = False
        self._validate()

    def _validate(self) -> None:
        names = set()
        for a in self.actors:
            if a.name in names:
                raise SimulationError(f"duplicate actor name {a.name!r}")
            names.add(a.name)
        registered = set(id(c) for c in self.channels)
        for a in self.actors:
            for port in a.input_ports:
                ch = a.input(port)
                if id(ch) not in registered:
                    raise SimulationError(
                        f"channel {ch.name!r} (input of {a.name!r}) not "
                        f"registered with the simulator"
                    )
            for port in a.output_ports:
                ch = a.output(port)
                if id(ch) not in registered:
                    raise SimulationError(
                        f"channel {ch.name!r} (output of {a.name!r}) not "
                        f"registered with the simulator"
                    )

    # -- running -----------------------------------------------------------

    def run(self, max_cycles: int = 10_000_000) -> SimulationResult:
        """Run once to completion.

        Completion means every process of every *non-daemon* actor has
        finished; free-running daemon actors (routing stages, adapters) do
        not keep the simulation alive. A run that cannot complete raises:
        :class:`~repro.errors.DeadlockError` when no process can make
        progress, :class:`~repro.errors.SimulationError` past
        ``max_cycles``.

        A simulator runs once; a second call raises
        :class:`~repro.errors.SimulationError`. The engine is created here
        (starting every actor process) and copies what it reads of this
        simulator (actors, channels, stall limit, tracer, faults, design
        provenance), keeping no reference to it. Whether the run finished
        or raised, the engine's end-of-life step
        (:func:`repro.dataflow.scheduler._end_of_life`) has dropped what it
        hung on channels and gates before this returns, so the whole run is
        freed when its last owner lets go of it.
        """
        if self._ran:
            raise SimulationError(
                "this simulator has already run; build a new one to run "
                "the graph again"
            )
        self._ran = True
        engine = SCHEDULERS[self.scheduler](self)
        return SimulationResult(
            cycles=engine.run(int(max_cycles)),
            channel_stats={ch.name: ch.stats.as_dict() for ch in self.channels},
            actor_stats=engine.actor_stats(),
            scheduler_stats=engine.scheduler_stats(),
        )
