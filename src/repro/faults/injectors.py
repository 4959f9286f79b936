"""Runtime fault objects and the arming step that attaches them to a graph.

:func:`arm_faults` turns a declarative :class:`~repro.faults.scenario.
FaultScenario` into live injector objects wired into a built
:class:`~repro.dataflow.graph.DataflowGraph`:

* channel faults implement the ``on_commit(channel, staged) -> bool``
  hook that :meth:`Channel.begin_cycle` consults. ``staged`` lists the
  beats pushed since the last commit, oldest first (the uncommitted tail
  of the channel's queue, listed only for a channel with a fault);
  returning False holds them one more cycle, returning True commits them.
  Whatever the hook writes into the list (corruption) is written back to
  those beats;
* actor faults become an :class:`ActorStallPlan` the schedulers consult
  before resuming a process;
* FIFO shrinks mutate channel capacities in place, before simulation.

Determinism is the load-bearing property. Every injector draws from its
own ``random.Random`` keyed by ``(seed, target name)`` — not by arming
order, not by Python's randomised ``hash`` — and channel faults are only
consulted when a channel actually has staged beats. Both facts together
make the consult sequence (and therefore every RNG draw) identical under
the event and lock-step schedulers, which is what the scheduler-
equivalence-under-faults suite verifies.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from fnmatch import fnmatchcase
from random import Random
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dataflow.graph import DataflowGraph
from repro.errors import ConfigurationError
from repro.faults.scenario import (
    ActorSlowdown,
    BeatCorruption,
    ChannelJitter,
    DmaThrottle,
    FaultScenario,
    FifoShrink,
)


def target_rng(seed: int, name: str) -> Random:
    """Deterministic RNG for one (seed, target) pair.

    ``zlib.crc32`` keys on the target *name* so the stream is stable
    across processes and independent of the order targets are armed in
    (``hash(str)`` is randomised per interpreter and would not be).
    """
    return Random((seed * 0x9E3779B1 + zlib.crc32(name.encode())) & 0xFFFFFFFF)


# -- channel faults ----------------------------------------------------------


class JitterFault:
    """Hold each commit for a random 1..max_delay cycles with probability p.

    The hold length is drawn *once* per pending batch of staged beats
    (the ``_armed`` latch), then counted down across the held cycles, so
    the number of RNG draws equals the number of commit attempts — a
    scheduler-independent quantity.
    """

    __slots__ = ("rng", "probability", "max_delay", "_armed", "_hold", "holds")

    def __init__(self, rng: Random, probability: float, max_delay: int):
        self.rng = rng
        self.probability = probability
        self.max_delay = max_delay
        self._armed = False
        self._hold = 0
        #: Total extra cycles injected (for reports).
        self.holds = 0

    def on_commit(self, ch, staged) -> bool:
        if not self._armed:
            self._armed = True
            if self.rng.random() < self.probability:
                self._hold = self.rng.randint(1, self.max_delay)
            else:
                self._hold = 0
        if self._hold > 0:
            self._hold -= 1
            self.holds += 1
            return False
        self._armed = False
        return True


class ThrottleFault:
    """Stall every ``period``-th commit for ``burst`` cycles.

    The phase offset is drawn from the seeded RNG at construction so
    different seeds throttle different beats; after that the pattern is
    purely counter-driven.
    """

    __slots__ = ("period", "burst", "_count", "_armed", "_hold", "holds")

    def __init__(self, rng: Random, period: int, burst: int):
        self.period = period
        self.burst = burst
        self._count = rng.randrange(period)
        self._armed = False
        self._hold = 0
        self.holds = 0

    def on_commit(self, ch, staged) -> bool:
        if not self._armed:
            self._armed = True
            self._count += 1
            if self._count >= self.period:
                self._count = 0
                self._hold = self.burst
            else:
                self._hold = 0
        if self._hold > 0:
            self._hold -= 1
            self.holds += 1
            return False
        self._armed = False
        return True


class CorruptionFault:
    """Perturb one staged numeric beat with probability p per commit.

    Never holds the commit (timing is untouched); non-numeric beats
    (window tuples, control tokens) are skipped so the fault composes
    with any channel. ``hits`` counts actual mutations for the report.
    """

    __slots__ = ("rng", "probability", "magnitude", "hits")

    def __init__(self, rng: Random, probability: float, magnitude: float):
        self.rng = rng
        self.probability = probability
        self.magnitude = magnitude
        self.hits = 0

    def on_commit(self, ch, staged) -> bool:
        if self.rng.random() < self.probability:
            j = self.rng.randrange(len(staged))
            v = staged[j]
            if isinstance(v, (int, float, np.integer, np.floating)):
                staged[j] = v + self.magnitude * (2.0 * self.rng.random() - 1.0)
                self.hits += 1
        return True


class CompositeFault:
    """Several channel faults on one channel, consulted in order.

    The first fault that holds wins the cycle (later faults are not
    consulted until it releases) — a fixed discipline, so the consult
    sequence stays scheduler-independent.
    """

    __slots__ = ("faults",)

    def __init__(self, faults: List):
        self.faults = list(faults)

    def on_commit(self, ch, staged) -> bool:
        for f in self.faults:
            if not f.on_commit(ch, staged):
                return False
        return True


# -- actor faults ------------------------------------------------------------


class _StallWindows:
    """Lazily generated stall windows for one actor: a pure cycle function.

    Windows ``[start, end)`` alternate with free gaps, both drawn from the
    target RNG. Generation extends monotonically to cover any queried
    cycle, so the draw sequence depends only on the furthest cycle ever
    queried — identical whether a scheduler asks every cycle (lock-step)
    or only at resumption cycles (event).
    """

    __slots__ = ("rng", "mean_gap", "max_stall", "_starts", "_ends", "_horizon")

    def __init__(self, rng: Random, mean_gap: int, max_stall: int):
        self.rng = rng
        self.mean_gap = mean_gap
        self.max_stall = max_stall
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._horizon = 0

    def free_cycle(self, c: int) -> int:
        """First cycle >= ``c`` outside every stall window."""
        while self._horizon <= c:
            start = self._horizon + self.rng.randint(1, 2 * self.mean_gap)
            end = start + self.rng.randint(1, self.max_stall)
            self._starts.append(start)
            self._ends.append(end)
            self._horizon = end
        i = bisect_right(self._starts, c) - 1
        if i >= 0 and c < self._ends[i]:
            return self._ends[i]
        return c


class ActorStallPlan:
    """Per-actor stall windows; the schedulers' single query point.

    ``free_cycle(name, c)`` returns ``c`` for unfaulted actors (one dict
    miss — the only overhead a faulted run adds per resumption of a
    clean actor).
    """

    __slots__ = ("_targets",)

    def __init__(self):
        self._targets: Dict[str, _StallWindows] = {}

    def add(self, name: str, rng: Random, mean_gap: int, max_stall: int) -> None:
        self._targets[name] = _StallWindows(rng, mean_gap, max_stall)

    @property
    def actor_names(self) -> List[str]:
        return sorted(self._targets)

    def free_cycle(self, name: str, c: int) -> int:
        t = self._targets.get(name)
        return c if t is None else t.free_cycle(c)


# -- arming ------------------------------------------------------------------


class ArmedFaults:
    """A scenario wired into one graph: live injectors plus bookkeeping.

    Run it with ``BuiltNetwork.run(faults=armed)``, which sets the
    simulator's ``faults`` before the first cycle; engines read
    :attr:`actor_plan` at creation and the channel hooks are already
    installed on the channels themselves.
    """

    def __init__(self, scenario: FaultScenario, seed: int):
        self.scenario = scenario
        self.seed = seed
        #: channel name -> injector (JitterFault/ThrottleFault/... or
        #: CompositeFault when several specs matched).
        self.channel_faults: Dict[str, object] = {}
        #: None when the scenario has no ActorSlowdown.
        self.actor_plan: Optional[ActorStallPlan] = None
        #: channel name -> (original capacity, shrunk capacity).
        self.shrunk: Dict[str, Tuple[Optional[int], int]] = {}

    def describe(self) -> dict:
        """JSON-friendly summary of what got armed (for reports)."""
        return {
            "scenario": self.scenario.name,
            "seed": self.seed,
            "channels_faulted": sorted(self.channel_faults),
            "actors_stalled": (
                self.actor_plan.actor_names if self.actor_plan else []
            ),
            "fifos_shrunk": {
                name: {"from": old, "to": new}
                for name, (old, new) in sorted(self.shrunk.items())
            },
        }

    def corruption_hits(self) -> int:
        """Beats actually mutated by corruption faults, post-run."""
        total = 0
        for fault in self.channel_faults.values():
            faults = fault.faults if isinstance(fault, CompositeFault) else [fault]
            for f in faults:
                if isinstance(f, CorruptionFault):
                    total += f.hits
        return total

    def hold_cycles(self) -> int:
        """Total extra cycles channel faults injected, post-run."""
        total = 0
        for fault in self.channel_faults.values():
            faults = fault.faults if isinstance(fault, CompositeFault) else [fault]
            for f in faults:
                total += getattr(f, "holds", 0)
        return total


def _matching_channels(graph: DataflowGraph, pattern: str) -> List[str]:
    return sorted(n for n in graph.channels if fnmatchcase(n, pattern))


def arm_faults(
    graph: DataflowGraph, scenario: FaultScenario, seed: int
) -> ArmedFaults:
    """Instantiate ``scenario`` on ``graph`` and install every hook.

    Raises :class:`~repro.errors.ConfigurationError` when a fault spec
    matches nothing (a silently inert scenario would make every
    invariant vacuously true) or when a shrink targets a channel that
    already holds data.
    """
    armed = ArmedFaults(scenario, seed)
    per_channel: Dict[str, List] = {}
    for spec in scenario.faults:
        if isinstance(spec, (ChannelJitter, DmaThrottle, BeatCorruption)):
            names = _matching_channels(graph, spec.channels)
            if not names:
                raise ConfigurationError(
                    f"scenario {scenario.name!r}: {spec.kind} pattern "
                    f"{spec.channels!r} matches no channel"
                )
            for name in names:
                rng = target_rng(seed, f"{spec.kind}:{name}")
                if isinstance(spec, ChannelJitter):
                    fault = JitterFault(rng, spec.probability, spec.max_delay)
                elif isinstance(spec, DmaThrottle):
                    fault = ThrottleFault(rng, spec.period, spec.burst)
                else:
                    fault = CorruptionFault(rng, spec.probability, spec.magnitude)
                per_channel.setdefault(name, []).append(fault)
        elif isinstance(spec, ActorSlowdown):
            names = sorted(
                n for n in graph.actors if fnmatchcase(n, spec.actors)
            )
            if not names:
                raise ConfigurationError(
                    f"scenario {scenario.name!r}: slowdown pattern "
                    f"{spec.actors!r} matches no actor"
                )
            if armed.actor_plan is None:
                armed.actor_plan = ActorStallPlan()
            for name in names:
                armed.actor_plan.add(
                    name,
                    target_rng(seed, f"slowdown:{name}"),
                    spec.mean_gap,
                    spec.max_stall,
                )
        elif isinstance(spec, FifoShrink):
            if spec.channels == "auto":
                raise ConfigurationError(
                    f"scenario {scenario.name!r}: 'auto' shrink targets must "
                    f"be resolved first (repro.faults.harness.resolve_shrink)"
                )
            names = _matching_channels(graph, spec.channels)
            if not names:
                raise ConfigurationError(
                    f"scenario {scenario.name!r}: shrink pattern "
                    f"{spec.channels!r} matches no channel"
                )
            for name in names:
                ch = graph.channels[name]
                if len(ch):
                    raise ConfigurationError(
                        f"cannot shrink channel {name!r}: it already holds "
                        f"{len(ch)} value(s) (arm before simulating)"
                    )
                armed.shrunk[name] = (ch.capacity, spec.capacity)
                ch.capacity = spec.capacity
        else:  # pragma: no cover - FaultScenario validates kinds
            raise ConfigurationError(f"unknown fault spec {spec!r}")
    for name, faults in per_channel.items():
        fault = faults[0] if len(faults) == 1 else CompositeFault(faults)
        armed.channel_faults[name] = fault
        graph.channels[name]._fault = fault
    return armed


def disarm_faults(graph: DataflowGraph, armed: ArmedFaults) -> None:
    """Detach channel hooks and restore shrunk capacities (for reuse)."""
    for name in armed.channel_faults:
        graph.channels[name]._fault = None
    for name, (old, _new) in armed.shrunk.items():
        graph.channels[name].capacity = old
