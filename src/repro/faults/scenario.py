"""Declarative fault scenarios: what to break, where, and how hard.

A :class:`FaultScenario` is a named, JSON-serialisable bundle of fault
specs. Specs are *declarative* — they name targets by fnmatch pattern and
carry distribution parameters; the runtime objects that actually perturb a
graph are created by :func:`repro.faults.injectors.arm_faults`, which
derives one deterministic RNG per (seed, target name) so results are
reproducible and independent of arming order.

The fault taxonomy follows what can go wrong on the paper's board without
changing the netlist:

* :class:`ChannelJitter` — a stream link randomly holds committed beats a
  few extra cycles (clock-domain crossings, AXI handshake bubbles);
* :class:`DmaThrottle` — the off-chip DMA periodically stalls for a burst
  of cycles (memory-controller arbitration, refresh);
* :class:`ActorSlowdown` — a computation core intermittently runs slow
  (e.g. a congested shared multiplier);
* :class:`FifoShrink` — a FIFO is provisioned below the sizing model's
  minimum (the design error the static verifier exists to catch);
* :class:`BeatCorruption` — a data beat is perturbed in flight (the one
  *value* fault, kept for detection tests: digests must flag it).

The first three are **timing-only**: by the Kahn-network argument (see
DESIGN.md section 10) they may shift cycles but can never change output
values. :meth:`FaultScenario.timing_only` is how the harness decides which
invariant a run must satisfy.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Tuple, Type

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ChannelJitter:
    """Randomly hold committed beats on matching channels.

    Each time a channel has staged beats to commit, with probability
    ``probability`` the commit is held for 1..``max_delay`` extra cycles.
    """

    channels: str = "*"
    probability: float = 0.3
    max_delay: int = 3

    kind = "jitter"

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"jitter probability must be in [0, 1], got {self.probability}"
            )
        if self.max_delay < 1:
            raise ConfigurationError(
                f"jitter max_delay must be >= 1, got {self.max_delay}"
            )


@dataclass(frozen=True)
class DmaThrottle:
    """Periodic burst stalls on matching channels (default: the DMA input).

    Every ``period``-th commit is held for ``burst`` cycles; the phase is
    drawn from the seeded RNG so different seeds hit different beats.
    """

    channels: str = "dma_in.*"
    period: int = 7
    burst: int = 5

    kind = "dma"

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ConfigurationError(
                f"throttle period must be >= 1, got {self.period}"
            )
        if self.burst < 1:
            raise ConfigurationError(
                f"throttle burst must be >= 1, got {self.burst}"
            )


@dataclass(frozen=True)
class ActorSlowdown:
    """Intermittent stall windows on matching actors.

    Windows are generated from the seeded RNG as a pure function of the
    actor name: a gap of 1..``2*mean_gap`` free cycles, then a stall of
    1..``max_stall`` cycles, repeated. During a stall window the actor's
    processes are simply not resumed (both schedulers defer identically).
    """

    actors: str = "*"
    mean_gap: int = 50
    max_stall: int = 8

    kind = "slowdown"

    def __post_init__(self) -> None:
        if self.mean_gap < 1:
            raise ConfigurationError(
                f"slowdown mean_gap must be >= 1, got {self.mean_gap}"
            )
        if self.max_stall < 1:
            raise ConfigurationError(
                f"slowdown max_stall must be >= 1, got {self.max_stall}"
            )


@dataclass(frozen=True)
class FifoShrink:
    """Re-provision matching bounded channels to ``capacity`` at arm time.

    ``channels="auto"`` lets the harness pick a provably-deadlocking
    target: the first literal filter-chain FIFO whose shrink to capacity
    1 the chain run-ahead recursion shows to jam (see
    ``repro.sst.sizing.capacity_one_jams``). This is the scenario that
    cross-validates the static verifier against the simulator.
    """

    channels: str = "auto"
    capacity: int = 0

    kind = "shrink"

    def __post_init__(self) -> None:
        if self.channels != "auto" and self.capacity < 1:
            raise ConfigurationError(
                f"shrink capacity must be >= 1, got {self.capacity}"
            )


@dataclass(frozen=True)
class BeatCorruption:
    """Perturb numeric beats in flight on matching channels.

    With probability ``probability`` per commit, one staged numeric beat
    gets ``magnitude * uniform(-1, 1)`` added. Non-numeric beats (window
    tuples, control tokens) are left alone. This is a *value* fault: the
    harness expects the output digest to change and reports how many
    beats were actually hit.
    """

    channels: str = "dma_in.*"
    probability: float = 0.05
    magnitude: float = 1.0

    kind = "corrupt"

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"corruption probability must be in [0, 1], "
                f"got {self.probability}"
            )


#: kind tag -> spec class, for JSON round-tripping.
FAULT_KINDS: Dict[str, Type] = {
    cls.kind: cls
    for cls in (ChannelJitter, DmaThrottle, ActorSlowdown, FifoShrink,
                BeatCorruption)
}

#: Fault kinds that can only shift cycles, never values (Kahn argument).
TIMING_ONLY_KINDS = ("jitter", "dma", "slowdown")


@dataclass(frozen=True)
class FaultScenario:
    """A named bundle of fault specs applied together to one run."""

    name: str
    faults: Tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for f in self.faults:
            if FAULT_KINDS.get(getattr(f, "kind", None)) is not type(f):
                raise ConfigurationError(
                    f"scenario {self.name!r}: unknown fault spec {f!r}"
                )

    def timing_only(self) -> bool:
        """True when every fault is provably value-preserving."""
        return all(f.kind in TIMING_ONLY_KINDS for f in self.faults)

    def has_kind(self, kind: str) -> bool:
        return any(f.kind == kind for f in self.faults)

    # -- JSON round-trip ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "faults": [dict(asdict(f), kind=f.kind) for f in self.faults],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: dict) -> "FaultScenario":
        if not isinstance(d, dict) or "name" not in d:
            raise ConfigurationError("scenario dict needs a 'name' key")
        faults = []
        for fd in d.get("faults", ()):
            fd = dict(fd)
            kind = fd.pop("kind", None)
            spec_cls = FAULT_KINDS.get(kind)
            if spec_cls is None:
                raise ConfigurationError(
                    f"scenario {d['name']!r}: unknown fault kind {kind!r}"
                )
            faults.append(spec_cls(**fd))
        return cls(name=str(d["name"]), faults=tuple(faults))

    @classmethod
    def from_json(cls, text: str) -> "FaultScenario":
        return cls.from_dict(json.loads(text))


def preset_scenarios() -> Dict[str, FaultScenario]:
    """The named scenarios the CLI and the CI campaign use."""
    return {
        "jitter": FaultScenario("jitter", (ChannelJitter(),)),
        "dma": FaultScenario("dma", (DmaThrottle(),)),
        # Chaos-mode preset for `repro loadtest --fault dma-throttle`:
        # period=1 pins the throttle phase (seed-independent timing) and
        # burst=16 overwhelms the capacity-4 batch-commit absorption, so
        # the degradation is visible on every design and exactly
        # predictable by repro.faults.analytical.
        "dma-throttle": FaultScenario(
            "dma-throttle", (DmaThrottle(period=1, burst=16),)
        ),
        "slowdown": FaultScenario("slowdown", (ActorSlowdown(),)),
        "storm": FaultScenario(
            "storm", (ChannelJitter(), DmaThrottle(), ActorSlowdown())
        ),
        "corrupt": FaultScenario("corrupt", (BeatCorruption(),)),
        "shrink": FaultScenario("shrink", (FifoShrink(),)),
    }


def load_scenario(arg: str) -> FaultScenario:
    """A preset name or a path to a scenario JSON file."""
    presets = preset_scenarios()
    if arg in presets:
        return presets[arg]
    try:
        with open(arg) as fh:
            return FaultScenario.from_json(fh.read())
    except FileNotFoundError:
        raise ConfigurationError(
            f"unknown scenario {arg!r}: not a preset ({sorted(presets)}) "
            f"and not a readable JSON file"
        ) from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{arg}: not valid JSON ({exc})") from None
