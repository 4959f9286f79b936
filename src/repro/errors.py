"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by this library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to discriminate the failure domain (simulation, configuration,
resource fitting, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An object was constructed with inconsistent or invalid parameters."""


class ShapeError(ConfigurationError):
    """Tensor/layer shapes do not line up."""


class PortMismatchError(ConfigurationError):
    """Adjacent layers expose port counts that cannot be adapted."""


class GraphError(ReproError):
    """A dataflow graph is structurally invalid (dangling port, double bind...)."""


class SimulationError(ReproError):
    """The cycle-level simulator failed to make progress or hit a limit."""


class DeadlockError(SimulationError):
    """No actor made progress for the configured number of cycles.

    Attributes
    ----------
    cycle:
        Cycle at which the deadlock was declared.
    blocked:
        Mapping of ``actor_name -> text`` for every live non-daemon actor:
        what each of its processes was waiting on when the deadlock was
        detected, rendered from the wait descriptor it last yielded
        (``pop:<channel>, push:<channel>``, ``gate``, ``timer(n)``; one
        part per process, joined by ``" | "``).
    channels:
        Mapping of ``actor_name -> ["pop:<channel>", "push:<channel>", ...]``
        naming the exact channel conditions each parked actor (daemon
        adapters included) is blocked on. Both engines fill it from the
        same descriptors, so a verdict that a deadlock lands on a given
        channel can be checked on either.
    """

    def __init__(self, cycle: int, blocked: dict, channels: dict | None = None):
        self.cycle = int(cycle)
        self.blocked = dict(blocked)
        self.channels = {k: list(v) for k, v in (channels or {}).items()}
        detail = "; ".join(f"{k}: {v}" for k, v in sorted(self.blocked.items()))
        super().__init__(f"deadlock at cycle {self.cycle} ({detail or 'no live actors'})")

    def blocked_channel_names(self) -> list:
        """Sorted unique channel names appearing in :attr:`channels`."""
        names = {
            cond.split(":", 1)[1]
            for conds in self.channels.values()
            for cond in conds
        }
        return sorted(names)


class ChannelProtocolError(SimulationError):
    """A channel was used outside its single-reader/single-writer contract."""


class CompilationError(ReproError):
    """A graph cannot be lowered to the compiled steady-state engine.

    Raised by :mod:`repro.compiled` when the strict-only gate fails (no
    design attached, static verification errors, a tracer attached, a
    leading pool), when the lowering meets an actor type or stream rate
    it cannot express as a fused kernel, or when the host cannot build or
    load the cores' C object. It reaches the caller of
    ``scheduler="compiled"`` unchanged: nothing is run in its place.
    """


class ResourceError(ReproError):
    """A design does not fit the targeted device."""


class DatasetError(ReproError):
    """A synthetic dataset was requested with invalid parameters."""


class TrainingError(ReproError):
    """Training diverged or was configured inconsistently."""
