"""Bounded FIFO channels with cycle-accurate, order-independent semantics.

A :class:`Channel` models a hardware FIFO (the paper's layers communicate via
AXI4-Stream links backed by FIFOs). The key property the simulator needs is
*order independence*: within one simulated cycle, the outcome must not depend
on the order in which actors are resumed. This is achieved with a two-phase
protocol:

* values pushed during cycle *t* are staged and only become visible to the
  reader at cycle *t + 1* (like a registered FIFO);
* ``can_pop``/``can_push`` are answered against the occupancy snapshot taken
  at the start of the cycle, so a pop freeing space mid-cycle never unblocks
  a writer within the same cycle.

Every beat lives in one deque: the committed beats at its left end, the
staged ones at its right end, and a count of the staged tail. A push
appends, a pop takes from the left (the snapshot guarantees a committed
beat is there), and a commit only zeroes the count, so no beat is ever
copied between containers.

Channels are strictly single-writer / single-reader; the graph builder binds
each endpoint exactly once and the channel itself enforces at most one push
and one pop per cycle (one beat per port per cycle, as on real stream links).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, List, Optional, Tuple

from repro.dataflow.events import CHARGE_EACH, POP, PUSH, ChannelWait
from repro.errors import ChannelProtocolError, ConfigurationError, GraphError


@dataclass(slots=True)
class ChannelStats:
    """Lifetime statistics of a channel, used for utilisation reports.

    The first/last beat stamps (``-1`` when no beat of that kind ever
    happened) give each link's activity span: the profiler derives
    pipeline fill/drain latency and per-layer activity windows from them
    without sampling every cycle.
    """

    total_pushed: int = 0
    total_popped: int = 0
    high_water: int = 0
    full_stall_cycles: int = 0
    empty_stall_cycles: int = 0
    first_push_cycle: int = -1
    last_push_cycle: int = -1
    first_pop_cycle: int = -1
    last_pop_cycle: int = -1

    def as_dict(self) -> dict:
        """Return the statistics as a plain dictionary."""
        return {
            "total_pushed": self.total_pushed,
            "total_popped": self.total_popped,
            "high_water": self.high_water,
            "full_stall_cycles": self.full_stall_cycles,
            "empty_stall_cycles": self.empty_stall_cycles,
            "first_push_cycle": self.first_push_cycle,
            "last_push_cycle": self.last_push_cycle,
            "first_pop_cycle": self.first_pop_cycle,
            "last_pop_cycle": self.last_pop_cycle,
        }


class Clock:
    """The cycle being executed, as one writable cell.

    The engine that drives a channel owns the cell and writes ``cycle``
    once per executed cycle; ``push`` / ``pop`` stamp first/last beats off
    it with two attribute loads and no callback. A channel points at the
    cell, never at the engine.
    """

    __slots__ = ("cycle",)

    def __init__(self) -> None:
        self.cycle = 0


#: Stand-in for channels used outside an engine (cycle 0, never written).
_NULL_CLOCK = Clock()


class Channel:
    """A bounded FIFO stream link between exactly one writer and one reader.

    Parameters
    ----------
    name:
        Human-readable identifier, used in traces and deadlock reports.
    capacity:
        Maximum number of in-flight values. ``None`` means unbounded.
    """

    __slots__ = (
        "name",
        "capacity",
        "_q",
        "_n_staged",
        "_occ_at_cycle_start",
        "_pushed_this_cycle",
        "_popped_this_cycle",
        "stats",
        "writer",
        "reader",
        "_touched",
        "_pop_waiters",
        "_push_waiters",
        "_pop_wait_desc",
        "_push_wait_desc",
        "_fault",
        "_clock",
        "__weakref__",
    )

    def __init__(self, name: str, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ConfigurationError(
                f"channel {name!r}: capacity must be >= 1 or None, got {capacity}"
            )
        self.name = str(name)
        self.capacity = capacity
        # Every beat, oldest first; the last `_n_staged` of them were pushed
        # since the last commit and are not yet visible to the reader.
        self._q: Deque[Any] = deque()
        self._n_staged = 0
        # Committed occupancy as the cycle began: what can_pop / can_push
        # answer against for the whole cycle.
        self._occ_at_cycle_start = 0
        self._pushed_this_cycle = 0
        self._popped_this_cycle = 0
        self.stats = ChannelStats()
        self.writer: Optional[str] = None
        self.reader: Optional[str] = None
        # Engine hooks, set by `attach` and dropped by `detach`. `_touched`
        # aliases the event scheduler's active-channel set: every staged
        # push / pop adds this channel so only touched channels get a
        # begin_cycle() next cycle. The waiter lists hold parked
        # (record, cond-index) pairs. None/empty under lock-step.
        self._touched: Optional[set] = None
        self._pop_waiters: List[tuple] = []
        self._push_waiters: List[tuple] = []
        self._pop_wait_desc: Optional[ChannelWait] = None
        self._push_wait_desc: Optional[ChannelWait] = None
        # Fault-injection hook (repro.faults). When set, begin_cycle()
        # consults it before committing the staged tail: the fault may hold
        # the commit for extra cycles (latency jitter, DMA burst stalls)
        # or edit the staged beats (corruption). None on the no-fault hot
        # path, where the event engine commits the channel inline.
        self._fault: Optional[object] = None
        # The driving engine's clock cell; the null clock reads cycle 0
        # for channels exercised outside a simulation (unit tests).
        self._clock = _NULL_CLOCK

    # -- binding ---------------------------------------------------------

    def bind_writer(self, actor_name: str) -> None:
        """Register ``actor_name`` as the unique writer of this channel."""
        if self.writer is not None:
            raise ChannelProtocolError(
                f"channel {self.name!r} already written by {self.writer!r}; "
                f"cannot also bind {actor_name!r}"
            )
        self.writer = actor_name

    def bind_reader(self, actor_name: str) -> None:
        """Register ``actor_name`` as the unique reader of this channel."""
        if self.reader is not None:
            raise ChannelProtocolError(
                f"channel {self.name!r} already read by {self.reader!r}; "
                f"cannot also bind {actor_name!r}"
            )
        self.reader = actor_name

    # -- engine hooks -----------------------------------------------------

    def attach(self, clock: Clock, touched: Optional[set] = None) -> None:
        """Hook this channel to the engine about to drive it.

        ``clock`` is the engine's cycle cell, ``touched`` the event
        scheduler's active-channel set (``None``: every channel gets a
        ``begin_cycle()`` every cycle). Whatever a previous engine on the
        same graph left parked here is dropped.
        """
        self._clock = clock
        self._touched = touched
        self._pop_waiters = []
        self._push_waiters = []

    def detach(self) -> None:
        """Drop the active set, the parked records and the cached descriptors.

        Each of them closes a reference cycle through this channel (the
        active set holds the channels it is aliased by, a parked record
        holds the process whose actor holds the channel, a cached
        descriptor names the channel that caches it), so a run that is
        over lets go of them all. The clock cell points nowhere and stays,
        like the statistics.
        """
        self._touched = None
        self._pop_waiters = []
        self._push_waiters = []
        self._pop_wait_desc = None
        self._push_wait_desc = None

    # -- cycle protocol ---------------------------------------------------

    def begin_cycle(self) -> None:
        """Commit staged pushes and snapshot occupancy for the new cycle.

        With a fault attached, the commit is gated by the fault's
        ``on_commit(channel, staged)`` hook, ``staged`` being a list of
        the staged beats, oldest first: returning False holds them for
        this cycle (the channel re-registers as touched so the event
        scheduler keeps polling it); returning True commits them. Edits
        the hook makes to the list (corruption faults) are written back
        to the beats either way.

        The event engine commits a fault-free channel inline instead
        (:meth:`~repro.dataflow.scheduler.EventEngine.run`); the two
        statements of the commit must stay the same.
        """
        n = self._n_staged
        if n:
            fault = self._fault
            if fault is None:
                self._n_staged = n = 0
            else:
                q = self._q
                base = len(q) - n
                staged = [q[base + i] for i in range(n)]
                commit = fault.on_commit(self, staged)
                for i, v in enumerate(staged):
                    q[base + i] = v
                if commit:
                    self._n_staged = n = 0
                elif self._touched is not None:
                    self._touched.add(self)
        occ = len(self._q) - n
        self._occ_at_cycle_start = occ
        stats = self.stats
        if occ > stats.high_water:
            stats.high_water = occ
        self._pushed_this_cycle = 0
        self._popped_this_cycle = 0

    # -- reader/writer API -------------------------------------------------
    # push/pop repeat the can_push/can_pop conditions inline: they run once
    # per simulated beat and the extra method call is measurable.

    def can_push(self) -> bool:
        """Whether the writer may push a value this cycle."""
        if self._pushed_this_cycle:
            return False
        if self.capacity is None:
            return True
        return self._occ_at_cycle_start + self._n_staged < self.capacity

    def can_pop(self) -> bool:
        """Whether the reader may pop a value this cycle."""
        return not self._popped_this_cycle and self._occ_at_cycle_start > 0

    def push(self, value: Any) -> None:
        """Stage ``value``; it becomes visible to the reader next cycle."""
        cap = self.capacity
        if self._pushed_this_cycle or (
            cap is not None
            and self._occ_at_cycle_start + self._n_staged >= cap
        ):
            raise ChannelProtocolError(
                f"push on channel {self.name!r} without can_push() "
                f"(occupancy {self._occ_at_cycle_start}, capacity {cap})"
            )
        self._q.append(value)
        self._n_staged += 1
        self._pushed_this_cycle = 1
        stats = self.stats
        stats.total_pushed += 1
        c = self._clock.cycle
        if stats.first_push_cycle < 0:
            stats.first_push_cycle = c
        stats.last_push_cycle = c
        touched = self._touched
        if touched is not None:
            touched.add(self)

    def pop(self) -> Any:
        """Remove and return the oldest visible value."""
        if self._popped_this_cycle or not self._occ_at_cycle_start:
            raise ChannelProtocolError(
                f"pop on channel {self.name!r} without can_pop() "
                f"(visible occupancy {self._occ_at_cycle_start})"
            )
        self._popped_this_cycle = 1
        stats = self.stats
        stats.total_popped += 1
        c = self._clock.cycle
        if stats.first_pop_cycle < 0:
            stats.first_pop_cycle = c
        stats.last_pop_cycle = c
        touched = self._touched
        if touched is not None:
            touched.add(self)
        return self._q.popleft()

    def peek(self) -> Any:
        """Return the oldest visible value without removing it."""
        if not self.can_pop():
            raise ChannelProtocolError(f"peek on empty channel {self.name!r}")
        return self._q[0]

    # -- event-scheduler descriptors ---------------------------------------

    def pop_wait(self) -> ChannelWait:
        """Cached single-condition wait-for-pop descriptor.

        Charges an empty stall per blocked cycle (``CHARGE_EACH``). Loops
        that record no stalls must build their own ``CHARGE_NONE``
        descriptor.
        """
        w = self._pop_wait_desc
        if w is None:
            w = self._pop_wait_desc = ChannelWait(((POP, self),), CHARGE_EACH)
        return w

    def push_wait(self) -> ChannelWait:
        """Cached single-condition wait-for-push descriptor (full stalls)."""
        w = self._push_wait_desc
        if w is None:
            w = self._push_wait_desc = ChannelWait(((PUSH, self),), CHARGE_EACH)
        return w

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        """Committed + staged occupancy (for debugging, not firing rules)."""
        return len(self._q)

    @property
    def occupancy(self) -> int:
        """Number of committed, visible values."""
        return len(self._q) - self._n_staged

    @property
    def ends(self) -> Tuple[Tuple[str, str], Tuple[str, str]]:
        """``((writer actor, port), (reader actor, port))`` of a bound channel.

        Endpoints are bound as ``"actor.port"`` and actor names themselves
        contain dots (``conv1.win0.f2``), so the port is the last component.
        """
        if self.writer is None or self.reader is None:
            raise GraphError(f"channel {self.name!r} has an unbound endpoint")
        w_actor, w_port = self.writer.rsplit(".", 1)
        r_actor, r_port = self.reader.rsplit(".", 1)
        return (w_actor, w_port), (r_actor, r_port)

    def drain(self) -> List[Any]:
        """Remove and return every value (committed and staged), untimed.

        Only intended for post-simulation inspection; never call this
        from an actor process.
        """
        out = list(self._q)
        self._q.clear()
        self._n_staged = 0
        self._occ_at_cycle_start = 0
        if self._touched is not None:
            self._touched.add(self)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else self.capacity
        return f"Channel({self.name!r}, occ={len(self)}/{cap})"
