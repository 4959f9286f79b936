"""Native per-process profiling counters maintained by both engines.

Every process (generator) of every actor owns one :class:`ProcCounters`
record. The counters are *scheduler-native*: the lock-step loop classifies
each yielded descriptor as it sees it, while the event engine charges the
equivalent spans at park/wake time, so neither engine runs a per-cycle
Python callback and the event engine keeps bulk cycle-skipping.

The key identity the profiler builds on: under the lock-step contract a
live process performs exactly one ``yield`` per executed cycle of its
lifetime, and each yield is either a blocked descriptor
(:class:`~repro.dataflow.events.ChannelWait` /
:class:`~repro.dataflow.events.Gate` /
:class:`~repro.dataflow.events.WaitCycles`) or a bare ``yield`` ending a
productive beat. Hence

    fires = lifetime - (stalled_channel + stalled_gate + stalled_timer)

and ``fires`` never needs to be counted on the hot path — it is derived.
For a compute core's processes, ``fires / (coords * images)`` is exactly
the measured initiation interval of Eq. 4 (see ``repro.profiling``).

Both engines produce identical counters on unfaulted runs (asserted by
``tests/profiling/test_counter_equivalence.py``). Under an armed
actor-slowdown plan the engines legitimately diverge on *actor* stall
counters (lock-step skips the resumption entirely, so no descriptor is
yielded, while the event engine charges the whole parked span); channel
statistics remain equivalent, matching the long-standing contract in
``tests/dataflow/test_scheduler_equivalence.py``.
"""

from __future__ import annotations

from typing import Dict, List


class ProcCounters:
    """Stall/lifetime counters of one process, engine-maintained.

    ``end_cycle`` is the cycle whose resumption raised ``StopIteration``
    (processes start at cycle 0, so it equals the number of yields the
    process performed); ``-1`` while the process is still alive.
    """

    __slots__ = ("stalled_channel", "stalled_gate", "stalled_timer", "end_cycle")

    def __init__(self) -> None:
        self.stalled_channel = 0
        self.stalled_gate = 0
        self.stalled_timer = 0
        self.end_cycle = -1

    def lifetime(self, now: int) -> int:
        """Executed cycles of this process's life (``now`` = engine cycle)."""
        return self.end_cycle if self.end_cycle >= 0 else now

    def fires(self, now: int) -> int:
        """Productive (non-stalled) cycles: lifetime minus every stall."""
        return self.lifetime(now) - (
            self.stalled_channel + self.stalled_gate + self.stalled_timer
        )

    def as_dict(self, now: int) -> dict:
        return {
            "fires": self.fires(now),
            "stalled_channel": self.stalled_channel,
            "stalled_gate": self.stalled_gate,
            "stalled_timer": self.stalled_timer,
            "lifetime": self.lifetime(now),
            "end_cycle": self.end_cycle,
        }


def actor_stats_dict(
    pairs: List[tuple], now: int
) -> Dict[str, List[dict]]:
    """Aggregate ``(actor, ProcCounters)`` pairs into the report shape.

    One list entry per process, in process-creation order (the compute
    cores' compute process precedes their emit process).
    """
    out: Dict[str, List[dict]] = {}
    for actor, cnt in pairs:
        out.setdefault(actor.name, []).append(cnt.as_dict(now))
    return out
