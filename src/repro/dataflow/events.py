"""Wait descriptors: how actors tell the event scheduler *why* they yield.

Under the original lock-step scheduler every ``yield`` means the same
thing — "resume me next cycle" — and a blocked actor spin-yields until its
firing rule holds. The event-driven scheduler
(:mod:`repro.dataflow.scheduler`) instead parks blocked actors and only
resumes them when the blocking condition can have changed. The value an
actor yields carries that information:

* ``None`` — legacy polling: resume next cycle unconditionally. Any
  hand-written actor that spin-yields keeps working (it just prevents the
  scheduler from skipping cycles while it lives).
* :class:`ChannelWait` — blocked until *every* listed channel condition
  (a pop or a push) is satisfiable at the start of some cycle.
* :class:`WaitCycles` — a fixed-latency sleep; the scheduler wakes the
  process via a wakeup heap keyed by cycle.
* a :class:`Gate` — blocked on state shared between two processes of the
  same actor (an internal result queue); woken by :meth:`Gate.notify`. The
  gate itself is what the waiter yields.

The descriptors are *hints with contracts*: an actor must re-check its
firing rule after waking (the helper loops in :class:`Actor` do), so a
spurious wakeup is harmless, but a missing wakeup would stall the actor
forever. The lock-step scheduler never parks on a descriptor — it resumes
every process every cycle — which is what makes a bit-for-bit equivalence
cross-check between the two schedulers possible.

A blocking loop is ``while not <firing rule>: yield <descriptor>`` and the
descriptor is the *only* statement of the stall: actors keep no reason
string and charge no counter themselves. Both engines charge the stall
statistics and render a deadlock report from what was yielded.

Stall accounting
----------------
One function, :func:`repro.dataflow.scheduler.charge_blocked_cycle`,
turns one blocked cycle of a :class:`ChannelWait` into
:class:`~repro.dataflow.channel.ChannelStats` counts. The lock-step loop
calls it on every blocked yield; the event engine calls it once for the
park cycle and charges the remaining cycles of the span retroactively on
wakeup, from the cycle each condition became ready. The descriptor names
the policy:

* ``CHARGE_NONE`` — the loop never records stalls (Fork, demux, ...).
* ``CHARGE_EACH`` — every still-unsatisfiable condition is charged every
  blocked cycle (``recv``/``send``/``recv_all``/``send_all`` and the
  compute cores).
* ``CHARGE_FIRST`` — only the first unsatisfiable condition in listed
  order is charged each cycle (``relay``: input-empty wins over
  output-full).
"""

from __future__ import annotations

from typing import Tuple

#: Channel-condition opcodes used in :class:`ChannelWait` tuples.
POP = 0
PUSH = 1

#: Stall-charging policies (see module docstring).
CHARGE_NONE = 0
CHARGE_EACH = 1
CHARGE_FIRST = 2


class ChannelWait:
    """Park until every ``(op, channel)`` condition is satisfiable.

    ``conds`` is a tuple of ``(POP, channel)`` / ``(PUSH, channel)`` pairs;
    the actor wakes at the first cycle whose start-of-cycle snapshot
    satisfies all of them. ``charge`` is one of the ``CHARGE_*`` policies.

    Instances are immutable and may be reused across parks (the helper
    loops build one descriptor per call site, outside the spin loop).
    """

    __slots__ = ("conds", "charge")

    def __init__(self, conds: Tuple[tuple, ...], charge: int = CHARGE_NONE):
        self.conds = tuple(conds)
        self.charge = charge

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ops = {POP: "pop", PUSH: "push"}
        parts = ", ".join(f"{ops[op]}:{ch.name}" for op, ch in self.conds)
        return f"ChannelWait({parts})"


class WaitCycles:
    """Park for a fixed number of cycles (``cycles >= 1``)."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int):
        self.cycles = cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WaitCycles({self.cycles})"


class Gate:
    """Wakeup gate for state shared between processes of one actor.

    The compute cores couple their compute and emit processes through an
    internal result queue; the consumer of that queue cannot be woken by a
    channel commit, so it yields the gate while the guarded condition is
    false and the producer calls :meth:`notify` after mutating the queue.
    Wake timing mirrors lock-step shared-memory visibility: a waiter whose
    process index is *after* the notifier's sees the mutation in the same
    cycle, an earlier one in the next cycle.

    Under the lock-step scheduler the gate is inert: ``notify`` is a no-op
    (no engine ever attaches) and the yielded gate is only counted, so the
    waiting loop simply spins as before.

    The event engine attaches itself when a process first parks here: an
    attached gate is the one object an engine owns that points back up at
    it, until the run's end-of-life step
    (``repro.dataflow.scheduler._end_of_life``) detaches it.
    """

    __slots__ = ("_engine", "_waiters")

    def __init__(self):
        self._engine = None
        self._waiters = []

    def notify(self) -> None:
        """Wake every parked waiter (spurious wakeups are fine)."""
        if self._engine is not None and self._waiters:
            self._engine._gate_notify(self)

    def detach(self) -> None:
        """Let go of the engine and of the processes parked here."""
        self._engine = None
        self._waiters = []
