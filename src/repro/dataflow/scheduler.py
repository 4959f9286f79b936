"""Simulation engines: the lock-step reference loop and the event scheduler.

Two interchangeable engines drive a :class:`~repro.dataflow.simulator.Simulator`:

* :class:`LockstepEngine` — the original reference loop. Every cycle it calls
  ``begin_cycle()`` on every channel and resumes every live process, so one
  cycle costs O(actors + channels) regardless of how much actually happens.
  Blocked actors spin-yield; each yielded descriptor is charged as one
  blocked cycle (:func:`charge_blocked_cycle`) and otherwise ignored.
* :class:`EventEngine` — does work proportional to *activity*. Actors blocked
  on a channel register on its wait-list and are only re-examined when that
  channel commits a beat; fixed-latency waits go into a wakeup heap; when no
  process is runnable the clock jumps straight to the next wakeup; and
  ``begin_cycle()`` runs only over the incrementally maintained set of
  channels touched in the previous cycle.

Both engines produce bit-for-bit identical results on well-formed graphs:
cycle counts, output values and timestamps, channel high-water marks, and
stall statistics (see :mod:`repro.dataflow.events` for how retroactive stall
charging reproduces the lock-step counters). The differences are confined to
error paths: the event engine raises :class:`~repro.errors.DeadlockError`
*immediately* when no process can ever run again (no runnables, no pending
wakeups, no channel activity) instead of after ``stall_limit`` wasted cycles,
and it does not false-positive on fixed-latency waits longer than the stall
limit; the report itself (:func:`_deadlock_error`) is the same on both, read
off each live process's last yielded descriptor. A lock-step-compatible
stall counter is kept as a backstop for legacy actors that poll with bare
``yield`` (those always stay runnable, so the exact condition alone would
never fire for them).

Equivalence notes (why the event engine is exact, not approximate):

* Resumption order: runnable processes execute in their creation order
  (``seq``) within a cycle, identical to the lock-step list order, so
  intra-actor shared state (the compute cores' result queues) is seen in
  the same relative order.
* Monotone readiness: channels are single-writer/single-reader, so while the
  blocked endpoint is parked its condition can only become — and then stay —
  satisfiable. A parked condition therefore has a single well-defined
  "became ready" cycle, which is what makes retroactive stall charging and
  wait-list wakeups sound.
* Active-set invariant: a channel's per-cycle counters are nonzero only if
  the channel is in the active set, so skipping ``begin_cycle()`` for
  untouched channels never leaves a stale snapshot behind, and the tracer
  reads consistent state.
* With a tracer or an ``until`` predicate attached the engine still parks
  and tracks active channels but executes every cycle sequentially (no bulk
  skipping), so per-cycle samples and early-stop checks match exactly.

An engine runs once. Its ``run`` goes to completion, a deadlock,
``max_cycles`` or an ``until`` stop and ends, whichever it was, in the
one end-of-life step (:func:`_end_of_life`). The protocol the
:class:`~repro.dataflow.simulator.Simulator` relies on is the constructor
plus ``run``, ``actor_stats`` and ``scheduler_stats``.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Dict, Generator, Iterable, List, Optional, Tuple

from repro.dataflow.actor import Actor
from repro.dataflow.channel import Channel, Clock
from repro.dataflow.counters import ProcCounters, actor_stats_dict
from repro.dataflow.events import (
    CHARGE_EACH,
    CHARGE_FIRST,
    CHARGE_NONE,
    POP,
    ChannelWait,
    Gate,
    WaitCycles,
)
from repro.errors import DeadlockError, SimulationError


class _Proc:
    """One live generator: its actor, stable resumption rank, liveness."""

    __slots__ = ("actor", "gen", "seq", "alive", "cnt", "wait")

    def __init__(self, actor: Actor, gen: Generator, seq: int):
        self.actor = actor
        self.gen = gen
        #: Index into the engine's roster: run lists hold this number, not
        #: the process, so sorting them compares ints and builds no tuple.
        self.seq = seq
        self.alive = True
        self.cnt = ProcCounters()
        #: The value this process last yielded: what a deadlock report says
        #: it is waiting on.
        self.wait = None


def _spawn(actors: Iterable[Actor]) -> List[_Proc]:
    """One :class:`_Proc` per process, in creation (= resumption) order."""
    procs: List[_Proc] = []
    for a in actors:
        for gen in a.processes():
            procs.append(_Proc(a, gen, len(procs)))
    return procs


def charge_blocked_cycle(w: ChannelWait) -> None:
    """Charge one blocked cycle of ``w`` to its channels' stall counters.

    The one place a stalled cycle becomes a ``ChannelStats`` count: every
    unsatisfiable condition is charged under ``CHARGE_EACH``, only the
    first in listed order under ``CHARGE_FIRST``, none under
    ``CHARGE_NONE``. The lock-step loop calls this on every blocked yield;
    the event engine calls it for the park cycle and owes the rest of the
    span retroactively (:meth:`EventEngine._apply_charges`).
    """
    charge = w.charge
    if charge == CHARGE_NONE:
        return
    for op, ch in w.conds:
        if op == POP:
            if ch.can_pop():
                continue
            ch.stats.empty_stall_cycles += 1
        else:
            if ch.can_push():
                continue
            ch.stats.full_stall_cycles += 1
        if charge == CHARGE_FIRST:
            return


def _deadlock_error(cycle: int, procs: Iterable[_Proc]) -> DeadlockError:
    """The deadlock report of either engine, read off the wait descriptors.

    ``procs`` are the live processes in creation order. ``channels`` lists
    the unsatisfiable conditions of every process blocked in a
    :class:`ChannelWait`, daemon adapters included; ``blocked`` renders one
    part per process of each non-daemon actor (``pop:<channel>,
    push:<channel>``, ``gate``, ``timer(n)``). Nothing moves once a
    deadlock is declared, so asking the channels now gives the conditions
    that never became ready.
    """
    blocked: Dict[str, List[str]] = {}
    channels: Dict[str, List[str]] = {}
    for p in procs:
        y = p.wait
        name = p.actor.name
        part = "running (no channel beat)"
        if type(y) is ChannelWait:
            conds = [
                ("pop:" if op == POP else "push:") + ch.name
                for op, ch in y.conds
                if not (ch.can_pop() if op == POP else ch.can_push())
            ]
            if conds:
                channels.setdefault(name, []).extend(conds)
                part = ", ".join(conds)
        elif type(y) is WaitCycles:
            part = f"timer({y.cycles})"
        elif type(y) is Gate:
            part = "gate"
        if not p.actor.daemon:
            blocked.setdefault(name, []).append(part)
    return DeadlockError(
        cycle,
        {name: " | ".join(parts) for name, parts in blocked.items()},
        channels={name: sorted(channels[name]) for name in sorted(channels)},
    )


def _actor_plan_of(sim) -> Optional[object]:
    """The armed actor-slowdown plan of ``sim.faults``, if any.

    Both engines consult the plan before resuming a process: a process
    whose actor sits inside a stall window is simply not resumed this
    cycle (the fault model of ``repro.faults``). The plan is a pure
    function of ``(actor name, cycle)`` so both schedulers defer the
    exact same resumptions.
    """
    armed = sim.faults
    return None if armed is None else armed.actor_plan


def _end_of_life(channels: Iterable[Channel], gates: Iterable[Gate] = ()) -> None:
    """The one end-of-life step of an interpreted run.

    An engine owns its actors, channels and processes and nothing it owns
    points back at it or at the simulator, with the exceptions a running
    engine cannot do without: the hooks :meth:`Channel.attach` installs,
    the records parked on them, the channels' cached wait descriptors and
    the gates that learnt their engine when a process parked there. Every
    one of them is dropped here, so that a run that is over is freed by
    reference count the moment its owner lets go of it. Each engine calls
    this in a ``finally`` of its ``run``: when the run returns (finished
    or stopped by ``until``) or raises. Counters and channel statistics
    are untouched.
    """
    for ch in channels:
        ch.detach()
    for gate in gates:
        gate.detach()


class LockstepEngine:
    """The original O(cycles x (actors + channels)) reference loop.

    Kept verbatim (modulo the shared per-cycle step helper) so the event
    engine can be cross-checked against it; select it with
    ``Simulator(..., scheduler="lockstep")``.
    """

    def __init__(self, sim):
        # What the engine reads of the simulator, copied: the simulator
        # owns the engine, never the other way round.
        self.actors = sim.actors
        self.channels = sim.channels
        self.stall_limit = sim.stall_limit
        self.tracer = sim.tracer
        self.cycle = 0
        self._clock = Clock()
        self._stall = 0
        self._actor_plan = _actor_plan_of(sim)
        #: Full roster, surviving process completion, for the end-of-run
        #: actor_stats report; ``_live`` is the still-running subset.
        self._procs: List[_Proc] = _spawn(self.actors)
        self._live: List[_Proc] = list(self._procs)
        # No active set: descriptors must be inert under lock-step.
        for ch in self.channels:
            ch.attach(self._clock)

    def _nondaemon_live(self) -> bool:
        return any(not p.actor.daemon for p in self._live)

    def _step(self) -> None:
        """One cycle: commit all channels, resume all processes, trace."""
        self._clock.cycle = self.cycle
        for ch in self.channels:
            ch.begin_cycle()
        still: List[_Proc] = []
        plan = self._actor_plan
        for p in self._live:
            actor = p.actor
            if plan is not None and plan.free_cycle(actor.name, self.cycle) > self.cycle:
                still.append(p)  # stalled by an injected fault
                continue
            actor.now = self.cycle
            try:
                y = p.wait = next(p.gen)
            except StopIteration:
                p.cnt.end_cycle = self.cycle
                continue
            # Native stall classification: one yield per executed cycle,
            # so counting (and charging) blocked descriptors here
            # reproduces exactly what the event engine charges as
            # park/wake spans.
            if y is not None:
                t = type(y)
                if t is ChannelWait:
                    p.cnt.stalled_channel += 1
                    charge_blocked_cycle(y)
                elif t is WaitCycles:
                    p.cnt.stalled_timer += 1
                elif t is Gate:
                    p.cnt.stalled_gate += 1
            still.append(p)
        self._live = still
        if self.tracer is not None:
            self.tracer.record(self.cycle, self.actors, self.channels)
        self.cycle += 1

    def actor_stats(self) -> Dict[str, List[dict]]:
        """Per-actor, per-process counter report (see ProcCounters)."""
        return actor_stats_dict(
            [(p.actor, p.cnt) for p in self._procs], self.cycle
        )

    def scheduler_stats(self) -> dict:
        """Engine-specific scheduling metrics (not part of equivalence)."""
        return {
            "scheduler": "lockstep",
            "executed_cycles": self.cycle,
            "skipped_cycles": 0,
            "parks": 0,
            "wakeups": 0,
        }

    def _check_stall(self) -> None:
        if not self._nondaemon_live():
            return
        activity = sum(
            ch._pushed_this_cycle + ch._popped_this_cycle
            for ch in self.channels
        )
        if activity == 0:
            self._stall += 1
            if self._stall >= self.stall_limit:
                raise _deadlock_error(self.cycle, self._live)
        else:
            self._stall = 0

    def run(self, max_cycles: int, until) -> Tuple[int, bool]:
        """Run once; returns ``(cycles, finished)`` for the simulator."""
        try:
            while self._nondaemon_live():
                if self.cycle >= max_cycles:
                    raise SimulationError(
                        f"simulation exceeded max_cycles={max_cycles} with "
                        f"{len(self._live)} live processes"
                    )
                self._step()
                if until is not None and until():
                    return self.cycle, False
                self._check_stall()
            return self.cycle, True
        finally:
            _end_of_life(self.channels)


class _WaitRec:
    """A parked :class:`ChannelWait`: per-condition readiness bookkeeping.

    ``ready[i]`` is the cycle at which condition ``i`` became satisfiable
    (``park`` itself if it already was at park time, ``None`` while still
    blocked); ``pending`` counts the ``None`` entries. The record wakes when
    ``pending`` hits zero, at which point the stall cycles the lock-step
    loop would have recorded are charged retroactively from ``ready``.
    """

    __slots__ = ("proc", "park", "conds", "charge", "ready", "pending")

    def __init__(self, proc: _Proc, park: int, conds, charge: int):
        self.proc = proc
        self.park = park
        self.conds = conds
        self.charge = charge
        self.ready: List[Optional[int]] = [None] * len(conds)
        self.pending = 0


class EventEngine:
    """Event-driven scheduler: work proportional to activity, not cycles.

    State (all cycle numbers refer to ``self.cycle``, the next cycle to
    execute):

    * ``_current`` — sorted run list of the cycle being executed, as
      ``seq`` numbers (= indices into ``_procs``; built, sorted once, then
      consumed by index; mid-cycle gate wakes are bisect-inserted past the
      consumption point). Empty between cycles;
    * ``_next_ready`` — processes runnable next cycle (a bare ``yield``);
    * ``_timers`` — min-heap of ``(wake_cycle, seq, proc)`` fixed waits;
    * ``_active`` — channels touched last cycle, needing ``begin_cycle()``
      (each channel's ``_touched`` aliases this very set);
    * ``_parked`` — outstanding channel wait records, for end-of-run stall
      flushing; gate waiters live on their :class:`Gate`.

    Every scheduling container holds only live processes: a process dies
    only inside its own resumption (``StopIteration``), at which point it is
    in no container, so the hot loop needs no liveness filtering.
    """

    def __init__(self, sim):
        # What the engine reads of the simulator, copied: the simulator
        # owns the engine, never the other way round.
        self.actors = sim.actors
        self.channels = sim.channels
        self.stall_limit = sim.stall_limit
        self.tracer = sim.tracer
        self.cycle = 0
        self._clock = Clock()
        self._stall = 0
        self._in_cycle = False
        self._cur_seq = -1
        self._actor_plan = _actor_plan_of(sim)
        self._active: set = set()
        self._current: List[int] = []
        self._next_ready: List[_Proc] = []
        # Timer heap entries are (wake_cycle, seq, proc, park_cycle); the
        # park cycle pays the proc's stalled_timer charge when the timer
        # fires. Entries pushed by the fault plan's resumption deferral
        # carry park=None: a deferred resumption is not a stall the
        # lock-step loop would have counted (it skips the resumption too).
        self._timers: List[Tuple[int, int, _Proc, Optional[int]]] = []
        self._parked: set = set()
        #: Gates that ever parked a waiter, for the end-of-run flush.
        self._gates: set = set()
        self._executed = 0
        self._parks = 0
        self._wakeups = 0
        self._procs: List[_Proc] = _spawn(self.actors)
        self._live_total = len(self._procs)
        self._live_nondaemon = sum(
            1 for p in self._procs if not p.actor.daemon
        )
        self._next_ready.extend(self._procs)
        for ch in self.channels:
            ch.attach(self._clock, self._active)
        # Cycle 0 commits every channel (pre-staged values, initial
        # high-water marks), exactly like the lock-step loop's first cycle.
        self._active.update(self.channels)

    # -- cycle execution ---------------------------------------------------

    def _exec_cycle(self, c: int) -> None:
        # The hottest loop in the whole reproduction: every simulated beat of
        # every benchmark passes through here, hence the inlined dispatch,
        # exact type checks and local bindings.
        # Publish the executing cycle before any channel work: push/pop
        # stamp their first/last beats off the clock cell, a gate notify
        # reads this attribute (the caller sets cycle back to c + 1 on
        # return, preserving "next to execute").
        self.cycle = self._clock.cycle = c
        self._executed += 1
        current = self._current
        procs = self._procs
        active = self._active
        if active:
            # Snapshot-then-clear: a channel whose fault hook *holds* its
            # staged commit re-adds itself to the active set from inside
            # begin_cycle(), and that registration must survive into the
            # next cycle rather than be wiped by a post-loop clear.
            pending_chs = list(active)
            active.clear()
            for ch in pending_chs:
                ch.begin_cycle()
                if ch._pop_waiters and ch.can_pop():
                    waiters = ch._pop_waiters
                    ch._pop_waiters = []
                    self._satisfy(waiters, c)
                if ch._push_waiters and ch.can_push():
                    waiters = ch._push_waiters
                    ch._push_waiters = []
                    self._satisfy(waiters, c)
        nr = self._next_ready
        if nr:
            for p in nr:
                current.append(p.seq)
            nr.clear()
        timers = self._timers
        if timers and timers[0][0] <= c:
            while timers and timers[0][0] <= c:
                _w, _s, p, park = heappop(timers)
                if park is not None:
                    p.cnt.stalled_timer += c - park
                    self._wakeups += 1
                current.append(p.seq)
        current.sort()
        nr_append = nr.append
        plan = self._actor_plan
        self._in_cycle = True
        pos = 0
        while pos < len(current):
            seq = current[pos]
            p = procs[seq]
            pos += 1
            if plan is not None:
                # Injected actor slow-down: defer resumption to the first
                # fault-free cycle (lock-step skips the same resumptions,
                # so both engines release the actor on the same cycle).
                wake = plan.free_cycle(p.actor.name, c)
                if wake > c:
                    heappush(timers, (wake, seq, p, None))
                    continue
            self._cur_seq = seq
            p.actor.now = c
            try:
                y = p.wait = next(p.gen)
            except StopIteration:
                p.alive = False
                p.cnt.end_cycle = c
                self._live_total -= 1
                if not p.actor.daemon:
                    self._live_nondaemon -= 1
                continue
            if y is None:
                nr_append(p)
            elif type(y) is ChannelWait:
                self._park(p, y, c)
            elif type(y) is WaitCycles:
                n = y.cycles
                heappush(timers, (c + (n if n >= 1 else 1), seq, p, c))
                self._parks += 1
            elif type(y) is Gate:
                if y._engine is not self:
                    y._engine = self
                    self._gates.add(y)
                y._waiters.append((p, c))
                self._parks += 1
            else:
                self._reject(p, y)
        self._in_cycle = False
        current.clear()
        tracer = self.tracer
        if tracer is not None:
            tracer.record(c, self.actors, self.channels)

    def _reject(self, p: _Proc, y) -> None:
        raise SimulationError(
            f"process of actor {p.actor.name!r} yielded unsupported "
            f"value {y!r}; yield None, a wait descriptor, or use the "
            f"Actor helpers"
        )

    def _park(self, p: _Proc, w: ChannelWait, c: int) -> None:
        charge_blocked_cycle(w)  # the park cycle; the span is owed at wake
        rec = _WaitRec(p, c, w.conds, w.charge)
        ready = rec.ready
        pending = 0
        for i, (op, ch) in enumerate(w.conds):
            if ch.can_pop() if op == POP else ch.can_push():
                ready[i] = c
            else:
                pending += 1
                (ch._pop_waiters if op == POP else ch._push_waiters).append(
                    (rec, i)
                )
        if pending == 0:
            # Everything is already satisfiable: behave like a bare yield
            # (the actor's loop re-checks and proceeds next cycle). The
            # lock-step loop still saw one blocked-descriptor yield.
            p.cnt.stalled_channel += 1
            self._next_ready.append(p)
            return
        rec.pending = pending
        self._parked.add(rec)
        self._parks += 1

    def _satisfy(self, waiters: List[tuple], c: int) -> None:
        # Phase 1 only: _current is still under construction (sorted later).
        for rec, i in waiters:
            if rec.ready[i] is None:
                rec.ready[i] = c
                rec.pending -= 1
                if rec.pending == 0:
                    self._parked.discard(rec)
                    self._apply_charges(rec, c)
                    # The lock-step loop yielded the descriptor on every
                    # cycle of the park span (the wake cycle itself fires).
                    rec.proc.cnt.stalled_channel += c - rec.park
                    self._wakeups += 1
                    self._current.append(rec.proc.seq)

    def _gate_notify(self, gate) -> None:
        """Wake gate waiters; same-cycle iff they resume after the notifier.

        Mirrors lock-step shared-memory visibility: a process later in the
        resumption order sees this cycle's mutation in its own slice, an
        earlier one only next cycle. The stall charge mirrors that split:
        a same-cycle waker's lock-step twin last yielded the gate at
        ``c - 1`` (at ``c`` it runs after the notifier and proceeds), so
        it owes ``c - park`` yields; a next-cycle waker ran *before* the
        notifier at ``c``, yielded once more, and owes ``c + 1 - park``.
        """
        waiters = gate._waiters
        gate._waiters = []
        cur = self._cur_seq if self._in_cycle else -1
        c = self.cycle
        for p, park in waiters:
            if not p.alive:
                continue
            self._wakeups += 1
            if p.seq > cur:
                # Insert into the still-unconsumed tail of the run list
                # (every consumed entry has seq <= cur < p.seq).
                p.cnt.stalled_gate += c - park
                insort(self._current, p.seq)
            else:
                p.cnt.stalled_gate += c + 1 - park
                self._next_ready.append(p)

    # -- retroactive stall accounting --------------------------------------

    def _apply_charges(self, rec: _WaitRec, default: int) -> None:
        """Charge the stall cycles lock-step would have recorded.

        :meth:`_park` already charged the park cycle, so for
        ``CHARGE_EACH`` condition *i* owes
        ``max(0, ready[i] - park - 1)`` further cycles. ``CHARGE_FIRST``
        (relay) charges only the first still-blocked condition per cycle,
        which the running ``m`` cursor reproduces. ``default`` substitutes
        for conditions that never became ready (end-of-run flush).
        """
        charge = rec.charge
        if charge == CHARGE_NONE:
            return
        park = rec.park
        if charge == CHARGE_EACH:
            for (op, ch), r in zip(rec.conds, rec.ready):
                n = (default if r is None else r) - park - 1
                if n > 0:
                    if op == POP:
                        ch.stats.empty_stall_cycles += n
                    else:
                        ch.stats.full_stall_cycles += n
        else:  # CHARGE_FIRST
            m = park + 1
            for (op, ch), r in zip(rec.conds, rec.ready):
                if r is None:
                    r = default
                n = r - m
                if n > 0:
                    if op == POP:
                        ch.stats.empty_stall_cycles += n
                    else:
                        ch.stats.full_stall_cycles += n
                if r > m:
                    m = r

    def _flush(self, end: int) -> None:
        """Charge the stalls still owed at the end of the run, cycle ``end``.

        Under lock-step, parked daemons (and actors caught mid-wait by an
        ``until`` stop) record a stall on every executed cycle up to
        ``end - 1``; charge those spans once, as the run ends.
        """
        for rec in self._parked:
            self._apply_charges(rec, end)
            rec.proc.cnt.stalled_channel += end - rec.park
        for gate in self._gates:
            for p, park in gate._waiters:
                if p.alive:
                    p.cnt.stalled_gate += end - park
        for _wake, _seq, p, park in self._timers:
            # Plan-deferral entries (park=None) are never charged.
            if park is not None:
                p.cnt.stalled_timer += end - park

    # -- counter reports ---------------------------------------------------

    def actor_stats(self) -> Dict[str, List[dict]]:
        """Per-actor, per-process counter report (see ProcCounters)."""
        return actor_stats_dict(
            [(p.actor, p.cnt) for p in self._procs], self.cycle
        )

    def scheduler_stats(self) -> dict:
        """Engine-specific scheduling metrics (not part of equivalence)."""
        return {
            "scheduler": "event",
            "executed_cycles": self._executed,
            "skipped_cycles": self.cycle - self._executed,
            "parks": self._parks,
            "wakeups": self._wakeups,
        }

    # -- running -----------------------------------------------------------

    def _deadlock(self) -> DeadlockError:
        return _deadlock_error(self.cycle, (p for p in self._procs if p.alive))

    def run(self, max_cycles: int, until) -> Tuple[int, bool]:
        """Run once; returns ``(cycles, finished)`` for the simulator."""
        tick = self.tracer is not None or until is not None
        stall_limit = self.stall_limit
        exec_cycle = self._exec_cycle
        timers = self._timers
        try:
            while self._live_nondaemon > 0:
                # The clock advance: this header runs once per cycle.
                if self._next_ready or self._active or self._current:
                    c = self.cycle
                elif timers:
                    wake = timers[0][0]
                    c = self.cycle if tick or wake <= self.cycle else wake
                elif until is not None:
                    # A cycle-based ``until`` may still fire: keep ticking
                    # empty cycles; the stall backstop below bounds this.
                    c = self.cycle
                else:
                    # Exact and immediate: nothing is runnable, no wakeups
                    # are pending, and no channel committed anything.
                    raise self._deadlock()
                if c >= max_cycles:
                    raise SimulationError(
                        f"simulation exceeded max_cycles={max_cycles} with "
                        f"{self._live_total} live processes"
                    )
                exec_cycle(c)
                self.cycle = c + 1
                if until is not None and until():
                    self._flush(self.cycle)
                    return self.cycle, False
                # Lock-step-compatible backstop for bare-``yield`` pollers.
                if self._active:
                    self._stall = 0
                elif self._live_nondaemon > 0:
                    self._stall += 1
                    if self._stall >= stall_limit:
                        raise self._deadlock()
            self._flush(self.cycle)
            return self.cycle, True
        finally:
            _end_of_life(self.channels, self._gates)
