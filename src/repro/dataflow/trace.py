"""Execution tracing: per-actor activity, channel occupancy, VCD export.

A :class:`Tracer` attached to the simulator samples, every cycle, which
actors did useful work (an actor that moved a beat on one of its channels
made progress) and how full each channel is. From the samples it derives:

* per-actor busy fractions over any cycle window — the direct evidence
  for the paper's claim that "at steady state, all the different layers
  of the network will be concurrently active and computing";
* channel occupancy statistics and an ASCII activity strip per actor;
* a Value Change Dump (``.vcd``) of channel occupancies viewable in any
  waveform viewer (GTKWave etc.).

The tracer is the *optional high-resolution backend* of the profiling
stack: the always-on native counters (:mod:`repro.dataflow.counters`)
already give every whole-run quantity for free — per-process fire/stall
splits, channel high-water marks and activity spans —
and :func:`counter_busy_fractions` derives whole-run utilization from
them with no tracer attached. Attach a :class:`Tracer` only to refine
the same quantities over arbitrary cycle windows
(:meth:`Tracer.busy_fraction`) or to see per-cycle occupancy waveforms.

Tracing costs a Python callback per cycle; attach it only when inspecting.
With a tracer attached, the event scheduler disables bulk cycle-skipping
and executes every cycle sequentially (it still parks blocked actors), so
samples are taken for every cycle under either scheduler; the per-cycle
channel counters it reads stay consistent because any channel with a beat
this cycle is by construction in the engine's active set.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataflow.actor import Actor
from repro.dataflow.channel import Channel
from repro.errors import ConfigurationError


def counter_busy_fractions(
    actor_stats: Dict[str, List[dict]], cycles: int
) -> Dict[str, float]:
    """Whole-run busy fraction per actor from the native counters alone.

    An actor's busiest process fires once per productive cycle, so
    ``fires / cycles`` is the sampling-free equivalent of
    :meth:`Tracer.busy_fraction` over the full run (the tracer refines
    this to arbitrary windows). ``actor_stats`` is the
    ``SimulationResult.actor_stats`` mapping.
    """
    if cycles <= 0:
        return {name: 0.0 for name in actor_stats}
    return {
        name: max(p["fires"] for p in procs) / cycles
        for name, procs in actor_stats.items()
        if procs
    }


class Tracer:
    """Records per-cycle actor activity and channel occupancy.

    Parameters
    ----------
    sample_every:
        Record one sample every N cycles (1 = every cycle). Coarser
        sampling keeps long simulations cheap while preserving trends.
    """

    def __init__(self, sample_every: int = 1):
        if sample_every < 1:
            raise ConfigurationError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.sample_every = int(sample_every)
        #: cycle numbers at which samples were taken.
        self.cycles: List[int] = []
        #: actor name -> list of 0/1 activity flags, aligned with cycles.
        self.activity: Dict[str, List[int]] = {}
        #: channel name -> list of occupancies, aligned with cycles.
        self.occupancy: Dict[str, List[int]] = {}

    # -- recording (called by the simulator) ------------------------------

    def record(
        self, cycle: int, actors: Sequence[Actor], channels: Sequence[Channel]
    ) -> None:
        """Take one sample if the cycle falls on the sampling grid.

        An actor counts as *active* in a cycle if it moved at least one
        beat on any of its channels (popped an input or pushed an output):
        the channels' own per-cycle beat flags, so a multi-process actor
        with one process stalled and one firing still counts as busy.
        """
        if cycle % self.sample_every:
            return
        self.cycles.append(cycle)
        active = set()
        for ch in channels:
            if (ch._popped_this_cycle or ch._pushed_this_cycle) and (
                ch.writer and ch.reader
            ):
                (writer, _), (reader, _) = ch.ends
                if ch._popped_this_cycle:
                    active.add(reader)
                if ch._pushed_this_cycle:
                    active.add(writer)
        for a in actors:
            self.activity.setdefault(a.name, []).append(
                1 if a.name in active else 0
            )
        for ch in channels:
            self.occupancy.setdefault(ch.name, []).append(ch.occupancy)

    # -- analysis ----------------------------------------------------------

    def busy_fraction(
        self,
        actor: str,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> float:
        """Fraction of sampled cycles in ``[start, end)`` the actor worked."""
        try:
            flags = self.activity[actor]
        except KeyError:
            raise ConfigurationError(f"no trace for actor {actor!r}") from None
        pairs = [
            f
            for c, f in zip(self.cycles, flags)
            if (start is None or c >= start) and (end is None or c < end)
        ]
        if not pairs:
            raise ConfigurationError(
                f"no samples for {actor!r} in [{start}, {end})"
            )
        return sum(pairs) / len(pairs)

    def utilization(
        self, start: Optional[int] = None, end: Optional[int] = None
    ) -> Dict[str, float]:
        """Busy fraction of every traced actor over the window."""
        return {
            name: self.busy_fraction(name, start, end) for name in self.activity
        }

    def concurrently_active(
        self, threshold: float = 0.5, start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> List[str]:
        """Actors whose busy fraction exceeds ``threshold`` in the window."""
        return sorted(
            name
            for name, frac in self.utilization(start, end).items()
            if frac > threshold
        )

    def peak_occupancy(self, channel: str) -> int:
        """Highest sampled occupancy of a channel."""
        try:
            return max(self.occupancy[channel])
        except KeyError:
            raise ConfigurationError(f"no trace for channel {channel!r}") from None

    # -- rendering -----------------------------------------------------------

    def activity_strips(self, width: int = 72) -> str:
        """ASCII strip chart: one row per actor, '#' busy / '.' stalled.

        Samples are bucketed down to ``width`` columns; a bucket is busy if
        the actor worked in the majority of its samples.
        """
        if not self.cycles:
            raise ConfigurationError("tracer holds no samples")
        n = len(self.cycles)
        width = min(width, n)
        lines = [f"cycles {self.cycles[0]}..{self.cycles[-1]} "
                 f"({n} samples, {width} buckets)"]
        name_w = max(len(n_) for n_ in self.activity)
        for name in sorted(self.activity):
            flags = self.activity[name]
            strip = []
            for b in range(width):
                lo = b * n // width
                hi = max(lo + 1, (b + 1) * n // width)
                frac = sum(flags[lo:hi]) / (hi - lo)
                strip.append("#" if frac > 0.5 else ("+" if frac > 0 else "."))
            lines.append(f"{name.ljust(name_w)} |{''.join(strip)}|")
        return "\n".join(lines)

    def to_vcd(self) -> str:
        """Render the channel occupancy trace as a VCD document.

        Occupancies are emitted as 16-bit vector signals under a single
        ``channels`` scope; timescale is one nanosecond per cycle (a
        100 MHz cycle rendered at 1 ns keeps viewers readable).
        """
        if not self.cycles:
            raise ConfigurationError("tracer holds no samples")
        names = sorted(self.occupancy)
        idents = {}
        for i, name in enumerate(names):
            # VCD identifier alphabet: printable ASCII 33..126.
            ident = ""
            k = i
            while True:
                ident += chr(33 + (k % 94))
                k //= 94
                if k == 0:
                    break
            idents[name] = ident
        out = [
            "$date repro trace $end",
            "$version repro.dataflow.trace $end",
            "$timescale 1ns $end",
            "$scope module channels $end",
        ]
        for name in names:
            safe = name.replace(" ", "_")
            out.append(f"$var wire 16 {idents[name]} {safe} $end")
        out.append("$upscope $end")
        out.append("$enddefinitions $end")
        last: Dict[str, Optional[int]] = {n: None for n in names}
        for i, cycle in enumerate(self.cycles):
            changes = []
            for name in names:
                val = self.occupancy[name][i]
                if val != last[name]:
                    changes.append(f"b{val:b} {idents[name]}")
                    last[name] = val
            if changes:
                out.append(f"#{cycle}")
                out.extend(changes)
        return "\n".join(out) + "\n"
