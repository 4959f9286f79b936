"""Synthesize profiling counters from a closed-form steady-state schedule.

The compiled engine never executes actor processes, so it cannot *count*
fires — it derives them. The derivation is exact, not approximate: under
the two-phase protocol ``fires`` counts productive beats only (stall
cycles of every kind are excluded), and the number of productive beats a
process performs is fixed by the graph's rate solution — it is the same
on every engine and on every legal schedule. The interpreted engines
measure ``fires = lifetime - stalls``; the compiled engine reads the same
number off the :class:`~repro.analysis.steady_state.SteadySchedule`.

Everything the profiler computes from counters therefore agrees across
engines by construction: measured II (``max fires / (coords * images)``,
Eq. 4) and bottleneck attribution (stage with the largest fires).

Stall/lifetime counters, by contrast, are genuinely timing-dependent and
the compiled engine does not model them: stalls are reported as 0 and
``lifetime`` as ``fires`` (an ideal never-stalled pipeline), keeping the
``fires = lifetime - stalls`` identity intact. Channel activity spans are
likewise a *modeled* envelope — exact beat totals, but timestamps only
where the profiler depends on them (the DMA-in drain window).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.steady_state import SteadySchedule


def synthesize_actor_stats(schedule: SteadySchedule) -> Dict[str, List[dict]]:
    """Per-process counter dicts in the report shape of both engines.

    One entry per process in creation order (compute before emit for the
    two-process cores), each carrying the closed-form ``fires`` with zero
    stalls and ``lifetime == fires``.
    """
    out: Dict[str, List[dict]] = {}
    for name, fires in schedule.proc_fires.items():
        out[name] = [
            {
                "fires": f,
                "stalled_channel": 0,
                "stalled_gate": 0,
                "stalled_timer": 0,
                "lifetime": f,
                "end_cycle": f,
            }
            for f in fires
        ]
    return out


def synthesize_channel_stats(
    schedule: SteadySchedule, channels, source_name: str
) -> None:
    """Write the modeled run's statistics into each channel's ``stats``.

    Beat totals (``total_pushed``/``total_popped``) are exact — they are
    the rate solution. Activity timestamps are modeled: channels written
    by the DMA source get the true input-stream span (cycle 0 through
    ``dma_last_push``, which the profiler's drain-latency calculation
    reads); every other active channel gets the generic pipeline window
    ``[0, cycles - 1]``. ``high_water`` reflects the rate-matched steady
    state (one in flight).
    """
    for ch in channels:
        beats = schedule.channel_beats.get(ch.name, 0)
        st = ch.stats
        st.total_pushed = beats
        st.total_popped = beats
        st.high_water = 1 if beats else 0
        st.full_stall_cycles = 0
        st.empty_stall_cycles = 0
        if not beats:
            continue
        if ch.ends[0][0] == source_name:
            st.first_push_cycle = 0
            st.last_push_cycle = schedule.dma_last_push
        else:
            st.first_push_cycle = 0
            st.last_push_cycle = max(0, schedule.cycles - 2)
        # Staged pushes become visible (poppable) one cycle later.
        st.first_pop_cycle = st.first_push_cycle + 1
        st.last_pop_cycle = min(schedule.cycles - 1, st.last_push_cycle + 1)
