"""Analytical performance model of a DMA-throttled pipeline.

The serving layer's chaos mode arms a :class:`~repro.faults.scenario.
DmaThrottle` on one replica mid-load and must predict how far tail
latency degrades. The clean pipeline's steady state is Eq. 4 (the
busiest stage paces everyone); a throttled DMA input changes exactly one
stage interval — the input stream's cycles per image — so the throttled
II is the clean model's stage list with ``dma_in`` re-priced.

The subtlety is the throttled link's effective rate. A held commit does
*not* simply add ``burst`` cycles every ``period`` beats: while the
commit is held, the writer keeps staging words up to the FIFO capacity
and the release commits them all at once, so a capacity-``c`` channel
absorbs up to ``c - 1`` held cycles per burst. Rather than approximate
that recurrence, :func:`throttled_link_rate` replays the *exact*
channel-commit semantics (the two-phase protocol of
:class:`~repro.dataflow.channel.Channel` with the real
:class:`~repro.faults.injectors.ThrottleFault` hold logic) on a
one-link component model — O(cycles) integer arithmetic, no graph — and
measures the steady cycles-per-word. Validated against full faulted
simulations in ``tests/faults/test_analytical.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.network_design import NetworkDesign
from repro.core.perf_model import NetworkPerf, network_perf, pacing_stage, repriced
from repro.errors import ConfigurationError
from repro.faults.injectors import ThrottleFault
from repro.faults.scenario import DmaThrottle, FaultScenario


class _FixedPhase:
    """Minimal RNG stand-in: pins the throttle's phase offset.

    ``ThrottleFault`` draws one ``randrange(period)`` at construction;
    the analytic model pins it (``period=1`` scenarios — the serving
    chaos preset — have only phase 0, making the model seed-exact).
    """

    __slots__ = ("phase",)

    def __init__(self, phase: int):
        self.phase = phase

    def randrange(self, period: int) -> int:
        return self.phase % period


def throttled_link_rate(
    period: int,
    burst: int,
    beat: int = 1,
    capacity: int = 4,
    phase: int = 0,
    measure_words: int = 2048,
) -> float:
    """Steady-state cycles per word of one throttled stream link.

    Replays the exact commit recurrence: the writer stages one word per
    ``beat`` cycles whenever the capacity snapshot admits it, the
    throttle holds every ``period``-th commit for ``burst`` cycles
    (releasing the whole staged batch at once), and the reader drains
    one word per cycle — the regime where the throttled link is the
    pipeline bottleneck.
    """
    if capacity < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
    if beat < 1:
        raise ConfigurationError(f"beat must be >= 1, got {beat}")
    fault = ThrottleFault(_FixedPhase(phase), period, burst)
    warm = measure_words // 4
    total = measure_words + warm
    q = 0  # committed occupancy
    staged = 0
    sent = 0  # words the writer has staged so far
    popped = 0
    next_attempt = 0  # earliest cycle the writer tries to push
    warm_cycle = None
    cycle = 0
    # Generous bound: every word can cost at most beat + burst + 1 cycles.
    limit = total * (beat + burst + 2) + burst + 4
    while popped < total and cycle <= limit:
        # Phase 1: commit staged pushes (unless the throttle holds them).
        if staged and fault.on_commit(None, None):
            q += staged
            staged = 0
        occ_start = q
        # Phase 2a: the reader drains one visible word.
        if occ_start > 0:
            q -= 1
            popped += 1
            if popped == warm:
                warm_cycle = cycle
        # Phase 2b: the writer stages one word against the snapshot.
        if (
            sent < total
            and cycle >= next_attempt
            and occ_start + staged < capacity
        ):
            staged += 1
            sent += 1
            next_attempt = cycle + beat
        cycle += 1
    if popped < total:  # pragma: no cover - bound is loose by construction
        raise ConfigurationError(
            f"throttled link did not drain within {limit} cycles"
        )
    if warm_cycle is None:
        warm_cycle = 0
    return (cycle - 1 - warm_cycle) / (total - warm)


@dataclass(frozen=True)
class ThrottledPerf:
    """Predicted steady state of a design under a DMA-input throttle."""

    design_name: str
    #: The unfaulted Eq. 4 steady-state interval (cycles per image).
    clean_interval: int
    #: Modeled cycles per image of the throttled DMA input stream.
    throttled_dma_in_cycles: int
    #: Predicted faulted interval: the stage list with ``dma_in`` re-priced.
    interval: int
    #: Effective cycles per input word on the throttled link.
    cycles_per_word: float

    @property
    def degradation(self) -> float:
        """Predicted II inflation factor (1.0 == fault fully absorbed)."""
        return self.interval / max(self.clean_interval, 1)

    def to_dict(self) -> dict:
        return {
            "design": self.design_name,
            "clean_interval": self.clean_interval,
            "throttled_dma_in_cycles": self.throttled_dma_in_cycles,
            "interval": self.interval,
            "cycles_per_word": round(self.cycles_per_word, 4),
            "degradation": round(self.degradation, 4),
        }


def _dma_throttle_of(scenario: FaultScenario) -> DmaThrottle:
    throttles = [f for f in scenario.faults if isinstance(f, DmaThrottle)]
    if len(throttles) != 1:
        raise ConfigurationError(
            f"scenario {scenario.name!r} must carry exactly one DmaThrottle "
            f"to model analytically, found {len(throttles)}"
        )
    spec = throttles[0]
    if not spec.channels.startswith("dma_in"):
        raise ConfigurationError(
            f"the analytical throttle model covers the DMA input link; "
            f"scenario {scenario.name!r} targets {spec.channels!r}"
        )
    return spec


def throttled_perf(
    design: NetworkDesign,
    scenario: FaultScenario,
    channel_capacity: int = 4,
    perf: Optional[NetworkPerf] = None,
) -> ThrottledPerf:
    """Predict the faulted steady-state interval of ``design``.

    ``scenario`` must contain exactly one :class:`DmaThrottle` targeting
    the DMA input link (the chaos-mode shape). ``channel_capacity`` is
    the builder's FIFO depth on that link (default matches
    :func:`repro.core.builder.build_network`).
    """
    spec = _dma_throttle_of(scenario)
    if perf is None:
        perf = network_perf(design)
    words = design.input_words_per_image()
    beat = perf.dma_in_cycles // max(words, 1)
    rate = throttled_link_rate(
        spec.period, spec.burst, beat=max(beat, 1),
        capacity=channel_capacity,
        measure_words=max(2048, 2 * words),
    )
    throttled_in = int(round(words * max(rate, float(beat))))
    return ThrottledPerf(
        design_name=design.name,
        clean_interval=perf.interval,
        throttled_dma_in_cycles=throttled_in,
        interval=pacing_stage(
            repriced(perf.stages, "dma_in", throttled_in)
        ).cycles,
        cycles_per_word=rate,
    )
