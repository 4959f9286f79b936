"""Design-space exploration under a device budget (paper future work).

Two search strategies over the configuration space of
:mod:`repro.dse.space`:

* :func:`exhaustive_search` — evaluate every valid configuration
  (feasible for the paper-scale networks, whose spaces are small);
* :func:`greedy_optimize` — start from single-port everywhere and
  repeatedly parallelize the current bottleneck layer while the design
  still fits, mirroring what a designer does by hand (and what the paper
  reports doing "empirically").

Objective: minimize the steady-state interval (maximize images/s),
subject to fitting the device; ties break toward fewer DSPs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.network_design import NetworkDesign
from repro.core.perf_model import network_perf, pacing_stage
from repro.core.resource_model import design_resources
from repro.core.scaling import port_options, with_layer_ports
from repro.dse.space import apply_configuration, iter_configurations
from repro.errors import ResourceError
from repro.fpga.device import Device, XC7VX485T


@dataclass(frozen=True)
class Candidate:
    """One evaluated configuration."""

    design: NetworkDesign
    interval: int
    dsp: float
    fits: bool
    #: All stage intervals (layers + DMA), sorted descending — the greedy
    #: search compares these lexicographically so that relieving one of
    #: several tied bottlenecks still counts as progress.
    profile: Tuple[int, ...] = ()

    @property
    def ports(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((s.in_ports, s.out_ports) for s in self.design.specs)


def evaluate(design: NetworkDesign, device: Device = XC7VX485T) -> Candidate:
    """Score one design: interval + resource fit + stage profile."""
    perf = network_perf(design)
    res = design_resources(design)
    return Candidate(
        design=design,
        interval=perf.interval,
        dsp=res.total.dsp,
        fits=res.fits(device),
        profile=tuple(sorted((s.cycles for s in perf.stages), reverse=True)),
    )


@dataclass
class ExplorationResult:
    """Outcome of a search."""

    best: Candidate
    evaluated: int
    history: List[Candidate] = field(default_factory=list)


def exhaustive_search(
    design: NetworkDesign,
    device: Device = XC7VX485T,
    limit: int = 100_000,
) -> ExplorationResult:
    """Evaluate every valid configuration and keep the best fitting one."""
    best: Optional[Candidate] = None
    n = 0
    for config in iter_configurations(design, limit=limit):
        cand = evaluate(apply_configuration(design, config), device)
        n += 1
        if not cand.fits:
            continue
        if best is None or (cand.interval, cand.dsp) < (best.interval, best.dsp):
            best = cand
    if best is None:
        raise ResourceError(
            f"no configuration of {design.name!r} fits {device.name}"
        )
    return ExplorationResult(best=best, evaluated=n)


def optimize_for_target(
    design: NetworkDesign,
    target_interval: int,
    device: Device = XC7VX485T,
    limit: int = 100_000,
) -> ExplorationResult:
    """Cheapest configuration meeting a throughput target.

    Minimizes DSP usage subject to ``interval <= target_interval`` and
    fitting ``device`` — the dual of :func:`exhaustive_search`, useful
    when a design must merely keep up with a sensor/stream rate and the
    saved resources should go to other logic.
    """
    if target_interval < 1:
        raise ResourceError(
            f"target_interval must be >= 1, got {target_interval}"
        )
    from repro.dse.space import apply_configuration, iter_configurations

    best: Optional[Candidate] = None
    n = 0
    for config in iter_configurations(design, limit=limit):
        cand = evaluate(apply_configuration(design, config), device)
        n += 1
        if not cand.fits or cand.interval > target_interval:
            continue
        if best is None or (cand.dsp, cand.interval) < (best.dsp, best.interval):
            best = cand
    if best is None:
        raise ResourceError(
            f"no configuration of {design.name!r} meets interval "
            f"<= {target_interval} on {device.name}"
        )
    return ExplorationResult(best=best, evaluated=n)


#: Hill-climbing step bound (every step strictly improves the profile).
_MAX_GREEDY_STEPS = 64


def greedy_optimize(
    design: NetworkDesign,
    device: Device = XC7VX485T,
) -> ExplorationResult:
    """Bottleneck-driven hill climbing from the single-port configuration.

    Each step tries every adapter-valid port upgrade of every layer
    currently sitting at the worst *layer* interval, and takes the move
    with the lexicographically smallest stage profile that still fits
    (ties toward fewer DSPs). Comparing full profiles instead of the bare
    maximum lets the search cross plateaus where several stages are tied
    at the bottleneck. Stops when the DMA paces the pipeline or no move
    improves the profile.
    """
    from repro.core.scaling import single_port_design

    current = evaluate(single_port_design(design), device)
    if not current.fits:
        raise ResourceError(
            f"even the single-port {design.name!r} does not fit {device.name}"
        )
    history = [current]
    evaluated = 1
    for _ in range(_MAX_GREEDY_STEPS):
        perf = network_perf(current.design)
        pacing = pacing_stage(perf.stages)
        if pacing.kind == "dma":
            break  # the off-chip stream paces everything; no layer move helps
        targets = [l.name for l in perf.layers if l.interval == pacing.cycles]
        best_move: Optional[Candidate] = None
        for name in targets:
            spec = next(s for s in current.design.specs if s.name == name)
            for (i, o) in port_options(spec):
                if (i, o) == (spec.in_ports, spec.out_ports):
                    continue
                try:
                    cand_design = with_layer_ports(current.design, name, i, o)
                except Exception:
                    continue  # adapter-invalid with the neighbours
                cand = evaluate(cand_design, device)
                evaluated += 1
                if not cand.fits:
                    continue
                if best_move is None or (cand.profile, cand.dsp) < (
                    best_move.profile,
                    best_move.dsp,
                ):
                    best_move = cand
        if best_move is None or best_move.profile >= current.profile:
            break
        current = best_move
        history.append(current)
    return ExplorationResult(best=current, evaluated=evaluated, history=history)
