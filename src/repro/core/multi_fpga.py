"""Multi-FPGA partitioning and its runnable plan (paper Section VI).

Splits a design's layer chain into contiguous segments, one per device.
The inter-board links are serial streams with their own bandwidth, so a
split design is still one long pipeline: its steady-state interval is the
slowest element among all layer stages, all link stages, and the two DMA
endpoints. Splitting never speeds up a fixed configuration by itself — it
frees resources so each segment can be parallelized further, which is
exactly the paper's motivation ("the layers can be totally parallelized
given that there are enough available resources").

A :class:`MultiFpgaPlan` is no longer analytical-only: the builder
(:func:`repro.core.builder.build_network` with ``multi_plan=``) elaborates
it into a co-simulation by cutting the graph at the planned boundaries and
inserting :class:`~repro.dataflow.link.LinkTxActor` /
:class:`~repro.dataflow.link.LinkRxActor` pairs whose beat interval comes
from the plan's :class:`LinkModel`. The plan serialises through the
unified :class:`~repro.report.base.Report` envelope (``repro shard
--json``), round-tripping like ``DepthPlan``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.config import ClockDomain
from repro.core.layer_spec import ConvLayerSpec
from repro.core.network_design import LayerPlacement, NetworkDesign
from repro.core.perf_model import LinkPerf, Stage, network_perf, pacing_stage
from repro.core.resource_model import BASE_DESIGN, layer_resources
from repro.errors import ConfigurationError, ResourceError
from repro.fpga.device import Device, XC7VX485T
from repro.fpga.dma import DmaModel, PAPER_DMA
from repro.hls.resources import ResourceVector
from repro.report.base import Report


@dataclass(frozen=True)
class LinkModel:
    """A board-to-board streaming link, priced by the shared DMA beat model.

    The link is a serial word stream (Aurora, PCIe peer-to-peer, 10GbE):
    it moves at most one ``word_bits`` word per cycle, paced further down
    by its sustained bandwidth. Both constraints are exactly what
    :meth:`~repro.fpga.dma.DmaModel.beat_interval` computes for the
    ingress DMA, so the link delegates to the same model instead of
    keeping its own arithmetic (the old one hardcoded 4-byte words and
    allowed fractional words per cycle, under-pricing fast links).
    """

    bandwidth_bytes_per_s: float = 1e9
    clock_hz: float = 100e6
    word_bits: int = 32

    @property
    def dma(self) -> DmaModel:
        """The equivalent DMA transfer model (one word per datapath beat)."""
        return DmaModel(
            datapath_bits=self.word_bits,
            bandwidth_bytes_per_s=self.bandwidth_bytes_per_s,
            clock=ClockDomain(self.clock_hz),
        )

    def beat_interval(self) -> int:
        """Cycles between consecutive word beats on the wire (>= 1)."""
        return self.dma.beat_interval(self.word_bits)

    def words_per_cycle(self) -> float:
        """Sustained words per cycle; never exceeds 1 on a serial stream."""
        return 1.0 / self.beat_interval()

    def stream_cycles(self, words: int) -> int:
        """Cycles to forward ``words`` values per image."""
        if words < 0:
            raise ConfigurationError(f"words must be >= 0, got {words}")
        return self.dma.transfer_cycles(words, self.word_bits)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bandwidth_bytes_per_s": self.bandwidth_bytes_per_s,
            "clock_hz": self.clock_hz,
            "word_bits": self.word_bits,
            "beat_interval": self.beat_interval(),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "LinkModel":
        return cls(
            bandwidth_bytes_per_s=float(d["bandwidth_bytes_per_s"]),
            clock_hz=float(d["clock_hz"]),
            word_bits=int(d.get("word_bits", 32)),
        )


def segment_egress_words(placement: LayerPlacement) -> int:
    """Words per image crossing a cut placed after ``placement``.

    For a plain layer this is the output volume ``k * oh * ow``. For a
    *blocked* conv layer the cut sits between the cores and the merge
    stages (the merge — which drops overhang and needs a whole image of
    tile-major coordinates — relocates to the downstream device, where
    its buffering is cheap), so the full uniform tile grid crosses the
    wire: ``BlockPlan.out_words`` coordinates per feature map, overhang
    included.
    """
    spec = placement.spec
    k, oh, ow = placement.out_shape
    if isinstance(spec, ConvLayerSpec):
        plan = spec.block_plan(placement.in_shape[1], placement.in_shape[2])
        if plan is not None:
            return plan.out_words * k
    return k * oh * ow


@dataclass(frozen=True)
class Segment:
    """One device's share of the pipeline."""

    device_index: int
    layer_names: Tuple[str, ...]
    resources: ResourceVector
    #: Words streamed out of this segment per image (to the next board).
    egress_words: int

    def to_dict(self) -> Dict[str, Any]:
        r = self.resources
        return {
            "device": self.device_index,
            "layers": list(self.layer_names),
            "egress_words": self.egress_words,
            "resources": {"ff": r.ff, "lut": r.lut, "bram": r.bram, "dsp": r.dsp},
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Segment":
        return cls(
            device_index=int(d["device"]),
            layer_names=tuple(str(n) for n in d["layers"]),
            resources=ResourceVector(**d["resources"]),
            egress_words=int(d["egress_words"]),
        )


def _link_perfs(segments: Sequence[Segment], link: LinkModel) -> Tuple[LinkPerf, ...]:
    """One link stage per cut: the upstream segment's egress on the wire."""
    beat = link.beat_interval()
    return tuple(
        LinkPerf(
            after=s.layer_names[-1],
            cycles=link.stream_cycles(s.egress_words),
            beat=beat,
        )
        for s in segments[:-1]
    )


class MultiFpgaPlan(Report):
    """A full partitioning with its end-to-end performance.

    The plan carries the stage list of the linked
    :class:`~repro.core.perf_model.NetworkPerf` — every layer, a
    ``link{d}`` after each cut, both DMA endpoints — and answers
    ``interval``/``bottleneck`` with the model's own
    :func:`~repro.core.perf_model.pacing_stage`, so a co-simulated shard
    run at modeled bandwidth settles on this interval with 0.00% Eq. 4
    error and every report names the same pacing stage.
    """

    kind: ClassVar[str] = "multi-fpga-plan"

    def __init__(
        self,
        design_name: str,
        segments: List[Segment],
        link: LinkModel,
        stages: Sequence[Stage],
    ):
        if not segments:
            raise ConfigurationError("a plan needs at least one segment")
        self.design_name = design_name
        self.segments = list(segments)
        self.link = link
        self.stages = tuple(stages)
        self._stage = {s.name: s for s in self.stages}

    @property
    def n_devices(self) -> int:
        return len(self.segments)

    def link_perfs(self) -> Tuple[LinkPerf, ...]:
        """The link stages in the form ``network_perf(links=)`` takes."""
        return _link_perfs(self.segments, self.link)

    @property
    def interval(self) -> int:
        """Pipeline steady-state interval including link and DMA stages."""
        return pacing_stage(self.stages).cycles

    @property
    def bottleneck(self) -> str:
        """Name of the pacing stage (a layer, ``link{d}``, or a DMA end)."""
        return pacing_stage(self.stages).name

    def cut_layers(self) -> Tuple[str, ...]:
        """Last layer of each non-final segment (the planned cut points)."""
        return tuple(s.layer_names[-1] for s in self.segments[:-1])

    def fits(self, device: Device = XC7VX485T) -> bool:
        return all(s.resources.fits_in(device.resources) for s in self.segments)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "design": self.design_name,
            "n_devices": self.n_devices,
            "interval": self.interval,
            "bottleneck": self.bottleneck,
            "dma_in_cycles": self._stage["dma_in"].cycles,
            "dma_out_cycles": self._stage["dma_out"].cycles,
            "link": self.link.to_dict(),
            "cut_layers": list(self.cut_layers()),
            "stages": [
                {"name": s.name, "kind": s.kind, "cycles": s.cycles}
                for s in self.stages
            ],
            "segments": [
                {
                    **seg.to_dict(),
                    "interval": pacing_stage(
                        [self._stage[n] for n in seg.layer_names]
                    ).cycles,
                }
                for seg in self.segments
            ],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "MultiFpgaPlan":
        return cls(
            design_name=str(d["design"]),
            segments=[Segment.from_dict(s) for s in d["segments"]],
            link=LinkModel.from_dict(d["link"]),
            stages=[
                Stage(str(s["name"]), str(s["kind"]), int(s["cycles"]))
                for s in d["stages"]
            ],
        )

    def summary(self) -> str:
        return (
            f"multi-fpga plan {self.design_name}: {self.n_devices} device(s), "
            f"interval {self.interval} cycles/image, bottleneck {self.bottleneck}"
        )


def load_multi_fpga_plan(path: str) -> MultiFpgaPlan:
    """Load a plan written by ``repro shard --json``."""
    with open(path) as fh:
        d = json.load(fh)
    return MultiFpgaPlan.from_dict(d)


def plan_split(
    design: NetworkDesign,
    n_devices: int,
    device: Device = XC7VX485T,
    link: Optional[LinkModel] = None,
    dma: DmaModel = PAPER_DMA,
    loop_overhead: float = 0.0,
    fit: bool = True,
) -> MultiFpgaPlan:
    """Best contiguous split of ``design`` over ``n_devices`` devices.

    Exhaustively evaluates every cut-point placement (layer counts are
    single digits), keeping splits whose segments fit ``device`` and
    minimizing the resulting pipeline interval; ties break toward lower
    peak resource usage. Raises :class:`~repro.errors.ResourceError` if no
    split fits. ``dma`` prices the batch ingress/egress endpoints so the
    plan interval matches :func:`~repro.core.perf_model.network_perf`
    semantics stage for stage.

    ``fit=False`` drops the per-segment device capacity constraint —
    the full-size zoo members overflow even several Virtex-7s (FC
    weight storage dominates), yet their sharded co-simulation is still
    meaningful; the plan keeps honest resource totals and
    :meth:`MultiFpgaPlan.fits` still reports the overflow.
    """
    n = design.n_layers
    if not (1 <= n_devices <= n):
        raise ConfigurationError(
            f"n_devices must be in [1, {n}], got {n_devices}"
        )
    if link is None:
        link = LinkModel()
    placements = design.placements
    perf = network_perf(
        design, loop_overhead=loop_overhead, dma_beat=dma.beat_interval(32)
    )
    resources = [layer_resources(p) for p in placements]
    egress = [segment_egress_words(p) for p in placements]

    best: Optional[Tuple[float, float, MultiFpgaPlan]] = None
    for cuts in itertools.combinations(range(1, n), n_devices - 1):
        bounds = [0, *cuts, n]
        segments: List[Segment] = []
        for d in range(n_devices):
            lo, hi = bounds[d], bounds[d + 1]
            seg_res = BASE_DESIGN
            for r in resources[lo:hi]:
                seg_res = seg_res + r
            segments.append(
                Segment(
                    device_index=d,
                    layer_names=tuple(p.spec.name for p in placements[lo:hi]),
                    resources=seg_res,
                    egress_words=egress[hi - 1],
                )
            )
        linked = replace(perf, links=_link_perfs(segments, link))
        plan = MultiFpgaPlan(design.name, segments, link, linked.stages)
        if fit and not plan.fits(device):
            continue
        peak = max(s.resources.dsp for s in segments)
        key = (plan.interval, peak)
        if best is None or key < (best[0], best[1]):
            best = (plan.interval, peak, plan)
    if best is None:
        raise ResourceError(
            f"no {n_devices}-way split of {design.name!r} fits {device.name}"
        )
    return best[2]
