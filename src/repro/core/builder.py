"""Compile a :class:`NetworkDesign` + weights into a runnable dataflow graph.

This is the elaboration step the paper performs with Vivado IPI: every
layer becomes its memory structure (per-port sliding-window actors) plus
its computation core, the three port cases of Section IV-A become
round-robin demux/interleaver adapters, and the whole chain is framed by a
DMA-rate source and a sink. The resulting graph runs on the cycle-accurate
simulator (timing + values) under any engine of
:data:`~repro.dataflow.simulator.SCHEDULERS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import DTYPE
from repro.core.compute_core import ConvCoreActor
from repro.core.fc_core import FCCoreActor
from repro.core.layer_spec import ConvLayerSpec, FCLayerSpec, PoolLayerSpec
from repro.core.network_design import LayerPlacement, NetworkDesign
from repro.core.perf_model import conv_core_depth, fc_core_depth
from repro.core.pool_core import PoolCoreActor
from repro.dataflow.actor import Actor
from repro.dataflow.actors import ArraySource, Interleaver, ListSink, ScheduleDemux
from repro.dataflow.channel import Channel
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.link import LinkRxActor, LinkTxActor
from repro.dataflow.simulator import SimulationResult
from repro.dataflow.trace import Tracer
from repro.errors import ConfigurationError, ShapeError, SimulationError
from repro.fpga.dma import PAPER_DMA
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.linear import Linear
from repro.nn.network import Sequential
from repro.sst.block import BlockMergeActor, BlockSplitActor
from repro.sst.filter_chain import build_filter_chain
from repro.sst.line_buffer import SlidingWindowActor
from repro.sst.padding import PadInserter
from repro.sst.window import WindowSpec

if TYPE_CHECKING:  # import cycles: both modules drive this builder
    from repro.analysis.depths import DepthPlan
    from repro.core.multi_fpga import MultiFpgaPlan
    from repro.faults.injectors import ArmedFaults

#: Per-layer parameter arrays keyed by the spec's layer name.
DesignWeights = Dict[str, Dict[str, np.ndarray]]
#: One port of the pipeline under construction: (producer actor, out port).
Stream = Tuple[Actor, str]


#: float64 elements drawn at a time by :func:`_uniform_rows` (8 MiB).
_DRAW_BLOCK = 1 << 20


def _uniform_rows(
    rng: np.random.Generator, low: float, high: float, shape: Tuple[int, ...]
) -> np.ndarray:
    """``rng.uniform(low, high, shape).astype(DTYPE)``, a block of rows at a time.

    A ``Generator``'s stream is sequential, so consecutive row blocks are
    bit for bit the one-shot draw and leave the generator in the same
    state; each block goes straight into its float32 destination, so the
    float64 draw of a large matrix (AlexNet ``fc6``: 288 MiB) never exists
    whole next to its float32 copy.
    """
    out = np.empty(shape, DTYPE)
    step = max(1, _DRAW_BLOCK // max(1, out[:1].size))
    for r in range(0, shape[0], step):
        rows = out[r : r + step]
        rows[...] = rng.uniform(low, high, rows.shape)
    return out


def random_weights(design: NetworkDesign, seed: int = 0) -> DesignWeights:
    """Small random weights for every parameterized layer (tests/examples)."""
    rng = np.random.default_rng(seed)
    out: DesignWeights = {}
    for p in design.placements:
        spec = p.spec
        if isinstance(spec, ConvLayerSpec):
            shape: Tuple[int, ...] = (spec.out_fm, spec.in_fm, spec.kh, spec.kw)
        elif isinstance(spec, FCLayerSpec):
            shape = (spec.out_fm, spec.in_fm)
        else:
            continue
        out[spec.name] = {
            "weight": _uniform_rows(rng, -0.5, 0.5, shape),
            "bias": _uniform_rows(rng, -0.1, 0.1, (spec.out_fm,)),
        }
    return out


def seeded_batch(design: NetworkDesign, seed: int, images: int) -> np.ndarray:
    """The ``(images, C, H, W)`` input batch every seeded harness run uses.

    A pure function of ``(design.input_shape, seed, images)``: faultsim,
    profile, shrink, shard and ``repro simulate`` all draw their inputs
    here, which is what makes their digests and cycle counts comparable.
    """
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (images,) + design.input_shape).astype(np.float32)


def extract_weights(design: NetworkDesign, net: Sequential) -> DesignWeights:
    """Pull trained parameters out of a :class:`Sequential` model.

    Conv specs are matched to ``Conv2D`` layers and FC specs to ``Linear``
    layers in order; shapes are validated. The network's ``Flatten`` order
    (pixel-major, FM-minor) equals the stream order entering the FC core,
    so linear weights transfer without permutation.
    """
    convs = [l for l in net.layers if isinstance(l, Conv2D)]
    linears = [l for l in net.layers if isinstance(l, Linear)]
    out: DesignWeights = {}
    ci = li = 0
    for p in design.placements:
        spec = p.spec
        if isinstance(spec, ConvLayerSpec):
            if ci >= len(convs):
                raise ConfigurationError(
                    f"design has more conv specs than the model has Conv2D layers"
                )
            conv = convs[ci]
            ci += 1
            expected: Tuple[int, ...] = (spec.out_fm, spec.in_fm, spec.kh, spec.kw)
            if conv.weight.shape != expected:
                raise ShapeError(
                    f"{spec.name!r}: model weight {conv.weight.shape} != "
                    f"spec {expected}"
                )
            out[spec.name] = {"weight": conv.weight.copy(), "bias": conv.bias.copy()}
        elif isinstance(spec, FCLayerSpec):
            if li >= len(linears):
                raise ConfigurationError(
                    f"design has more FC specs than the model has Linear layers"
                )
            fc = linears[li]
            li += 1
            expected = (spec.out_fm, spec.in_fm)
            if fc.weight.shape != expected:
                raise ShapeError(
                    f"{spec.name!r}: model weight {fc.weight.shape} != "
                    f"spec {expected}"
                )
            out[spec.name] = {"weight": fc.weight.copy(), "bias": fc.bias.copy()}
    if ci != len(convs) or li != len(linears):
        raise ConfigurationError(
            f"model has unmatched layers (conv {len(convs) - ci}, "
            f"linear {len(linears) - li} left over)"
        )
    return out


def interleave_images(batch: np.ndarray) -> np.ndarray:
    """Flatten ``(N, C, H, W)`` into the DMA stream order.

    Per image: raster scan, feature maps innermost — the layout every port
    and adapter in the design assumes.
    """
    if batch.ndim != 4:
        raise ShapeError(f"batch must be (N, C, H, W), got {batch.shape}")
    n, c, h, w = batch.shape
    # One plane at a time, cast straight into the stream the source owns:
    # each copy runs over a whole plane, not over the c maps of one pixel.
    stream = np.empty(batch.size, DTYPE)
    planes = stream.reshape(n, h, w, c)
    for ci in range(c):
        planes[..., ci] = batch[:, ci]
    return stream


@dataclass
class BuiltNetwork:
    """A compiled design: graph + endpoints + layout bookkeeping."""

    design: NetworkDesign
    graph: DataflowGraph
    source: ArraySource
    sink: ListSink
    images: int
    #: Set after run(): the simulation result.
    result: Optional[SimulationResult] = None
    _ran: bool = field(default=False, init=False, repr=False)

    def run(
        self,
        max_cycles: int = 50_000_000,
        stall_limit: int = 10_000,
        tracer: Optional[Tracer] = None,
        scheduler: str = "event",
        faults: Optional["ArmedFaults"] = None,
    ) -> SimulationResult:
        """Cycle-accurate simulation of the whole batch.

        Pass a :class:`~repro.dataflow.trace.Tracer` to sample per-actor
        activity and channel occupancy during the run. ``scheduler``
        selects the simulation engine (``"event"`` or ``"compiled"``).
        ``faults`` is an :class:`~repro.faults.ArmedFaults` armed on this
        graph; only the interpreted engines accept one.

        A built network runs once, like a simulator: its actors and sink
        keep what the run did to them, so a second call raises
        :class:`~repro.errors.SimulationError`. Build the network again
        to rerun it.
        """
        if self._ran:
            raise SimulationError(
                f"network {self.design.name!r} has already run; build it "
                f"again to run it again"
            )
        sim = self.graph.build_simulator(
            stall_limit=stall_limit, tracer=tracer, scheduler=scheduler
        )
        self._ran = True
        sim.faults = faults
        self.result = sim.run(max_cycles=max_cycles)
        return self.result

    def outputs(self) -> np.ndarray:
        """Collected outputs reshaped to ``(N, K, OH, OW)`` / ``(N, K)``.

        The sink stream is image-major, coordinate-major, FM-minor.
        """
        k, oh, ow = self.design.output_shape
        vals = np.asarray(self.sink.received, dtype=DTYPE)
        expected = self.images * k * oh * ow
        if vals.size != expected:
            raise ShapeError(
                f"sink holds {vals.size} values, expected {expected}; "
                f"did the simulation run to completion?"
            )
        arr = vals.reshape(self.images, oh, ow, k).transpose(0, 3, 1, 2)
        if (oh, ow) == (1, 1):
            return arr.reshape(self.images, k)
        return arr

    def image_completion_cycles(self) -> List[int]:
        """Cycle at which each image's last output value left the design."""
        k, oh, ow = self.design.output_shape
        per_image = k * oh * ow
        ts = self.sink.timestamps
        if len(ts) != self.images * per_image:
            raise ShapeError("simulation incomplete; no timing available")
        return [ts[(i + 1) * per_image - 1] for i in range(self.images)]

    def measured_interval(self) -> Optional[int]:
        """Steady-state cycles/image measured at the sink: the *max*
        completion delta, or ``None`` when the batch has fewer than two
        images. (The profiler reports the *last* delta and
        :func:`~repro.core.runner.run_batch` the *mean*: different
        definitions, which agree on a run that reached steady state.)"""
        cc = self.image_completion_cycles()
        return max((b - a for a, b in zip(cc, cc[1:])), default=None)


def build_network(
    design: NetworkDesign,
    weights: DesignWeights,
    batch: np.ndarray,
    channel_capacity: int = 4,
    memory_system: str = "behavioral",
    loop_overhead: int = 0,
    normalize: bool = False,
    depth_plan: Optional["DepthPlan"] = None,
    multi_plan: Optional["MultiFpgaPlan"] = None,
) -> BuiltNetwork:
    """Elaborate ``design`` into a dataflow graph processing ``batch``.

    Parameters
    ----------
    design: the validated layer chain.
    weights: per-layer parameter arrays (:func:`random_weights`,
        :func:`extract_weights`, or hand-built).
    batch: ``(N, C, H, W)`` input images; ``C, H, W`` must match the design.
    channel_capacity: default FIFO depth for inter-actor links.
    memory_system: ``"behavioral"`` uses the fast line-buffer actor per
        port; ``"literal"`` elaborates the full SST filter chain (one
        actor per tap, full-buffering FIFO depths, padding injectors) —
        the maximum-fidelity mode, O(kernel-size) more actors.
    loop_overhead: extra stall cycles per conv-core coordinate, the
        calibration constant that reconciles the ideal pipeline with the
        paper's measured board latencies (docs/calibration.md).
    normalize: append the Eq. 3 normalization operator after the last
        layer (requires the design to end in a 1x1-spatial stage), so the
        sink collects class probabilities instead of logits.
    depth_plan: a certified :class:`~repro.analysis.depths.DepthPlan`
        to apply to the elaborated graph (shrinks every bounded channel
        to its certificate depth; the plan must match this elaboration's
        ``memory_system``). The plan stays attached as
        ``graph.depth_plan`` so :func:`repro.analysis.analyze_graph` runs
        the BUFFER.DEPTH_* rules.
    multi_plan: a :class:`~repro.core.multi_fpga.MultiFpgaPlan` from
        :func:`~repro.core.multi_fpga.plan_split`. The graph is cut at
        the planned segment boundaries: each cut becomes a
        :class:`~repro.dataflow.link.LinkTxActor` /
        :class:`~repro.dataflow.link.LinkRxActor` pair joined by a
        ``link{d}.wire`` channel whose transmitter paces at the plan's
        link beat interval — one multi-device co-simulation in a single
        simulator. A cut at a *blocked* conv layer lands between the
        cores and the merge stages (the merges relocate to the
        downstream device), so the wire carries the uniform tile grid
        the plan's ``egress_words`` prices. The plan stays attached as
        ``graph.multi_plan`` for the compiled engine's timing frame.
    """
    if loop_overhead < 0:
        raise ConfigurationError(
            f"loop_overhead must be >= 0, got {loop_overhead}"
        )
    if memory_system not in ("behavioral", "literal"):
        raise ConfigurationError(
            f"memory_system must be 'behavioral' or 'literal', "
            f"got {memory_system!r}"
        )
    if batch.ndim != 4 or tuple(batch.shape[1:]) != design.input_shape:
        raise ShapeError(
            f"batch shape {batch.shape} does not match design input "
            f"{design.input_shape}"
        )
    images = batch.shape[0]
    g = DataflowGraph(design.name, default_capacity=channel_capacity)
    g.design = design

    # Planned cut points: last layer of each non-final segment -> link index.
    cut_after: Dict[str, int] = {}
    link_beat = 1
    if multi_plan is not None:
        _check_multi_plan(design, multi_plan)
        for d, seg in enumerate(multi_plan.segments[:-1]):
            cut_after[seg.layer_names[-1]] = d
        link_beat = multi_plan.link.beat_interval()
        g.multi_plan = multi_plan

    source = ArraySource(
        "dma_in", interleave_images(batch), interval=PAPER_DMA.beat_interval(32)
    )
    g.add_actor(source)
    # `streams` holds, per current port, (producer_actor, out_port_name).
    streams: List[Stream] = [(source, "out")]

    for p in design.placements:
        spec = p.spec
        streams = _adapt_ports(g, spec.name, streams, spec.in_ports, spec.in_fm)
        _, h, w = p.in_shape
        if isinstance(spec, ConvLayerSpec):
            if spec.name not in weights:
                raise ConfigurationError(f"no weights for layer {spec.name!r}")
            wdict = weights[spec.name]
            oh, ow = spec.out_hw(h, w)
            plan = spec.block_plan(h, w)
            depth = conv_core_depth(spec.in_ports, spec.kh, spec.kw)
            core = g.add_actor(
                ConvCoreActor(
                    f"{spec.name}.core",
                    wdict["weight"],
                    wdict["bias"],
                    spec.in_ports,
                    spec.out_ports,
                    # Blocked layers compute the uniform tile grid, then
                    # drop overhang coordinates at the merge stage.
                    n_coords=plan.coords if plan is not None else oh * ow,
                    images=images,
                    activation=spec.activation,
                    pipeline_depth=depth,
                    # The hardware pipeline keeps depth/II coordinates in
                    # flight; the result queue must hold them or the depth
                    # gate would serialize the loop.
                    queue_depth=depth // max(spec.ii, 1) + 2,
                    coord_overhead=loop_overhead,
                )
            )
            for port, (prod, oport) in enumerate(streams):
                if plan is not None:
                    # Block convolution: stage the image off-chip, re-read
                    # it as halo-overlapped tiles, and run the (pad-free)
                    # per-tile window over block geometry — one "image"
                    # per tile from the memory structure's point of view.
                    split = g.add_actor(
                        BlockSplitActor(
                            f"{spec.name}.split{port}", plan,
                            group=spec.in_group, images=images,
                        )
                    )
                    g.connect(prod, oport, split, "in", capacity=channel_capacity)
                    win, win_out = _window_stage(
                        g, f"{spec.name}.win{port}", plan.tile_window,
                        plan.ih, plan.iw, spec.in_group,
                        images * plan.n_tiles, split, "out",
                        channel_capacity, memory_system,
                    )
                else:
                    win, win_out = _window_stage(
                        g, f"{spec.name}.win{port}", spec.window, h, w,
                        spec.in_group, images, prod, oport, channel_capacity,
                        memory_system,
                    )
                g.connect(win, win_out, core, f"in{port}", capacity=channel_capacity)
            if plan is not None and spec.name not in cut_after:
                merged: List[Stream] = []
                for i in range(spec.out_ports):
                    merge = g.add_actor(
                        BlockMergeActor(
                            f"{spec.name}.merge{i}", plan,
                            group=spec.out_group, images=images,
                        )
                    )
                    g.connect(core, f"out{i}", merge, "in", capacity=channel_capacity)
                    merged.append((merge, "out"))
                streams = merged
            else:
                # A blocked layer at a cut boundary keeps its raw core
                # streams: the merges relocate past the link (below), so
                # the uniform tile grid is what crosses the wire.
                streams = [(core, f"out{i}") for i in range(spec.out_ports)]
        elif isinstance(spec, PoolLayerSpec):
            oh, ow = spec.out_hw(h, w)
            new_streams: List[Stream] = []
            for port, (prod, oport) in enumerate(streams):
                win, win_out = _window_stage(
                    g, f"{spec.name}.win{port}", spec.window, h, w,
                    spec.in_group, images, prod, oport, channel_capacity,
                    memory_system,
                )
                core = g.add_actor(
                    PoolCoreActor(
                        f"{spec.name}.core{port}",
                        spec.mode,
                        count=oh * ow * spec.in_group * images,
                    )
                )
                g.connect(win, win_out, core, "in", capacity=channel_capacity)
                new_streams.append((core, "out"))
            streams = new_streams
        elif isinstance(spec, FCLayerSpec):
            if spec.name not in weights:
                raise ConfigurationError(f"no weights for layer {spec.name!r}")
            wdict = weights[spec.name]
            depth = fc_core_depth(spec.acc_lanes)
            core = g.add_actor(
                FCCoreActor(
                    f"{spec.name}.core",
                    wdict["weight"],
                    wdict["bias"],
                    acc_lanes=spec.acc_lanes,
                    images=images,
                    activation=spec.activation,
                    pipeline_depth=depth,
                    queue_depth=depth // max(spec.in_fm, 1) + 2,
                )
            )
            (prod, oport) = streams[0]
            g.connect(prod, oport, core, "in", capacity=channel_capacity)
            streams = [(core, "out")]
        else:
            raise ConfigurationError(f"unknown layer spec kind {spec.kind!r}")
        if spec.name in cut_after:
            assert multi_plan is not None  # cut_after is filled from it
            streams = _insert_link(
                g, cut_after[spec.name], multi_plan, streams, p, h, w,
                images, channel_capacity, link_beat,
            )

    # DMA out is a single 32-bit stream: widen to one port if needed.
    streams = _adapt_ports(g, "dma_out", streams, 1, design.output_shape[0])
    if normalize:
        k, oh, ow = design.output_shape
        if (oh, ow) != (1, 1):
            raise ConfigurationError(
                f"normalize requires a 1x1-spatial output, got {oh}x{ow}"
            )
        from repro.core.norm_core import NormalizationActor, normalization_depth

        norm = g.add_actor(
            NormalizationActor(
                "normalize", n_classes=k, images=images,
                pipeline_depth=normalization_depth(k),
            )
        )
        prod, oport = streams[0]
        g.connect(prod, oport, norm, "in", capacity=channel_capacity)
        streams = [(norm, "out")]
    sink = ListSink("dma_out_sink", count=images * design.output_words_per_image())
    g.add_actor(sink)
    prod, oport = streams[0]
    g.connect(prod, oport, sink, "in", capacity=channel_capacity)
    if depth_plan is not None:
        # Imported lazily: repro.analysis drives this builder itself.
        from repro.analysis.depths import apply_depth_plan

        apply_depth_plan(g, depth_plan)
    return BuiltNetwork(design=design, graph=g, source=source, sink=sink, images=images)


def _window_stage(
    g: DataflowGraph,
    name: str,
    window: WindowSpec,
    h: int,
    w: int,
    group: int,
    images: int,
    prod: Actor,
    oport: str,
    capacity: int,
    memory_system: str,
) -> Stream:
    """One port's memory structure: behavioral line buffer or literal chain.

    Returns ``(actor, out_port)`` whose stream carries the window beats.
    """
    if memory_system == "behavioral":
        win = g.add_actor(
            SlidingWindowActor(name, window, h, w, group=group, images=images)
        )
        g.connect(prod, oport, win, "in", capacity=capacity)
        return win, "out"
    head, asm = build_filter_chain(g, name, window, h, w, group=group, images=images)
    if window.pad:
        padder = g.add_actor(
            PadInserter(f"{name}.padder", h, w, window.pad, group, images)
        )
        g.connect(prod, oport, padder, "in", capacity=capacity)
        g.connect(padder, "out", head, "in", capacity=capacity)
    else:
        g.connect(prod, oport, head, "in", capacity=capacity)
    return asm, "out"


def _adapt_ports(
    g: DataflowGraph,
    name: str,
    streams: List[Stream],
    want_ports: int,
    n_fm: int,
) -> List[Stream]:
    """Insert the Section IV-A adapter between ``streams`` and ``want_ports``.

    Uses the modulo-interleaved FM-to-port convention: FM ``f`` lives on
    port ``f % P`` in ascending order, both upstream and downstream, which
    makes every adapter a round-robin demux or interleaver.
    """
    have = len(streams)
    if have == want_ports:
        return streams
    if want_ports % have == 0 and want_ports > have:
        # Demux: each producer port deals its FMs out to ratio consumers.
        ratio = want_ports // have
        new: List[Optional[Stream]] = [None] * want_ports
        for i, (prod, oport) in enumerate(streams):
            dem = g.add_actor(ScheduleDemux(f"{name}.demux{i}", n_outputs=ratio))
            g.connect(prod, oport, dem, "in")
            for m in range(ratio):
                # Local output m feeds consumer port i + m*have.
                new[i + m * have] = (dem, f"out{m}")
        return [s for s in new if s is not None]
    if have % want_ports == 0 and have > want_ports:
        # Widen: each consumer port merges ratio producer ports round-robin.
        ratio = have // want_ports
        widened: List[Stream] = []
        for r in range(want_ports):
            inter = g.add_actor(Interleaver(f"{name}.widen{r}", n_inputs=ratio))
            for m in range(ratio):
                prod, oport = streams[r + m * want_ports]
                g.connect(prod, oport, inter, f"in{m}")
            widened.append((inter, "out"))
        return widened
    raise ConfigurationError(
        f"{name!r}: cannot adapt {have} ports to {want_ports} "
        f"(counts must divide; n_fm={n_fm})"
    )


def _check_multi_plan(design: NetworkDesign, multi_plan: "MultiFpgaPlan") -> None:
    """Reject a plan that does not partition this exact design."""
    if multi_plan.design_name != design.name:
        raise ConfigurationError(
            f"multi-FPGA plan is for {multi_plan.design_name!r}, "
            f"not {design.name!r}"
        )
    planned = [n for seg in multi_plan.segments for n in seg.layer_names]
    actual = [s.name for s in design.specs]
    if planned != actual:
        raise ConfigurationError(
            f"multi-FPGA plan layers {planned} do not match design "
            f"layers {actual}"
        )


def _insert_link(
    g: DataflowGraph,
    d: int,
    multi_plan: "MultiFpgaPlan",
    streams: List[Stream],
    placement: LayerPlacement,
    h: int,
    w: int,
    images: int,
    capacity: int,
    link_beat: int,
) -> List[Stream]:
    """Cut the pipeline after ``placement`` with link ``d``.

    The cut is a serial board-to-board stream: the producer ports are
    round-robin-interleaved onto one wire, shipped through a paced
    :class:`~repro.dataflow.link.LinkTxActor` /
    :class:`~repro.dataflow.link.LinkRxActor` pair, and dealt back out to
    the original port count on the far device. Round-robin serialisation
    and deal-out are exact inverses at equal per-port rates, so the far
    shard sees bit-identical per-port streams — only the timing changes.
    For a blocked conv cut the deferred merge stages are re-created here,
    downstream of the link.
    """
    spec = placement.spec
    seg = multi_plan.segments[d]
    words = seg.egress_words
    n_ports = len(streams)
    n_fm = placement.out_shape[0]
    streams = _adapt_ports(g, f"link{d}.pre", streams, 1, n_fm)
    tx = g.add_actor(LinkTxActor(f"link{d}.tx", words, beat=link_beat))
    prod, oport = streams[0]
    g.connect(prod, oport, tx, "in", capacity=capacity)
    rx = g.add_actor(LinkRxActor(f"link{d}.rx", words))
    g.connect(tx, "out", rx, "in", capacity=capacity, name=f"link{d}.wire")
    streams = _adapt_ports(g, f"link{d}.post", [(rx, "out")], n_ports, n_fm)
    if isinstance(spec, ConvLayerSpec):
        plan = spec.block_plan(h, w)
        if plan is not None:
            merged: List[Stream] = []
            for i, (mprod, moport) in enumerate(streams):
                merge = g.add_actor(
                    BlockMergeActor(
                        f"{spec.name}.merge{i}", plan,
                        group=spec.out_group, images=images,
                    )
                )
                g.connect(mprod, moport, merge, "in", capacity=capacity)
                merged.append((merge, "out"))
            return merged
    return streams
