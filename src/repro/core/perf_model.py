"""Analytical performance model of a dataflow CNN design.

The network behaves as a high-level pipeline (Section IV-C): at steady
state every layer is busy concurrently, so the per-image interval is the
busiest stage's per-image cycle count, and a batch of ``B`` images takes

    ``T(B) = fill_latency + (B - 1) * interval``

which is exactly the converging mean-time-per-image curve of Figure 6.
The model is validated against the cycle-accurate simulator in
``tests/core/test_perf_vs_sim.py``; the cycle simulator remains the
ground truth, the model its fast closed form for full-scale sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.layer_spec import ConvLayerSpec, FCLayerSpec, PoolLayerSpec
from repro.core.network_design import LayerPlacement, NetworkDesign
from repro.errors import ConfigurationError
from repro.fpga.board import Board, VC707
from repro.hls.ops import op_cost
from repro.hls.pipeline import tree_depth


@dataclass(frozen=True)
class LayerPerf:
    """Per-image cycle accounting of one pipeline stage."""

    name: str
    kind: str
    #: Input stream beats per port per image.
    in_beats: int
    #: Computation-core busy cycles per image.
    core_cycles: int
    #: Output stream beats per port per image.
    out_beats: int
    #: Cycles from the stage's last input beat to its last output beat
    #: when the core is input-paced (the drain of the final coordinate).
    tail_cycles: int
    #: Input beats needed before the first window/result can be produced.
    prime_beats: int
    #: Datapath pipeline depth (first firing to first emitted value).
    depth_cycles: int

    @property
    def interval(self) -> int:
        """Per-image cycles this stage needs at steady state."""
        return max(self.in_beats, self.core_cycles, self.out_beats)


def conv_core_depth(in_ports: int, kh: int, kw: int) -> int:
    """Datapath depth of the conv core: multiply, product tree, accumulate."""
    fadd = op_cost("add").latency
    fmul = op_cost("mul").latency
    return fmul + tree_depth(in_ports * kh * kw) * fadd + fadd


def fc_core_depth(acc_lanes: int) -> int:
    """Datapath depth of the FC core's final lane combine (plus bias add)."""
    fadd = op_cost("add").latency
    return tree_depth(acc_lanes) * fadd + fadd


def layer_perf(placement: LayerPlacement, loop_overhead: float = 0.0) -> LayerPerf:
    """Cycle accounting for one layer placement.

    ``loop_overhead`` models per-coordinate pipeline overhead of the HLS
    coordinate loop (imperfect loop flattening adds a few cycles between
    iterations of the outer loop in real Vivado HLS kernels). The ideal
    dataflow model uses 0; :func:`fit_loop_overhead` recovers the
    constant implied by a measured board latency.
    """
    if loop_overhead < 0:
        raise ConfigurationError(
            f"loop_overhead must be >= 0, got {loop_overhead}"
        )
    spec = placement.spec
    c, h, w = placement.in_shape
    k, oh, ow = placement.out_shape
    in_beats = h * w * spec.in_group
    out_beats = oh * ow * spec.out_group
    fadd = op_cost("add").latency
    fmul = op_cost("mul").latency
    if isinstance(spec, ConvLayerSpec):
        plan = spec.block_plan(h, w)
        depth = conv_core_depth(spec.in_ports, spec.kh, spec.kw)
        # After the last input pixel: finish the final coordinate (one II),
        # push it through mult + product tree + accumulate, emit its beats.
        tail = spec.ii + depth + spec.out_group
        if plan is not None:
            # Block convolution (Eq. 4 with halo overhead): the split
            # stage re-reads each halo row/column once per adjacent tile,
            # amplifying the input stream from h*w to n_tiles*ih*iw words
            # per FM, and the core computes the uniform tile grid
            # (coords >= oh*ow: overhang is dropped at the merge).
            in_beats = plan.in_words * spec.in_group
            core = int(round(plan.coords * (spec.ii + loop_overhead)))
            out_beats = plan.coords * spec.out_group
            # First window: a full image staged by the split, then the
            # first tile's window primed over block geometry (pad-free).
            prime = (h * w + (spec.kh - 1) * plan.iw + spec.kw) * spec.in_group
        else:
            core = int(round(oh * ow * (spec.ii + loop_overhead)))
            _, wp = spec.window.padded_shape(h, w)
            prime = ((spec.kh - 1) * wp + spec.kw) * spec.in_group
    elif isinstance(spec, PoolLayerSpec):
        core = out_beats  # II = 1 per window beat
        depth = 1
        tail = spec.in_group + 1  # last pixel completes the last windows
        prime = ((spec.kh - 1) * w + spec.kw) * spec.in_group
    elif isinstance(spec, FCLayerSpec):
        if spec.weight_streaming:
            # One MAC per cycle fed by a 1-word/cycle weight stream: the
            # core must ingest the whole matrix per image (memory-centric).
            core = spec.in_fm * spec.out_fm
        else:
            core = spec.in_fm
        depth = fc_core_depth(spec.acc_lanes)
        tail = depth + spec.out_fm
        prime = spec.in_fm  # outputs emitted only after all inputs arrive
    else:
        raise ConfigurationError(f"unknown spec kind {spec.kind!r}")
    return LayerPerf(
        name=spec.name,
        kind=spec.kind,
        in_beats=in_beats,
        core_cycles=core,
        out_beats=out_beats,
        tail_cycles=tail,
        prime_beats=prime,
        depth_cycles=depth,
    )


@dataclass(frozen=True)
class LinkPerf:
    """A board-to-board link stage of a sharded design (Section VI)."""

    #: Name of the cut layer whose output crosses the wire.
    after: str
    #: Wire stream cycles per image.
    cycles: int
    #: Cycles per word on the wire (paces the first word's traversal).
    beat: int


@dataclass(frozen=True)
class Stage:
    """One entry of the pipeline's stage list: a name and what it costs."""

    name: str
    #: ``"dma"``, ``"link"``, or the layer kind (``"conv"``/``"pool"``/``"fc"``).
    kind: str
    #: Cycles per image; fractional only where a throttle re-priced the stage.
    cycles: float


def pacing_stage(stages: Sequence[Stage]) -> Stage:
    """The stage that paces the pipeline: the slowest one.

    The one tie-break of the timing model: DMA endpoints first, then
    layers in pipeline order, then links; a later stage wins only on
    strictly more cycles.
    """
    rank = {"dma": 0, "link": 2}
    # max() keeps the first of equal keys, i.e. pipeline order within a rank.
    return max(stages, key=lambda s: (s.cycles, -rank.get(s.kind, 1)))


def repriced(stages: Sequence[Stage], name: str, cycles: float) -> Tuple[Stage, ...]:
    """The same stage list with stage ``name`` costing ``cycles``.

    A throttle is exactly this: every other stage keeps its price and
    :func:`pacing_stage` decides whether the degraded one now paces.
    """
    if all(s.name != name for s in stages):
        raise ConfigurationError(
            f"no stage {name!r} to re-price among {[s.name for s in stages]}"
        )
    return tuple(
        Stage(s.name, s.kind, cycles) if s.name == name else s for s in stages
    )


@dataclass(frozen=True)
class NetworkPerf:
    """Whole-network performance figures (cycles, per image)."""

    design_name: str
    layers: List[LayerPerf]
    #: DMA-in stream cycles per image.
    dma_in_cycles: int
    #: DMA-out stream cycles per image.
    dma_out_cycles: int
    #: Link stages of a sharded design, one per cut, in pipeline order.
    links: Tuple[LinkPerf, ...] = ()

    @property
    def stages(self) -> Tuple[Stage, ...]:
        """The pipeline in stream order: ``dma_in``, every layer, a
        ``link{d}`` after each cut layer, ``dma_out``.

        Everything below — interval, bottleneck, breakdown — is a query
        on this list, and so is every other module's timing answer.
        """
        cuts = {link.after: d for d, link in enumerate(self.links)}
        out = [Stage("dma_in", "dma", self.dma_in_cycles)]
        for l in self.layers:
            out.append(Stage(l.name, l.kind, l.interval))
            if l.name in cuts:
                d = cuts.pop(l.name)
                out.append(Stage(f"link{d}", "link", self.links[d].cycles))
        if cuts:
            raise ConfigurationError(
                f"link(s) cut after unknown layer(s) {sorted(cuts)} of "
                f"{self.design_name!r}"
            )
        out.append(Stage("dma_out", "dma", self.dma_out_cycles))
        return tuple(out)

    @property
    def interval(self) -> int:
        """Steady-state cycles between consecutive image completions:
        the slowest stage paces everyone else."""
        return int(pacing_stage(self.stages).cycles)

    @property
    def bottleneck(self) -> str:
        """Name of the pacing stage."""
        return pacing_stage(self.stages).name

    @property
    def fill_latency(self) -> int:
        """Cycles from the first input beat to the first image's last output.

        Recursive stage model: a layer's first output appears once its
        first window is primed and the datapath depth has elapsed; its last
        output is bounded below both by its upstream's last output (plus
        the drain tail) and by its own busy time from the first firing —
        core-bound stages keep working long after their input went quiet.
        """
        # Upstream emission pace (cycles per beat) starts at the DMA rate.
        first_out = 0.0
        last_out = float(self.dma_in_cycles)
        pace = self.dma_in_cycles / max(
            1, self.layers[0].in_beats if self.layers else 1
        )
        for l in self.layers:
            t_first = first_out + l.prime_beats * pace + l.depth_cycles
            t_last = max(
                last_out + l.tail_cycles,
                # Busy from the first firing: compute, and emit out_beats
                # beats at one beat per port per cycle.
                t_first + max(l.core_cycles, l.out_beats),
                # Ingest in_beats beats at one beat per port per cycle,
                # starting when the upstream's first beat arrives — binding
                # when an adapter serialises wider upstream ports into this
                # stage's narrower input.
                first_out + l.in_beats,
            )
            first_out = t_first
            last_out = t_last
            pace = l.interval / max(1, l.out_beats)
        # The output DMA drains the final stream at its own beat rate; a
        # wide output volume can outlast the last layer's compute.
        last_out = max(last_out + 1, first_out + self.dma_out_cycles)
        # Each link hop delays the first word by its traversal of the
        # serializing interleave, the paced tx beat, the wire register,
        # the rx relay and the deal-out demux.
        hops = sum(4 + link.beat for link in self.links)
        return int(round(last_out)) + hops

    def batch_cycles(self, batch: int) -> int:
        """Total cycles to process a batch of ``batch`` images."""
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        return self.fill_latency + (batch - 1) * self.interval

    def mean_cycles_per_image(self, batch: int) -> float:
        """Figure 6's y-axis (in cycles; divide by clock for seconds)."""
        return self.batch_cycles(batch) / batch

    def images_per_second(self, board: Board = VC707) -> float:
        """Steady-state throughput."""
        return board.clock.frequency_hz / self.interval

    def image_latency_s(self, board: Board = VC707) -> float:
        """Converged mean time per image (Table II's latency column)."""
        return board.seconds(self.interval)


def network_perf(
    design: NetworkDesign,
    board: Board = VC707,
    loop_overhead: float = 0.0,
    dma_setup_cycles: int = 0,
    dma_beat: Optional[int] = None,
    links: Sequence[LinkPerf] = (),
) -> NetworkPerf:
    """Build the analytical model of ``design`` on ``board``.

    ``dma_setup_cycles`` models a fixed per-image DMA descriptor-setup
    cost on both stream directions (the alternative calibration
    hypothesis examined — and rejected — by
    ``benchmarks/bench_calibration.py``). ``dma_beat`` overrides the
    board's cycles per DMA word (an elaborated graph carries its own);
    ``links`` are the link stages of a sharded design
    (:meth:`~repro.core.multi_fpga.MultiFpgaPlan.link_perfs`).
    """
    if dma_setup_cycles < 0:
        raise ConfigurationError(
            f"dma_setup_cycles must be >= 0, got {dma_setup_cycles}"
        )
    layers = [layer_perf(p, loop_overhead) for p in design.placements]
    beat = board.dma.beat_interval(32) if dma_beat is None else dma_beat
    return NetworkPerf(
        design_name=design.name,
        layers=layers,
        dma_in_cycles=design.input_words_per_image() * beat + dma_setup_cycles,
        dma_out_cycles=design.output_words_per_image() * beat + dma_setup_cycles,
        links=tuple(links),
    )


#: Scan ranges of the two calibration fits (cycles).
_MAX_DMA_SETUP = 20_000
_MAX_LOOP_OVERHEAD = 16.0
_LOOP_OVERHEAD_STEP = 0.05


def fit_dma_setup(
    design: NetworkDesign,
    measured_interval_cycles: float,
    board: Board = VC707,
) -> int:
    """Per-image DMA setup cost implied by a measured interval.

    The competing hypothesis to :func:`fit_loop_overhead`: maybe the paper's
    extra latency is per-image transfer overhead rather than per-coordinate
    loop overhead. Returns the best-fitting constant; the calibration bench
    shows the two test cases imply wildly different constants under this
    hypothesis (324 vs thousands of cycles), which rejects it.
    """
    if measured_interval_cycles <= 0:
        raise ConfigurationError(
            f"measured interval must be positive, got {measured_interval_cycles}"
        )
    best_s, best_err = 0, float("inf")
    # The interval is monotone non-decreasing in the setup cost: bisect on
    # the first value reaching the measurement, then refine around it.
    for s in range(0, _MAX_DMA_SETUP + 1, 16):
        interval = network_perf(design, board, dma_setup_cycles=s).interval
        err = abs(interval - measured_interval_cycles)
        if err < best_err:
            best_s, best_err = s, err
        if interval > measured_interval_cycles:
            break
    for s in range(max(0, best_s - 16), best_s + 17):
        interval = network_perf(design, board, dma_setup_cycles=s).interval
        err = abs(interval - measured_interval_cycles)
        if err < best_err:
            best_s, best_err = s, err
    return best_s


def fit_loop_overhead(
    design: NetworkDesign,
    measured_interval_cycles: float,
    board: Board = VC707,
) -> float:
    """Per-coordinate loop overhead implied by a measured interval.

    Scans ``loop_overhead`` and returns the value whose modeled interval
    is closest to the measurement. Used to reconcile the ideal dataflow
    model with board measurements (EXPERIMENTS.md): the paper's two test
    cases imply a consistent ~3-4-cycle overhead per coordinate of the
    HLS coordinate loop.
    """
    if measured_interval_cycles <= 0:
        raise ConfigurationError(
            f"measured interval must be positive, got {measured_interval_cycles}"
        )
    best_oh, best_err = 0.0, float("inf")
    oh = 0.0
    while oh <= _MAX_LOOP_OVERHEAD:
        interval = network_perf(design, board, loop_overhead=oh).interval
        err = abs(interval - measured_interval_cycles)
        if err < best_err:
            best_oh, best_err = oh, err
        oh = round(oh + _LOOP_OVERHEAD_STEP, 10)
    return best_oh


def interval_breakdown(perf: NetworkPerf) -> List[Dict[str, object]]:
    """Per-stage interval table (the bottleneck analysis a designer reads).

    One row per stage — DMA endpoints and links included — with the
    stage's per-image cycle budget split into its input, core and output
    demands, and whether it paces the pipeline.
    """
    bottleneck = perf.bottleneck
    layers = {l.name: l for l in perf.layers}
    rows: List[Dict[str, object]] = []
    for stage in perf.stages:
        # A stream stage (DMA, link) is all transfer: no core, in == out.
        l = layers.get(stage.name)
        rows.append(
            {
                "stage": stage.name,
                "kind": stage.kind,
                "in_beats": l.in_beats if l else stage.cycles,
                "core_cycles": l.core_cycles if l else 0,
                "out_beats": l.out_beats if l else stage.cycles,
                "interval": stage.cycles,
                "bottleneck": stage.name == bottleneck,
            }
        )
    return rows


def batch_sweep(
    design: NetworkDesign,
    batches: List[int],
    board: Board = VC707,
) -> List[Dict[str, float]]:
    """Figure 6 series: mean time per image (µs) versus batch size."""
    perf = network_perf(design, board)
    rows = []
    for b in batches:
        mean_cycles = perf.mean_cycles_per_image(b)
        rows.append(
            {
                "batch": b,
                "mean_cycles": mean_cycles,
                "mean_us": board.seconds(mean_cycles) * 1e6,
            }
        )
    return rows
