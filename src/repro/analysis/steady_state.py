"""Steady-state schedule extraction for the compiled engine.

A graph that has passed the static verifier is a bounded Kahn network
with statically known rates: every process of every actor performs a
fixed, input-independent number of productive beats, and the pipeline's
steady-state cadence is the Eq. 4 / perf-model interval. This module
turns those facts into an explicit :class:`SteadySchedule`:

* a topological actor order (the kernel execution order);
* the exact beat count of every channel (rate solution);
* the closed-form ``fires`` of every process — the same numbers the
  interpreted engines derive as ``lifetime - stalls``, because ``fires``
  counts productive beats only and is therefore timing-independent;
* the analytic timing frame (interval, fill latency, per-image
  completion cycles) from :mod:`repro.core.perf_model`.

Extraction is *checked*: rates must balance on every channel and every
actor type must have a known signature, otherwise
:class:`~repro.errors.CompilationError` is raised and the simulator
falls back to the interpreted event engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.compute_core import ConvCoreActor
from repro.core.fc_core import FCCoreActor
from repro.core.network_design import NetworkDesign
from repro.core.norm_core import NormalizationActor
from repro.core.perf_model import network_perf
from repro.core.pool_core import PoolCoreActor
from repro.dataflow.actors import ArraySource, Interleaver, ListSink, ScheduleDemux
from repro.dataflow.link import LinkRxActor, LinkTxActor
from repro.errors import CompilationError
from repro.sst.block import BlockMergeActor, BlockSplitActor
from repro.sst.line_buffer import SlidingWindowActor


@dataclass(frozen=True)
class SteadySchedule:
    """The solved steady state of one verified design graph."""

    #: Actor names in kernel execution (topological) order.
    order: Tuple[str, ...]
    #: Exact beat count of every channel over the whole run.
    channel_beats: Dict[str, int]
    #: Closed-form productive beats per process, in creation order
    #: (compute before emit for the two-process cores).
    proc_fires: Dict[str, List[int]]
    #: Batch size recovered from the DMA stream length.
    images: int
    #: Steady-state cycles between consecutive image completions.
    interval: int
    #: Cycles from the first input beat to the first image's last output.
    fill_latency: int
    #: Name of the pacing stage (perf-model attribution).
    bottleneck: str
    #: Modeled completion cycle of each image's last output beat.
    completions: Tuple[int, ...]
    #: Total modeled cycles of the run (one past the last output beat).
    cycles: int
    #: Output beats per image at the sink.
    per_image_out: int
    #: Cycle of the DMA source's last beat (for drain accounting).
    dma_last_push: int


def _bound_ends(ch):
    """``ch.ends`` of a channel the lowering can use: both sides bound."""
    if ch.writer is None or ch.reader is None:
        raise CompilationError(f"channel {ch.name!r} has a dangling endpoint")
    return ch.ends


def port_maps(actors, channels):
    """Per-actor port -> channel-name routing tables.

    Returns ``(in_ports_of, out_ports_of)``: for every actor name, a dict
    mapping its input (resp. output) port names to the channel bound there.
    Shared by schedule extraction and the kernel runner.
    """
    in_ports_of: Dict[str, Dict[str, str]] = {a.name: {} for a in actors}
    out_ports_of: Dict[str, Dict[str, str]] = {a.name: {} for a in actors}
    for ch in channels:
        (w_actor, w_port), (r_actor, r_port) = _bound_ends(ch)
        if w_actor not in out_ports_of or r_actor not in in_ports_of:
            raise CompilationError(
                f"channel {ch.name!r} endpoints {w_actor!r}->{r_actor!r} "
                f"missing from the actor set"
            )
        out_ports_of[w_actor][w_port] = ch.name
        in_ports_of[r_actor][r_port] = ch.name
    return in_ports_of, out_ports_of


def topological_order(actors, channels) -> Tuple[str, ...]:
    """Kahn topological sort of the actor graph (kernel execution order)."""
    names = [a.name for a in actors]
    indeg = {n: 0 for n in names}
    succ: Dict[str, List[str]] = {n: [] for n in names}
    for ch in channels:
        (w_actor, _), (r_actor, _) = _bound_ends(ch)
        if w_actor not in indeg or r_actor not in indeg:
            raise CompilationError(
                f"channel endpoints {w_actor!r}->{r_actor!r} missing from the "
                f"actor set"
            )
        succ[w_actor].append(r_actor)
        indeg[r_actor] += 1
    ready = [n for n in names if indeg[n] == 0]
    order: List[str] = []
    while ready:
        n = ready.pop()
        order.append(n)
        for m in succ[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    if len(order) != len(names):
        cyclic = sorted(n for n in names if indeg[n] > 0)
        raise CompilationError(
            f"graph contains a cycle through {cyclic}; the compiled engine "
            f"handles feed-forward pipelines only"
        )
    return tuple(order)


def _actor_rates(actor, in_beats: Dict[str, int]):
    """(per-port output beats, per-process fires) of one actor.

    ``in_beats`` maps the actor's input port names to the beat counts
    arriving on them. Raises :class:`CompilationError` when the actor
    type has no known rate signature or the arriving rates contradict
    the actor's static parameters — the rate-balance check that mirrors
    the verifier's bounded-Kahn argument.
    """

    def need(port: str, expected: int) -> None:
        got = in_beats.get(port)
        if got != expected:
            raise CompilationError(
                f"{actor.name!r}: port {port!r} receives {got} beats, "
                f"schedule expects {expected}"
            )

    if type(actor) is ArraySource:
        n = actor.n_values
        return {actor.port: n}, [n]
    if type(actor) is ListSink:
        n = in_beats.get(actor.port, 0)
        if actor.count is not None and n != actor.count:
            raise CompilationError(
                f"{actor.name!r}: sink expects {actor.count} beats, "
                f"producers deliver {n}"
            )
        return {}, [n]
    if type(actor) is SlidingWindowActor:
        n_in = actor.images * actor.h * actor.w * actor.group
        need("in", n_in)
        n_out = actor.images * actor.windows_per_image
        return {"out": n_out}, [n_in, n_out]
    if type(actor) is BlockSplitActor:
        n_in = actor.images * actor.beats_in_per_image
        need("in", n_in)
        n_out = actor.images * actor.beats_out_per_image
        return {"out": n_out}, [n_in, n_out]
    if type(actor) is BlockMergeActor:
        n_in = actor.images * actor.beats_in_per_image
        need("in", n_in)
        n_out = actor.images * actor.beats_out_per_image
        return {"out": n_out}, [n_in, n_out]
    if type(actor) is ConvCoreActor:
        coords = actor.images * actor.n_coords
        n_in = coords * actor.in_groups
        for p in range(actor.in_ports):
            need(f"in{p}", n_in)
        n_out = coords * actor.out_groups
        return {f"out{p}": n_out for p in range(actor.out_ports)}, [n_in, n_out]
    if type(actor) is PoolCoreActor:
        need("in", actor.count)
        return {"out": actor.count}, [actor.count]
    if type(actor) is FCCoreActor:
        n_in = actor.images * actor.in_fm
        need("in", n_in)
        n_out = actor.images * actor.out_fm
        return {"out": n_out}, [n_in, n_out]
    if type(actor) is NormalizationActor:
        n = actor.images * actor.n_classes
        need("in", n)
        # One productive beat per pop and per push of the single process.
        return {"out": n}, [2 * n]
    if type(actor) is ScheduleDemux:
        n = in_beats.get(actor.src, 0)
        period = len(actor.schedule)
        counts = [0] * actor.n_outputs
        full, rem = divmod(n, period)
        for idx in actor.schedule:
            counts[idx] += full
        for k in range(rem):
            counts[actor.schedule[k]] += 1
        return {f"out{i}": counts[i] for i in range(actor.n_outputs)}, [n]
    if type(actor) is Interleaver:
        lens = {i: in_beats.get(f"in{i}", 0) for i in range(actor.n_inputs)}
        n = sum(lens.values())
        period = len(actor.schedule)
        counts = [0] * actor.n_inputs
        full, rem = divmod(n, period)
        for idx in actor.schedule:
            counts[idx] += full
        for k in range(rem):
            counts[actor.schedule[k]] += 1
        for i in range(actor.n_inputs):
            if counts[i] != lens[i]:
                raise CompilationError(
                    f"{actor.name!r}: schedule consumes {counts[i]} beats "
                    f"from in{i} but {lens[i]} arrive — the interleave "
                    f"would starve or overrun"
                )
        return {actor.dst: n}, [n]
    if type(actor) in (LinkTxActor, LinkRxActor):
        # Pass-through word movers: one productive beat per word (the
        # transmitter's pacing waits are WaitCycles parks, excluded from
        # fires on the interpreted engines too).
        n = in_beats.get("in", 0)
        if n % actor.words_per_image:
            raise CompilationError(
                f"{actor.name!r}: {n} beats arrive but the link is sized "
                f"for {actor.words_per_image} words per image"
            )
        return {"out": n}, [n]
    raise CompilationError(
        f"actor {actor.name!r} of type {type(actor).__name__} has no "
        f"compiled kernel (literal memory systems and custom actors run on "
        f"the interpreted engines)"
    )


def extract_schedule(
    actors, channels, design: NetworkDesign, multi_plan=None
) -> SteadySchedule:
    """Solve the steady-state schedule of a verified design graph.

    ``actors``/``channels`` are the elaborated graph's contents (as held
    by the :class:`~repro.dataflow.simulator.Simulator`), ``design`` the
    :class:`NetworkDesign` they were built from. For a sharded graph,
    ``multi_plan`` is the :class:`~repro.core.multi_fpga.MultiFpgaPlan`
    whose link stages join the performance model's stage list.
    """
    by_name = {a.name: a for a in actors}
    order = topological_order(actors, channels)

    sources = [a for a in actors if type(a) is ArraySource]
    sinks = [a for a in actors if type(a) is ListSink]
    if len(sources) != 1 or len(sinks) != 1:
        raise CompilationError(
            f"expected exactly one DMA source and one sink, found "
            f"{len(sources)} source(s) / {len(sinks)} sink(s)"
        )
    source, sink = sources[0], sinks[0]

    in_words = design.input_words_per_image()
    out_words = design.output_words_per_image()
    n_values = source.n_values
    if in_words <= 0 or n_values % in_words:
        raise CompilationError(
            f"DMA stream of {n_values} beats is not a whole number of "
            f"{in_words}-word images"
        )
    images = n_values // in_words

    # -- rate solution: propagate beat counts in topological order -------
    channel_beats: Dict[str, int] = {}
    proc_fires: Dict[str, List[int]] = {}
    in_ports_of, out_ports_of = port_maps(actors, channels)
    for name in order:
        actor = by_name[name]
        in_beats = {
            port: channel_beats[cname]
            for port, cname in in_ports_of[name].items()
        }
        out_beats, fires = _actor_rates(actor, in_beats)
        proc_fires[name] = fires
        for port, n in out_beats.items():
            cname = out_ports_of[name].get(port)
            if cname is None:
                raise CompilationError(
                    f"{name!r}: output port {port!r} is not connected"
                )
            channel_beats[cname] = n
        for port in out_ports_of[name]:
            if port not in out_beats:
                raise CompilationError(
                    f"{name!r}: no beats scheduled for output port {port!r}"
                )

    if sink.count is not None and sink.count != images * out_words:
        raise CompilationError(
            f"sink consumes {sink.count} beats but the design emits "
            f"{images * out_words}"
        )

    # -- analytic timing frame ------------------------------------------
    # The calibration constant is carried by the conv cores themselves.
    overhead = max(
        (a.coord_overhead for a in actors if type(a) is ConvCoreActor),
        default=0,
    )
    beat = source.interval
    perf = network_perf(
        design,
        loop_overhead=float(overhead),
        dma_beat=beat,
        links=multi_plan.link_perfs() if multi_plan is not None else (),
    )
    fill = perf.fill_latency
    interval = perf.interval
    completions = tuple(fill + i * interval for i in range(images))
    return SteadySchedule(
        order=order,
        channel_beats=channel_beats,
        proc_fires=proc_fires,
        images=images,
        interval=interval,
        fill_latency=fill,
        bottleneck=perf.bottleneck,
        completions=completions,
        cycles=completions[-1] + 1,
        per_image_out=out_words,
        dma_last_push=(n_values - 1) * beat,
    )
