"""Graph-level rules of the static verifier.

These rules run on an *elaborated* :class:`DataflowGraph` — either one the
builder produced from a design (in which case the design is available for
cross-checking the wiring against the spec-level intent) or a hand-built
graph (structure/buffering rules only).

The centerpiece is BUFFER.SKEW: :func:`fork_join_pairs` enumerates the
reconvergent fork/join branches of the chain-contracted topology with
each branch's latency in stream beats (window prime latency for memory
structures, pipeline depth for cores), and the rule demands the thin
branch buffer at least the skew of its slowest peer — the exact condition
for a fork/join pair of bounded FIFOs not to deadlock. The depth prover
(:mod:`repro.analysis.depths`) floors channels from the same enumeration.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.analysis.diagnostics import AnalysisReport, Severity, make
from repro.core.layer_spec import ConvLayerSpec, PoolLayerSpec
from repro.core.network_design import NetworkDesign
from repro.dataflow.actors import ArraySource, Fork, Interleaver, ScheduleDemux
from repro.dataflow.graph import DataflowGraph
from repro.errors import GraphError
from repro.sst.block import BlockMergeActor, BlockSplitActor
from repro.sst.filter_chain import WindowAssembler
from repro.sst.line_buffer import SlidingWindowActor
from repro.sst.sizing import chain_fifo_capacities, chain_words

#: Reconvergence enumeration bounds: the hop cutoff clears the long
#: core-to-core paths of deep designs, the path cap bounds wide port fans.
_PATH_CUTOFF = 64
_MAX_PATHS = 16


def run_graph_rules(
    graph: DataflowGraph,
    report: AnalysisReport,
    design: Optional[NetworkDesign] = None,
) -> None:
    """Run every graph-level rule, folding findings into ``report``."""
    _rule_structure(graph, report)
    _rule_buffer_full(graph, report, design)
    if design is not None:
        _rule_adapter_wiring(graph, report, design)
    _rule_buffer_skew(graph, report)
    _rule_depth_plan(graph, report)


# -- GRAPH.STRUCTURE ---------------------------------------------------------


def _rule_structure(graph: DataflowGraph, report: AnalysisReport) -> None:
    report.note_rule("GRAPH.STRUCTURE")
    try:
        graph.validate()
    except GraphError as exc:
        report.add(make(
            "GRAPH.STRUCTURE", Severity.ERROR, "design", str(exc),
            hint="every channel needs exactly one writer and one reader",
        ))
        return  # a dangling graph makes the remaining structure checks moot
    try:
        graph.topological_layers()
    except GraphError as exc:
        report.add(make(
            "GRAPH.STRUCTURE", Severity.ERROR, "design", str(exc),
            hint="a feed-forward CNN pipeline must be acyclic",
        ))


# -- BUFFER.FULL -------------------------------------------------------------


def _rule_buffer_full(
    graph: DataflowGraph,
    report: AnalysisReport,
    design: Optional[NetworkDesign],
) -> None:
    report.note_rule("BUFFER.FULL")

    # Read-once: the off-chip stream must never be duplicated. A Fork right
    # behind a source replays each word to several consumers — the
    # anti-pattern full buffering exists to avoid (re-reading the input).
    for ch in graph.channels.values():
        if ch.writer is None or ch.reader is None:
            continue
        (wname, _), (rname, _) = ch.ends
        ractor = graph.actors.get(rname)
        if isinstance(graph.actors.get(wname), ArraySource) and isinstance(ractor, Fork):
            report.add(make(
                "BUFFER.FULL", Severity.ERROR,
                f"channel:{ch.writer}->{ch.reader}",
                f"off-chip stream from {wname!r} is duplicated by fork "
                f"{rname!r}: each input word would be read "
                f"{ractor.n_outputs} times",
                hint="full buffering reads every source element exactly "
                     "once; buffer it on chip instead of re-forking the "
                     "stream",
            ))

    if design is None:
        return

    sources = [a for a in graph.actors.values() if isinstance(a, ArraySource)]
    if len(sources) != 1:
        report.add(make(
            "BUFFER.FULL", Severity.ERROR, "design",
            f"expected exactly one DMA source, found {len(sources)}",
            hint="the paper's pipeline streams one image stream in; extra "
                 "sources mean some elements bypass the full-buffered path",
        ))
    else:
        words = design.input_words_per_image()
        held = sources[0].n_values
        if held % words:
            report.add(make(
                "BUFFER.FULL", Severity.ERROR, f"channel:{sources[0].name}",
                f"source holds {held} words, not a whole number of "
                f"{words}-word images ({design.input_shape} input)",
                hint="every source element must enter the pipeline exactly "
                     "once per image; truncated batches stall the windows",
            ))

    # Memory structures: each conv/pool port must hold exactly the
    # sst/sizing.py geometry (behavioral line buffer or literal chain).
    # Blocked conv layers run their window stage over *tile* geometry,
    # bracketed by split/merge stages whose plans must match the spec.
    for p in design.placements:
        spec = p.spec
        if not isinstance(spec, (ConvLayerSpec, PoolLayerSpec)):
            continue
        _, h, w = p.in_shape
        group = spec.in_group
        plan = (
            spec.block_plan(h, w) if isinstance(spec, ConvLayerSpec) else None
        )
        if plan is not None:
            win_window, win_h, win_w = plan.tile_window, plan.ih, plan.iw
        else:
            win_window, win_h, win_w = spec.window, h, w
        need = chain_words(win_window, win_w, group)
        loc = f"layer:{spec.name}"
        for port in range(spec.in_ports):
            name = f"{spec.name}.win{port}"
            if plan is not None:
                _check_block_split(
                    graph, report, f"{spec.name}.split{port}", loc, plan, group
                )
            actor = graph.actors.get(name)
            if isinstance(actor, SlidingWindowActor):
                if (actor.spec != win_window
                        or (actor.h, actor.w) != (win_h, win_w)
                        or actor.group != group):
                    report.add(make(
                        "BUFFER.FULL", Severity.ERROR, loc,
                        f"line buffer {name!r} carries window {actor.spec} "
                        f"over {actor.h}x{actor.w} (group {actor.group}) but "
                        f"the placement demands {win_window} over "
                        f"{win_h}x{win_w} (group {group})",
                        hint=f"full buffering needs {need} words per chain "
                             f"(sst/sizing.py chain_words); rebuild the "
                             f"memory structure from the placement",
                    ))
            elif f"{name}.asm" in graph.actors:
                _check_literal_chain(
                    graph, report, name, win_window, win_h, win_w, group
                )
            else:
                report.add(make(
                    "BUFFER.FULL", Severity.ERROR, loc,
                    f"no memory structure found for input port {port} "
                    f"(expected actor {name!r} or a literal chain under it)",
                    hint="every conv/pool input port needs its sliding-"
                         "window buffer (Section II-B)",
                ))
        if plan is not None:
            for port in range(spec.out_ports):
                _check_block_merge(
                    graph, report, f"{spec.name}.merge{port}", loc, plan,
                    spec.out_group,
                )


def _check_block_split(
    graph: DataflowGraph,
    report: AnalysisReport,
    name: str,
    loc: str,
    plan,
    group: int,
) -> None:
    """One blocked conv input port's tile-split stage."""
    actor = graph.actors.get(name)
    if not isinstance(actor, BlockSplitActor):
        report.add(make(
            "BUFFER.FULL", Severity.ERROR, loc,
            f"blocked conv layer has no tile-split stage {name!r} "
            f"({'missing' if actor is None else type(actor).__name__})",
            hint="a blocked layer reads halo-overlapped tiles; without the "
                 "split its window stage sees full-image geometry",
        ))
        return
    if actor.plan != plan or actor.group != group:
        report.add(make(
            "BUFFER.FULL", Severity.ERROR, loc,
            f"tile split {name!r} carries plan "
            f"[{actor.plan.describe()}] (group {actor.group}) but the "
            f"placement demands [{plan.describe()}] (group {group})",
        ))


def _check_block_merge(
    graph: DataflowGraph,
    report: AnalysisReport,
    name: str,
    loc: str,
    plan,
    group: int,
) -> None:
    """One blocked conv output port's tile-merge stage."""
    actor = graph.actors.get(name)
    if not isinstance(actor, BlockMergeActor):
        report.add(make(
            "BUFFER.FULL", Severity.ERROR, loc,
            f"blocked conv layer has no tile-merge stage {name!r} "
            f"({'missing' if actor is None else type(actor).__name__})",
            hint="without the merge, downstream layers see tile-major "
                 "coordinate order and overhang values",
        ))
        return
    if actor.plan != plan or actor.group != group:
        report.add(make(
            "BUFFER.FULL", Severity.ERROR, loc,
            f"tile merge {name!r} carries plan "
            f"[{actor.plan.describe()}] (group {actor.group}) but the "
            f"placement demands [{plan.describe()}] (group {group})",
        ))


def _check_literal_chain(
    graph: DataflowGraph,
    report: AnalysisReport,
    name: str,
    window,
    h: int,
    w: int,
    group: int,
) -> None:
    """Exact full-buffering check of one literal SST filter chain.

    ``window``/``h``/``w`` are the chain's own geometry: the layer window
    over the feature map for plain layers, the pad-free tile window over
    block geometry for blocked conv layers.
    """
    loc = f"layer:{name.rsplit('.', 1)[0]}"
    asm = graph.actors[f"{name}.asm"]
    if not isinstance(asm, WindowAssembler) or asm.spec != window \
            or (asm.h, asm.w) != (h, w) or asm.group != group:
        report.add(make(
            "BUFFER.FULL", Severity.ERROR, loc,
            f"window assembler {name}.asm does not match the placement "
            f"(want window {window} over {h}x{w}, group {group})",
        ))
        return
    if window.pad and f"{name}.padder" not in graph.actors:
        report.add(make(
            "BUFFER.FULL", Severity.ERROR, loc,
            f"padded window ({window.pad} px) but no {name}.padder "
            f"actor in the chain",
            hint="literal chains rely on injected padding beats to keep "
                 "the tap offsets aligned",
        ))
    plan = graph.depth_plan
    certified = plan.certificates if plan is not None else {}
    expected = chain_fifo_capacities(window, w, group)
    for i, cap in enumerate(expected):
        ch = graph.channels.get(f"{name}.fifo{i}")
        if ch is None:
            report.add(make(
                "BUFFER.FULL", Severity.ERROR, loc,
                f"literal chain is missing FIFO {name}.fifo{i}",
            ))
        elif f"{name}.fifo{i}" in certified:
            # A certified depth plan replaces full buffering for this
            # FIFO; sufficiency is BUFFER.DEPTH_UNDERSIZED's job.
            continue
        elif ch.capacity != cap:
            report.add(make(
                "BUFFER.FULL", Severity.ERROR, loc,
                f"{name}.fifo{i} has capacity {ch.capacity} but full "
                f"buffering requires exactly {cap} "
                f"(fifo_depths + 1 for the in-flight slot)",
                hint="undersized tap FIFOs deadlock the chain; oversized "
                     "ones waste the BRAM the sizing model accounts for",
            ))


# -- ADAPTER.WIRING ----------------------------------------------------------


def _rule_adapter_wiring(
    graph: DataflowGraph,
    report: AnalysisReport,
    design: NetworkDesign,
) -> None:
    report.note_rule("ADAPTER.WIRING")
    writers = {
        ch.writer: ch for ch in graph.channels.values() if ch.writer is not None
    }
    # (adapter prefix, have=upstream ports, want=downstream ports, kind,
    #  blocked: whether the downstream layer is a blocked conv — its port
    #  streams enter the tile-split stage, not the window stage)
    boundaries: List[Tuple[str, int, int, str, bool]] = []
    prev_out = 1
    for p in design.placements:
        blocked = (
            isinstance(p.spec, ConvLayerSpec) and p.spec.block is not None
        )
        boundaries.append(
            (p.spec.name, prev_out, p.spec.in_ports, p.spec.kind, blocked)
        )
        prev_out = p.spec.out_ports
    boundaries.append(("dma_out", prev_out, 1, "dma", False))

    for name, have, want, kind, blocked in boundaries:
        loc = f"boundary:{name}"
        if have == want:
            for i in range(have):
                for spurious in (f"{name}.demux{i}", f"{name}.widen{i}"):
                    if spurious in graph.actors:
                        report.add(make(
                            "ADAPTER.WIRING", Severity.ERROR, loc,
                            f"port counts match ({have}={want}, DIRECT case) "
                            f"but adapter actor {spurious!r} exists",
                            hint="remove the adapter: equal port counts "
                                 "connect streams one-to-one",
                        ))
            continue
        if want > have and want % have == 0:
            ratio = want // have
            for i in range(have):
                aname = f"{name}.demux{i}"
                actor = graph.actors.get(aname)
                if not isinstance(actor, ScheduleDemux):
                    report.add(make(
                        "ADAPTER.WIRING", Severity.ERROR, loc,
                        f"DEMUX case ({have} -> {want} ports) but actor "
                        f"{aname!r} is "
                        f"{'missing' if actor is None else type(actor).__name__}",
                        hint=f"each upstream port needs a {ratio}-way "
                             f"round-robin demux (Section IV-A)",
                    ))
                    continue
                if actor.n_outputs != ratio:
                    report.add(make(
                        "ADAPTER.WIRING", Severity.ERROR, loc,
                        f"{aname!r} fans out {actor.n_outputs} ways but the "
                        f"port ratio demands {ratio}",
                    ))
                    continue
                if kind not in ("conv", "pool"):
                    continue  # downstream port naming differs for FC/DMA
                for m in range(ratio):
                    ch = writers.get(f"{aname}.out{m}")
                    if ch is None or ch.reader is None:
                        report.add(make(
                            "ADAPTER.WIRING", Severity.ERROR, loc,
                            f"{aname}.out{m} is not connected",
                        ))
                        continue
                    reader = ch.ends[1][0]
                    idx = i + m * have
                    expect = (
                        f"{name}.split{idx}" if blocked else f"{name}.win{idx}"
                    )
                    if reader != expect and not reader.startswith(expect + "."):
                        report.add(make(
                            "ADAPTER.WIRING", Severity.ERROR, loc,
                            f"{aname}.out{m} feeds {reader!r} but the "
                            f"modulo-interleaved FM mapping assigns it to "
                            f"input port {idx} ({expect!r})",
                            hint="demux output m of upstream port i must "
                                 "feed downstream port i + m*OUT_PORTS(i-1); "
                                 "anything else permutes the feature maps",
                        ))
            continue
        if have > want and have % want == 0:
            ratio = have // want
            for r in range(want):
                aname = f"{name}.widen{r}"
                actor = graph.actors.get(aname)
                if not isinstance(actor, Interleaver):
                    report.add(make(
                        "ADAPTER.WIRING", Severity.ERROR, loc,
                        f"WIDEN case ({have} -> {want} ports) but actor "
                        f"{aname!r} is "
                        f"{'missing' if actor is None else type(actor).__name__}",
                        hint=f"each downstream port needs a {ratio}-way "
                             f"interleaver merging the upstream ports "
                             f"(widened filters, Section IV-A)",
                    ))
                elif actor.n_inputs != ratio:
                    report.add(make(
                        "ADAPTER.WIRING", Severity.ERROR, loc,
                        f"{aname!r} merges {actor.n_inputs} streams but the "
                        f"port ratio demands {ratio}",
                    ))
        # An indivisible ratio is ADAPTER.LEGAL's finding at design level.


# -- BUFFER.SKEW -------------------------------------------------------------


def actor_skew_latency(actor: object) -> int:
    """Beats an actor delays its stream before the first output.

    Memory structures dominate: a sliding window — the behavioral line
    buffer or the assembler of a literal chain — must prime its full
    buffer (``footprint * group`` beats) before the first window emerges.
    Pipelined cores delay by their pipeline depth; plain plumbing actors
    (demux, interleaver, FIFO stages) forward after one beat.
    """
    if isinstance(actor, (SlidingWindowActor, WindowAssembler)):
        return chain_words(actor.spec, actor.w, actor.group)
    if isinstance(actor, BlockSplitActor):
        # The split stages a full image before the first tile beat.
        return actor.beats_in_per_image
    if isinstance(actor, BlockMergeActor):
        # The merge collects every computed tile coordinate before the
        # first raster beat.
        return actor.beats_in_per_image
    depth = getattr(actor, "pipeline_depth", None)
    if isinstance(depth, int) and depth > 0:
        return depth
    return 1


def literal_chains(graph: DataflowGraph) -> Dict[str, WindowAssembler]:
    """Every literal SST chain: base name ``X`` -> its assembler ``X.asm``."""
    return {
        name[: -len(".asm")]: actor
        for name, actor in sorted(graph.actors.items())
        if isinstance(actor, WindowAssembler) and name.endswith(".asm")
    }


class Branch(NamedTuple):
    """One fork-to-join path of the chain-contracted topology."""

    nodes: Tuple[str, ...]
    #: Summed :func:`actor_skew_latency` of the interior nodes, in beats.
    latency: int
    #: Channel names of each hop (parallel channels share a hop).
    hops: Tuple[Tuple[str, ...], ...]


def fork_join_pairs(
    graph: DataflowGraph,
) -> Iterator[Tuple[str, str, List[Branch]]]:
    """Reconvergent ``(fork, join, branches)`` of the contracted topology.

    Every literal SST chain (padder, filters, assembler) collapses to one
    node carrying the assembler's prime latency — the same node the
    behavioral :class:`~repro.sst.line_buffer.SlidingWindowActor` is — so
    both memory systems present one topology: the tap shortcuts inside a
    chain are synchronized by the assembler, belong to the chain recursion
    (``repro.sst.sizing.chain_run_ahead``), and must not surface as
    phantom branches. A pair qualifies when at least two of its (at most
    ``_MAX_PATHS``, at most ``_PATH_CUTOFF`` hops long) simple paths are
    internally disjoint.
    """
    import networkx as nx

    bases = literal_chains(graph)

    def node_of(actor_name: str) -> str:
        for base in bases:
            if actor_name == base or actor_name.startswith(base + "."):
                return base
        return actor_name

    latency: Dict[str, int] = {}
    for name, actor in graph.actors.items():
        node = node_of(name)
        if node == name or isinstance(actor, WindowAssembler):
            latency[node] = actor_skew_latency(actor)
    g: "nx.DiGraph[str]" = nx.DiGraph()
    g.add_nodes_from(latency)
    hops: Dict[Tuple[str, str], List[str]] = {}
    for name, ch in graph.channels.items():
        if ch.writer is None or ch.reader is None:
            continue
        (writer, _), (reader, _) = ch.ends
        u = node_of(writer)
        v = node_of(reader)
        if u == v:
            continue  # intra-chain channel: the chain recursion's job
        g.add_edge(u, v)
        hops.setdefault((u, v), []).append(name)
    forks = [n for n in g if g.out_degree(n) >= 2]
    joins = [n for n in g if g.in_degree(n) >= 2]
    for f in forks:
        for j in joins:
            if f == j or not nx.has_path(g, f, j):
                continue
            paths = [tuple(p) for p in islice(
                nx.all_simple_paths(g, f, j, cutoff=_PATH_CUTOFF), _MAX_PATHS
            )]
            inner = [set(p[1:-1]) for p in paths]
            if not any(a.isdisjoint(b) for a, b in combinations(inner, 2)):
                continue
            yield f, j, [
                Branch(
                    nodes=path,
                    latency=sum(latency[n] for n in path[1:-1]),
                    hops=tuple(
                        tuple(hops[hop]) for hop in zip(path, path[1:])
                    ),
                )
                for path in paths
            ]


def _branch_capacity(graph: DataflowGraph, branch: Branch) -> Optional[int]:
    """Beats a branch buffers: each hop's smallest bounded capacity, summed.

    Parallel channels of one hop are taken at their worst (smallest
    bounded) case; a hop whose channels are all unbounded makes the whole
    branch unbounded (``None``) — it absorbs any skew.
    """
    total = 0
    for hop in branch.hops:
        bounded = [
            cap for name in hop
            if (cap := graph.channels[name].capacity) is not None
        ]
        if not bounded:
            return None
        total += min(bounded)
    return total


def _rule_buffer_skew(graph: DataflowGraph, report: AnalysisReport) -> None:
    report.note_rule("BUFFER.SKEW")
    for fork, join, branches in fork_join_pairs(graph):
        skew = max(b.latency for b in branches)
        for branch in branches:
            cap = _branch_capacity(graph, branch)
            if cap is None:
                continue  # unbounded branches absorb any skew
            deficit = skew - branch.latency
            if cap < deficit:
                route = " -> ".join(branch.nodes)
                report.add(make(
                    "BUFFER.SKEW", Severity.ERROR,
                    f"channel:{fork}->{join}",
                    f"reconvergent branch [{route}] buffers only {cap} "
                    f"beats but its slowest peer lags by {deficit}: the "
                    f"join starves this side while back-pressure freezes "
                    f"the fork (deadlock)",
                    hint=f"raise the branch's FIFO capacity to at least "
                         f"{deficit} beats or rebalance the branch "
                         f"latencies",
                ))


# -- BUFFER.DEPTH_CERT / BUFFER.DEPTH_UNDERSIZED -----------------------------


def _rule_depth_plan(graph: DataflowGraph, report: AnalysisReport) -> None:
    """Certificate checks of an attached DepthPlan (repro.analysis.depths).

    Runs only when :func:`repro.analysis.depths.apply_depth_plan` left a
    plan on the graph. Heuristic pins are warnings (BUFFER.DEPTH_CERT);
    a bounded channel sitting *below* a proven certificate is a hard
    error (BUFFER.DEPTH_UNDERSIZED): the prover can exhibit the deadlock.
    """
    plan = graph.depth_plan
    if plan is None:
        return
    report.note_rule("BUFFER.DEPTH_CERT")
    report.note_rule("BUFFER.DEPTH_UNDERSIZED")
    for name, cert in sorted(plan.certificates.items()):
        ch = graph.channels.get(name)
        if ch is None or ch.capacity is None:
            continue
        loc = f"channel:{name}"
        if not cert.proven:
            report.add(make(
                "BUFFER.DEPTH_CERT", Severity.WARNING, loc,
                f"{name} is pinned at capacity {cert.depth} without a "
                f"structural proof ({cert.detail})",
                hint="the depth is a heuristic bound; extend the prover "
                     "or validate empirically with `repro shrink --bisect`",
            ))
        elif ch.capacity < cert.depth:
            report.add(make(
                "BUFFER.DEPTH_UNDERSIZED", Severity.ERROR, loc,
                f"{name} has capacity {ch.capacity} but its "
                f"{cert.method} certificate proves depth {cert.depth} is "
                f"required ({cert.detail})",
                hint=f"raise {name} to at least {cert.depth} beats; the "
                     f"prover exhibits a deadlock below that",
            ))
