"""Static FIFO depth inference and deadlock-freedom certification.

The paper sizes every literal SST chain FIFO for worst-case *full
buffering* (``sst/sizing.py``), which is exactly why the unblocked large
networks cannot be simulated at full size. Following *Memory-Efficient
Dataflow Inference for Deep CNNs on FPGA* (arXiv:2011.07317), this
module derives per-channel **lower-bound depths** from the closed-form
steady-state structure of the elaborated graph and emits a
:class:`DepthPlan` whose every entry carries a machine-checkable
:class:`DepthCertificate`.

Prover model
------------
Channels are classified into five certificate methods:

``chain-recursion``
    The FIFOs and tap channels of a literal SST filter chain
    (``X.fifo{i}`` / ``X.tap{t}`` under a ``X.asm``
    :class:`~repro.sst.filter_chain.WindowAssembler`).  The chain model
    lives in :mod:`repro.sst.sizing`: ``chain_run_ahead`` is the max-plus
    run-ahead recursion (deadlock-free iff every budget ``R_i >= 1``) and
    ``certified_chain_floors`` its word-minimal greedy solution
    ``T_i = 1``, ``c_i = max(1, d_i)``, which this module certifies.  A
    chain FIFO is **tight** when ``c_i - 1`` drives ``min_i R_i`` below
    1, i.e. the prover can show depth-1 deadlocks.

``link-pace``
    The wire channel of a board-to-board link
    (:class:`~repro.dataflow.link.LinkTxActor` writer): the transmitter
    emits at most one word per ``beat`` cycles, so the receiver relay
    always drains it.  Depth 2 sustains the full back-to-back rate at
    ``beat == 1`` (the two-phase commit makes a one-deep FIFO halve the
    rate); depth 1 suffices at ``beat >= 2``.

``bridge``
    A channel that is a bridge of the undirected channel multigraph.  A
    deadlock is a cycle in the wait-for graph (writers blocked on full
    channels, readers on empty ones); such a cycle projects onto an
    undirected cycle of channels, and a bridge lies on no undirected
    cycle — so no deadlock cycle can traverse it and capacity 1 is
    provably sufficient.

``reconvergent-skew``
    A non-bridge channel on an enumerated fork/join branch
    (``graph_rules.fork_join_pairs`` — the enumeration BUFFER.SKEW
    checks, literal chains contracted to their prime latency): each
    branch must buffer the latency *deficit* against its slowest peer,
    so the floor is ``max(1, skew - own latency)``.

``heuristic-pin``
    Anything the prover cannot classify keeps its built capacity and is
    flagged with a ``BUFFER.DEPTH_CERT`` diagnostic — the plan is still
    applicable, but that channel's bound is heuristic, not proven.

Cross-validation
----------------
:func:`validate_plan` replays the proof empirically, reusing the
FIFO-shrink fault machinery (:mod:`repro.faults`): a certified plan must
simulate deadlock-free on the event engine with the full-buffering
output digest (``tests/analysis/test_depths_properties.py`` holds the
lockstep oracle to the same result on plan-applied builds), and depth-1
on every tight certificate must deadlock on exactly the certified
channel while the plan-aware analyzer flags it
``BUFFER.DEPTH_UNDERSIZED`` (the PR 3 invariant, now prover-driven).
:func:`bisect_plan` binary-searches each channel's empirical floor
under the simulator for the bench trajectory.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.graph_rules import fork_join_pairs, literal_chains
from repro.dataflow.actors import ArraySource
from repro.dataflow.deadlock import shrink_agreement
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.link import LinkTxActor
from repro.errors import ConfigurationError
from repro.report.base import MappingReport
from repro.sst.filter_chain import WindowAssembler, fifo_depths
from repro.sst.sizing import certified_chain_floors, chain_run_ahead

#: Certificate methods, strongest structural claim first.
METHOD_CHAIN = "chain-recursion"
METHOD_LINK = "link-pace"
METHOD_BRIDGE = "bridge"
METHOD_SKEW = "reconvergent-skew"
METHOD_PIN = "heuristic-pin"

_METHODS = (METHOD_CHAIN, METHOD_LINK, METHOD_BRIDGE, METHOD_SKEW, METHOD_PIN)

#: Idle cycles before a validation / probe / bisect run is declared jammed
#: (only the backstop: the event engine raises at the first unprogressable
#: cycle).
_STALL_LIMIT = 50_000


@dataclass(frozen=True)
class DepthCertificate:
    """One channel's certified depth and the proof obligation behind it."""

    channel: str
    #: Certified capacity (>= 1): provably deadlock-free at this depth
    #: when ``proven``; the pinned built capacity otherwise.
    depth: int
    #: Capacity of the same channel in the full-buffering build.
    full_capacity: int
    #: One of the METHOD_* constants.
    method: str
    #: True when the depth follows from a structural proof; False for
    #: heuristic pins (surfaced as BUFFER.DEPTH_CERT diagnostics).
    proven: bool
    #: True when the prover shows ``depth - 1`` deadlocks (chain FIFOs
    #: whose run-ahead budget hits exactly 1).  Tight certificates are
    #: the bisector's probe targets.
    tight: bool
    #: Human-readable proof sketch.
    detail: str

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ConfigurationError(
                f"{self.channel!r}: certified depth must be >= 1, got "
                f"{self.depth}"
            )
        if self.method not in _METHODS:
            raise ConfigurationError(
                f"{self.channel!r}: unknown certificate method "
                f"{self.method!r}"
            )
        if self.tight and not self.proven:
            raise ConfigurationError(
                f"{self.channel!r}: a tight certificate must be proven"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "channel": self.channel,
            "depth": self.depth,
            "full_capacity": self.full_capacity,
            "method": self.method,
            "proven": self.proven,
            "tight": self.tight,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "DepthCertificate":
        return cls(
            channel=str(d["channel"]),
            depth=int(d["depth"]),
            full_capacity=int(d["full_capacity"]),
            method=str(d["method"]),
            proven=bool(d["proven"]),
            tight=bool(d["tight"]),
            detail=str(d.get("detail", "")),
        )


@dataclass
class DepthPlan:
    """A certified per-channel FIFO depth assignment for one design."""

    design_name: str
    graph_name: str
    #: DMA beat interval the bounds are denominated in (beats, not ns).
    dma_beat: int
    #: Memory system of the build the plan was inferred from.  Depth
    #: plans only exist for ``"literal"`` graphs — chain FIFOs are the
    #: whole point — but the field keeps apply-time misuse detectable.
    memory_system: str
    certificates: Dict[str, DepthCertificate] = field(default_factory=dict)

    # -- aggregate views -----------------------------------------------------

    @property
    def full_words(self) -> int:
        """Total bounded FIFO words of the full-buffering build."""
        return sum(c.full_capacity for c in self.certificates.values())

    @property
    def certified_words(self) -> int:
        """Total bounded FIFO words at the certified depths."""
        return sum(c.depth for c in self.certificates.values())

    @property
    def saved_words(self) -> int:
        return self.full_words - self.certified_words

    @property
    def saved_pct(self) -> float:
        if self.full_words == 0:
            return 0.0
        return 100.0 * self.saved_words / self.full_words

    def capacity(self, channel: str) -> int:
        """Certified capacity of one channel."""
        return self.certificates[channel].depth

    def tight_channels(self) -> List[str]:
        """Channels whose depth-1 provably deadlocks, sorted."""
        return sorted(
            name for name, c in self.certificates.items() if c.tight
        )

    def proven_channels(self) -> List[str]:
        return sorted(
            name for name, c in self.certificates.items() if c.proven
        )

    def heuristic_channels(self) -> List[str]:
        """Channels pinned without a proof (BUFFER.DEPTH_CERT targets)."""
        return sorted(
            name for name, c in self.certificates.items() if not c.proven
        )

    def method_counts(self) -> Dict[str, int]:
        out = {m: 0 for m in _METHODS}
        for c in self.certificates.values():
            out[c.method] += 1
        return {m: n for m, n in out.items() if n}

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "design": self.design_name,
            "graph": self.graph_name,
            "dma_beat": self.dma_beat,
            "memory_system": self.memory_system,
            "words": {
                "full": self.full_words,
                "certified": self.certified_words,
                "saved": self.saved_words,
                "saved_pct": round(self.saved_pct, 2),
            },
            "methods": self.method_counts(),
            "tight_channels": self.tight_channels(),
            "certificates": {
                name: cert.to_dict()
                for name, cert in sorted(self.certificates.items())
            },
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "DepthPlan":
        certs = {
            name: DepthCertificate.from_dict(cd)
            for name, cd in d["certificates"].items()
        }
        return cls(
            design_name=str(d["design"]),
            graph_name=str(d["graph"]),
            dma_beat=int(d["dma_beat"]),
            memory_system=str(d["memory_system"]),
            certificates=certs,
        )

    def summary(self) -> str:
        return (
            f"depth plan {self.design_name}: {len(self.certificates)} "
            f"channels, {self.certified_words}/{self.full_words} words "
            f"({self.saved_pct:.1f}% saved), "
            f"{len(self.tight_channels())} tight"
        )


def load_depth_plan(path: str) -> DepthPlan:
    """Load a plan written by ``repro shrink --apply``."""
    with open(path) as fh:
        d = json.load(fh)
    return DepthPlan.from_dict(d)


# -- graph structure helpers --------------------------------------------------


def _bridge_channels(graph: DataflowGraph) -> Set[str]:
    """Channels that are bridges of the undirected channel multigraph.

    A channel with a parallel sibling between the same actor pair is
    never a bridge (the sibling closes an undirected cycle), so only
    multiplicity-1 edges that :func:`networkx.bridges` reports qualify.
    """
    import networkx as nx

    parallel: Dict[Tuple[str, str], List[str]] = {}
    g: "nx.Graph[str]" = nx.Graph()
    for name in graph.actors:
        g.add_node(name)
    for name, ch in graph.channels.items():
        if ch.writer is None or ch.reader is None:
            continue
        (u, _), (v, _) = ch.ends
        key = (u, v) if u <= v else (v, u)
        parallel.setdefault(key, []).append(name)
        g.add_edge(*key)
    out: Set[str] = set()
    for u, v in nx.bridges(g):
        key = (u, v) if u <= v else (v, u)
        names = parallel[key]
        if len(names) == 1:
            out.add(names[0])
    return out


def chain_members(
    graph: DataflowGraph, base: str, asm: WindowAssembler
) -> Tuple[List[str], List[str], List[int]]:
    """``(fifo names, tap channel names, full-buffering depths)`` of a chain.

    All three follow chain position (stream-arrival order): tap channel
    ``i`` is the one bound to filter ``X.f{i}``'s ``tap`` port — the
    graph itself resolves the sorted-offset-to-tap-index mapping that
    ``build_filter_chain`` applied.  The depths are the assembler's
    geometry, not the built capacities, so the recursion can be evaluated
    on whatever capacities the graph currently carries.
    """
    depths = fifo_depths(asm.spec, asm.wp, asm.group)
    fifos = [f"{base}.fifo{i}" for i in range(len(depths))]
    taps = [
        graph.actors[f"{base}.f{i}"].output("tap").name
        for i in range(len(depths) + 1)
    ]
    for name in fifos + taps:
        ch = graph.channels.get(name)
        if ch is None or ch.capacity is None:
            raise ConfigurationError(
                f"literal chain {base!r} has no bounded channel {name!r}"
            )
    return fifos, taps, depths


def _certify_chain(
    graph: DataflowGraph,
    base: str,
    asm: WindowAssembler,
    certs: Dict[str, DepthCertificate],
) -> None:
    """Prove and record the word-minimal depths of one literal chain."""
    fifos, taps, depths = chain_members(graph, base, asm)
    tap_caps = [1] * len(taps)
    fifo_caps = certified_chain_floors(asm.spec, asm.w, asm.group)
    budgets = chain_run_ahead(depths, fifo_caps, tap_caps)
    if min(budgets) < 1:  # pragma: no cover - the assignment is feasible
        raise ConfigurationError(
            f"chain {base!r}: minimal assignment violates its own "
            f"recursion (budgets {budgets})"
        )
    for i, name in enumerate(fifos):
        ch = graph.channels[name]
        cap = fifo_caps[i]
        tight = cap >= 2
        if tight:
            shrunk = list(fifo_caps)
            shrunk[i] = cap - 1
            worst = min(chain_run_ahead(depths, shrunk, tap_caps))
            detail = (
                f"max-plus recursion over chain {base!r}: R>=1 at depth "
                f"{cap} (full depth {depths[i]}, unit tap slack); depth "
                f"{cap - 1} drives min R to {worst}"
            )
        else:
            detail = (
                f"max-plus recursion over chain {base!r}: inter-tap "
                f"depth {depths[i]} is within the unit tap slack"
            )
        certs[name] = DepthCertificate(
            channel=name,
            depth=cap,
            full_capacity=int(ch.capacity or 0),
            method=METHOD_CHAIN,
            proven=True,
            tight=tight,
            detail=detail,
        )
    for i, name in enumerate(taps):
        ch = graph.channels[name]
        certs[name] = DepthCertificate(
            channel=name,
            depth=1,
            full_capacity=int(ch.capacity or 0),
            method=METHOD_CHAIN,
            proven=True,
            tight=False,
            detail=(
                f"tap channel of chain {base!r}: the run-ahead budget "
                f"T={1} is folded into the chain FIFO floors"
            ),
        )


def _certify_reconvergent(
    graph: DataflowGraph, certs: Dict[str, DepthCertificate]
) -> None:
    """Floor the channels on fork/join branches by their latency deficit."""
    needed: Dict[str, int] = {}
    origin: Dict[str, str] = {}
    for fork, join, branches in fork_join_pairs(graph):
        skew = max(b.latency for b in branches)
        for branch in branches:
            deficit = max(1, skew - branch.latency)
            for hop in branch.hops:
                for name in hop:
                    if name in certs:
                        continue
                    if deficit > needed.get(name, 0):
                        needed[name] = deficit
                        origin[name] = f"{fork} -> {join}"
    for name, floor in needed.items():
        ch = graph.channels[name]
        if ch.capacity is None:
            continue
        certs[name] = DepthCertificate(
            channel=name,
            depth=floor,
            full_capacity=int(ch.capacity),
            method=METHOD_SKEW,
            proven=True,
            tight=False,
            detail=(
                f"reconvergent branch of {origin[name]}: must absorb a "
                f"latency deficit of {floor - 1} beats against the "
                f"slowest peer (BUFFER.SKEW bound, chains contracted)"
            ),
        )


def infer_depth_plan(
    graph: DataflowGraph,
    design_name: Optional[str] = None,
) -> DepthPlan:
    """Derive a certified :class:`DepthPlan` for an elaborated graph.

    The graph must be a ``repro check``-clean *literal* elaboration
    (chain FIFOs only exist there); every bounded channel receives a
    certificate.  The plan does not mutate ``graph`` — apply it with
    :func:`apply_depth_plan` or ``build_network(depth_plan=...)``.
    """
    chains = literal_chains(graph)
    certs: Dict[str, DepthCertificate] = {}
    for base, asm in chains.items():
        _certify_chain(graph, base, asm, certs)
    for name in sorted(graph.channels):
        ch = graph.channels[name]
        if (
            name in certs or ch.capacity is None
            or ch.writer is None or ch.reader is None
        ):
            continue
        tx = graph.actors.get(ch.ends[0][0])
        if type(tx) is not LinkTxActor:
            continue
        beat = tx.beat
        depth = 2 if beat == 1 else 1
        certs[name] = DepthCertificate(
            channel=name,
            depth=depth,
            full_capacity=int(ch.capacity),
            method=METHOD_LINK,
            proven=True,
            tight=False,
            detail=(
                f"link wire paced at one word per {beat} cycle(s): the "
                f"transmitter never has more than one word in flight"
                + (
                    " per two-phase commit window, so depth 2 sustains "
                    "the full back-to-back rate"
                    if beat == 1
                    else ", and the receiver drains it before the next "
                    "beat, so depth 1 sustains the full link rate"
                )
            ),
        )
    bridges = _bridge_channels(graph)
    for name in sorted(graph.channels):
        ch = graph.channels[name]
        if name in certs or ch.capacity is None or name not in bridges:
            continue
        certs[name] = DepthCertificate(
            channel=name,
            depth=1,
            full_capacity=int(ch.capacity),
            method=METHOD_BRIDGE,
            proven=True,
            tight=False,
            detail=(
                "bridge of the undirected channel multigraph: no "
                "deadlock wait-cycle can traverse it, so capacity 1 "
                "suffices"
            ),
        )
    _certify_reconvergent(graph, certs)
    for name in sorted(graph.channels):
        ch = graph.channels[name]
        if name in certs or ch.capacity is None:
            continue
        certs[name] = DepthCertificate(
            channel=name,
            depth=int(ch.capacity),
            full_capacity=int(ch.capacity),
            method=METHOD_PIN,
            proven=False,
            tight=False,
            detail=(
                "no structural proof (not a chain FIFO, bridge, or "
                "enumerated reconvergent branch): pinned at the built "
                "capacity"
            ),
        )
    design = graph.design
    return DepthPlan(
        design_name=design_name
        or (design.name if design is not None else graph.name),
        graph_name=graph.name,
        dma_beat=max(
            (a.interval for a in graph.actors.values() if isinstance(a, ArraySource)),
            default=1,
        ),
        memory_system="literal" if chains else "behavioral",
        certificates=certs,
    )


def apply_depth_plan(graph: DataflowGraph, plan: DepthPlan) -> None:
    """Re-provision a built graph's channels to the certified depths.

    The plan must cover every bounded channel of the graph and name no
    unknown ones — a mismatch means the plan was inferred from a
    different elaboration (wrong design or memory system).  The plan is
    attached as ``graph.depth_plan`` so the static verifier's
    BUFFER.DEPTH_* rules can see it.
    """
    unknown = [
        name for name in plan.certificates if name not in graph.channels
    ]
    missing = [
        name
        for name, ch in graph.channels.items()
        if ch.capacity is not None and name not in plan.certificates
    ]
    if unknown or missing:
        raise ConfigurationError(
            f"depth plan for {plan.design_name!r} does not match graph "
            f"{graph.name!r}: {len(unknown)} plan channels missing from "
            f"the graph, {len(missing)} graph channels uncovered "
            f"(examples: {sorted(unknown)[:3]} / {sorted(missing)[:3]}); "
            f"was the plan inferred with memory_system="
            f"{plan.memory_system!r}?"
        )
    for name, cert in plan.certificates.items():
        ch = graph.channels.get(name)
        if ch is None or ch.capacity is None:
            continue
        ch.capacity = cert.depth
    graph.depth_plan = plan


# -- empirical cross-validation ----------------------------------------------


@dataclass
class ProbeOutcome:
    """One depth-1 probe of a tight certificate."""

    channel: str
    probe_depth: int
    deadlocked: bool
    #: Channels the event engine reported blocked at the deadlock.
    blocked: List[str]
    #: The certified channel is in the blocked set.
    blamed: bool
    #: The plan-aware analyzer emitted BUFFER.DEPTH_UNDERSIZED for it.
    flagged: bool
    #: match_deadlock_diagnostics paired the deadlock with that finding.
    matched: bool
    cycles: int

    @property
    def ok(self) -> bool:
        return self.deadlocked and self.blamed and self.flagged and self.matched

    def to_dict(self) -> Dict[str, Any]:
        return {
            "channel": self.channel,
            "probe_depth": self.probe_depth,
            "deadlocked": self.deadlocked,
            "blocked": self.blocked,
            "blamed": self.blamed,
            "flagged": self.flagged,
            "matched": self.matched,
            "cycles": self.cycles,
            "ok": self.ok,
        }


@dataclass
class PlanValidation:
    """Certified no-deadlock run plus tight-certificate probes."""

    design: str
    seed: int
    images: int
    baseline_cycles: int
    baseline_digest: str
    #: engine -> {"cycles", "digest", "finished", "ok"}; one ``"event"`` entry.
    runs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    probes: List[ProbeOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.runs.values()) and all(
            p.ok for p in self.probes
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "design": self.design,
            "seed": self.seed,
            "images": self.images,
            "baseline_cycles": self.baseline_cycles,
            "baseline_digest": self.baseline_digest,
            "runs": self.runs,
            "probes": [p.to_dict() for p in self.probes],
            "ok": self.ok,
        }


def probe_tight_certificate(
    design: Any,
    plan: DepthPlan,
    channel: str,
    seed: int = 0,
    images: int = 1,
) -> ProbeOutcome:
    """Shrink one tight certificate to depth-1 and expect the deadlock.

    Reuses the FIFO-shrink fault machinery: the probe arms a
    ``FifoShrink`` on a fresh plan-applied build, runs the event engine,
    and cross-references the deadlock against the plan-aware analyzer
    exactly like the PR 3 agreement suite.
    """
    from repro.analysis.checker import analyze_graph
    from repro.faults import FaultScenario, FifoShrink, run_design

    cert = plan.certificates[channel]
    if not cert.tight:
        raise ConfigurationError(
            f"{channel!r} is not a tight certificate (depth {cert.depth}, "
            f"method {cert.method})"
        )
    scenario = FaultScenario(
        "depth-probe",
        (FifoShrink(channels=channel, capacity=cert.depth - 1),),
    )
    run = run_design(
        design, seed=seed, images=images, scenario=scenario,
        memory_system=plan.memory_system, depth_plan=plan,
        stall_limit=_STALL_LIMIT,
    )
    err = run.deadlock
    blocked: List[str] = []
    flagged = matched = False
    if err is not None:
        blocked, errors, named = shrink_agreement(
            err, analyze_graph(run.built.graph, design), [channel]
        )
        flagged = any(d.rule == "BUFFER.DEPTH_UNDERSIZED" for d in errors)
        matched = channel in named
    return ProbeOutcome(
        channel=channel,
        probe_depth=cert.depth - 1,
        deadlocked=err is not None,
        blocked=blocked,
        blamed=channel in blocked,
        flagged=flagged,
        matched=matched,
        cycles=run.cycles,
    )


def validate_plan(
    design: Any,
    plan: DepthPlan,
    seed: int = 0,
    images: int = 1,
    probe_channels: Optional[Sequence[str]] = None,
) -> PlanValidation:
    """Empirically certify a plan: one clean certified run + tight probes.

    The plan-applied build must finish on the event engine with the
    same output digest as the full-buffering baseline (Kahn determinism
    makes digest equality a free correctness check), and every tight
    certificate's depth-1 probe must deadlock on exactly the certified
    channel.  ``probe_channels`` restricts the probe set (default: all
    tight certificates).
    """
    from repro.faults import run_design

    def run(depth_plan: Optional[DepthPlan]) -> Any:
        return run_design(
            design, seed=seed, images=images,
            memory_system=plan.memory_system, depth_plan=depth_plan,
            stall_limit=_STALL_LIMIT,
        )

    baseline = run(None)
    if baseline.deadlock is not None:  # pragma: no cover - full buffering
        raise baseline.deadlock
    val = PlanValidation(
        design=design.name,
        seed=seed,
        images=images,
        baseline_cycles=baseline.cycles,
        baseline_digest=baseline.digest,
    )
    certified = run(plan)
    entry: Dict[str, Any] = {
        "cycles": certified.cycles,
        "digest": certified.digest,
        "finished": certified.finished,
        "ok": certified.finished and certified.digest == baseline.digest,
    }
    if certified.deadlock is not None:
        entry["deadlock"] = certified.deadlock.blocked_channel_names()
    val.runs["event"] = entry
    targets = (
        list(probe_channels)
        if probe_channels is not None
        else plan.tight_channels()
    )
    for channel in targets:
        val.probes.append(
            probe_tight_certificate(
                design, plan, channel, seed=seed, images=images
            )
        )
    return val


# -- empirical bisect shrinker ------------------------------------------------


def bisect_channel_floor(
    design: Any,
    plan: DepthPlan,
    channel: str,
    seed: int = 0,
    images: int = 1,
) -> int:
    """Binary-search one channel's empirical deadlock-freedom floor.

    All other channels sit at their certified depths; by Kahn
    monotonicity (more capacity never hurts) feasibility is monotone in
    the probed capacity, so binary search is exact.  Returns the
    smallest capacity that simulates clean.
    """
    from repro.faults import FaultScenario, FifoShrink, run_design

    def finishes(capacity: int) -> bool:
        """The plan with ``channel`` shrunk to ``capacity`` runs clean."""
        scenario = FaultScenario(
            "depth-bisect", (FifoShrink(channels=channel, capacity=capacity),)
        )
        return run_design(
            design, seed=seed, images=images, scenario=scenario,
            memory_system=plan.memory_system, depth_plan=plan,
            stall_limit=_STALL_LIMIT,
        ).finished

    cert = plan.certificates[channel]
    if cert.depth == 1:
        return 1
    lo, hi = 1, cert.depth
    if not finishes(hi):  # pragma: no cover - feasible by validation
        raise ConfigurationError(
            f"{channel!r} deadlocks at its certified depth {hi}: the "
            f"certificate is violated"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if finishes(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def bisect_plan(
    design: Any,
    plan: DepthPlan,
    channels: Optional[Sequence[str]] = None,
    seed: int = 0,
    images: int = 1,
) -> Dict[str, Dict[str, Any]]:
    """Empirical floors for ``channels`` (default: every depth > 1).

    Each row reports the certified depth, the bisected floor, and
    whether they agree: a floor above the certificate would be a
    soundness violation (impossible if validation passed), a floor
    below a *tight* certificate means the prover over-constrained.
    """
    if channels is None:
        channels = sorted(
            name
            for name, c in plan.certificates.items()
            if c.depth > 1
        )
    out: Dict[str, Dict[str, Any]] = {}
    for name in channels:
        cert = plan.certificates[name]
        floor = bisect_channel_floor(
            design, plan, name, seed=seed, images=images
        )
        agrees = floor <= cert.depth and (
            not cert.tight or floor == cert.depth
        )
        out[name] = {
            "certified": cert.depth,
            "floor": floor,
            "tight": cert.tight,
            "agrees": agrees,
        }
    return out


# -- the `repro shrink` experiment --------------------------------------------


class ShrinkReport(MappingReport):
    """One ``repro shrink`` run behind the unified Report envelope."""

    kind = "shrink"

    def summary(self) -> str:
        d = self._data
        return (
            f"shrink {d['design']}: {d['words']['saved_pct']}% words "
            f"saved, {'ok' if d['ok'] else 'CERTIFICATE VIOLATION'}"
        )

    def format_text(self) -> str:
        from repro.report import format_kv, format_table

        d = self._data
        pairs: List[Tuple[str, Any]] = [
            ("channels certified", d["prover"]["channels"]),
            ("methods", ", ".join(
                f"{m}={n}" for m, n in d["prover"]["methods"].items()
            )),
            ("tight certificates", d["prover"]["tight"]),
            ("heuristic pins", d["prover"]["heuristic"]),
            ("prover runtime", f"{d['prover']['runtime_s']:.3f} s"),
            ("FIFO words (full buffering)", d["words"]["full"]),
            ("FIFO words (certified)", d["words"]["certified"]),
            ("words saved",
             f"{d['words']['saved']} ({d['words']['saved_pct']}%)"),
        ]
        if d.get("validation"):
            v = d["validation"]
            for scheduler, run in v["runs"].items():
                state = (
                    f"{run['cycles']} cycles, digest "
                    f"{'match' if run['ok'] else 'MISMATCH/deadlock'}"
                )
                pairs.append((f"certified run [{scheduler}]", state))
            pairs.append(
                ("cycles vs full buffering",
                 f"{v['runs']['event']['cycles']} vs "
                 f"{v['baseline_cycles']} "
                 f"(x{d['cycles_ratio']})")
            )
            probed = (
                f"{sum(1 for p in v['probes'] if p['ok'])}/"
                f"{len(v['probes'])} agree"
            )
            if v.get("unprobed_tight"):
                probed += f" ({v['unprobed_tight']} unprobed, --probe-limit)"
            pairs.append(("tight probes (depth-1 deadlocks)", probed))
        pairs.append(("verdict", "ok" if d["ok"] else "CERTIFICATE VIOLATION"))
        text = format_kv(f"depth shrink: {d['design']}", pairs)
        if d.get("bisect"):
            rows = [
                [name, row["certified"], row["floor"],
                 "tight" if row["tight"] else "",
                 "ok" if row["agrees"] else "DISAGREES"]
                for name, row in sorted(d["bisect"].items())
            ]
            text += "\n\n" + format_table(
                ["channel", "certified", "bisected floor", "", ""],
                rows, title="empirical bisect",
            )
        if d.get("violations"):
            text += "\n\nviolations:\n" + "\n".join(
                f"  - {v}" for v in d["violations"]
            )
        return text


def run_shrink(
    design: Any,
    seed: int = 0,
    images: int = 1,
    validate: bool = True,
    bisect: bool = False,
    probe_channels: Optional[Sequence[str]] = None,
    probe_limit: Optional[int] = None,
) -> ShrinkReport:
    """The full ``repro shrink`` experiment for one design.

    Infers the certified plan from a literal elaboration (a design too
    large to simulate is refused, like ``faultsim``), computes the
    closed-form BRAM savings over the original design, and — unless
    ``validate=False`` — replays the certificates empirically.
    ``probe_limit`` caps the depth-1 probe count (the report records how
    many tight certificates went unprobed — no silent truncation).
    ``ok`` is False on any certificate violation (the CLI exits nonzero
    on it).
    """
    from repro.core.builder import build_network, random_weights, seeded_batch
    from repro.core.resource_model import buffering_savings
    from repro.faults import simulable_design

    simulable_design(design)
    built = build_network(
        design,
        random_weights(design, seed=seed),
        seeded_batch(design, seed, 1),
        memory_system="literal",
    )
    import networkx  # noqa: F401 - its one-off ~0.1 s import is not prover time

    t0 = time.perf_counter()
    plan = infer_depth_plan(built.graph, design_name=design.name)
    runtime = time.perf_counter() - t0
    violations: List[str] = []
    data: Dict[str, Any] = {
        "design": design.name,
        "seed": seed,
        "images": images,
        "dma_beat": plan.dma_beat,
        "memory_system": plan.memory_system,
        "prover": {
            "channels": len(plan.certificates),
            "methods": plan.method_counts(),
            "proven": len(plan.proven_channels()),
            "heuristic": len(plan.heuristic_channels()),
            "tight": len(plan.tight_channels()),
            "runtime_s": round(runtime, 4),
        },
        "words": {
            "full": plan.full_words,
            "certified": plan.certified_words,
            "saved": plan.saved_words,
            "saved_pct": round(plan.saved_pct, 2),
        },
        "resources": buffering_savings(design),
        "plan": plan.to_dict(),
    }
    if validate:
        targets = (
            list(probe_channels)
            if probe_channels is not None
            else plan.tight_channels()
        )
        unprobed = 0
        if probe_limit is not None and len(targets) > probe_limit:
            unprobed = len(targets) - probe_limit
            targets = targets[:probe_limit]
        val = validate_plan(
            design, plan, seed=seed, images=images,
            probe_channels=targets,
        )
        data["validation"] = val.to_dict()
        data["validation"]["unprobed_tight"] = unprobed
        event_cycles = val.runs.get("event", {}).get("cycles", 0)
        data["cycles_ratio"] = (
            round(event_cycles / val.baseline_cycles, 2)
            if val.baseline_cycles
            else math.nan
        )
        for scheduler, run in val.runs.items():
            if not run["ok"]:
                violations.append(
                    f"certified plan failed under {scheduler}: "
                    f"{run.get('deadlock', 'digest mismatch')}"
                )
        for probe in val.probes:
            if not probe.ok:
                violations.append(
                    f"tight certificate {probe.channel} at depth "
                    f"{probe.probe_depth}: expected a deadlock on that "
                    f"channel, got deadlocked={probe.deadlocked} "
                    f"blamed={probe.blamed} flagged={probe.flagged} "
                    f"matched={probe.matched}"
                )
    if bisect:
        rows = bisect_plan(design, plan, seed=seed, images=images)
        data["bisect"] = rows
        for name, row in rows.items():
            if not row["agrees"]:
                violations.append(
                    f"bisected floor of {name} is {row['floor']} but the "
                    f"certificate says {row['certified']} "
                    f"(tight={row['tight']})"
                )
    data["violations"] = violations
    data["ok"] = not violations
    return ShrinkReport(data)
