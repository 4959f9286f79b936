"""The rule catalog of the static dataflow verifier.

Each rule encodes one *structural* correctness guarantee the paper relies
on. The registry is the single source of truth for rule ids, the paper
sections they come from, and the level they run at (``design`` rules need
only layer specs; ``graph`` rules need an elaborated dataflow graph, which
``check_network`` builds for every design — no rule is ever skipped).
``repro check --list-rules`` renders this catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class RuleInfo:
    """Catalog entry for one verifier rule."""

    id: str
    title: str
    #: ``"design"`` (spec chain) or ``"graph"`` (elaborated dataflow graph).
    level: str
    #: Paper section/equation the checked invariant comes from.
    paper_ref: str
    description: str


_RULES = [
    RuleInfo(
        id="SPEC.VALID",
        title="layer specs are individually well-formed",
        level="design",
        paper_ref="Section IV-A/IV-B",
        description=(
            "Every layer spec must construct cleanly (positive feature-map "
            "and port counts, port counts dividing feature maps, unique "
            "layer names, classifier stage last). Specs that fail to parse "
            "from a design JSON are reported here instead of aborting the "
            "whole check."
        ),
    ),
    RuleInfo(
        id="RATE.BALANCE",
        title="SDF balance equations hold on every inter-layer stream",
        level="design",
        paper_ref="Section II-B / IV-A",
        description=(
            "Per image, the number of stream words a stage produces must "
            "equal the number its consumer ingests: OUT_FM x OH x OW "
            "upstream versus IN_FM x H x W downstream (IN_FM for the "
            "flattened classifier stage). An imbalance means tokens "
            "accumulate without bound or a stage starves forever."
        ),
    ),
    RuleInfo(
        id="RATE.GEOMETRY",
        title="window geometry tiles the (padded) input",
        level="design",
        paper_ref="Section II-A (stride/padding hyper-parameters)",
        description=(
            "The sliding window must fit the padded input, and "
            "(H + 2P - K) should be divisible by the stride: a remainder "
            "means trailing rows/columns are buffered on chip but can "
            "never contribute to any output window."
        ),
    ),
    RuleInfo(
        id="ADAPTER.LEGAL",
        title="consecutive layers admit a legal port adapter",
        level="design",
        paper_ref="Section IV-A",
        description=(
            "OUT_PORTS(i-1) and IN_PORTS(i) must be equal (direct), or one "
            "must divide the other (demux / widened filters). Any other "
            "ratio cannot be routed by the modulo-interleaved FM-to-port "
            "mapping and has no adapter in the paper's methodology."
        ),
    ),
    RuleInfo(
        id="ADAPTER.WIRING",
        title="elaborated adapters match the spec-level classification",
        level="graph",
        paper_ref="Section IV-A",
        description=(
            "The elaborated graph must contain exactly the demux/interleaver "
            "actors the port classification demands, with the right fan-out "
            "ratios, and each demux output must feed the consumer port the "
            "round-robin FM interleaving assigns to it."
        ),
    ),
    RuleInfo(
        id="II.EQ4",
        title="initiation intervals agree with Eq. 4",
        level="design",
        paper_ref="Eq. 4",
        description=(
            "Each compute core's II must equal "
            "max(IN_FM/IN_PORTS, OUT_FM/OUT_PORTS), and the port counts "
            "must divide the feature-map counts so the bound is integral."
        ),
    ),
    RuleInfo(
        id="II.BOTTLENECK",
        title="steady-state bottleneck of the performance model",
        level="design",
        paper_ref="Section IV-C / Figure 6",
        description=(
            "Reports (INFO) the stage that paces the pipeline and its "
            "per-image interval, as answered by the one stage list of "
            "core/perf_model.py; skipped under an II.EQ4 error. The model "
            "is held to measurement elsewhere: PROFILE.II_MISMATCH in "
            "`repro profile` and the exact-interval gates of `repro shard` "
            "and `repro loadtest`."
        ),
    ),
    RuleInfo(
        id="BUFFER.SKEW",
        title="reconvergent branches can absorb the schedule skew",
        level="graph",
        paper_ref="Section II-B (bounded FIFOs)",
        description=(
            "Where a fork's parallel branches reconverge at a join, the "
            "lower-latency branch must buffer at least the latency "
            "difference (in stream beats) of its slowest peer; otherwise "
            "back-pressure freezes the fork while the join starves - the "
            "classic bounded-FIFO reconvergence deadlock."
        ),
    ),
    RuleInfo(
        id="BUFFER.FULL",
        title="full buffering: read-once input, exact line-buffer sizing",
        level="graph",
        paper_ref="Section II-B / Figure 2",
        description=(
            "Every off-chip word enters the graph exactly once (no stream "
            "duplication after the DMA source), and every memory structure "
            "matches the sst/sizing.py geometry: behavioral line buffers "
            "carry the layer's window spec over the placement's H x W with "
            "the interleave group IN_FM/IN_PORTS; literal filter chains use "
            "exactly the full-buffering FIFO depths."
        ),
    ),
    RuleInfo(
        id="BUFFER.DEPTH_CERT",
        title="every certified FIFO depth rests on a structural proof",
        level="graph",
        paper_ref=(
            "arXiv:2011.07317 (Memory-Efficient Dataflow Inference) / "
            "Section II-B"
        ),
        description=(
            "Runs when a DepthPlan (repro.analysis.depths) is attached to "
            "the graph. Channels the prover could certify structurally "
            "(chain max-plus recursion, undirected bridge, reconvergent "
            "skew bound) are silent; a channel pinned at its built "
            "capacity without a proof is flagged as a warning — the plan "
            "is still applicable, but that depth is a heuristic bound, "
            "not a deadlock-freedom certificate."
        ),
    ),
    RuleInfo(
        id="BUFFER.DEPTH_UNDERSIZED",
        title="no channel sits below its certified depth",
        level="graph",
        paper_ref=(
            "arXiv:2011.07317 (Memory-Efficient Dataflow Inference) / "
            "arXiv:2105.08937 (Block Convolution)"
        ),
        description=(
            "Runs when a DepthPlan is attached to the graph. A bounded "
            "channel whose capacity is below its proven certificate depth "
            "is a hard error: the prover can exhibit the deadlock (chain "
            "run-ahead budget < 1 or unabsorbed reconvergent skew). Depths "
            "above the certificate are always safe (Kahn monotonicity)."
        ),
    ),
    RuleInfo(
        id="PROFILE.II_MISMATCH",
        title="measured initiation interval agrees with Eq. 4",
        level="profile",
        paper_ref="Section IV-B, Eq. 4",
        description=(
            "Run by `repro profile` against a cycle simulation, not by the "
            "static checker. Each compute core's *measured* initiation "
            "interval — productive (non-stalled) cycles per output "
            "coordinate, from the schedulers' native counters — must match "
            "the static prediction II = max(IN_FM/IN_PORTS, "
            "OUT_FM/OUT_PORTS) within 5%. A mismatch means the pipelined "
            "implementation does not sustain the paper's per-core rate "
            "(error); the same rule reports steady-state pipeline-interval "
            "disagreements between simulation and the perf model (warning)."
        ),
    ),
    RuleInfo(
        id="GRAPH.STRUCTURE",
        title="the dataflow graph is structurally sound",
        level="graph",
        paper_ref="Section II-B",
        description=(
            "Every channel has exactly one writer and one reader and the "
            "graph is acyclic (a feed-forward CNN pipeline). A valid design "
            "the builder refuses to elaborate is reported here."
        ),
    ),
]

#: Rule id -> catalog entry.
RULES: Dict[str, RuleInfo] = {r.id: r for r in _RULES}

#: Ids of rules operating purely on layer specs.
DESIGN_RULES = [r.id for r in _RULES if r.level == "design"]

#: Ids of rules needing an elaborated dataflow graph.
GRAPH_RULES = [r.id for r in _RULES if r.level == "graph"]


def render_catalog() -> str:
    """The ``repro check --list-rules`` table."""
    lines = ["rule catalog (static dataflow verifier)", ""]
    for r in _RULES:
        lines.append(f"{r.id:16s} [{r.level:6s}] {r.title}  ({r.paper_ref})")
        lines.append(f"    {r.description}")
    return "\n".join(lines)
