"""Seeded broken designs for the static verifier's regression suite.

Each case is engineered to violate exactly ONE rule: the paired test
asserts that the analyzer reports errors under that rule id and no other.
That keeps the rules orthogonal — a refactor that makes one rule bleed
into another's territory fails the suite immediately.

Dict-based cases double as CLI fixtures (they serialize to design JSON);
graph-based cases exercise the graph-level rules on hand-built networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.analysis import (
    AnalysisReport,
    check_design_dict,
    check_network,
    placeholder_weights,
)
from repro.analysis.checker import analyze_graph
from repro.core.builder import build_network
from repro.core.compute_core import ConvCoreActor
from repro.core.layer_spec import ConvLayerSpec
from repro.core.models import tiny_design
from repro.core.network_design import NetworkDesign
from repro.dataflow.actors import (
    ArraySource,
    FifoStage,
    Fork,
    Interleaver,
    ListSink,
    ScheduleDemux,
)
from repro.dataflow.graph import DataflowGraph
from repro.sst.line_buffer import SlidingWindowActor


@dataclass(frozen=True)
class BadCase:
    """One seeded defect: a builder and the single rule it must trip."""

    name: str
    expected_rule: str
    analyze: Callable[[], AnalysisReport]


# -- design-dict seeds (also used as CLI JSON fixtures) ----------------------


def mismatched_ports_dict() -> dict:
    """conv1 exposes 3 output ports, conv2 wants 2: no adapter exists."""
    return {
        "name": "bad-adapter",
        "input_shape": [1, 8, 8],
        "layers": [
            {"kind": "conv", "name": "conv1", "in_fm": 1, "out_fm": 6,
             "kh": 3, "out_ports": 3},
            {"kind": "conv", "name": "conv2", "in_fm": 6, "out_fm": 4,
             "kh": 3, "in_ports": 2},
        ],
    }


def under_declared_fm_dict() -> dict:
    """pool1 claims 8 input FMs where conv1 produces 4: rate imbalance."""
    return {
        "name": "bad-balance",
        "input_shape": [1, 8, 8],
        "layers": [
            {"kind": "conv", "name": "conv1", "in_fm": 1, "out_fm": 4, "kh": 3},
            {"kind": "pool", "name": "pool1", "in_fm": 8, "out_fm": 8},
        ],
    }


def fc_flatten_mismatch_dict() -> dict:
    """fc consumes 100 flattened words where upstream yields 4*6*6=144."""
    return {
        "name": "bad-flatten",
        "input_shape": [1, 8, 8],
        "layers": [
            {"kind": "conv", "name": "conv1", "in_fm": 1, "out_fm": 4, "kh": 3},
            {"kind": "fc", "name": "fc1", "in_fm": 100, "out_fm": 10},
        ],
    }


# -- II seed (needs a spec object that lies about its interval) --------------


class _LyingIISpec(ConvLayerSpec):
    """A conv spec whose core claims a faster II than Eq. 4 allows."""

    @property
    def ii(self) -> int:  # pretends to be fully parallel
        return 1


def ii_inconsistent_design() -> NetworkDesign:
    spec = _LyingIISpec(name="conv1", in_fm=1, out_fm=6, kh=3)
    # out_fm/out_ports = 6/1: the honest Eq. 4 interval is 6, not 1.
    return NetworkDesign("bad-ii", (1, 8, 8), [spec])


# -- graph seeds -------------------------------------------------------------


def under_buffered_branch_graph() -> DataflowGraph:
    """A fork whose thin branch cannot absorb the deep branch's latency."""
    g = DataflowGraph("bad-skew", default_capacity=4)
    src = g.add_actor(ArraySource("src", list(range(8))))
    pre = g.add_actor(FifoStage("pre"))
    fork = g.add_actor(Fork("fork", n_outputs=2))
    deep = g.add_actor(FifoStage("deep"))
    deep.pipeline_depth = 64  # a deeply pipelined stage on one branch
    thin = g.add_actor(FifoStage("thin"))
    join = g.add_actor(Interleaver("join", n_inputs=2))
    snk = g.add_actor(ListSink("snk", count=16))
    g.connect(src, "out", pre, "in")
    g.connect(pre, "out", fork, "in")
    g.connect(fork, "out0", deep, "in", capacity=4)
    g.connect(deep, "out", join, "in0", capacity=4)
    g.connect(fork, "out1", thin, "in", capacity=2)
    g.connect(thin, "out", join, "in1", capacity=2)
    g.connect(join, "out", snk, "in")
    return g


def under_buffered_tiny(memory_system: str) -> AnalysisReport:
    """tiny with one pool core pipelined 64 deep: its sibling ports starve.

    The same defect across memory structures in either memory system — a
    literal chain contracts to the node its behavioral line buffer is.
    """
    design = tiny_design()
    built = build_network(
        design,
        placeholder_weights(design),
        np.zeros((1,) + design.input_shape, dtype=np.float32),
        memory_system=memory_system,
    )
    built.graph.actors["pool1.core0"].pipeline_depth = 64
    return analyze_graph(built.graph, design)


def duplicated_source_graph() -> DataflowGraph:
    """The off-chip stream forked to two consumers: reads each word twice."""
    g = DataflowGraph("bad-dup", default_capacity=4)
    src = g.add_actor(ArraySource("src", list(range(8))))
    fork = g.add_actor(Fork("fork", n_outputs=2))
    a = g.add_actor(ListSink("a", count=8))
    b = g.add_actor(ListSink("b", count=8))
    g.connect(src, "out", fork, "in")
    g.connect(fork, "out0", a, "in")
    g.connect(fork, "out1", b, "in")
    return g


def miswired_demux() -> AnalysisReport:
    """A 1->2 port demux whose outputs feed the wrong window chains.

    The design is valid; the hand-elaborated graph swaps the demux
    outputs, permuting the feature maps between conv1's input ports.
    """
    spec = ConvLayerSpec(name="conv1", in_fm=2, out_fm=2, kh=1,
                         in_ports=2, out_ports=1)
    design = NetworkDesign("bad-wiring", (2, 4, 4), [spec])
    g = DataflowGraph("bad-wiring", default_capacity=4)
    src = g.add_actor(ArraySource("dma_in", [0.0] * 32))
    dem = g.add_actor(ScheduleDemux("conv1.demux0", n_outputs=2))
    wins = [
        g.add_actor(SlidingWindowActor(f"conv1.win{i}", spec.window, 4, 4,
                                       group=1, images=1))
        for i in range(2)
    ]
    core = g.add_actor(ConvCoreActor(
        "conv1.core",
        np.zeros((2, 2, 1, 1), dtype=np.float32),
        np.zeros(2, dtype=np.float32),
        2, 1, n_coords=16, images=1,
    ))
    snk = g.add_actor(ListSink("dma_out_sink", count=32))
    g.connect(src, "out", dem, "in")
    # BUG: out0 must feed win0 and out1 win1 (port i + m*have); swapped here.
    g.connect(dem, "out0", wins[1], "in")
    g.connect(dem, "out1", wins[0], "in")
    for i, win in enumerate(wins):
        g.connect(win, "out", core, f"in{i}")
    g.connect(core, "out0", snk, "in")
    return analyze_graph(g, design)


BAD_CASES: List[BadCase] = [
    BadCase("mismatched-ports-no-adapter", "ADAPTER.LEGAL",
            lambda: check_design_dict(mismatched_ports_dict())),
    BadCase("under-declared-fm", "RATE.BALANCE",
            lambda: check_design_dict(under_declared_fm_dict())),
    BadCase("fc-flatten-mismatch", "RATE.BALANCE",
            lambda: check_design_dict(fc_flatten_mismatch_dict())),
    BadCase("ii-inconsistent-core", "II.EQ4",
            lambda: check_network(ii_inconsistent_design())),
    BadCase("under-buffered-branch", "BUFFER.SKEW",
            lambda: analyze_graph(under_buffered_branch_graph())),
    BadCase("under-buffered-port-behavioral", "BUFFER.SKEW",
            lambda: under_buffered_tiny("behavioral")),
    BadCase("under-buffered-port-literal", "BUFFER.SKEW",
            lambda: under_buffered_tiny("literal")),
    BadCase("duplicated-source-stream", "BUFFER.FULL",
            lambda: analyze_graph(duplicated_source_graph())),
    BadCase("miswired-demux", "ADAPTER.WIRING", miswired_demux),
]
