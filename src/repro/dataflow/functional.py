"""Untimed functional execution of a dataflow graph.

:class:`FunctionalExecutor` runs the *same* actor coroutines as the
cycle-level simulator but lifts every FIFO capacity to unbounded, so the run
cannot stall on backpressure and completes in the minimum number of
scheduler rounds. It is used to check functional correctness of a network
quickly (values only) before paying for a timed simulation, and by tests
asserting timed/untimed output equivalence.
"""

from __future__ import annotations

from repro.dataflow.graph import DataflowGraph
from repro.dataflow.simulator import SimulationResult


class FunctionalExecutor:
    """Run a graph with unbounded channels (values preserved, timing not).

    The capacity override is applied in place and restored afterwards, so
    the same :class:`DataflowGraph` instance can subsequently be simulated
    with real capacities. Note however that actors keep their internal
    state; build a fresh graph per run.
    """

    def __init__(self, graph: DataflowGraph):
        self.graph = graph

    def run(self, max_cycles: int = 50_000_000) -> SimulationResult:
        """Execute until all non-daemon processes finish; return the result."""
        saved = {name: ch.capacity for name, ch in self.graph.channels.items()}
        try:
            for ch in self.graph.channels.values():
                ch.capacity = None
            sim = self.graph.build_simulator()
            return sim.run(max_cycles=max_cycles)
        finally:
            for name, cap in saved.items():
                self.graph.channels[name].capacity = cap

