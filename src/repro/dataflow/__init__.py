"""Cycle-level dataflow simulation substrate.

This subpackage is the simulated stand-in for the FPGA fabric: bounded FIFO
:class:`~repro.dataflow.channel.Channel` links, coroutine-based
:class:`~repro.dataflow.actor.Actor` processes, a two-phase cycle-accurate
:class:`~repro.dataflow.simulator.Simulator`, and the standard actor
library (sources, sinks, routing adapters).
"""

from repro.dataflow.actor import Actor
from repro.dataflow.actors import (
    ArraySource,
    FifoStage,
    Fork,
    Interleaver,
    ListSink,
    MapActor,
    ScheduleDemux,
)
from repro.dataflow.channel import Channel, ChannelStats
from repro.dataflow.digest import stable_digest
from repro.dataflow.events import ChannelWait, Gate, WaitCycles
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.simulator import SimulationResult, Simulator
from repro.dataflow.trace import Tracer

__all__ = [
    "Actor",
    "ArraySource",
    "Channel",
    "ChannelStats",
    "ChannelWait",
    "DataflowGraph",
    "FifoStage",
    "Fork",
    "Gate",
    "Interleaver",
    "ListSink",
    "MapActor",
    "ScheduleDemux",
    "SimulationResult",
    "Simulator",
    "Tracer",
    "WaitCycles",
    "stable_digest",
]
