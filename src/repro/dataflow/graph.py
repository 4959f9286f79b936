"""Dataflow graph assembly and validation.

:class:`DataflowGraph` owns actors and channels, offers a ``connect``
convenience that creates and binds a channel in one call, validates the
structure (single writer/reader, no dangling endpoints) and exports the
topology to :mod:`networkx` for analysis (topological layering of the layer
pipeline, cycle detection, critical-path style queries).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.dataflow.actor import Actor
from repro.dataflow.channel import Channel
from repro.dataflow.simulator import Simulator
from repro.errors import GraphError

if TYPE_CHECKING:
    # Imported inside the functions that use it: 130-200 ms and 20 MiB
    # that only `repro check` / `repro shrink` need.
    import networkx as nx


class DataflowGraph:
    """Container and factory for a dataflow design.

    Typical usage::

        g = DataflowGraph("example")
        src = g.add_actor(ArraySource("src", data))
        sink = g.add_actor(ListSink("sink", count=len(data)))
        g.connect(src, "out", sink, "in", capacity=4)
        sim = g.build_simulator()
        sim.run()
    """

    def __init__(self, name: str = "graph", default_capacity: int = 2):
        self.name = str(name)
        self.default_capacity = int(default_capacity)
        self.actors: Dict[str, Actor] = {}
        self.channels: Dict[str, Channel] = {}
        #: The :class:`~repro.core.network_design.NetworkDesign` this graph
        #: was elaborated from (set by ``repro.core.builder``); ``None`` for
        #: hand-built graphs. The compiled engine requires it.
        self.design: Optional[Any] = None
        #: The :class:`~repro.core.multi_fpga.MultiFpgaPlan` this graph was
        #: sharded with (set by the builder when cutting the pipeline at
        #: device boundaries); ``None`` for single-device graphs. The
        #: compiled engine folds its link stages into the timing frame.
        self.multi_plan: Optional[Any] = None
        #: The certified :class:`~repro.analysis.depths.DepthPlan` applied
        #: to this graph's channels (set by ``apply_depth_plan``); ``None``
        #: at built capacities. The BUFFER.DEPTH_* rules check against it.
        self.depth_plan: Optional[Any] = None

    # -- construction ------------------------------------------------------

    def add_actor(self, actor: Actor) -> Actor:
        """Register ``actor`` and return it (for chaining)."""
        if actor.name in self.actors:
            raise GraphError(f"duplicate actor name {actor.name!r}")
        self.actors[actor.name] = actor
        return actor

    def add_channel(self, name: str, capacity: Optional[int] = None) -> Channel:
        """Create and register a channel (unbound)."""
        if name in self.channels:
            raise GraphError(f"duplicate channel name {name!r}")
        ch = Channel(name, capacity)
        self.channels[name] = ch
        return ch

    def connect(
        self,
        producer: Actor,
        out_port: str,
        consumer: Actor,
        in_port: str,
        capacity: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Channel:
        """Create a channel and bind both endpoints.

        ``capacity=None`` uses the graph default; pass an explicit ``0``-free
        positive integer to size the FIFO (the SST sizing module computes
        these depths for memory systems).
        """
        if producer.name not in self.actors:
            raise GraphError(f"producer {producer.name!r} not in graph")
        if consumer.name not in self.actors:
            raise GraphError(f"consumer {consumer.name!r} not in graph")
        cap = self.default_capacity if capacity is None else capacity
        cname = name or f"{producer.name}.{out_port}->{consumer.name}.{in_port}"
        ch = self.add_channel(cname, cap)
        producer.bind_output(out_port, ch)
        consumer.bind_input(in_port, ch)
        return ch

    # -- validation / analysis ----------------------------------------------

    def validate(self) -> None:
        """Check that every channel has both a writer and a reader."""
        for ch in self.channels.values():
            if ch.writer is None:
                raise GraphError(f"channel {ch.name!r} has no writer")
            if ch.reader is None:
                raise GraphError(f"channel {ch.name!r} has no reader")

    def to_networkx(self) -> nx.MultiDiGraph:
        """Export the actor topology as a :class:`networkx.MultiDiGraph`.

        Nodes are actor names; each channel contributes one edge annotated
        with ``channel``, ``capacity``, ``out_port`` and ``in_port``.
        """
        import networkx as nx

        g = nx.MultiDiGraph(name=self.name)
        for a in self.actors.values():
            g.add_node(a.name, actor=a)
        for ch in self.channels.values():
            if ch.writer is None or ch.reader is None:
                continue
            (src, out_port), (dst, in_port) = ch.ends
            g.add_edge(
                src,
                dst,
                channel=ch.name,
                capacity=ch.capacity,
                out_port=out_port,
                in_port=in_port,
            )
        return g

    def topological_layers(self) -> List[List[str]]:
        """Actor names grouped by topological generation (pipeline stages).

        Raises :class:`~repro.errors.GraphError` if the graph has a cycle
        (feed-forward CNN pipelines never do).
        """
        import networkx as nx

        g = nx.DiGraph(self.to_networkx())
        try:
            return [sorted(gen) for gen in nx.topological_generations(g)]
        except nx.NetworkXUnfeasible as exc:
            raise GraphError(f"graph {self.name!r} contains a cycle") from exc

    def sources(self) -> List[str]:
        """Actors with no bound input ports."""
        return sorted(a.name for a in self.actors.values() if not a.input_ports)

    def sinks(self) -> List[str]:
        """Actors with no bound output ports."""
        return sorted(a.name for a in self.actors.values() if not a.output_ports)

    # -- execution -----------------------------------------------------------

    def build_simulator(
        self,
        stall_limit: int = 10_000,
        tracer=None,
        scheduler: str = "event",
    ) -> Simulator:
        """Validate and return a cycle-level :class:`Simulator`.

        ``scheduler`` is a key of
        :data:`~repro.dataflow.simulator.SCHEDULERS`: ``"event"`` or
        ``"compiled"`` (see :mod:`repro.dataflow.scheduler` and
        :mod:`repro.compiled`), or the test oracle. The interpreted
        engines are bit-equivalent; the compiled engine matches them on
        outputs and fires and needs :attr:`design` to be set.
        """
        self.validate()
        return Simulator(
            list(self.actors.values()),
            list(self.channels.values()),
            stall_limit,
            tracer=tracer,
            scheduler=scheduler,
            design=self.design,
            multi_plan=self.multi_plan,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataflowGraph({self.name!r}, {len(self.actors)} actors, "
            f"{len(self.channels)} channels)"
        )
