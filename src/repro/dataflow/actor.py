"""Actor (process) base class for the cycle-level dataflow simulator.

An :class:`Actor` is a hardware module with named input/output stream ports.
Its behaviour is written as one or more Python *generator coroutines*
(returned by :meth:`Actor.processes`); each ``yield`` suspends the process
until the next clock cycle. This mirrors how the paper's cores are written as
independent HLS dataflow processes communicating over AXI4-Stream links.

Timing contract (enforced by :class:`~repro.dataflow.channel.Channel`):

* within a single cycle (one resumption slice between two ``yield``\\ s) a
  process may pop at most one value per input channel and push at most one
  value per output channel — one beat per port per cycle;
* pops observe values committed in earlier cycles; pushes become visible to
  the consumer in the next cycle.

The helper generators (:meth:`recv`, :meth:`send`, :meth:`recv_all`,
:meth:`send_all`, :meth:`wait`, :meth:`relay`) obey this contract and are the
recommended way to write actors. Use them with ``yield from``::

    class Doubler(Actor):
        def run(self):
            while True:
                v = yield from self.recv("in")
                yield from self.send("out", 2 * v)

A hand-written blocking loop is ``while not <firing rule>: yield
<descriptor>`` and nothing else. The yielded descriptor
(:mod:`repro.dataflow.events`) is the one statement of the stall: the engines
charge the channels' stall counters from it and a deadlock report names its
unsatisfied conditions, so an actor keeps no bookkeeping of its own.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.dataflow.channel import Channel
from repro.dataflow.events import (
    CHARGE_EACH,
    CHARGE_FIRST,
    POP,
    PUSH,
    ChannelWait,
    WaitCycles,
)
from repro.errors import GraphError


class Actor:
    """Base class for dataflow actors.

    Subclasses either override :meth:`run` (single-process actors) or
    :meth:`processes` (multi-process actors, e.g. a compute pipeline with a
    separate output emitter).

    Parameters
    ----------
    name:
        Unique name within the graph; used in traces and error reports.
    """

    def __init__(self, name: str):
        self.name = str(name)
        self._inputs: Dict[str, Channel] = {}
        self._outputs: Dict[str, Channel] = {}
        #: Daemon actors (e.g. free-running routing stages) never finish on
        #: their own; the simulation completes when all non-daemon processes
        #: have finished, regardless of daemons.
        self.daemon: bool = False
        #: Current simulation cycle, maintained by the simulator before each
        #: resumption; usable by processes to model fixed datapath latencies.
        self.now: int = 0

    # -- port binding ------------------------------------------------------

    def bind_input(self, port: str, channel: Channel) -> None:
        """Connect ``channel`` to the input ``port`` of this actor."""
        if port in self._inputs:
            raise GraphError(f"actor {self.name!r}: input port {port!r} already bound")
        channel.bind_reader(f"{self.name}.{port}")
        self._inputs[port] = channel

    def bind_output(self, port: str, channel: Channel) -> None:
        """Connect ``channel`` to the output ``port`` of this actor."""
        if port in self._outputs:
            raise GraphError(f"actor {self.name!r}: output port {port!r} already bound")
        channel.bind_writer(f"{self.name}.{port}")
        self._outputs[port] = channel

    def input(self, port: str) -> Channel:
        """Return the channel bound to input ``port``."""
        try:
            return self._inputs[port]
        except KeyError:
            raise GraphError(f"actor {self.name!r}: unbound input port {port!r}") from None

    def output(self, port: str) -> Channel:
        """Return the channel bound to output ``port``."""
        try:
            return self._outputs[port]
        except KeyError:
            raise GraphError(f"actor {self.name!r}: unbound output port {port!r}") from None

    @property
    def input_ports(self) -> List[str]:
        """Names of all bound input ports."""
        return list(self._inputs)

    @property
    def output_ports(self) -> List[str]:
        """Names of all bound output ports."""
        return list(self._outputs)

    # -- behaviour ---------------------------------------------------------

    def processes(self) -> Iterable[Generator]:
        """Return the generator coroutines implementing this actor.

        The default implementation returns the single :meth:`run` process.
        """
        return [self.run()]

    def run(self) -> Generator:
        """Single-process behaviour; override in subclasses."""
        raise NotImplementedError(
            f"{type(self).__name__} must override run() or processes()"
        )

    # -- coroutine helpers ---------------------------------------------------

    def recv(self, port: str) -> Generator:
        """Receive one value from ``port`` (>= 1 cycle).

        Stalls while the channel is empty; the successful pop occupies one
        cycle. Use as ``value = yield from self.recv("in")``.
        """
        ch = self.input(port)
        while not ch.can_pop():
            yield ch.pop_wait()
        value = ch.pop()
        yield
        return value

    def recv_all(self, ports: Sequence[str]) -> Generator:
        """Receive one value from *each* port in the same cycle (>= 1 cycle).

        Models parallel port reads (Algorithm 1 reads ``IN_PORTS`` windows
        simultaneously). Stalls until every channel has a value.
        """
        chans = [self.input(p) for p in ports]
        park = ChannelWait(tuple((POP, ch) for ch in chans), CHARGE_EACH)
        while not all(ch.can_pop() for ch in chans):
            yield park
        values = [ch.pop() for ch in chans]
        yield
        return values

    def send(self, port: str, value: Any) -> Generator:
        """Send ``value`` on ``port`` (>= 1 cycle). Stalls while full."""
        ch = self.output(port)
        while not ch.can_push():
            yield ch.push_wait()
        ch.push(value)
        yield

    def send_all(self, mapping: Mapping[str, Any]) -> Generator:
        """Send one value on each port in the same cycle (>= 1 cycle)."""
        chans = {p: self.output(p) for p in mapping}
        park = ChannelWait(tuple((PUSH, ch) for ch in chans.values()), CHARGE_EACH)
        while not all(ch.can_push() for ch in chans.values()):
            yield park
        for p, ch in chans.items():
            ch.push(mapping[p])
        yield

    def wait(self, cycles: int) -> Generator:
        """Idle for ``cycles`` clock cycles (models fixed latencies)."""
        total = int(cycles)
        start = self.now
        elapsed = 0
        while elapsed < total:
            yield WaitCycles(total - elapsed)
            # `now` tracks the clock under either scheduler; the max() keeps
            # hand-driven generators (tests calling next() directly) moving.
            elapsed = max(elapsed + 1, self.now - start)

    def relay(
        self,
        src: str,
        dst: str,
        count: Optional[int] = None,
        fn: Optional[Callable[[Any], Any]] = None,
    ) -> Generator:
        """Move values from input ``src`` to output ``dst`` at II = 1.

        Pops and pushes within the same cycle (full-throughput FIFO stage).
        ``count=None`` relays forever; ``fn`` transforms each value.
        """
        in_ch = self.input(src)
        out_ch = self.output(dst)
        park = ChannelWait(((POP, in_ch), (PUSH, out_ch)), CHARGE_FIRST)
        moved = 0
        while count is None or moved < count:
            while not (in_ch.can_pop() and out_ch.can_push()):
                yield park
            out_ch.push(fn(in_ch.pop()) if fn is not None else in_ch.pop())
            moved += 1
            yield

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
