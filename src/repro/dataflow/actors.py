"""Standard reusable actors: sources, sinks, routing and map stages.

These are the "glue" modules of a dataflow design. The routing actors
(:class:`ScheduleDemux`, :class:`Interleaver`) implement the paper's port
adapters (Section IV-A): when ``OUT_PORTS(i-1) < IN_PORTS(i)`` a demux core
redirects data to the proper input port according to how feature maps are
interleaved on the producer's output port; the symmetric interleaver merges
several producer ports onto one consumer port.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.dataflow.actor import Actor
from repro.dataflow.events import CHARGE_NONE, POP, PUSH, ChannelWait
from repro.errors import ConfigurationError


class ArraySource(Actor):
    """Streams a pre-defined sequence of values, one beat per ``interval``.

    Models the DMA feeding the first layer. ``interval=1`` is a full-rate
    32-bit/cycle stream (the paper's 400 MB/s datapath at 100 MHz).

    Parameters
    ----------
    name: actor name.
    values: values to stream, in order.
    interval: cycles between consecutive beats (>= 1).
    port: output port name (default ``"out"``).
    """

    def __init__(self, name: str, values: Iterable[Any], interval: int = 1, port: str = "out"):
        super().__init__(name)
        if interval < 1:
            raise ConfigurationError(f"source {name!r}: interval must be >= 1")
        #: The ndarray the caller handed over (``None`` for any other
        #: iterable). The compiled engine's source kernel streams it as
        #: is; only the interpreted engines, which send beat by beat,
        #: need the per-beat list, so :attr:`values` builds that lazily.
        self.array = values if isinstance(values, np.ndarray) else None
        self._values = None if self.array is not None else list(values)
        self.interval = int(interval)
        self.port = port

    @property
    def values(self) -> List[Any]:
        """The beats as a list of per-beat values (numpy scalars/rows)."""
        if self._values is None:
            self._values = list(self.array)
        return self._values

    @property
    def n_values(self) -> int:
        """Number of beats, without materializing :attr:`values`."""
        return len(self._values if self.array is None else self.array)

    def run(self) -> Generator:
        # Actor.send, inlined: one generator per beat is a measurable part of
        # an interpreted run whose source feeds every pixel.
        ch = self.output(self.port)
        push_wait = ch.push_wait()
        for v in self.values:
            while not ch.can_push():
                yield push_wait
            ch.push(v)
            yield
            if self.interval > 1:
                yield from self.wait(self.interval - 1)


class ListSink(Actor):
    """Collects values from one input port into :attr:`received`.

    The interpreted engines append each beat to the list as it arrives;
    the compiled engine sets :attr:`received` to one float32 array, a row
    per beat, after its run. Either way ``len(received)`` is the beats
    received and ``received[i]`` is beat ``i``.

    Parameters
    ----------
    count:
        Number of values to consume before finishing; ``None`` consumes
        forever (the simulation then ends when producers finish and the
        sink deadlock-stalls — usually you want an explicit count).
    """

    def __init__(self, name: str, count: Optional[int] = None, port: str = "in"):
        super().__init__(name)
        if count is not None and count < 0:
            raise ConfigurationError(f"sink {name!r}: count must be >= 0")
        self.count = count
        self.port = port
        #: Beats received: a list appended per beat (event / lockstep),
        #: one float32 array after a compiled run.
        self.received: Union[List[Any], np.ndarray] = []
        #: Cycle at which each value was received (same index as received).
        self.timestamps: List[int] = []

    def run(self) -> Generator:
        ch = self.input(self.port)
        received = self.received
        n = 0
        while self.count is None or n < self.count:
            while not ch.can_pop():
                yield ch.pop_wait()
            received.append(ch.pop())
            self.timestamps.append(self.now)
            n += 1
            yield


class FifoStage(Actor):
    """A pass-through FIFO pipeline stage (II = 1)."""

    def __init__(self, name: str, src: str = "in", dst: str = "out"):
        super().__init__(name)
        self.daemon = True  # free-running; never finishes on its own
        self.src = src
        self.dst = dst

    def run(self) -> Generator:
        yield from self.relay(self.src, self.dst)


class MapActor(Actor):
    """Applies ``fn`` to every value at full rate (II = 1).

    Used e.g. for the non-linear activation applied on each value of a
    convolutional layer's output volume (Section II-A).
    """

    def __init__(self, name: str, fn: Callable[[Any], Any], src: str = "in", dst: str = "out"):
        super().__init__(name)
        self.daemon = True  # free-running; never finishes on its own
        self.fn = fn
        self.src = src
        self.dst = dst

    def run(self) -> Generator:
        yield from self.relay(self.src, self.dst, fn=self.fn)


class Fork(Actor):
    """Copies each input value to every output port in the same cycle.

    Output ports are ``out0 .. out{n-1}``.
    """

    def __init__(self, name: str, n_outputs: int, src: str = "in"):
        super().__init__(name)
        if n_outputs < 1:
            raise ConfigurationError(f"fork {name!r}: n_outputs must be >= 1")
        self.daemon = True  # free-running; never finishes on its own
        self.n_outputs = int(n_outputs)
        self.src = src

    def run(self) -> Generator:
        in_ch = self.input(self.src)
        outs = [self.output(f"out{i}") for i in range(self.n_outputs)]
        park = ChannelWait(
            ((POP, in_ch),) + tuple((PUSH, o) for o in outs), CHARGE_NONE
        )
        while True:
            while not (in_ch.can_pop() and all(o.can_push() for o in outs)):
                yield park
            v = in_ch.pop()
            for o in outs:
                o.push(v)
            yield


class ScheduleDemux(Actor):
    """Routes one input stream over several outputs following a schedule.

    ``schedule`` is a sequence of output indices applied cyclically: the
    k-th input value goes to output ``schedule[k % len(schedule)]``. With
    ``schedule = range(n)`` this is a round-robin demux, which is exactly
    the paper's demux core for the ``OUT_PORTS(i-1) < IN_PORTS(i)`` case:
    feature maps interleaved on one producer port are dealt out to the
    consumer's input ports.

    Output ports are ``out0 .. out{n-1}``.
    """

    def __init__(self, name: str, n_outputs: int, schedule: Optional[Sequence[int]] = None, src: str = "in"):
        super().__init__(name)
        if n_outputs < 1:
            raise ConfigurationError(f"demux {name!r}: n_outputs must be >= 1")
        self.daemon = True  # free-running; never finishes on its own
        self.n_outputs = int(n_outputs)
        self.schedule = list(schedule) if schedule is not None else list(range(n_outputs))
        if not self.schedule:
            raise ConfigurationError(f"demux {name!r}: empty schedule")
        for idx in self.schedule:
            if not (0 <= idx < self.n_outputs):
                raise ConfigurationError(
                    f"demux {name!r}: schedule index {idx} out of range 0..{n_outputs - 1}"
                )
        self.src = src

    def run(self) -> Generator:
        in_ch = self.input(self.src)
        outs = [self.output(f"out{i}") for i in range(self.n_outputs)]
        parks = [
            ChannelWait(((POP, in_ch), (PUSH, o)), CHARGE_NONE) for o in outs
        ]
        k = 0
        sched = self.schedule
        period = len(sched)
        while True:
            i = sched[k % period]
            dst = outs[i]
            while not (in_ch.can_pop() and dst.can_push()):
                yield parks[i]
            dst.push(in_ch.pop())
            k += 1
            yield


class Interleaver(Actor):
    """Merges several input streams onto one output following a schedule.

    ``schedule`` is a sequence of input indices applied cyclically. This is
    the paper's adapter for ``OUT_PORTS(i-1) > IN_PORTS(i)``: the consumer's
    filter cycles its reads over the producer's output channels.

    Input ports are ``in0 .. in{n-1}``.
    """

    def __init__(self, name: str, n_inputs: int, schedule: Optional[Sequence[int]] = None, dst: str = "out"):
        super().__init__(name)
        if n_inputs < 1:
            raise ConfigurationError(f"interleaver {name!r}: n_inputs must be >= 1")
        self.daemon = True  # free-running; never finishes on its own
        self.n_inputs = int(n_inputs)
        self.schedule = list(schedule) if schedule is not None else list(range(n_inputs))
        if not self.schedule:
            raise ConfigurationError(f"interleaver {name!r}: empty schedule")
        for idx in self.schedule:
            if not (0 <= idx < self.n_inputs):
                raise ConfigurationError(
                    f"interleaver {name!r}: schedule index {idx} out of range 0..{n_inputs - 1}"
                )
        self.dst = dst

    def run(self) -> Generator:
        ins = [self.input(f"in{i}") for i in range(self.n_inputs)]
        out_ch = self.output(self.dst)
        parks = [
            ChannelWait(((POP, s), (PUSH, out_ch)), CHARGE_NONE) for s in ins
        ]
        k = 0
        sched = self.schedule
        period = len(sched)
        while True:
            i = sched[k % period]
            src = ins[i]
            while not (src.can_pop() and out_ch.can_push()):
                yield parks[i]
            out_ch.push(src.pop())
            k += 1
            yield
