"""The convolutional computation core — Algorithm 1 of the paper.

Two coupled processes mirror the HLS kernel's pipelined loop nest:

* the *compute* process reads ``IN_PORTS`` windows per cycle (one feature
  map group), multiplies them with the hard-coded weights, tree-reduces
  the products, and accumulates into the per-output-FM registers;
* the *emitter* process drains finished coordinates, interleaving the
  ``OUT_FM`` results over the ``OUT_PORTS`` output streams.

Decoupling the two is exactly what lets the core sustain Eq. 4's
``II = max(OUT_FM/OUT_PORTS, IN_FM/IN_PORTS)``: input reads of coordinate
``n+1`` overlap output writes of coordinate ``n``. Arithmetic uses the
same association order as the modeled hardware (per-group product tree,
then one accumulation add), so the simulated outputs carry the datapath's
float32 rounding.

Timing never depends on a value, so a coordinate's numbers are worked out
when the emitter first reads them, not when its last window arrives: the
compute process queues the coordinate's cycle stamp and window block, and
the emitter evaluates every coordinate queued at that moment in one
batched pass (see :meth:`ConvCoreActor._evaluate`).
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

import numpy as np

from repro.config import DTYPE
from repro.dataflow.actor import Actor
from repro.dataflow.events import CHARGE_EACH, POP, PUSH, ChannelWait, Gate, WaitCycles
from repro.errors import ConfigurationError, ShapeError
from repro.hls.tree_adder import tree_reduce
from repro.nn.layers.activation import activation_fn


class ConvCoreActor(Actor):
    """Computation core of one convolutional layer.

    Ports: ``in0..in{IN_PORTS-1}`` receive ``(kh, kw)`` windows;
    ``out0..out{OUT_PORTS-1}`` emit scalar results.

    Parameters
    ----------
    name: actor name.
    weight: ``(OUT_FM, IN_FM, kh, kw)`` filters (design-time constants).
    bias: ``(OUT_FM,)`` biases.
    in_ports, out_ports: the scalability parameters.
    n_coords: output coordinates per image (``OH * OW``).
    images: number of images to process.
    activation: optional nonlinearity name applied to each output value.
    queue_depth: internal result-queue bound (backpressure realism).
    """

    def __init__(
        self,
        name: str,
        weight: np.ndarray,
        bias: np.ndarray,
        in_ports: int,
        out_ports: int,
        n_coords: int,
        images: int = 1,
        activation: Optional[str] = None,
        queue_depth: int = 2,
        pipeline_depth: int = 0,
        coord_overhead: int = 0,
    ):
        super().__init__(name)
        # Both engines read the weight in place, as (OUT_FM, G, P*kh*kw):
        # copied only when it is not C-ordered float32 (the builder's is).
        weight = np.ascontiguousarray(weight, dtype=DTYPE)
        bias = np.asarray(bias, dtype=DTYPE)
        if weight.ndim != 4:
            raise ShapeError(f"{name!r}: weight must be 4-D, got {weight.shape}")
        self.out_fm, self.in_fm, self.kh, self.kw = weight.shape
        if bias.shape != (self.out_fm,):
            raise ShapeError(
                f"{name!r}: bias must be ({self.out_fm},), got {bias.shape}"
            )
        if self.in_fm % in_ports or self.out_fm % out_ports:
            raise ConfigurationError(
                f"{name!r}: ports must divide FM counts "
                f"({self.in_fm}/{in_ports}, {self.out_fm}/{out_ports})"
            )
        if n_coords < 1 or images < 1 or queue_depth < 1:
            raise ConfigurationError(
                f"{name!r}: n_coords, images and queue_depth must be >= 1"
            )
        self.weight = weight
        self.bias = bias
        self.in_ports = int(in_ports)
        self.out_ports = int(out_ports)
        self.n_coords = int(n_coords)
        self.images = int(images)
        self.activation = activation
        self._act = activation_fn(activation)
        self.queue_depth = int(queue_depth)
        if pipeline_depth < 0:
            raise ConfigurationError(
                f"{name!r}: pipeline_depth must be >= 0, got {pipeline_depth}"
            )
        #: Cycles between a coordinate's last window read and its first
        #: emitted value (multiplier + adder-tree + accumulate latency).
        self.pipeline_depth = int(pipeline_depth)
        if coord_overhead < 0:
            raise ConfigurationError(
                f"{name!r}: coord_overhead must be >= 0, got {coord_overhead}"
            )
        #: Extra stall cycles between coordinates, modeling imperfect HLS
        #: loop flattening (the calibration constant of docs/calibration.md).
        self.coord_overhead = int(coord_overhead)
        self.in_groups = self.in_fm // self.in_ports
        self.out_groups = self.out_fm // self.out_ports

    def processes(self):
        #: ``[ready_cycle, values]`` per finished coordinate; ``values`` is
        #: ``None`` until the emitter asks, and ``_pending`` holds the
        #: window blocks of exactly those unevaluated coordinates.
        self._results: deque = deque()
        self._pending: list = []
        # Couples the two processes through the result queue: the producer
        # notifies after every append/popleft so the event scheduler can
        # park the other side instead of letting it poll.
        self._gate = Gate()
        return [self._compute(), self._emit()]

    def _compute(self) -> Generator:
        ins = [self.input(f"in{p}") for p in range(self.in_ports)]
        in0 = ins[0] if len(ins) == 1 else None
        win_park = ChannelWait(tuple((POP, ch) for ch in ins), CHARGE_EACH)
        results = self._results
        queue_depth = self.queue_depth
        in_groups = self.in_groups
        pipeline_depth = self.pipeline_depth
        pending = self._pending
        block_shape = (1, in_groups, self.in_ports * self.kh * self.kw)
        for _ in range(self.images * self.n_coords):
            # Window beats of this coordinate, one row per group (the
            # leading axis broadcasts OUT_FM in the batched product of
            # _evaluate).
            wins = np.empty(block_shape, DTYPE)
            for g in range(in_groups):
                # One group per cycle: read IN_PORTS windows in parallel
                # (Algorithm 1's "buf <- IN_PORTS windows"). The single-port
                # case skips the genexpr — it is the common configuration
                # and this loop is the hottest actor code in the repo.
                while not (
                    in0.can_pop()
                    if in0 is not None
                    else all(ch.can_pop() for ch in ins)
                ):
                    yield win_park
                # Model backpressure from the result queue: stall reads
                # when the emitter has fallen queue_depth coordinates behind.
                while len(results) >= queue_depth:
                    yield self._gate
                if in0 is not None:
                    wins[0, g] = in0.pop().ravel()
                else:
                    wins[0, g] = np.concatenate([ch.pop().ravel() for ch in ins])
                yield
            # Result leaves the datapath pipeline_depth cycles from now;
            # what it is gets worked out when the emitter reads it.
            results.append([self.now + pipeline_depth, None])
            pending.append(wins)
            self._gate.notify()
            if self.coord_overhead:
                yield from self.wait(self.coord_overhead)  # loop entry/exit bubble

    def _evaluate(self) -> None:
        """Fill in the values of every queued coordinate, in one pass.

        Called when the head of the result queue has no value yet. Values
        are only ever filled in for the whole queue, so then no queued
        coordinate has one and ``_pending`` is their window blocks in
        order. One product ``(B, OUT_FM, G, P*kh*kw)``, zero-padded to a
        power-of-two width — ``B`` is at most ``queue_depth``, which bounds
        the scratch — goes through every coordinate's and group's product
        tree at once, then the accumulation chain adds the per-group sums
        in Algorithm 1's order.
        Every operation is elementwise over the leading ``B`` axis, so each
        coordinate's bits are those of evaluating it alone.

        Port ``p`` carries maps ``p, p+P, ...``, so group ``g`` multiplies
        ``weight[:, g*P : (g+1)*P]``: in the C-ordered weight the
        ``P*kh*kw`` weights of map ``o`` and group ``g`` are already
        contiguous, in the order of the group's windows, and the
        ``(OUT_FM, G, P*kh*kw)`` reshape is a view.
        """
        wins = np.concatenate(self._pending)[:, None]
        self._pending.clear()
        # The product lands in the leading columns of a power-of-two wide
        # block whose other columns are +0.0: the pad tree_reduce would
        # otherwise concatenate on, with the same bits, so it pads nothing.
        width = self.in_ports * self.kh * self.kw
        prod = np.zeros(
            wins.shape[:1] + (self.out_fm, self.in_groups,
                              1 << (width - 1).bit_length()),
            DTYPE,
        )
        np.multiply(
            self.weight.reshape(self.out_fm, self.in_groups, width), wins,
            out=prod[..., :width],
        )
        trees = tree_reduce(prod)
        acc = self.bias
        for g in range(self.in_groups):
            acc = acc + trees[:, :, g]
        for entry, values in zip(self._results, self._act(acc)):
            entry[1] = values

    def _emit(self) -> Generator:
        outs = [self.output(f"out{p}") for p in range(self.out_ports)]
        out0 = outs[0] if len(outs) == 1 else None
        out_park = ChannelWait(tuple((PUSH, ch) for ch in outs), CHARGE_EACH)
        for _ in range(self.images * self.n_coords):
            while not self._results or self._results[0][0] > self.now:
                if not self._results:
                    yield self._gate
                else:
                    yield WaitCycles(self._results[0][0] - self.now)
            if self._results[0][1] is None:
                self._evaluate()
            acc = self._results[0][1]
            for j in range(self.out_groups):
                # Beat j carries FM j*OUT_PORTS + p on output port p (the
                # accumulator is float32 already: no DTYPE round trip).
                if out0 is not None:
                    while not out0.can_push():
                        yield out_park
                    out0.push(acc[j])
                else:
                    while not all(ch.can_push() for ch in outs):
                        yield out_park
                    for p, ch in enumerate(outs):
                        ch.push(acc[j * self.out_ports + p])
                yield
            self._results.popleft()
            self._gate.notify()
