"""Fully-connected computation core (Section IV-B).

The FC layer is a single-input-port/single-output-port 1x1 convolution:
each incoming value is one "input channel"; for each of them, all the
``OUT_FM`` multiply-accumulates happen in the same clock cycle. The
floating-point accumulation latency (11 cycles) is hidden by interleaved
accumulator lanes — incoming value ``i`` lands in lane ``i % acc_lanes``
of every output's partial-sum array, and the lanes are tree-combined once
per image. The simulated arithmetic follows that exact association order:
the lanes are only combined once per image, so the compute process just
stores the image's inputs as they arrive and runs every output's lane
chains through :func:`~repro.hls.accumulator.interleaved_sum` after the
last one — no beat's cycle depends on a value.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

import numpy as np

from repro.config import DTYPE
from repro.dataflow.actor import Actor
from repro.dataflow.events import Gate, WaitCycles
from repro.errors import ConfigurationError, ShapeError
from repro.hls.accumulator import interleaved_sum
from repro.nn.layers.activation import activation_fn


#: Most bytes of ``w * x`` terms one pass of the per-image lane chains
#: builds: a large layer is summed a block of output maps at a time, never
#: as one ``in_fm x out_fm`` array.
_TERMS_BYTES = 1 << 20


class FCCoreActor(Actor):
    """Single-stream fully-connected core with interleaved accumulators.

    Ports: ``in`` (one value per cycle), ``out`` (one value per cycle,
    emitted sequentially after each image's inputs are consumed).

    Parameters
    ----------
    weight: ``(OUT_FM, IN_FM)`` matrix (row = one perceptron).
    bias: ``(OUT_FM,)``.
    acc_lanes: interleaved accumulator count (>= 1).
    images: images to process.
    activation: optional nonlinearity on the outputs.
    """

    def __init__(
        self,
        name: str,
        weight: np.ndarray,
        bias: np.ndarray,
        acc_lanes: int = 12,
        images: int = 1,
        activation: Optional[str] = None,
        queue_depth: int = 2,
        pipeline_depth: int = 0,
    ):
        super().__init__(name)
        weight = np.asarray(weight, dtype=DTYPE)
        bias = np.asarray(bias, dtype=DTYPE)
        if weight.ndim != 2:
            raise ShapeError(f"{name!r}: weight must be 2-D, got {weight.shape}")
        self.out_fm, self.in_fm = weight.shape
        if bias.shape != (self.out_fm,):
            raise ShapeError(
                f"{name!r}: bias must be ({self.out_fm},), got {bias.shape}"
            )
        if acc_lanes < 1 or images < 1 or queue_depth < 1:
            raise ConfigurationError(
                f"{name!r}: acc_lanes, images and queue_depth must be >= 1"
            )
        self.weight = weight
        self.bias = bias
        self.acc_lanes = int(acc_lanes)
        self.images = int(images)
        self.activation = activation
        self._act = activation_fn(activation)
        self.queue_depth = int(queue_depth)
        if pipeline_depth < 0:
            raise ConfigurationError(
                f"{name!r}: pipeline_depth must be >= 0, got {pipeline_depth}"
            )
        #: Cycles of the final lane-combine (tree over acc_lanes + bias).
        self.pipeline_depth = int(pipeline_depth)

    def processes(self):
        self._results: deque = deque()
        # Couples compute and emit through the result queue (see the
        # conv core): notify on every append/popleft so the event
        # scheduler can park the other process.
        self._gate = Gate()
        return [self._compute(), self._emit()]

    def _compute(self) -> Generator:
        in_ch = self.input("in")
        for _ in range(self.images):
            x = np.empty(self.in_fm, dtype=DTYPE)
            for i in range(self.in_fm):
                while not in_ch.can_pop():
                    yield in_ch.pop_wait()
                while len(self._results) >= self.queue_depth:
                    yield self._gate
                x[i] = in_ch.pop()
                yield
            self._results.append(
                (self.now + self.pipeline_depth, self._act(self._image_sums(x)))
            )
            self._gate.notify()

    def _image_sums(self, x: np.ndarray) -> np.ndarray:
        """``weight @ x + bias`` in the core's association order.

        Input ``i`` lands in lane ``i % acc_lanes`` of every output map
        (all ``OUT_FM`` MACs of one input happen in one cycle), so each
        output is the interleaved sum of its ``w[o, i] * x[i]`` terms.
        """
        block = max(1, _TERMS_BYTES // (self.in_fm * x.itemsize))
        out = np.empty(self.out_fm, dtype=DTYPE)
        for o in range(0, self.out_fm, block):
            out[o : o + block] = interleaved_sum(
                self.weight[o : o + block] * x, self.acc_lanes
            )
        return out + self.bias

    def _emit(self) -> Generator:
        out_ch = self.output("out")
        for _ in range(self.images):
            while not self._results or self._results[0][0] > self.now:
                if not self._results:
                    yield self._gate
                else:
                    yield WaitCycles(self._results[0][0] - self.now)
            out = self._results.popleft()[1]
            self._gate.notify()
            for j in range(self.out_fm):
                while not out_ch.can_push():
                    yield out_ch.push_wait()
                out_ch.push(out[j])
                yield
