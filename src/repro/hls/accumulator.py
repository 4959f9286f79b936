"""Interleaved floating-point accumulators (Section IV-B).

A single-precision add takes ~11 cycles, so a naive dependent accumulation
loop cannot reach II=1: each iteration must wait for the previous sum. The
paper's fix — "we added more accumulators and interleaved their use by
exploiting a partial unrolling of the main loop" — rotates the incoming
values over ``lanes`` independent partial sums and combines them at the
end. With ``lanes >= add latency`` the loop pipelines at II=1.

:func:`interleaved_sum` reproduces the exact rounding of the lane-rotated
accumulation; :class:`AccumulatorModel` quantifies the latency/resource
trade-off (ablation A2 and the FC-core cost model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import DTYPE
from repro.errors import ConfigurationError
from repro.hls.ops import op_cost
from repro.hls.pipeline import tree_depth
from repro.hls.resources import ResourceVector
from repro.hls.tree_adder import tree_reduce


def interleaved_sum(values: np.ndarray, lanes: int) -> np.ndarray:
    """Sum along the last axis using ``lanes`` rotating partial sums.

    Element ``i`` is added into lane ``i % lanes``; the lane partials are
    then combined with a balanced tree — the association order of the
    hardware, hence bit-faithful float32 rounding.

    Lane ``l`` is the *sequential* chain ``((0 + v_l) + v_{l+L}) + ...``.
    The terms are laid out steps-major, ``(steps, lanes, ...)``, so that
    chain step ``j`` of every lane is one row of an outer-axis
    ``add.reduce``, which numpy adds row after row in exactly that order.
    The ragged last step is padded with ``+0.0``: a chain that began
    ``0 + v`` is never ``-0.0``, so the padding changes no bit and a lane
    that got no element stays ``+0.0``. Scratch: one padded copy of
    ``values``.
    """
    if lanes < 1:
        raise ConfigurationError(f"lanes must be >= 1, got {lanes}")
    arr = np.asarray(values, dtype=DTYPE)
    n = arr.shape[-1]
    if n == 0:
        raise ConfigurationError("interleaved_sum over an empty axis")
    lead = arr.shape[:-1]
    steps = -(-n // lanes)
    terms = np.zeros((steps * lanes,) + lead, dtype=DTYPE)
    terms[:n] = np.moveaxis(arr, -1, 0)
    terms = terms.reshape((steps, lanes) + lead)
    if terms[0].size != 1:
        partial = np.add.reduce(terms, axis=0, initial=DTYPE(0))
    else:
        # One lane, one sum: numpy would make the chain its inner loop
        # and add it pairwise. Add it in sequence, as an accumulate from
        # zero.
        chain = np.add.accumulate(np.append(DTYPE(0), terms.ravel()))
        partial = np.reshape(chain[-1], (1,) + lead)
    return tree_reduce(np.moveaxis(partial, 0, -1))


@dataclass(frozen=True)
class AccumulatorModel:
    """Cost of accumulating ``n_terms`` with ``lanes`` interleaved adders."""

    n_terms: int
    lanes: int
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.n_terms < 1:
            raise ConfigurationError(f"n_terms must be >= 1, got {self.n_terms}")
        if self.lanes < 1:
            raise ConfigurationError(f"lanes must be >= 1, got {self.lanes}")

    @property
    def add_latency(self) -> int:
        return op_cost("add", self.dtype).latency

    @property
    def ii(self) -> int:
        """Initiation interval of the accumulation loop.

        A lane accepts a new term only every ``add_latency`` cycles; with
        ``lanes`` rotating lanes the loop sustains one term every
        ``ceil(add_latency / lanes)`` cycles (II=1 once lanes >= latency).
        """
        return -(-self.add_latency // self.lanes)

    @property
    def loop_latency(self) -> int:
        """Cycles to absorb all terms plus drain the adder pipeline."""
        return self.ii * (self.n_terms - 1) + self.add_latency

    @property
    def combine_latency(self) -> int:
        """Cycles of the final balanced combine across lanes."""
        return tree_depth(self.lanes) * self.add_latency

    @property
    def total_latency(self) -> int:
        """End-to-end accumulation latency."""
        return self.loop_latency + self.combine_latency

    @property
    def resources(self) -> ResourceVector:
        """Adder instances for the lanes (the combine tree reuses them)."""
        return op_cost("add", self.dtype).resources * self.lanes

    def speedup_vs_single(self) -> float:
        """Latency ratio of the single-accumulator loop to this one."""
        single = AccumulatorModel(self.n_terms, 1, self.dtype)
        return single.total_latency / self.total_latency
