"""Sub-sampling (pooling) computation core.

One :class:`PoolCoreActor` per port: the paper inserts "parallel
sub-sampling layer cores, one for each previous layer output port", each a
perfectly pipelined filter (II=1, no FM combination) that replaces every
incoming window with its maximum or mean.
"""

from __future__ import annotations

from functools import partial
from typing import Generator

import numpy as np

from repro.config import DTYPE
from repro.dataflow.actor import Actor
from repro.errors import ConfigurationError


class PoolCoreActor(Actor):
    """Reduces each ``(kh, kw)`` window beat to one value at full rate.

    Ports: ``in`` (windows), ``out`` (scalars). FM interleaving passes
    through untouched — window beats arrive FM-minor and leave FM-minor.
    """

    def __init__(self, name: str, mode: str, count: int):
        super().__init__(name)
        if mode not in ("max", "mean"):
            raise ConfigurationError(f"{name!r}: unknown pool mode {mode!r}")
        if count < 1:
            raise ConfigurationError(f"{name!r}: count must be >= 1, got {count}")
        self.mode = mode
        #: Total window beats to process (coords x FMs x images).
        self.count = int(count)

    def run(self) -> Generator:
        if self.mode == "max":
            # ``w.max()`` minus its Python wrapper; a window is float32
            # already, so the maximum needs no DTYPE round trip.
            fn = partial(np.maximum.reduce, axis=None)
        else:
            fn = lambda w: DTYPE(w.mean(dtype=np.float64))  # noqa: E731
        yield from self.relay("in", "out", count=self.count, fn=fn)
