"""The normalization operator (Eq. 3) as a dataflow core.

Section II-A: "the normalization operator receives the output of the last
linear layer and computes the affinity of the input to the classification
classes as a percentage value" via LogSoftMax. The paper's implemented
designs end at the last linear layer; this core completes the chain on
request (``build_network(..., normalize=True)``): it collects the K
logits of an image, applies the numerically stable softmax in the same
association order the software reference uses, and emits the K
probabilities sequentially.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.config import DTYPE
from repro.dataflow.actor import Actor
from repro.errors import ConfigurationError
from repro.hls.ops import op_cost
from repro.hls.pipeline import tree_depth
from repro.hls.resources import ResourceVector


class NormalizationActor(Actor):
    """Per-image softmax over a K-logit stream (Eq. 3).

    Ports: ``in`` (one logit per cycle), ``out`` (one probability per
    cycle, emitted after the image's K logits arrived and the exp/divide
    datapath latency elapsed).
    """

    def __init__(self, name: str, n_classes: int, images: int = 1,
                 pipeline_depth: int = 0):
        super().__init__(name)
        if n_classes < 1 or images < 1:
            raise ConfigurationError(
                f"{name!r}: n_classes and images must be >= 1"
            )
        if pipeline_depth < 0:
            raise ConfigurationError(
                f"{name!r}: pipeline_depth must be >= 0"
            )
        self.n_classes = int(n_classes)
        self.images = int(images)
        self.pipeline_depth = int(pipeline_depth)

    def run(self) -> Generator:
        in_ch = self.input("in")
        out_ch = self.output("out")
        for _ in range(self.images):
            logits = np.empty(self.n_classes, dtype=DTYPE)
            for i in range(self.n_classes):
                while not in_ch.can_pop():
                    yield in_ch.pop_wait()
                logits[i] = in_ch.pop()
                yield
            # Numerically stable Eq. 3 (same order as nn.losses.softmax).
            shifted = logits - np.max(logits)
            exps = np.exp(shifted).astype(DTYPE)
            probs = (exps / exps.sum(dtype=DTYPE)).astype(DTYPE)
            yield from self.wait(self.pipeline_depth)
            for i in range(self.n_classes):
                while not out_ch.can_push():
                    yield out_ch.push_wait()
                out_ch.push(DTYPE(probs[i]))
                yield


def normalization_depth(n_classes: int) -> int:
    """Datapath latency: max-tree + exp + sum-tree + divide."""
    cmp = op_cost("cmp").latency
    return (
        tree_depth(n_classes) * cmp
        + op_cost("exp").latency
        + tree_depth(n_classes) * op_cost("add").latency
        + op_cost("div").latency
    )


def normalization_resources(n_classes: int) -> ResourceVector:
    """One exp lane, one divider, comparison/sum trees over K values."""
    r = op_cost("exp").resources + op_cost("div").resources
    r = r + op_cost("cmp").resources * max(n_classes - 1, 0)
    r = r + op_cost("add").resources * max(n_classes - 1, 0)
    return r + ResourceVector(ff=n_classes * 32)
