"""Balanced tree adder: functional reduction + latency/resource model.

Section IV-A: "The multiplications results are then fed into a tree adder
(indicated by the reduce function) ... The tree adder is used in order to
improve the initial latency of the core, as it executes the additions on
parallel levels which decrease the pipeline depth."

The functional :func:`tree_reduce` performs the additions in the same
association order as the hardware tree, so the simulated cores round
exactly like the modeled datapath would; the cost model quantifies the
depth advantage over a sequential adder chain (ablation A1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import DTYPE
from repro.errors import ConfigurationError
from repro.hls.ops import op_cost
from repro.hls.pipeline import tree_depth
from repro.hls.resources import ResourceVector


def tree_reduce(values: np.ndarray) -> np.ndarray:
    """Sum ``values`` along the last axis in balanced-tree order.

    Pairs adjacent elements level by level (odd element carried through),
    reproducing the floating-point rounding of the hardware adder tree.
    Works on any leading batch shape.
    """
    arr = np.asarray(values, dtype=DTYPE)
    n = arr.shape[-1]
    if n == 0:
        raise ConfigurationError("tree_reduce over an empty axis")
    if n & (n - 1):
        # Pad to the next power of two. At every level the carried odd
        # element then simply pairs with 0.0, which keeps the loop below
        # branch-free. x + 0.0 == x by value but not always by bit: the
        # first carry turns -0.0 into +0.0 (later ones change nothing).
        # That is part of this tree's definition — the compiled conv
        # kernel's unpadded carry step (`row + 0.0`) reproduces it.
        m = 1 << n.bit_length()
        pad = np.zeros(arr.shape[:-1] + (m - n,), dtype=arr.dtype)
        arr = np.concatenate([arr, pad], axis=-1)
        n = m
    while n > 1:
        # Adding two DTYPE arrays already rounds in DTYPE, so no astype
        # round trip is needed per level.
        arr = arr[..., 0::2] + arr[..., 1::2]
        n >>= 1
    return arr[..., 0]


@dataclass(frozen=True)
class AdderTreeModel:
    """Latency/resource model of an ``n``-input balanced adder tree."""

    n_inputs: int
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise ConfigurationError(f"adder tree over {self.n_inputs} inputs")

    @property
    def depth_levels(self) -> int:
        """Number of adder levels: ``ceil(log2(n))``."""
        return tree_depth(self.n_inputs)

    @property
    def latency(self) -> int:
        """Cycles from inputs to the single sum (levels x add latency)."""
        return self.depth_levels * op_cost("add", self.dtype).latency

    @property
    def n_adders(self) -> int:
        """Adder instances: ``n - 1`` regardless of shape."""
        return self.n_inputs - 1

    @property
    def resources(self) -> ResourceVector:
        """Total resources of the tree's adders."""
        return op_cost("add", self.dtype).resources * self.n_adders

    @property
    def chain_latency(self) -> int:
        """Latency of the sequential-chain alternative (ablation A1)."""
        return self.n_adders * op_cost("add", self.dtype).latency

    @property
    def depth_advantage(self) -> int:
        """Pipeline-depth cycles saved versus a sequential chain."""
        return self.chain_latency - self.latency


def chain_reduce(values: np.ndarray) -> np.ndarray:
    """Left-to-right sequential sum (float32), the ablation baseline."""
    arr = np.asarray(values, dtype=DTYPE)
    if arr.shape[-1] == 0:
        raise ConfigurationError("chain_reduce over an empty axis")
    acc = arr[..., 0]
    for i in range(1, arr.shape[-1]):
        acc = (acc + arr[..., i]).astype(DTYPE)
    return acc
