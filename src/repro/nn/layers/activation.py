"""Elementwise nonlinearities: tanh and ReLU (Section II-A's examples)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config import DTYPE
from repro.errors import ShapeError
from repro.nn.layers.base import Layer


class Tanh(Layer):
    """Hyperbolic tangent activation (the classic LeNet choice)."""

    kind = "tanh"

    def __init__(self) -> None:
        self._cache: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        y = np.tanh(x).astype(DTYPE, copy=False)
        if train:
            self._cache = y
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward called before forward(train=True)")
        y = self._cache
        return (grad_out * (1.0 - y * y)).astype(DTYPE, copy=False)

    def out_shape(self, in_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return in_shape


class ReLU(Layer):
    """Rectified linear unit, ``max(0, x)``."""

    kind = "relu"

    def __init__(self) -> None:
        self._cache: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if train:
            self._cache = x > 0
        return np.maximum(x, 0).astype(DTYPE, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward called before forward(train=True)")
        return (grad_out * self._cache).astype(DTYPE, copy=False)

    def out_shape(self, in_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return in_shape


def activation_fn(name: Optional[str]):
    """Scalar/ndarray activation callable by name (for dataflow cores).

    ``f(v, out=v)`` applies it to a float32 array in place, as a ufunc's
    ``out=`` does, and returns ``v``; the compiled kernels call it so on
    the output buffer their C pass just filled.
    """
    if name is None or name == "identity":
        return lambda v, out=None: v
    if name == "tanh":
        return lambda v, out=None: np.tanh(v, out=out).astype(DTYPE, copy=False)
    if name == "relu":
        return lambda v, out=None: np.maximum(v, 0, out=out).astype(
            DTYPE, copy=False
        )
    raise ValueError(f"unknown activation {name!r}")


def make_activation(name: Optional[str]) -> Optional[Layer]:
    """Layer instance by name (``None``/``"identity"`` -> no layer)."""
    if name is None or name == "identity":
        return None
    if name == "tanh":
        return Tanh()
    if name == "relu":
        return ReLU()
    raise ValueError(f"unknown activation {name!r}")
