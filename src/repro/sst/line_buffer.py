"""Behavioral sliding-window (line-buffer) actor.

:class:`SlidingWindowActor` is the behavioral model of the paper's per-port
*memory structure* (Figure 3): it consumes a raster-ordered pixel stream in
which ``group`` feature maps are interleaved per pixel, and produces the
corresponding ``kh`` x ``kw`` windows — one window beat per cycle, in
output-coordinate-major / feature-map-minor order, exactly the order the
computation core of Algorithm 1 expects.

Timing matches a real line buffer: a window is emitted only after its last
real pixel has been received, and the actor accepts at most one input beat
per cycle. (Internally the full image is retained for simplicity; the *real*
on-chip footprint — (kh-1) lines + kw pixels per feature map — is what
:mod:`repro.sst.sizing` reports to the resource model.)
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Generator, List, Mapping, Tuple

import numpy as np

from repro.config import DTYPE
from repro.dataflow.actor import Actor
from repro.dataflow.events import Gate
from repro.errors import ConfigurationError
from repro.sst.window import WindowSpec


@lru_cache(maxsize=32)
def completion_map(
    spec: WindowSpec, h: int, w: int
) -> Mapping[Tuple[int, int], Tuple[Tuple[int, int], ...]]:
    """Map each real pixel to the output coordinates emitted at its arrival.

    A window's data is complete when its bottom-right-most real
    (non-padding) pixel has arrived. With bottom/right zero padding, a
    later-raster window can complete *before* an earlier one (its real
    footprint ends higher up); hardware nevertheless emits windows in
    raster order, so the trigger pixels are closed under prefix-max over
    the window raster order — a padded window waits for the pixel that
    releases its predecessor. Windows sharing a trigger pixel are listed
    in raster order.

    A Python loop over every output coordinate, and every build of a
    design asks for the same few geometries: the answer is memoised, so it
    is read-only and shared between callers.
    """
    oh, ow = spec.out_shape(h, w)
    triggers: List[Tuple[int, int]] = []
    for oy in range(oh):
        for ox in range(ow):
            last_y = min(oy * spec.stride - spec.pad + spec.kh - 1, h - 1)
            last_x = min(ox * spec.stride - spec.pad + spec.kw - 1, w - 1)
            if last_y < 0 or last_x < 0:
                raise ConfigurationError(
                    f"window at ({oy},{ox}) contains no real pixel "
                    f"(h={h}, w={w}, {spec.describe()})"
                )
            triggers.append((last_y, last_x))
    # Raster-order emission: monotone closure of the trigger sequence.
    for i in range(1, len(triggers)):
        if triggers[i] < triggers[i - 1]:
            triggers[i] = triggers[i - 1]
    done: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for idx, trig in enumerate(triggers):
        done.setdefault(trig, []).append((idx // ow, idx % ow))
    return MappingProxyType({trig: tuple(c) for trig, c in done.items()})


class SlidingWindowActor(Actor):
    """Streams ``kh`` x ``kw`` windows out of an interleaved pixel stream.

    Parameters
    ----------
    name: actor name.
    spec: window geometry (kernel, stride, pad).
    h, w: real (unpadded) input feature-map height and width.
    group: number of feature maps interleaved on the input port.
    images: number of images to process before finishing (>= 1).

    Ports
    -----
    ``in``  — one beat per cycle: pixel values, raster order, FM-minor.
    ``out`` — one beat per cycle: ``np.ndarray (kh, kw)`` windows, output
    coordinate-major, FM-minor.
    """

    def __init__(
        self,
        name: str,
        spec: WindowSpec,
        h: int,
        w: int,
        group: int = 1,
        images: int = 1,
    ):
        super().__init__(name)
        if group < 1:
            raise ConfigurationError(f"{name!r}: group must be >= 1, got {group}")
        if images < 1:
            raise ConfigurationError(f"{name!r}: images must be >= 1, got {images}")
        self.spec = spec
        self.h = int(h)
        self.w = int(w)
        self.group = int(group)
        self.images = int(images)
        self.out_h, self.out_w = spec.out_shape(self.h, self.w)

    @property
    def windows_per_image(self) -> int:
        """Window beats emitted per image (coordinates x interleaved FMs)."""
        return self.out_h * self.out_w * self.group

    def processes(self):
        # The receiving pipeline and the emitting pipeline run concurrently,
        # coupled by an internal queue: exactly like the filter chain feeding
        # the window registers while the previous window drains.
        self._emit_queue: deque = deque()
        # Asked for here, not in __init__: only the receiver reads it, so a
        # compiled run (which never asks for processes) does not pay for
        # it. It cannot fail: WindowSpec already rejects pad >= kh/kw, its
        # one error.
        self._completion = completion_map(self.spec, self.h, self.w)
        # Wakes the emitter when the receiver completes new windows.
        self._gate = Gate()
        return [self._receiver(), self._emitter()]

    def _receiver(self) -> Generator:
        spec = self.spec
        hp, wp = spec.padded_shape(self.h, self.w)
        in_ch = self.input("in")
        # Hot-loop locals: this loop runs once per input pixel beat.
        pad, stride, kh, kw = spec.pad, spec.stride, spec.kh, spec.kw
        group = self.group
        completion_get = self._completion.get
        emit_extend = self._emit_queue.extend
        pop_wait = in_ch.pop_wait()
        for _ in range(self.images):
            # Padded, per-FM pixel buffers; padding pre-filled with zeros.
            buf = np.zeros((group, hp, wp), dtype=DTYPE)
            for y in range(self.h):
                yp = y + pad
                for x in range(self.w):
                    xp = x + pad
                    for g in range(group):
                        while not in_ch.can_pop():
                            yield pop_wait
                        buf[g, yp, xp] = in_ch.pop()
                        yield
                    # All FMs of (y, x) have arrived: enqueue every window
                    # this pixel completes, coordinate-major, FM-minor —
                    # one (group, kh, kw) copy per coordinate, its rows
                    # (views) the window beats.
                    completed = completion_get((y, x))
                    if completed is not None:
                        for (oy, ox) in completed:
                            ys = oy * stride
                            xs = ox * stride
                            emit_extend(
                                buf[:, ys : ys + kh, xs : xs + kw].copy()
                            )
                        self._gate.notify()

    def _emitter(self) -> Generator:
        out_ch = self.output("out")
        emit_queue = self._emit_queue
        push_wait = out_ch.push_wait()
        total = self.windows_per_image * self.images
        sent = 0
        while sent < total:
            while not emit_queue:
                yield self._gate
            while not out_ch.can_push():
                yield push_wait
            out_ch.push(emit_queue.popleft())
            sent += 1
            yield


def reference_windows(
    image: np.ndarray, spec: WindowSpec
) -> List[np.ndarray]:
    """Golden (non-streaming) window extraction for one single-FM image.

    Returns the ``(kh, kw)`` windows in output raster order; used by tests
    to validate both the behavioral actor and the literal filter chain.
    """
    img = np.asarray(image, dtype=DTYPE)
    if img.ndim != 2:
        raise ConfigurationError(f"expected 2-D image, got shape {img.shape}")
    h, w = img.shape
    padded = np.pad(img, spec.pad)
    oh, ow = spec.out_shape(h, w)
    out = []
    for oy in range(oh):
        for ox in range(ow):
            ys = oy * spec.stride
            xs = ox * spec.stride
            out.append(padded[ys : ys + spec.kh, xs : xs + spec.kw].copy())
    return out
