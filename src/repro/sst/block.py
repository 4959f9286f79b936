"""Block-convolution geometry and the tile split/merge streaming actors.

Block convolution (arXiv:2105.08937) bounds a conv layer's on-chip line
buffers by tiling the output feature map into ``th`` x ``tw`` blocks and
convolving each block independently. This reproduction uses the *exact*
(halo-overlap) variant: every tile's input block carries the halo rows and
columns it shares with its neighbours, so each output value is computed
from precisely the same window of input pixels — and therefore the same
bits — as the unblocked full-buffering layer. Only the *order* of output
coordinates changes (tile-major instead of raster); the merge stage
restores raster order, so digests are preserved end to end.

Geometry (:func:`plan_blocks`)
------------------------------
For a window ``(kh, kw, stride s, pad p)`` over an ``h x w`` feature map
with output ``oh x ow``:

* the output is cut into ``gh x gw`` tiles of ``th x tw`` coordinates
  (``gh = ceil(oh / th)``); boundary tiles keep the uniform shape and
  *overhang* past the real output — overhang coordinates are computed on
  zero-filled data and dropped by the merge stage, keeping all SDF rates
  static;
* tile ``(bi, bj)`` reads the uniform input block
  ``ih x iw = ((th-1)*s + kh) x ((tw-1)*s + kw)`` whose origin in the
  *padded* input is ``(bi*th*s, bj*tw*s)``; pixels outside the real image
  (zero padding or overhang) are zero-filled;
* adjacent input blocks overlap by the halo ``max(0, kh - s)`` rows
  (``max(0, kw - s)`` columns) — exactly the pixels a window straddling
  the tile boundary needs. Zero-filling the last halo row or column of
  every tile changes the output; the halo-minimality property test checks
  this on :func:`reference_block_stream`.

The split/merge actors model the off-chip staging a real block-conv
accelerator performs in DDR: they double-buffer one full feature map and
re-emit it in tile order (split) or raster order (merge). The *on-chip*
win is that the per-tile sliding-window stage between them buffers
``(kh-1)`` lines of ``iw`` pixels instead of ``w`` pixels — the blocked
sizing rule in :mod:`repro.core.network_design`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

import numpy as np

from repro.config import DTYPE
from repro.dataflow.actor import Actor
from repro.dataflow.events import Gate
from repro.errors import ConfigurationError
from repro.sst.window import WindowSpec


@dataclass(frozen=True)
class BlockSpec:
    """Requested output-tile shape for a blocked conv layer.

    ``th`` x ``tw`` output coordinates per tile; ``tw`` defaults to ``th``.
    The planner clamps tiles to the layer's real output shape, so a spec
    larger than the output degenerates to a single tile.
    """

    th: int
    tw: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tw is None:
            object.__setattr__(self, "tw", self.th)
        if self.th < 1 or (self.tw is not None and self.tw < 1):
            raise ConfigurationError(
                f"block tile must be >= 1x1, got {self.th}x{self.tw}"
            )

    def describe(self) -> str:
        return f"block {self.th}x{self.tw}"


@dataclass(frozen=True)
class BlockPlan:
    """Fully-resolved blocking geometry for one conv layer instance.

    Produced by :func:`plan_blocks`; consumed by the builder, the perf
    model, the graph rules, and the compiled kernels — all four read the
    same numbers, which is what keeps Eq. 4 accounting, elaboration, and
    execution in lockstep.
    """

    window: WindowSpec  #: original (padded) layer window
    tile_window: WindowSpec  #: per-tile window: same kernel/stride, pad=0
    h: int  #: real input height
    w: int  #: real input width
    oh: int  #: real output height
    ow: int  #: real output width
    th: int  #: output tile height (clamped)
    tw: int  #: output tile width (clamped)
    gh: int  #: tile-grid rows
    gw: int  #: tile-grid cols
    ih: int  #: input block height (th-1)*s + kh
    iw: int  #: input block width (tw-1)*s + kw
    halo_h: int  #: row overlap between vertically adjacent blocks
    halo_w: int  #: column overlap between horizontally adjacent blocks

    @property
    def n_tiles(self) -> int:
        return self.gh * self.gw

    @property
    def coords(self) -> int:
        """Output coordinates *computed* per image (incl. overhang)."""
        return self.n_tiles * self.th * self.tw

    @property
    def in_words(self) -> int:
        """Input words streamed per image per FM (incl. halo re-reads)."""
        return self.n_tiles * self.ih * self.iw

    @property
    def out_words(self) -> int:
        """Words the cores emit per image per FM (incl. overhang).

        This — not ``oh * ow`` — is what crosses a cut placed at a blocked
        layer's core outputs (upstream of the merge stages): overhang
        coordinates travel the link and are only dropped by the merge on
        the far device.
        """
        return self.coords

    @property
    def overhang_h(self) -> int:
        return self.gh * self.th - self.oh

    @property
    def overhang_w(self) -> int:
        return self.gw * self.tw - self.ow

    def describe(self) -> str:
        return (
            f"{self.gh}x{self.gw} tiles of {self.th}x{self.tw} "
            f"(blocks {self.ih}x{self.iw}, halo {self.halo_h}x{self.halo_w})"
        )


def plan_blocks(window: WindowSpec, h: int, w: int, block: BlockSpec) -> BlockPlan:
    """Resolve a :class:`BlockSpec` into concrete tiling geometry."""
    oh, ow = window.out_shape(h, w)
    th = min(int(block.th), oh)
    tw = min(int(block.tw or block.th), ow)
    gh = -(-oh // th)
    gw = -(-ow // tw)
    s = window.stride
    ih = (th - 1) * s + window.kh
    iw = (tw - 1) * s + window.kw
    tile_window = WindowSpec(kh=window.kh, kw=window.kw, stride=s, pad=0)
    plan = BlockPlan(
        window=window,
        tile_window=tile_window,
        h=int(h),
        w=int(w),
        oh=oh,
        ow=ow,
        th=th,
        tw=tw,
        gh=gh,
        gw=gw,
        ih=ih,
        iw=iw,
        halo_h=max(0, window.kh - s),
        halo_w=max(0, window.kw - s),
    )
    if tile_window.out_shape(ih, iw) != (th, tw):
        raise ConfigurationError(  # pragma: no cover - geometry identity
            f"inconsistent block plan: tile window yields "
            f"{tile_window.out_shape(ih, iw)}, expected {(th, tw)}"
        )
    return plan


def tile_coords(plan: BlockPlan) -> List[Optional[Tuple[int, int]]]:
    """Output coordinate per blocked stream position, ``None`` = overhang.

    Position order is the split/core emission order: tile-major
    ``(bi, bj)``, raster within the tile. The merge stage keeps exactly
    the non-``None`` entries and re-sorts them into raster order.
    """
    out: List[Optional[Tuple[int, int]]] = []
    for bi in range(plan.gh):
        for bj in range(plan.gw):
            for ty in range(plan.th):
                for tx in range(plan.tw):
                    oy = bi * plan.th + ty
                    ox = bj * plan.tw + tx
                    out.append((oy, ox) if oy < plan.oh and ox < plan.ow else None)
    return out


def reference_block_stream(image: np.ndarray, plan: BlockPlan) -> List[float]:
    """Golden split-stream for one single-FM image (tests only).

    Returns the pixel values a :class:`BlockSplitActor` emits for one
    feature map, in emission order.
    """
    img = np.asarray(image, dtype=DTYPE)
    if img.shape != (plan.h, plan.w):
        raise ConfigurationError(
            f"expected {(plan.h, plan.w)} image, got {img.shape}"
        )
    pad = plan.window.pad
    out: List[float] = []
    for bi in range(plan.gh):
        for bj in range(plan.gw):
            oy = bi * plan.th * plan.window.stride
            ox = bj * plan.tw * plan.window.stride
            for ty in range(plan.ih):
                for tx in range(plan.iw):
                    y = oy + ty - pad
                    x = ox + tx - pad
                    if not (0 <= y < plan.h and 0 <= x < plan.w):
                        out.append(0.0)
                    else:
                        out.append(float(img[y, x]))
    return out


class BlockSplitActor(Actor):
    """Re-emits a raster FM-minor pixel stream as halo-overlapped tiles.

    Models the DDR-staged tile reader of a block-conv accelerator: one
    full feature-map set is double-buffered off-chip, then re-read in
    tile-major order with the halo rows/columns each tile needs. Padding
    is resolved here (the per-tile window runs with ``pad=0``), so pixels
    outside the real image are emitted as zeros.

    Ports: ``in`` — ``h*w*group`` beats per image (raster, FM-minor);
    ``out`` — ``n_tiles*ih*iw*group`` beats per image (tile-major, raster
    within the tile, FM-minor).
    """

    def __init__(self, name: str, plan: BlockPlan, group: int = 1, images: int = 1):
        super().__init__(name)
        if group < 1:
            raise ConfigurationError(f"{name!r}: group must be >= 1, got {group}")
        if images < 1:
            raise ConfigurationError(f"{name!r}: images must be >= 1, got {images}")
        self.plan = plan
        self.group = int(group)
        self.images = int(images)

    @property
    def beats_in_per_image(self) -> int:
        return self.plan.h * self.plan.w * self.group

    @property
    def beats_out_per_image(self) -> int:
        return self.plan.in_words * self.group

    def processes(self):
        # Same receiver/emitter split as SlidingWindowActor: the receiver
        # fills one full feature-map buffer per image (the off-chip stage),
        # the emitter re-reads completed buffers in tile order.
        self._ready: deque = deque()
        self._gate = Gate()
        return [self._receiver(), self._emitter()]

    def _receiver(self) -> Generator:
        plan = self.plan
        in_ch = self.input("in")
        group = self.group
        pop_wait = in_ch.pop_wait()
        ready_append = self._ready.append
        for _ in range(self.images):
            buf = np.zeros((group, plan.h, plan.w), dtype=DTYPE)
            for y in range(plan.h):
                for x in range(plan.w):
                    for g in range(group):
                        while not in_ch.can_pop():
                            yield pop_wait
                        buf[g, y, x] = in_ch.pop()
                        yield
            ready_append(buf)
            self._gate.notify()

    def _emitter(self) -> Generator:
        plan = self.plan
        out_ch = self.output("out")
        group = self.group
        push_wait = out_ch.push_wait()
        pad = plan.window.pad
        stride = plan.window.stride
        h, w = plan.h, plan.w
        ready = self._ready
        for _ in range(self.images):
            while not ready:
                yield self._gate
            buf = ready.popleft()
            for bi in range(plan.gh):
                oy = bi * plan.th * stride - pad
                for bj in range(plan.gw):
                    ox = bj * plan.tw * stride - pad
                    for ty in range(plan.ih):
                        y = oy + ty
                        row_ok = 0 <= y < h
                        for tx in range(plan.iw):
                            x = ox + tx
                            if row_ok and 0 <= x < w:
                                row = buf[:, y, x]
                            else:
                                row = None
                            for g in range(group):
                                while not out_ch.can_push():
                                    yield push_wait
                                out_ch.push(
                                    DTYPE(0.0) if row is None else row[g]
                                )
                                yield


class BlockMergeActor(Actor):
    """Re-orders tile-major conv results into a raster FM-minor stream.

    Inverse of :class:`BlockSplitActor` on the output side: collects the
    ``n_tiles*th*tw`` computed coordinates of one image (tile-major, the
    core's emission order), drops overhang coordinates past the real
    ``oh x ow`` output, and re-emits raster order — bit-identical to the
    unblocked layer's stream.

    Ports: ``in`` — ``n_tiles*th*tw*group`` beats per image; ``out`` —
    ``oh*ow*group`` beats per image.
    """

    def __init__(self, name: str, plan: BlockPlan, group: int = 1, images: int = 1):
        super().__init__(name)
        if group < 1:
            raise ConfigurationError(f"{name!r}: group must be >= 1, got {group}")
        if images < 1:
            raise ConfigurationError(f"{name!r}: images must be >= 1, got {images}")
        self.plan = plan
        self.group = int(group)
        self.images = int(images)

    @property
    def beats_in_per_image(self) -> int:
        return self.plan.coords * self.group

    @property
    def beats_out_per_image(self) -> int:
        return self.plan.oh * self.plan.ow * self.group

    def processes(self):
        self._ready: deque = deque()
        self._gate = Gate()
        return [self._receiver(), self._emitter()]

    def _receiver(self) -> Generator:
        plan = self.plan
        in_ch = self.input("in")
        group = self.group
        pop_wait = in_ch.pop_wait()
        ready_append = self._ready.append
        for _ in range(self.images):
            # Uniform tile grid: overhang coordinates land past (oh, ow)
            # and are simply never read back by the emitter.
            buf = np.zeros((group, plan.gh * plan.th, plan.gw * plan.tw), dtype=DTYPE)
            for bi in range(plan.gh):
                ys = bi * plan.th
                for bj in range(plan.gw):
                    xs = bj * plan.tw
                    for ty in range(plan.th):
                        for tx in range(plan.tw):
                            for g in range(group):
                                while not in_ch.can_pop():
                                    yield pop_wait
                                buf[g, ys + ty, xs + tx] = in_ch.pop()
                                yield
            ready_append(buf)
            self._gate.notify()

    def _emitter(self) -> Generator:
        plan = self.plan
        out_ch = self.output("out")
        group = self.group
        push_wait = out_ch.push_wait()
        ready = self._ready
        for _ in range(self.images):
            while not ready:
                yield self._gate
            buf = ready.popleft()
            for y in range(plan.oh):
                for x in range(plan.ow):
                    row = buf[:, y, x]
                    for g in range(group):
                        while not out_ch.can_push():
                            yield push_wait
                        out_ch.push(row[g])
                        yield
