"""Literal SST filter chain: per-tap filter actors connected by FIFOs.

This is the faithful, actor-per-filter rendition of the memory system of a
Streaming Stencil Timestep (Section II-B and Figure 2): a chain of *filters*
interconnected via FIFO channels, one chain per distinct input stream. Each
filter forwards every element to the next FIFO in the chain and, once the
stream has advanced far enough (its tap offset), also sends the element to
the computing system. The FIFO depths between consecutive taps equal the
offset differences, so the total buffered data is exactly the *full
buffering* amount — data is read once from off-chip memory and kept on chip
until every dependent computation has completed.

The behavioral :class:`~repro.sst.line_buffer.SlidingWindowActor` is the
fast equivalent used in network builds; this module exists to demonstrate
and property-test the equivalence (see ``tests/sst/test_equivalence.py``).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import DTYPE
from repro.dataflow.actor import Actor
from repro.dataflow.events import CHARGE_NONE, POP, PUSH, ChannelWait
from repro.dataflow.graph import DataflowGraph
from repro.errors import ConfigurationError
from repro.sst.sizing import chain_fifo_capacities, tap_capacity
from repro.sst.window import WindowSpec


def tap_offsets(spec: WindowSpec, w_padded: int, group: int = 1) -> List[int]:
    """Stream-beat offsets of every tap for ``group`` interleaved FMs.

    With ``group`` feature maps interleaved per pixel, each pixel occupies
    ``group`` consecutive beats, so the raster offsets scale by ``group``
    (the paper: "enlarging the FIFO size to fit the data of all this
    channels").
    """
    return [o * group for o in spec.linear_offsets(w_padded)]


def fifo_depths(spec: WindowSpec, w_padded: int, group: int = 1) -> List[int]:
    """Full-buffering FIFO depths between consecutive taps of the chain.

    ``depths[i]`` is the FIFO between tap ``i`` and tap ``i+1`` (taps sorted
    by decreasing offset, i.e. in stream-arrival order). Their sum plus the
    window registers is the total on-chip footprint of the chain.
    """
    offs = sorted(tap_offsets(spec, w_padded, group), reverse=True)
    return [offs[i] - offs[i + 1] for i in range(len(offs) - 1)]


class TapFilter(Actor):
    """One filter of the chain.

    Forwards every stream element downstream (if any) and taps to the
    computing system the elements its window access needs: within each
    image of ``beats_per_image`` elements, those with local index in
    ``[skip, skip + steps)``. Forward and tap happen in the same cycle
    (the hardware filter does exactly this with combinational routing plus
    a FIFO write).

    Ports: ``in`` (from previous FIFO), ``out`` (next FIFO, optional),
    ``tap`` (to the window assembler).
    """

    def __init__(
        self,
        name: str,
        skip: int,
        beats_per_image: int,
        steps: int,
        images: int,
        has_downstream: bool,
    ):
        super().__init__(name)
        if skip < 0:
            raise ConfigurationError(f"{name!r}: skip must be >= 0")
        if skip + steps > beats_per_image:
            raise ConfigurationError(
                f"{name!r}: skip {skip} + steps {steps} exceeds image beats "
                f"{beats_per_image}"
            )
        self.skip = int(skip)
        self.beats_per_image = int(beats_per_image)
        self.steps = int(steps)
        self.images = int(images)
        self.has_downstream = bool(has_downstream)

    def run(self) -> Generator:
        in_ch = self.input("in")
        tap_ch = self.output("tap")
        out_ch = self.output("out") if self.has_downstream else None
        base = ((POP, in_ch),)
        if out_ch is not None:
            base += ((PUSH, out_ch),)
        fwd_park = ChannelWait(base, CHARGE_NONE)
        tap_park = ChannelWait(base + ((PUSH, tap_ch),), CHARGE_NONE)
        for idx in range(self.beats_per_image * self.images):
            local = idx % self.beats_per_image
            tapping = self.skip <= local < self.skip + self.steps
            while not (
                in_ch.can_pop()
                and (out_ch is None or out_ch.can_push())
                and (not tapping or tap_ch.can_push())
            ):
                yield tap_park if tapping else fwd_park
            v = in_ch.pop()
            if out_ch is not None:
                out_ch.push(v)
            if tapping:
                tap_ch.push(v)
            yield


class WindowAssembler(Actor):
    """Pops one aligned value per tap per step and emits valid windows.

    Step ``i`` of the assembly yields the raw window whose origin is stream
    beat ``i``: FM ``i % group`` at padded coordinate ``i // group``. Only
    windows at valid output positions (inside the padded image, aligned to
    the stride) are forwarded — this is the boundary handling that
    distinguishes a convolution from a full stencil sweep.

    Ports: ``tap0 .. tap{T-1}`` in, ``out`` (``(kh, kw)`` arrays).
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
        self.spec = spec
        self.h = int(h)
        self.w = int(w)
        self.group = int(group)
        self.images = int(images)
        self.hp, self.wp = spec.padded_shape(self.h, self.w)
        self.offsets = tap_offsets(spec, self.wp, self.group)
        self.n_taps = len(self.offsets)
        beats = self.hp * self.wp * self.group
        self.steps_per_image = beats - max(self.offsets)

    def run(self) -> Generator:
        taps = [self.input(f"tap{t}") for t in range(self.n_taps)]
        out_ch = self.output("out")
        taps_park = ChannelWait(tuple((POP, t) for t in taps), CHARGE_NONE)
        spec = self.spec
        for _ in range(self.images):
            for i in range(self.steps_per_image):
                g = i % self.group
                coord = i // self.group
                y, x = divmod(coord, self.wp)
                valid = (
                    y % spec.stride == 0
                    and x % spec.stride == 0
                    and y + spec.kh <= self.hp
                    and x + spec.kw <= self.wp
                )
                while not all(t.can_pop() for t in taps):
                    yield taps_park
                while valid and not out_ch.can_push():
                    yield out_ch.push_wait()
                values = [t.pop() for t in taps]
                if valid:
                    win = np.asarray(values, dtype=DTYPE).reshape(spec.kh, spec.kw)
                    out_ch.push(win)
                yield


def build_filter_chain(
    graph: DataflowGraph,
    name: str,
    spec: WindowSpec,
    h: int,
    w: int,
    group: int = 1,
    images: int = 1,
) -> Tuple[TapFilter, WindowAssembler]:
    """Assemble the literal filter chain into ``graph``.

    Returns ``(head_filter, assembler)``. The caller connects its padded
    pixel stream (raster order, FM-minor interleaved, padding included) to
    ``head_filter`` port ``"in"`` and reads ``(kh, kw)`` windows from
    ``assembler`` port ``"out"``.

    Every capacity comes from :mod:`repro.sst.sizing`: the inter-filter
    FIFOs from :func:`~repro.sst.sizing.chain_fifo_capacities` (full
    buffering), the tap channels from :func:`~repro.sst.sizing.tap_capacity`.
    """
    hp, wp = spec.padded_shape(h, w)
    offs = sorted(tap_offsets(spec, wp, group), reverse=True)
    beats_per_image = hp * wp * group
    n = len(offs)
    assembler = WindowAssembler(f"{name}.asm", spec, h, w, group, images)
    graph.add_actor(assembler)
    filters: List[TapFilter] = []
    for i, off in enumerate(offs):
        f = TapFilter(
            f"{name}.f{i}",
            skip=off,
            beats_per_image=beats_per_image,
            steps=assembler.steps_per_image,
            images=images,
            has_downstream=(i < n - 1),
        )
        graph.add_actor(f)
        filters.append(f)
    for i, cap in enumerate(chain_fifo_capacities(spec, w, group)):
        graph.connect(
            filters[i], "out", filters[i + 1], "in", capacity=cap,
            name=f"{name}.fifo{i}",
        )
    # Tap index within the assembler follows the *unsorted* offset order
    # (row-major taps); map sorted chain position back to tap index
    # (linear offsets never repeat).
    unsorted = tap_offsets(spec, wp, group)
    for i, off in enumerate(offs):
        t = unsorted.index(off)
        graph.connect(
            filters[i], "tap", assembler, f"tap{t}",
            capacity=tap_capacity(group), name=f"{name}.tap{t}",
        )
    return filters[0], assembler
