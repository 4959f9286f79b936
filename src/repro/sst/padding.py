"""Zero-padding injection for literal filter chains.

The literal SST chain consumes the *padded* raster stream (its tap
offsets are computed over the padded width). The behavioral line buffer
synthesizes padding internally; when elaborating with literal chains, a
:class:`PadInserter` sits in front of the chain and weaves the zero beats
into the stream — one beat per cycle, zeros generated without consuming
input, exactly what a small padding FSM does in hardware.
"""

from __future__ import annotations

from typing import Generator

from repro.config import DTYPE
from repro.dataflow.actor import Actor
from repro.dataflow.events import CHARGE_NONE, POP, PUSH, ChannelWait
from repro.errors import ConfigurationError

_ZERO = DTYPE(0.0)


class PadInserter(Actor):
    """Expands an ``h x w`` FM-interleaved stream with a zero border.

    Ports: ``in`` (real pixels), ``out`` (padded raster stream).

    Parameters
    ----------
    h, w: real feature-map size.
    pad: zero border width on every side.
    group: feature maps interleaved per pixel.
    images: images to process.
    """

    def __init__(self, name: str, h: int, w: int, pad: int, group: int = 1,
                 images: int = 1):
        super().__init__(name)
        if min(h, w, pad, group, images) < 1 and pad != 0:
            raise ConfigurationError(
                f"{name!r}: h, w, group, images must be >= 1 and pad >= 0"
            )
        if pad < 0:
            raise ConfigurationError(f"{name!r}: pad must be >= 0, got {pad}")
        self.h, self.w, self.pad = int(h), int(w), int(pad)
        self.group, self.images = int(group), int(images)

    def run(self) -> Generator:
        in_ch = self.input("in")
        out_ch = self.output("out")
        real_park = ChannelWait(((PUSH, out_ch), (POP, in_ch)), CHARGE_NONE)
        pad_park = ChannelWait(((PUSH, out_ch),), CHARGE_NONE)
        p = self.pad
        hp, wp = self.h + 2 * p, self.w + 2 * p
        for _ in range(self.images):
            for y in range(hp):
                for x in range(wp):
                    real = p <= y < p + self.h and p <= x < p + self.w
                    for _g in range(self.group):
                        while not (
                            out_ch.can_push() and (not real or in_ch.can_pop())
                        ):
                            yield real_park if real else pad_park
                        out_ch.push(in_ch.pop() if real else _ZERO)
                        yield
