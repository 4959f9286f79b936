"""Board-to-board link actors: finite-bandwidth bridges between shards.

A multi-FPGA placement (:func:`repro.core.multi_fpga.plan_split`) cuts the
layer pipeline at channel boundaries. Each cut becomes a
:class:`LinkTxActor` / :class:`LinkRxActor` pair joined by a *wire*
channel — the serial board-to-board stream (Aurora / PCIe peer-to-peer /
10GbE, the paper's Section VI scaling path). Both ends are ordinary
actors bound to ordinary :class:`~repro.dataflow.channel.Channel` FIFOs,
so nothing downstream can tell a link from a local channel except by its
timing.

Timing model: the transmitter is the pacing end. Its beat interval comes
from the same :class:`~repro.fpga.dma.DmaModel` arithmetic as the ingress
DMA (``max(1, ceil(word_bits / datapath_bits), ceil(word_bytes /
bytes_per_cycle))``), so a link never moves fractional words per cycle.
The receiver is a full-rate deserializer: it forwards at II = 1 and is
only ever throttled by the wire itself. With ``beat == 1`` the pair is
transparent (a two-stage FIFO); with ``beat > 1`` the transmitter becomes
a pipeline stage of ``words_per_image * beat`` cycles per image, which is
exactly the ``stream_cycles`` term the analytical
:class:`~repro.core.multi_fpga.MultiFpgaPlan` charges for that cut.

Both actors are daemons (free-running routing stages, like
:class:`~repro.dataflow.actors.FifoStage`): the co-simulation completes
when the sink has drained, regardless of link state. Their pacing waits
are :class:`~repro.dataflow.events.WaitCycles` parks, which the Eq. 4
utilisation accounting already excludes from fire counts — a link at its
modeled bandwidth therefore never perturbs measured per-core II.
"""

from __future__ import annotations

from repro.dataflow.actor import Actor
from repro.dataflow.events import CHARGE_FIRST, POP, PUSH, ChannelWait
from repro.errors import ConfigurationError


class LinkTxActor(Actor):
    """Serializing transmitter: pops local words, pushes them onto the wire.

    Moves one word per ``beat`` cycles (the word transfer itself plus
    ``beat - 1`` pacing cycles), modeling a link whose per-word transfer
    time comes from :meth:`~repro.fpga.dma.DmaModel.beat_interval`.

    Parameters
    ----------
    name:
        Actor name; shard builders use ``link{d}.tx`` so the profiler
        groups both ends of cut *d* into one ``link{d}`` stage.
    words_per_image:
        Words crossing this cut per image (the plan's egress word count);
        consumed by the compiled engine's rate table, not by ``run``.
    beat:
        Cycles per word on the wire, >= 1.
    """

    def __init__(self, name: str, words_per_image: int, beat: int = 1):
        super().__init__(name)
        if words_per_image < 1:
            raise ConfigurationError(
                f"link {name!r}: words_per_image must be >= 1, got {words_per_image}"
            )
        if beat < 1:
            raise ConfigurationError(
                f"link {name!r}: beat must be >= 1, got {beat}"
            )
        self.words_per_image = int(words_per_image)
        self.beat = int(beat)
        self.daemon = True

    def run(self):
        in_ch = self.input("in")
        out_ch = self.output("out")
        park = ChannelWait(((POP, in_ch), (PUSH, out_ch)), CHARGE_FIRST)
        pace = self.beat - 1
        while True:
            while not (in_ch.can_pop() and out_ch.can_push()):
                yield park
            out_ch.push(in_ch.pop())
            yield
            if pace:
                yield from self.wait(pace)


class LinkRxActor(Actor):
    """Deserializing receiver: forwards wire words to the far shard at II = 1.

    A plain full-rate relay; the transmitter's pacing is the only
    bandwidth limit on the pair. Kept as a distinct actor (rather than
    wiring the far shard straight to the wire channel) so each device
    boundary has a named ingress stage for profiling and skew analysis.
    """

    def __init__(self, name: str, words_per_image: int):
        super().__init__(name)
        if words_per_image < 1:
            raise ConfigurationError(
                f"link {name!r}: words_per_image must be >= 1, got {words_per_image}"
            )
        self.words_per_image = int(words_per_image)
        self.daemon = True

    def run(self):
        yield from self.relay("in", "out")
