"""Unit tests for the board-to-board link actors."""

import pytest

from repro.dataflow import ArraySource, Channel, ListSink, Simulator
from repro.dataflow.link import LinkRxActor, LinkTxActor
from repro.errors import ConfigurationError


def link_pipeline(n=12, beat=1, capacity=4):
    src = ArraySource("src", list(range(n)))
    tx = LinkTxActor("link0.tx", words_per_image=n, beat=beat)
    rx = LinkRxActor("link0.rx", words_per_image=n)
    snk = ListSink("snk", count=n)
    a, wire, b = Channel("a", capacity), Channel("wire", capacity), Channel("b", capacity)
    src.bind_output("out", a)
    tx.bind_input("in", a)
    tx.bind_output("out", wire)
    rx.bind_input("in", wire)
    rx.bind_output("out", b)
    snk.bind_input("in", b)
    return Simulator([src, tx, rx, snk], [a, wire, b]), snk


class TestPacing:
    def test_beat_one_is_transparent(self):
        sim, snk = link_pipeline(beat=1)
        sim.run()
        deltas = [b - a for a, b in zip(snk.timestamps, snk.timestamps[1:])]
        assert all(d == 1 for d in deltas)

    @pytest.mark.parametrize("beat", [2, 3, 5])
    def test_beat_paces_steady_state(self, beat):
        sim, snk = link_pipeline(beat=beat)
        sim.run()
        # Steady state: one word per `beat` cycles end to end.
        deltas = [b - a for a, b in zip(snk.timestamps, snk.timestamps[1:])]
        assert deltas[-6:] == [beat] * 6

    def test_values_survive_in_order(self):
        sim, snk = link_pipeline(n=17, beat=3)
        sim.run()
        assert snk.received == list(range(17))

    @pytest.mark.parametrize("scheduler", ["event", "lockstep"])
    def test_engines_agree(self, scheduler):
        sim, snk = link_pipeline(n=10, beat=4)
        res = sim.run()
        ref = (res.cycles, snk.timestamps)
        sim2, snk2 = link_pipeline(n=10, beat=4)
        sim2.scheduler = scheduler
        res2 = sim2.run()
        assert (res2.cycles, snk2.timestamps) == ref


class TestValidation:
    def test_tx_rejects_bad_beat(self):
        with pytest.raises(ConfigurationError):
            LinkTxActor("tx", words_per_image=4, beat=0)

    def test_tx_rejects_bad_words(self):
        with pytest.raises(ConfigurationError):
            LinkTxActor("tx", words_per_image=0)

    def test_rx_rejects_bad_words(self):
        with pytest.raises(ConfigurationError):
            LinkRxActor("rx", words_per_image=0)

    def test_links_are_daemons(self):
        assert LinkTxActor("tx", 4).daemon
        assert LinkRxActor("rx", 4).daemon
