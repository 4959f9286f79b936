"""Unit tests for the bounded FIFO channel protocol."""

import pytest

from repro.dataflow.channel import Channel
from repro.errors import ChannelProtocolError, ConfigurationError


def fresh(capacity=None):
    ch = Channel("ch", capacity)
    ch.begin_cycle()
    return ch


class TestConstruction:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Channel("bad", 0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            Channel("bad", -3)

    def test_unbounded_allowed(self):
        assert Channel("ok", None).capacity is None

    def test_name_stored(self):
        assert Channel("abc", 1).name == "abc"


class TestVisibilityProtocol:
    def test_push_not_visible_same_cycle(self):
        ch = fresh(4)
        ch.push(1)
        assert not ch.can_pop()

    def test_push_visible_next_cycle(self):
        ch = fresh(4)
        ch.push(1)
        ch.begin_cycle()
        assert ch.can_pop()
        assert ch.pop() == 1

    def test_fifo_order_preserved(self):
        ch = fresh(8)
        for v in [3, 1, 4, 1, 5]:
            ch.push(v)
            ch.begin_cycle()
        got = []
        while ch.can_pop():
            got.append(ch.pop())
            ch.begin_cycle()  # one pop per cycle
        assert got == [3, 1, 4, 1, 5]

    def test_one_push_per_cycle(self):
        ch = fresh(8)
        ch.push(1)
        assert not ch.can_push()
        with pytest.raises(ChannelProtocolError):
            ch.push(2)

    def test_one_pop_per_cycle(self):
        ch = fresh(8)
        ch.push(1)
        ch.begin_cycle()
        ch.push(2)
        ch.begin_cycle()
        assert ch.pop() == 1
        assert not ch.can_pop()
        with pytest.raises(ChannelProtocolError):
            ch.pop()

    def test_pop_empty_raises(self):
        ch = fresh(2)
        with pytest.raises(ChannelProtocolError):
            ch.pop()

    def test_peek_returns_without_removing(self):
        ch = fresh(2)
        ch.push(7)
        ch.begin_cycle()
        assert ch.peek() == 7
        assert ch.pop() == 7

    def test_peek_empty_raises(self):
        with pytest.raises(ChannelProtocolError):
            fresh(2).peek()


class TestCapacity:
    def test_full_channel_blocks_push(self):
        ch = fresh(1)
        ch.push(1)
        ch.begin_cycle()
        assert not ch.can_push()

    def test_capacity_counts_staged(self):
        ch = fresh(2)
        ch.push(1)
        ch.begin_cycle()
        ch.push(2)
        # committed 1 + staged 1 == capacity 2
        assert not ch.can_push()

    def test_pop_mid_cycle_does_not_free_space(self):
        # Order independence: the reader popping this cycle must not let
        # the writer push into the freed slot within the same cycle.
        ch = fresh(1)
        ch.push(1)
        ch.begin_cycle()
        assert ch.pop() == 1
        assert not ch.can_push()
        ch.begin_cycle()
        assert ch.can_push()

    def test_unbounded_never_blocks(self):
        ch = fresh(None)
        for i in range(100):
            ch.push(i)
            ch.begin_cycle()
        assert ch.can_push()

    def test_push_full_raises(self):
        ch = fresh(1)
        ch.push(1)
        ch.begin_cycle()
        with pytest.raises(ChannelProtocolError):
            ch.push(2)


class TestBinding:
    def test_single_writer_enforced(self):
        ch = Channel("ch")
        ch.bind_writer("a.out")
        with pytest.raises(ChannelProtocolError):
            ch.bind_writer("b.out")

    def test_single_reader_enforced(self):
        ch = Channel("ch")
        ch.bind_reader("a.in")
        with pytest.raises(ChannelProtocolError):
            ch.bind_reader("b.in")


class TestStats:
    def test_totals_counted(self):
        ch = fresh(4)
        for i in range(3):
            ch.push(i)
            ch.begin_cycle()
            ch.pop()
        assert ch.stats.total_pushed == 3
        assert ch.stats.total_popped == 3

    def test_high_water_tracked(self):
        ch = fresh(8)
        for i in range(5):
            ch.push(i)
            ch.begin_cycle()
        assert ch.stats.high_water == 5

    def test_len_includes_staged(self):
        ch = fresh(4)
        ch.push(1)
        assert len(ch) == 1
        assert ch.occupancy == 0

    def test_drain_returns_everything(self):
        ch = fresh(4)
        ch.push(1)
        ch.begin_cycle()
        ch.push(2)
        assert ch.drain() == [1, 2]
        assert len(ch) == 0
