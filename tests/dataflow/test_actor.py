"""Unit tests for the Actor coroutine helpers."""

import pytest

from repro.dataflow import Actor, ArraySource, Channel, DataflowGraph, ListSink
from repro.dataflow.events import (
    CHARGE_EACH,
    CHARGE_FIRST,
    CHARGE_NONE,
    POP,
    PUSH,
    ChannelWait,
)
from repro.dataflow.scheduler import charge_blocked_cycle
from repro.errors import GraphError


class Echo(Actor):
    def run(self):
        while True:
            v = yield from self.recv("in")
            yield from self.send("out", v)


def run_pair(actor, values, out_count, capacity=2):
    g = DataflowGraph("t")
    src = g.add_actor(ArraySource("src", values))
    g.add_actor(actor)
    snk = g.add_actor(ListSink("snk", count=out_count))
    g.connect(src, "out", actor, "in", capacity=capacity)
    g.connect(actor, "out", snk, "in", capacity=capacity)
    actor.daemon = True
    g.build_simulator().run()
    return snk


class TestBinding:
    def test_double_input_bind_rejected(self):
        a = Actor("a")
        a.bind_input("in", Channel("c1"))
        with pytest.raises(GraphError):
            a.bind_input("in", Channel("c2"))

    def test_double_output_bind_rejected(self):
        a = Actor("a")
        a.bind_output("out", Channel("c1"))
        with pytest.raises(GraphError):
            a.bind_output("out", Channel("c2"))

    def test_unbound_input_raises(self):
        with pytest.raises(GraphError):
            Actor("a").input("in")

    def test_unbound_output_raises(self):
        with pytest.raises(GraphError):
            Actor("a").output("out")

    def test_port_lists(self):
        a = Actor("a")
        a.bind_input("x", Channel("c1"))
        a.bind_output("y", Channel("c2"))
        assert a.input_ports == ["x"]
        assert a.output_ports == ["y"]

    def test_run_must_be_overridden(self):
        with pytest.raises(NotImplementedError):
            next(Actor("a").run())


class TestHelpers:
    def test_recv_send_roundtrip(self):
        snk = run_pair(Echo("echo"), [1, 2, 3], 3)
        assert snk.received == [1, 2, 3]

    def test_recv_send_takes_two_cycles_per_item(self):
        snk = run_pair(Echo("echo"), list(range(8)), 8)
        # II of a recv-then-send loop is 2.
        deltas = [b - a for a, b in zip(snk.timestamps, snk.timestamps[1:])]
        assert all(d == 2 for d in deltas)

    def test_relay_is_ii1(self):
        class R(Actor):
            def run(self):
                yield from self.relay("in", "out")

        snk = run_pair(R("r"), list(range(8)), 8)
        deltas = [b - a for a, b in zip(snk.timestamps, snk.timestamps[1:])]
        assert all(d == 1 for d in deltas)

    def test_relay_with_fn(self):
        class R(Actor):
            def run(self):
                yield from self.relay("in", "out", fn=lambda v: v * 10)

        snk = run_pair(R("r"), [1, 2], 2)
        assert snk.received == [10, 20]

    def test_relay_count_limits(self):
        class R(Actor):
            def run(self):
                yield from self.relay("in", "out", count=2)

        # Relay only 2 of 5; capacity must let the source drain fully or
        # its process never finishes.
        snk = run_pair(R("r"), [1, 2, 3, 4, 5], 2, capacity=8)
        assert snk.received == [1, 2]

    def test_wait_delays(self):
        class W(Actor):
            def run(self):
                v = yield from self.recv("in")
                yield from self.wait(10)
                yield from self.send("out", v)

        snk = run_pair(W("w"), [5], 1)
        assert snk.timestamps[0] >= 12

    def test_recv_all_reads_simultaneously(self):
        class Join(Actor):
            def run(self):
                for _ in range(3):
                    a, b = yield from self.recv_all(["a", "b"])
                    yield from self.send("out", a + b)

        g = DataflowGraph("t")
        s1 = g.add_actor(ArraySource("s1", [1, 2, 3]))
        s2 = g.add_actor(ArraySource("s2", [10, 20, 30]))
        j = g.add_actor(Join("join"))
        snk = g.add_actor(ListSink("snk", count=3))
        g.connect(s1, "out", j, "a")
        g.connect(s2, "out", j, "b")
        g.connect(j, "out", snk, "in")
        g.build_simulator().run()
        assert snk.received == [11, 22, 33]

    def test_send_all_writes_simultaneously(self):
        class Split(Actor):
            def run(self):
                for i in range(3):
                    v = yield from self.recv("in")
                    yield from self.send_all({"a": v, "b": -v})

        g = DataflowGraph("t")
        src = g.add_actor(ArraySource("src", [1, 2, 3]))
        sp = g.add_actor(Split("split"))
        sa = g.add_actor(ListSink("sa", count=3))
        sb = g.add_actor(ListSink("sb", count=3))
        g.connect(src, "out", sp, "in")
        g.connect(sp, "a", sa, "in")
        g.connect(sp, "b", sb, "in")
        g.build_simulator().run()
        assert sa.received == [1, 2, 3]
        assert sb.received == [-1, -2, -3]

    def test_stalled_recv_yields_the_pop_wait_descriptor(self):
        a = Echo("echo")
        ch_in = Channel("in_ch", 2)
        ch_out = Channel("out_ch", 2)
        a.bind_input("in", ch_in)
        a.bind_output("out", ch_out)
        proc = a.run()
        ch_in.begin_cycle()
        # Stalls on empty input: the yielded descriptor is the whole
        # statement of the stall; the actor itself records nothing.
        assert next(proc) is ch_in.pop_wait()
        assert ch_in.stats.empty_stall_cycles == 0
        assert not hasattr(a, "blocked_reason")


class Stage(Actor):
    """in -> out at II = 1; its blocking loop is only ``yield park``."""

    def __init__(self, name, charge):
        super().__init__(name)
        self.charge = charge
        self.daemon = True

    def run(self):
        src, dst = self.input("in"), self.output("out")
        park = ChannelWait(((POP, src), (PUSH, dst)), self.charge)
        while True:
            while not (src.can_pop() and dst.can_push()):
                yield park
            dst.push(src.pop())
            yield


class PacedSink(Actor):
    """Pops ``count`` values, idling ``gap`` cycles after each."""

    def __init__(self, name, count, gap):
        super().__init__(name)
        self.count, self.gap = count, gap

    def run(self):
        ch = self.input("in")
        for _ in range(self.count):
            while not ch.can_pop():
                yield ch.pop_wait()
            ch.pop()
            yield
            yield from self.wait(self.gap)


class TestAuthoringContract:
    """Actors that only yield descriptors get every counter from the engines."""

    POLICIES = (("each", CHARGE_EACH), ("first", CHARGE_FIRST), ("none", CHARGE_NONE))

    def run(self, scheduler, interval, gap, n=12):
        g = DataflowGraph("policies", default_capacity=1)
        prev = g.add_actor(ArraySource("src", list(range(n)), interval=interval))
        for name, charge in self.POLICIES:
            stage = g.add_actor(Stage(name, charge))
            g.connect(prev, "out", stage, "in", name=f"to_{name}")
            prev = stage
        snk = g.add_actor(PacedSink("snk", n, gap))
        g.connect(prev, "out", snk, "in", name="to_snk")
        res = g.build_simulator(scheduler=scheduler).run()
        return res.cycles, res.channel_stats, res.actor_stats

    @pytest.mark.parametrize("interval,gap", [(1, 3), (4, 0)])
    def test_engines_agree_on_every_counter(self, interval, gap):
        lock = self.run("lockstep", interval, gap)
        assert self.run("event", interval, gap) == lock
        _, channels, actors = lock
        stalls = {
            name: (st["full_stall_cycles"], st["empty_stall_cycles"])
            for name, st in channels.items()
        }
        # The reader charges a channel's empty stalls, the writer its full
        # stalls: a slow sink backs every stage up, a slow source starves it.
        if gap:
            assert stalls["to_first"][0] and stalls["to_none"][0]
        else:
            assert stalls["to_each"][1] and stalls["to_first"][1]
        # CHARGE_NONE charges neither side, however long it was blocked...
        assert stalls["to_none"][1] == 0 and stalls["to_snk"][0] == 0
        # ...but a blocked cycle is a blocked cycle on the actor's own clock.
        assert all(actors[name][0]["stalled_channel"] for name, _ in self.POLICIES)

    @pytest.mark.parametrize(
        "charge,full", [(CHARGE_EACH, 1), (CHARGE_FIRST, 0)], ids=["each", "first"]
    )
    def test_first_charges_one_condition_where_each_charges_all(self, charge, full):
        # No input and no room at once: EACH charges both channels for the
        # blocked cycle, FIRST only the first unmet condition (the input).
        ch_in, ch_out = Channel("i", 1), Channel("o", 1)
        stage = Stage("s", charge)
        stage.bind_input("in", ch_in)
        stage.bind_output("out", ch_out)
        ch_out.push(7)
        ch_out.begin_cycle()
        charge_blocked_cycle(next(stage.run()))
        assert ch_in.stats.empty_stall_cycles == 1
        assert ch_out.stats.full_stall_cycles == full
