"""Unit tests for the cycle-level simulator."""

import pytest

from repro.dataflow import (
    Actor,
    ArraySource,
    Channel,
    DataflowGraph,
    FifoStage,
    ListSink,
    Simulator,
)
from repro.errors import DeadlockError, SimulationError


def simple_graph(n=5, capacity=2):
    g = DataflowGraph("t", default_capacity=capacity)
    src = g.add_actor(ArraySource("src", list(range(n))))
    snk = g.add_actor(ListSink("snk", count=n))
    g.connect(src, "out", snk, "in")
    return g, src, snk


class TestRun:
    def test_finishes_and_reports_cycles(self):
        g, _, snk = simple_graph()
        res = g.build_simulator().run()
        assert res.finished
        assert res.cycles > 0
        assert snk.received == [0, 1, 2, 3, 4]

    def test_values_cross_one_channel_in_one_cycle(self):
        g, _, snk = simple_graph()
        g.build_simulator().run()
        # First value pushed in cycle 0 is visible (and popped) in cycle 1.
        assert snk.timestamps[0] == 1

    def test_source_rate_one_per_cycle(self):
        g, _, snk = simple_graph(n=6, capacity=4)
        g.build_simulator().run()
        deltas = [b - a for a, b in zip(snk.timestamps, snk.timestamps[1:])]
        assert all(d == 1 for d in deltas)

    def test_channel_stats_in_result(self):
        g, _, _ = simple_graph()
        res = g.build_simulator().run()
        (stats,) = res.channel_stats.values()
        assert stats["total_pushed"] == 5
        assert stats["total_popped"] == 5

    def test_max_cycles_enforced(self):
        g, _, _ = simple_graph(n=100)
        with pytest.raises(SimulationError):
            g.build_simulator().run(max_cycles=3)

    def test_until_predicate_stops_early(self):
        g, _, snk = simple_graph(n=50, capacity=4)
        sim = g.build_simulator()
        res = sim.run(until=lambda: len(snk.received) >= 5)
        assert not res.finished
        assert 5 <= len(snk.received) <= 6


class TestDeadlock:
    def test_sink_wanting_more_than_produced_deadlocks(self):
        g = DataflowGraph("t")
        src = g.add_actor(ArraySource("src", [1, 2]))
        snk = g.add_actor(ListSink("snk", count=5))
        g.connect(src, "out", snk, "in")
        with pytest.raises(DeadlockError) as exc:
            g.build_simulator(stall_limit=50).run()
        assert "snk" in str(exc.value)

    def test_deadlock_reports_blocked_reason(self):
        g = DataflowGraph("t")
        src = g.add_actor(ArraySource("src", [1]))
        snk = g.add_actor(ListSink("snk", count=3))
        g.connect(src, "out", snk, "in")
        with pytest.raises(DeadlockError) as exc:
            g.build_simulator(stall_limit=10).run()
        assert exc.value.blocked

    def test_daemon_does_not_block_completion(self):
        g = DataflowGraph("t")
        src = g.add_actor(ArraySource("src", [1, 2, 3]))
        fifo = g.add_actor(FifoStage("fifo"))  # daemon by default
        snk = g.add_actor(ListSink("snk", count=3))
        g.connect(src, "out", fifo, "in")
        g.connect(fifo, "out", snk, "in")
        res = g.build_simulator().run()
        assert res.finished

    def test_wait_does_not_trip_stall_detector(self):
        class Slow(Actor):
            def run(self):
                yield from self.wait(200)
                yield from self.send("out", 1)

        g = DataflowGraph("t")
        s = g.add_actor(Slow("slow"))
        snk = g.add_actor(ListSink("snk", count=1))
        g.connect(s, "out", snk, "in")
        res = g.build_simulator(stall_limit=1000).run()
        assert res.finished


class TestValidation:
    def test_duplicate_actor_names_rejected(self):
        a1, a2 = ArraySource("x", [1]), ListSink("x", count=1)
        ch = Channel("c", 2)
        a1.bind_output("out", ch)
        a2.bind_input("in", ch)
        with pytest.raises(SimulationError):
            Simulator([a1, a2], [ch])

    def test_unregistered_channel_rejected(self):
        a1, a2 = ArraySource("a", [1]), ListSink("b", count=1)
        ch = Channel("c", 2)
        a1.bind_output("out", ch)
        a2.bind_input("in", ch)
        with pytest.raises(SimulationError):
            Simulator([a1, a2], [])

    def test_actor_now_tracks_cycle(self):
        seen = []

        class Probe(Actor):
            def run(self):
                for _ in range(4):
                    seen.append(self.now)
                    yield

        g = DataflowGraph("t")
        g.add_actor(Probe("p"))
        g.build_simulator().run()
        assert seen == [0, 1, 2, 3]
