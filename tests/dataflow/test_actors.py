"""Unit tests for the standard actor library (sources, sinks, routing)."""

import numpy as np
import pytest

from repro.compiled.kernels import k_source
from repro.dataflow import (
    ArraySource,
    DataflowGraph,
    Fork,
    Interleaver,
    ListSink,
    MapActor,
    ScheduleDemux,
)
from repro.errors import ConfigurationError


class TestArraySource:
    def test_streams_in_order(self):
        g = DataflowGraph("t")
        src = g.add_actor(ArraySource("src", [7, 8, 9]))
        snk = g.add_actor(ListSink("snk", count=3))
        g.connect(src, "out", snk, "in")
        g.build_simulator().run()
        assert snk.received == [7, 8, 9]

    def test_interval_throttles_rate(self):
        g = DataflowGraph("t", default_capacity=8)
        src = g.add_actor(ArraySource("src", [1, 2, 3, 4], interval=3))
        snk = g.add_actor(ListSink("snk", count=4))
        g.connect(src, "out", snk, "in")
        g.build_simulator().run()
        deltas = [b - a for a, b in zip(snk.timestamps, snk.timestamps[1:])]
        assert all(d == 3 for d in deltas)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            ArraySource("src", [1], interval=0)

    def test_empty_source_finishes(self):
        g = DataflowGraph("t")
        src = g.add_actor(ArraySource("src", []))
        snk = g.add_actor(ListSink("snk", count=0))
        g.connect(src, "out", snk, "in")
        g.build_simulator().run()
        assert snk.received == []

    def test_keeps_the_array_it_was_given(self):
        data = np.arange(6, dtype=np.float32)
        src = ArraySource("src", data)
        assert src.array is data and src.n_values == 6
        # The compiled source kernel streams the array itself ...
        assert k_source(src, {})["out"] is data
        # ... the interpreted engines still get per-beat numpy scalars.
        assert isinstance(src.values, list)
        assert [type(v) for v in src.values] == [np.float32] * 6
        assert src.values == list(data)

    def test_other_iterables_have_no_array(self):
        src = ArraySource("src", (v for v in [1.5, 2.5]))
        assert src.array is None and src.n_values == 2
        assert src.values == [1.5, 2.5]
        assert k_source(src, {})["out"].tolist() == [1.5, 2.5]


class TestListSink:
    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ListSink("s", count=-1)

    def test_timestamps_align_with_values(self):
        g = DataflowGraph("t")
        src = g.add_actor(ArraySource("src", [1, 2]))
        snk = g.add_actor(ListSink("snk", count=2))
        g.connect(src, "out", snk, "in")
        g.build_simulator().run()
        assert len(snk.timestamps) == len(snk.received) == 2
        assert snk.timestamps == sorted(snk.timestamps)


class TestMapActor:
    def test_applies_function(self):
        g = DataflowGraph("t")
        src = g.add_actor(ArraySource("src", [1, 2, 3]))
        m = g.add_actor(MapActor("m", lambda v: v * v))
        snk = g.add_actor(ListSink("snk", count=3))
        g.connect(src, "out", m, "in")
        g.connect(m, "out", snk, "in")
        g.build_simulator().run()
        assert snk.received == [1, 4, 9]

    def test_is_daemon(self):
        assert MapActor("m", lambda v: v).daemon


class TestFork:
    def test_copies_to_all_outputs(self):
        g = DataflowGraph("t")
        src = g.add_actor(ArraySource("src", [1, 2]))
        f = g.add_actor(Fork("f", n_outputs=3))
        sinks = [g.add_actor(ListSink(f"s{i}", count=2)) for i in range(3)]
        g.connect(src, "out", f, "in")
        for i, s in enumerate(sinks):
            g.connect(f, f"out{i}", s, "in")
        g.build_simulator().run()
        for s in sinks:
            assert s.received == [1, 2]

    def test_requires_positive_outputs(self):
        with pytest.raises(ConfigurationError):
            Fork("f", n_outputs=0)


class TestScheduleDemux:
    def _run(self, values, n_out, schedule=None):
        g = DataflowGraph("t")
        src = g.add_actor(ArraySource("src", values))
        d = g.add_actor(ScheduleDemux("d", n_outputs=n_out, schedule=schedule))
        sched = schedule if schedule is not None else list(range(n_out))
        counts = [sum(1 for k in range(len(values)) if sched[k % len(sched)] == i) for i in range(n_out)]
        sinks = [g.add_actor(ListSink(f"s{i}", count=counts[i])) for i in range(n_out)]
        g.connect(src, "out", d, "in")
        for i, s in enumerate(sinks):
            g.connect(d, f"out{i}", s, "in")
        g.build_simulator().run()
        return [s.received for s in sinks]

    def test_round_robin_default(self):
        outs = self._run(list(range(6)), 2)
        assert outs == [[0, 2, 4], [1, 3, 5]]

    def test_custom_schedule(self):
        outs = self._run(list(range(6)), 2, schedule=[0, 0, 1])
        assert outs == [[0, 1, 3, 4], [2, 5]]

    def test_empty_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            ScheduleDemux("d", n_outputs=2, schedule=[])

    def test_out_of_range_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            ScheduleDemux("d", n_outputs=2, schedule=[0, 2])


class TestInterleaver:
    def _run(self, inputs, schedule=None):
        n_in = len(inputs)
        g = DataflowGraph("t")
        sources = [g.add_actor(ArraySource(f"s{i}", vals)) for i, vals in enumerate(inputs)]
        inter = g.add_actor(Interleaver("i", n_inputs=n_in, schedule=schedule))
        total = sum(len(v) for v in inputs)
        snk = g.add_actor(ListSink("snk", count=total))
        for i, s in enumerate(sources):
            g.connect(s, "out", inter, f"in{i}")
        g.connect(inter, "out", snk, "in")
        g.build_simulator().run()
        return snk.received

    def test_round_robin_merge(self):
        assert self._run([[0, 2, 4], [1, 3, 5]]) == [0, 1, 2, 3, 4, 5]

    def test_custom_schedule(self):
        # Two values from input 0, then one from input 1, cyclically.
        got = self._run([[0, 1, 3, 4], [2, 5]], schedule=[0, 0, 1])
        assert got == [0, 1, 2, 3, 4, 5]

    def test_demux_then_interleave_is_identity(self):
        # Round-robin demux into N lanes then round-robin merge restores
        # the stream: the core property the port adapters rely on.
        values = list(range(12))
        g = DataflowGraph("t")
        src = g.add_actor(ArraySource("src", values))
        d = g.add_actor(ScheduleDemux("d", n_outputs=3))
        inter = g.add_actor(Interleaver("i", n_inputs=3))
        snk = g.add_actor(ListSink("snk", count=12))
        g.connect(src, "out", d, "in")
        for i in range(3):
            g.connect(d, f"out{i}", inter, f"in{i}")
        g.connect(inter, "out", snk, "in")
        g.build_simulator().run()
        assert snk.received == values

    def test_out_of_range_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            Interleaver("i", n_inputs=2, schedule=[3])

    def test_requires_positive_inputs(self):
        with pytest.raises(ConfigurationError):
            Interleaver("i", n_inputs=0)
