"""Event-vs-lockstep scheduler equivalence regression tests.

The event engine must be a pure optimization: for every well-formed graph it
has to reproduce the lock-step reference *bit for bit* — total cycle count,
every output value and its arrival timestamp, and every per-channel
statistic including the retroactively charged stall counters. Each test
builds the same graph twice (one fresh build per scheduler) and diffs the
complete observable outcome.
"""

import numpy as np
import pytest

from repro.dataflow import (
    Actor,
    ArraySource,
    DataflowGraph,
    FifoStage,
    Fork,
    Gate,
    Interleaver,
    ListSink,
    MapActor,
    ScheduleDemux,
    WaitCycles,
)
from repro.errors import ConfigurationError, DeadlockError

SCHEDULERS = ("lockstep", "event")


def run_both(factory, **run_kwargs):
    """Build the graph once per scheduler, run, return both outcomes."""
    out = {}
    for sched in SCHEDULERS:
        g, sinks = factory()
        res = g.build_simulator(scheduler=sched).run(**run_kwargs)
        out[sched] = {
            "cycles": res.cycles,
            "stats": res.channel_stats,
            "received": [list(s.received) for s in sinks],
            "timestamps": [list(s.timestamps) for s in sinks],
        }
    return out["lockstep"], out["event"]


def assert_identical(ref, got):
    assert got["cycles"] == ref["cycles"]
    assert got["timestamps"] == ref["timestamps"]
    for a, b in zip(ref["received"], got["received"]):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
    assert got["stats"] == ref["stats"]


def backpressured_chain():
    g = DataflowGraph("chain", default_capacity=2)
    src = g.add_actor(ArraySource("src", list(range(30))))
    fifo = g.add_actor(FifoStage("fifo"))
    # Slow mapper: capacity-1 output chokes the chain upstream.
    mp = g.add_actor(MapActor("map", lambda v: v + 100))
    snk = g.add_actor(ListSink("snk", count=30))
    g.connect(src, "out", fifo, "in", capacity=2)
    g.connect(fifo, "out", mp, "in", capacity=1)
    g.connect(mp, "out", snk, "in", capacity=1)
    return g, [snk]


class TestPrimitives:
    def test_linear_chain_with_backpressure(self):
        assert_identical(*run_both(backpressured_chain))

    def test_bursty_source_interval(self):
        def factory():
            g = DataflowGraph("burst", default_capacity=2)
            src = g.add_actor(ArraySource("src", list(range(12)), interval=7))
            snk = g.add_actor(ListSink("snk", count=12))
            g.connect(src, "out", snk, "in")
            return g, [snk]

        assert_identical(*run_both(factory))

    def test_fork_demux_interleave_diamond(self):
        def factory():
            g = DataflowGraph("diamond", default_capacity=2)
            src = g.add_actor(ArraySource("src", list(range(16)), interval=2))
            fork = g.add_actor(Fork("fork", n_outputs=2))
            a = g.add_actor(FifoStage("a"))
            b = g.add_actor(MapActor("b", lambda v: -v))
            join = g.add_actor(Interleaver("join", n_inputs=2))
            dmx = g.add_actor(ScheduleDemux("dmx", n_outputs=2, schedule=[0, 0, 1]))
            s0 = g.add_actor(ListSink("s0", count=22))
            s1 = g.add_actor(ListSink("s1", count=10))
            g.connect(src, "out", fork, "in")
            g.connect(fork, "out0", a, "in", capacity=3)
            g.connect(fork, "out1", b, "in", capacity=2)
            g.connect(a, "out", join, "in0", capacity=2)
            g.connect(b, "out", join, "in1", capacity=2)
            g.connect(join, "out", dmx, "in", capacity=1)
            g.connect(dmx, "out0", s0, "in", capacity=2)
            g.connect(dmx, "out1", s1, "in", capacity=2)
            return g, [s0, s1]

        assert_identical(*run_both(factory))

    def test_wait_heavy_actor(self):
        def factory():
            class Pulsed(Actor):
                def run(self):
                    for i in range(5):
                        yield from self.wait(37)
                        yield from self.send("out", i)

            g = DataflowGraph("pulse", default_capacity=2)
            p = g.add_actor(Pulsed("pulse"))
            snk = g.add_actor(ListSink("snk", count=5))
            g.connect(p, "out", snk, "in")
            return g, [snk]

        assert_identical(*run_both(factory))

    def test_daemons_parked_at_the_end_are_charged_alike(self):
        """When the last non-daemon process ends, one daemon is still
        parked on a ``Gate`` and another on a ``WaitCycles``: the event
        engine charges both spans once, as the run ends, and must arrive
        at the lock-step loop's per-cycle counts."""

        class Idler(Actor):
            def __init__(self, name, descriptor):
                super().__init__(name)
                self.daemon = True
                self.descriptor = descriptor

            def run(self):
                while True:
                    yield self.descriptor

        outcomes = {}
        for sched in SCHEDULERS:
            g = DataflowGraph("idle", default_capacity=2)
            src = g.add_actor(ArraySource("src", list(range(9))))
            snk = g.add_actor(ListSink("snk", count=9))
            g.connect(src, "out", snk, "in")
            g.add_actor(Idler("gated", Gate()))
            g.add_actor(Idler("timed", WaitCycles(1_000_000)))
            res = g.build_simulator(scheduler=sched).run()
            outcomes[sched] = (res.cycles, res.actor_stats, res.channel_stats)
        assert outcomes["event"] == outcomes["lockstep"]
        _cycles, stats, _channels = outcomes["event"]
        assert stats["gated"][0]["stalled_gate"] > 0
        assert stats["timed"][0]["stalled_timer"] > 0


class TestTracerSamples:
    """The tracer reads each channel's occupancy and per-cycle beat flags,
    so both engines must leave the same of them behind every cycle: the
    event engine's inline commit and ``Channel.begin_cycle()``, which the
    lock-step loop calls, must agree on every sample."""

    @pytest.mark.parametrize("jitter", [False, True], ids=["clean", "jitter"])
    def test_activity_and_occupancy_samples_identical(self, jitter):
        from repro.dataflow import Tracer
        from repro.faults import ChannelJitter, FaultScenario, arm_faults

        samples = {}
        for sched in SCHEDULERS:
            g, _ = backpressured_chain()
            tracer = Tracer(sample_every=1)
            sim = g.build_simulator(scheduler=sched, tracer=tracer)
            if jitter:
                sim.faults = arm_faults(
                    g, FaultScenario("jitter", (ChannelJitter(max_delay=3),)), 5
                )
            res = sim.run()
            if jitter:
                assert sim.faults.hold_cycles() > 0  # the fault actually fired
            assert tracer.cycles == list(range(res.cycles))
            samples[sched] = (tracer.activity, tracer.occupancy)
        assert samples["event"] == samples["lockstep"]


class TestNetworks:
    @pytest.mark.parametrize("memory_system", ["behavioral", "literal"])
    def test_tiny_network_identical(self, memory_system, rng):
        from repro.core import random_weights, tiny_design
        from repro.core.builder import build_network

        design = tiny_design()
        weights = random_weights(design, seed=7)
        batch = rng.uniform(-1, 1, (2, 1, 8, 8)).astype(np.float32)

        outcomes = {}
        for sched in SCHEDULERS:
            built = build_network(
                design, weights, batch,
                memory_system=memory_system, loop_overhead=2,
            )
            res = built.run(scheduler=sched)
            outcomes[sched] = (res.cycles, built.outputs(), res.channel_stats)
        ref, got = outcomes["lockstep"], outcomes["event"]
        assert got[0] == ref[0]
        np.testing.assert_array_equal(got[1], ref[1])
        assert got[2] == ref[2]


class TestCompiledNetworks:
    """Three-way equivalence on the design-built network.

    The compiled engine's contract is value identity (stable digests)
    and fire-count identity; its cycle accounting is the analytic model,
    so cycles / channel stats / timestamps are deliberately excluded.
    """

    def test_tiny_network_three_way(self, rng):
        from repro.core import random_weights, tiny_design
        from repro.core.builder import build_network
        from repro.dataflow import stable_digest

        design = tiny_design()
        weights = random_weights(design, seed=7)
        batch = rng.uniform(-1, 1, (2, 1, 8, 8)).astype(np.float32)

        outcomes = {}
        for sched in SCHEDULERS + ("compiled",):
            built = build_network(design, weights, batch, loop_overhead=2)
            res = built.run(scheduler=sched)
            fires = {
                actor: [p["fires"] for p in procs]
                for actor, procs in res.actor_stats.items()
            }
            outcomes[sched] = (stable_digest(built.outputs()), fires)
        ref = outcomes["lockstep"]
        assert outcomes["event"] == ref
        assert outcomes["compiled"] == ref


class TestDeadlock:
    def deadlocked_graph(self):
        g = DataflowGraph("dl", default_capacity=2)
        src = g.add_actor(ArraySource("src", [1, 2]))
        snk = g.add_actor(ListSink("snk", count=5))
        g.connect(src, "out", snk, "in")
        return g

    def test_both_schedulers_raise(self):
        for sched in SCHEDULERS:
            with pytest.raises(DeadlockError) as exc:
                self.deadlocked_graph().build_simulator(
                    stall_limit=50, scheduler=sched
                ).run()
            assert "snk" in str(exc.value)

    def test_event_detection_is_immediate(self):
        # Lock-step burns stall_limit cycles before giving up; the event
        # engine proves no process can ever run again and raises at once.
        with pytest.raises(DeadlockError) as lock:
            self.deadlocked_graph().build_simulator(
                stall_limit=5000, scheduler="lockstep"
            ).run()
        with pytest.raises(DeadlockError) as event:
            self.deadlocked_graph().build_simulator(
                stall_limit=5000, scheduler="event"
            ).run()
        assert lock.value.cycle >= 5000
        assert event.value.cycle < 10
        assert event.value.blocked == lock.value.blocked


class TestConfig:
    def test_unknown_scheduler_rejected(self):
        g = DataflowGraph("cfg")
        g.add_actor(ArraySource("src", [1]))
        with pytest.raises(ConfigurationError):
            g.build_simulator(scheduler="quantum")


class TestFaultedEquivalence:
    """Fault injection must not break scheduler equivalence.

    Channel faults are consulted once per pending commit batch — a
    scheduler-independent sequence — so under jitter/DMA scenarios the
    engines must still agree on EVERYTHING, per-channel stall counters
    included. Actor stall windows are also identical under both engines,
    but the charging of stall statistics during a skipped resumption
    legitimately differs (lock-step skips the actor entirely; the event
    engine retro-charges parked waits), so slowdown scenarios assert
    cycles and values only.
    """

    def run_both_faulted(self, factory, scenario, seed=11):
        from repro.faults import arm_faults

        out = {}
        for sched in SCHEDULERS:
            g, sinks = factory()
            armed = arm_faults(g, scenario, seed)
            sim = g.build_simulator(scheduler=sched)
            sim.faults = armed
            res = sim.run()
            out[sched] = {
                "cycles": res.cycles,
                "stats": res.channel_stats,
                "received": [list(s.received) for s in sinks],
                "timestamps": [list(s.timestamps) for s in sinks],
                "holds": armed.hold_cycles(),
            }
        return out["lockstep"], out["event"]

    def diamond_factory(self):
        def factory():
            g = DataflowGraph("diamond", default_capacity=2)
            src = g.add_actor(ArraySource("src", list(range(16)), interval=2))
            fork = g.add_actor(Fork("fork", n_outputs=2))
            a = g.add_actor(FifoStage("a"))
            b = g.add_actor(MapActor("b", lambda v: -v))
            join = g.add_actor(Interleaver("join", n_inputs=2))
            s = g.add_actor(ListSink("s", count=32))
            g.connect(src, "out", fork, "in")
            g.connect(fork, "out0", a, "in", capacity=3)
            g.connect(fork, "out1", b, "in", capacity=2)
            g.connect(a, "out", join, "in0", capacity=2)
            g.connect(b, "out", join, "in1", capacity=2)
            g.connect(join, "out", s, "in", capacity=2)
            return g, [s]

        return factory

    def test_jitter_full_identity(self):
        from repro.faults import ChannelJitter, FaultScenario

        sc = FaultScenario(
            "jitter", (ChannelJitter(probability=0.5, max_delay=3),)
        )
        ref, got = self.run_both_faulted(self.diamond_factory(), sc)
        assert got == ref
        assert ref["holds"] > 0  # the fault actually fired

    def test_null_armed_hooks_change_nothing(self):
        # Hooks on every channel that never hold a commit: the run must
        # be the unfaulted run, cycle for cycle.
        from repro.faults import ChannelJitter, FaultScenario

        sc = FaultScenario(
            "null", (ChannelJitter(channels="*", probability=0.0, max_delay=1),)
        )
        clean_ref, clean_got = run_both(self.diamond_factory())
        ref, got = self.run_both_faulted(self.diamond_factory(), sc)
        assert ref.pop("holds") == got.pop("holds") == 0
        assert ref == clean_ref and got == clean_got

    def test_throttle_full_identity(self):
        from repro.faults import DmaThrottle, FaultScenario

        sc = FaultScenario(
            "dma", (DmaThrottle(channels="src.*", period=3, burst=4),)
        )
        ref, got = self.run_both_faulted(self.diamond_factory(), sc)
        assert got == ref
        assert ref["holds"] > 0

    def test_slowdown_cycles_and_values_identical(self):
        from repro.faults import ActorSlowdown, FaultScenario

        sc = FaultScenario(
            "slowdown", (ActorSlowdown(mean_gap=10, max_stall=5),)
        )
        ref, got = self.run_both_faulted(self.diamond_factory(), sc)
        assert got["cycles"] == ref["cycles"]
        assert got["received"] == ref["received"]
        assert got["timestamps"] == ref["timestamps"]
        assert ref["cycles"] > 0

    @pytest.mark.parametrize("memory_system", ["behavioral", "literal"])
    def test_tiny_network_faulted_identical(self, memory_system, rng):
        from repro.core import random_weights, tiny_design
        from repro.core.builder import build_network
        from repro.faults import ChannelJitter, DmaThrottle, FaultScenario

        sc = FaultScenario(
            "mixed",
            (
                ChannelJitter(probability=0.3, max_delay=2),
                DmaThrottle(channels="dma_in.*", period=7, burst=5),
            ),
        )
        design = tiny_design()
        weights = random_weights(design, seed=7)
        batch = rng.uniform(-1, 1, (2, 1, 8, 8)).astype(np.float32)
        outcomes = {}
        for sched in SCHEDULERS:
            from repro.faults import arm_faults

            built = build_network(
                design, weights, batch, memory_system=memory_system,
            )
            armed = arm_faults(built.graph, sc, seed=3)
            sim = built.graph.build_simulator(scheduler=sched)
            sim.faults = armed
            res = sim.run()
            built.result = res
            outcomes[sched] = (res.cycles, built.outputs(), res.channel_stats)
        ref, got = outcomes["lockstep"], outcomes["event"]
        assert got[0] == ref[0]
        np.testing.assert_array_equal(got[1], ref[1])
        assert got[2] == ref[2]

    def test_unfaulted_network_matches_compiled(self, rng):
        # The unfaulted path of the faulted-equivalence setup must agree
        # with the compiled engine on values — same build recipe, no
        # fault plan armed.
        from repro.core import random_weights, tiny_design
        from repro.core.builder import build_network
        from repro.dataflow import stable_digest

        design = tiny_design()
        weights = random_weights(design, seed=7)
        batch = rng.uniform(-1, 1, (2, 1, 8, 8)).astype(np.float32)
        digests = {}
        for sched in SCHEDULERS + ("compiled",):
            built = build_network(design, weights, batch)
            built.run(scheduler=sched)
            digests[sched] = stable_digest(built.outputs())
        assert len(set(digests.values())) == 1

    def test_compiled_rejects_fault_plans(self, rng):
        from repro.core import random_weights, tiny_design
        from repro.core.builder import build_network
        from repro.faults import ChannelJitter, FaultScenario, arm_faults

        design = tiny_design()
        weights = random_weights(design, seed=7)
        batch = rng.uniform(-1, 1, (2, 1, 8, 8)).astype(np.float32)
        built = build_network(design, weights, batch)
        sc = FaultScenario(
            "jitter", (ChannelJitter(probability=0.3, max_delay=2),)
        )
        sim = built.graph.build_simulator(scheduler="compiled")
        sim.faults = arm_faults(built.graph, sc, seed=3)
        with pytest.raises(ConfigurationError, match="interpreted engine"):
            sim.run()
