"""Unit tests for the fault injectors, scenarios and the arming step.

Determinism is the property everything else rests on: every injector
draws from an RNG keyed only by (seed, target name), so fault behaviour
must be identical across processes, arming orders and schedulers. These
tests pin that down at the unit level; the scheduler-equivalence and
latency-insensitivity suites check the same property end to end.
"""

import pytest

from repro.dataflow import ArraySource, DataflowGraph, ListSink
from repro.errors import ConfigurationError
from repro.faults import (
    ActorSlowdown,
    ActorStallPlan,
    BeatCorruption,
    ChannelJitter,
    CompositeFault,
    CorruptionFault,
    DmaThrottle,
    FaultScenario,
    FifoShrink,
    JitterFault,
    ThrottleFault,
    arm_faults,
    disarm_faults,
    load_scenario,
    preset_scenarios,
    target_rng,
)


def small_graph():
    g = DataflowGraph("g", default_capacity=4)
    src = g.add_actor(ArraySource("src", list(range(10))))
    snk = g.add_actor(ListSink("snk", count=10))
    g.connect(src, "out", snk, "in")
    return g


class TestTargetRng:
    def test_same_key_same_stream(self):
        a = [target_rng(7, "jitter:x").random() for _ in range(5)]
        b = [target_rng(7, "jitter:x").random() for _ in range(5)]
        assert a == b

    def test_different_name_different_stream(self):
        a = target_rng(7, "jitter:x").random()
        b = target_rng(7, "jitter:y").random()
        assert a != b

    def test_different_seed_different_stream(self):
        a = target_rng(7, "jitter:x").random()
        b = target_rng(8, "jitter:x").random()
        assert a != b


class TestChannelFaults:
    def run_pattern(self, fault, attempts=40):
        """Commit-attempt outcome sequence: True=commit, False=held."""
        out = []
        staged = [1]
        for _ in range(attempts):
            out.append(fault.on_commit(None, staged))
        return out

    def test_jitter_deterministic(self):
        a = JitterFault(target_rng(0, "jitter:c"), 0.5, 3)
        b = JitterFault(target_rng(0, "jitter:c"), 0.5, 3)
        assert self.run_pattern(a) == self.run_pattern(b)
        assert a.holds == b.holds

    def test_jitter_probability_zero_never_holds(self):
        f = JitterFault(target_rng(0, "jitter:c"), 0.0, 3)
        assert all(self.run_pattern(f))
        assert f.holds == 0

    def test_jitter_probability_one_always_holds(self):
        f = JitterFault(target_rng(0, "jitter:c"), 1.0, 3)
        pattern = self.run_pattern(f)
        assert not pattern[0] or pattern[1] is False  # first batch is held
        assert f.holds > 0
        # Hold lengths are bounded by max_delay: never more than 3
        # consecutive False entries.
        run = 0
        for ok in pattern:
            run = 0 if ok else run + 1
            assert run <= 3

    def test_throttle_period_pattern(self):
        f = ThrottleFault(target_rng(3, "dma:c"), period=4, burst=2)
        pattern = self.run_pattern(f, attempts=60)
        # Exactly every 4th *batch* stalls for 2 cycles: commits between
        # two stall bursts come in groups of 3.
        commits = stalls = 0
        for ok in pattern:
            if ok:
                commits += 1
            else:
                stalls += 1
        assert stalls == 2 * (f.holds // 2)
        assert f.holds == stalls
        assert commits > 0 and stalls > 0

    def test_corruption_mutates_numeric_only(self):
        f = CorruptionFault(target_rng(0, "corrupt:c"), 1.0, 1.0)
        staged = [("window", 0, 1)]  # non-numeric control token
        assert f.on_commit(None, staged)
        assert staged == [("window", 0, 1)]
        assert f.hits == 0
        staged = [2.5]
        assert f.on_commit(None, staged)  # never holds
        assert staged[0] != 2.5
        assert f.hits == 1

    def test_composite_first_hold_wins(self):
        always_hold = JitterFault(target_rng(0, "jitter:c"), 1.0, 1)
        counting = CorruptionFault(target_rng(0, "corrupt:c"), 1.0, 1.0)
        comp = CompositeFault([always_hold, counting])
        staged = [1.0]
        held = not comp.on_commit(None, staged)
        if held:
            # Later faults were not consulted while the first holds.
            assert counting.hits == 0


class TestStallPlan:
    def make_plan(self):
        plan = ActorStallPlan()
        plan.add("core", target_rng(5, "slowdown:core"), mean_gap=10, max_stall=4)
        return plan

    def test_unfaulted_actor_passthrough(self):
        plan = self.make_plan()
        assert plan.free_cycle("other", 123) == 123
        assert plan.actor_names == ["core"]

    def test_free_cycle_is_pure_function_of_cycle(self):
        # Lock-step queries every cycle; the event engine only at
        # resumption cycles. Both must see the same stall windows.
        dense = self.make_plan()
        dense_vals = [dense.free_cycle("core", c) for c in range(200)]
        sparse = self.make_plan()
        for c in (150, 40, 199, 0):  # out-of-order, sparse queries
            assert sparse.free_cycle("core", c) == dense_vals[c]

    def test_free_cycle_never_in_a_window(self):
        plan = self.make_plan()
        for c in range(150):
            w = plan.free_cycle("core", c)
            assert w >= c
            if w > c:
                # The reported wake cycle is itself free.
                assert plan.free_cycle("core", w) == w


class TestScenarios:
    def test_presets_round_trip_json(self):
        for name, sc in preset_scenarios().items():
            again = FaultScenario.from_json(sc.to_json())
            assert again == sc, name

    def test_timing_only_classification(self):
        presets = preset_scenarios()
        assert presets["jitter"].timing_only()
        assert presets["dma"].timing_only()
        assert presets["slowdown"].timing_only()
        assert presets["storm"].timing_only()
        assert not presets["corrupt"].timing_only()
        assert not presets["shrink"].timing_only()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelJitter(probability=1.5)
        with pytest.raises(ConfigurationError):
            ChannelJitter(max_delay=0)
        with pytest.raises(ConfigurationError):
            DmaThrottle(period=0)
        with pytest.raises(ConfigurationError):
            ActorSlowdown(mean_gap=0)
        with pytest.raises(ConfigurationError):
            FifoShrink(channels="x", capacity=0)
        with pytest.raises(ConfigurationError):
            BeatCorruption(probability=-0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultScenario("bad", ("not a fault",))
        with pytest.raises(ConfigurationError):
            FaultScenario.from_dict(
                {"name": "bad", "faults": [{"kind": "gamma-ray"}]}
            )

    def test_load_scenario_preset_and_file(self, tmp_path):
        assert load_scenario("jitter").name == "jitter"
        p = tmp_path / "sc.json"
        p.write_text(
            FaultScenario("mine", (ChannelJitter(probability=0.1),)).to_json()
        )
        sc = load_scenario(str(p))
        assert sc.name == "mine"
        assert sc.faults[0].probability == 0.1
        with pytest.raises(ConfigurationError):
            load_scenario("no-such-scenario")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigurationError):
            load_scenario(str(bad))


class TestArming:
    def test_arm_installs_and_disarm_removes_hooks(self):
        g = small_graph()
        sc = FaultScenario("s", (ChannelJitter(channels="*"),))
        armed = arm_faults(g, sc, seed=0)
        assert sorted(armed.channel_faults) == sorted(g.channels)
        for name in armed.channel_faults:
            assert g.channels[name]._fault is armed.channel_faults[name]
        disarm_faults(g, armed)
        for ch in g.channels.values():
            assert ch._fault is None

    def test_no_match_is_an_error(self):
        g = small_graph()
        for sc in (
            FaultScenario("s", (ChannelJitter(channels="nope.*"),)),
            FaultScenario("s", (ActorSlowdown(actors="nope"),)),
            FaultScenario("s", (FifoShrink(channels="nope.*", capacity=1),)),
        ):
            with pytest.raises(ConfigurationError):
                arm_faults(g, sc, seed=0)

    def test_auto_shrink_must_be_resolved(self):
        g = small_graph()
        with pytest.raises(ConfigurationError, match="resolve"):
            arm_faults(g, FaultScenario("s", (FifoShrink(),)), seed=0)

    def test_shrink_refuses_occupied_channel(self):
        g = small_graph()
        name = next(iter(g.channels))
        ch = g.channels[name]
        ch.push(1)
        ch.begin_cycle()  # commit the staged beat
        sc = FaultScenario("s", (FifoShrink(channels=name, capacity=1),))
        with pytest.raises(ConfigurationError, match="already holds"):
            arm_faults(g, sc, seed=0)

    def test_shrink_records_and_restores_capacity(self):
        g = small_graph()
        name = next(iter(g.channels))
        old = g.channels[name].capacity
        sc = FaultScenario("s", (FifoShrink(channels=name, capacity=1),))
        armed = arm_faults(g, sc, seed=0)
        assert g.channels[name].capacity == 1
        assert armed.shrunk[name] == (old, 1)
        disarm_faults(g, armed)
        assert g.channels[name].capacity == old

    def test_composite_when_specs_overlap(self):
        g = small_graph()
        sc = FaultScenario(
            "s", (ChannelJitter(channels="*"), DmaThrottle(channels="*"))
        )
        armed = arm_faults(g, sc, seed=0)
        assert all(
            isinstance(f, CompositeFault)
            for f in armed.channel_faults.values()
        )
        assert armed.describe()["channels_faulted"] == sorted(g.channels)

    def test_armed_runs_still_complete(self):
        # A faulted primitive graph still drains; holds were injected.
        g = small_graph()
        snk = g.actors["snk"]
        armed = arm_faults(
            g,
            FaultScenario("s", (ChannelJitter(probability=1.0, max_delay=3),)),
            seed=1,
        )
        clean = small_graph()
        clean_snk = clean.actors["snk"]
        res_clean = clean.build_simulator().run()
        sim = g.build_simulator()
        sim.faults = armed
        res = sim.run()
        assert list(snk.received) == list(clean_snk.received)
        assert res.cycles > res_clean.cycles
        assert armed.hold_cycles() > 0
