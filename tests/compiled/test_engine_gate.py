"""The compiled engine's strict gate, fallback path and refusal modes.

The compiled engine only accepts graphs that carry a NetworkDesign which
passes the static analyzer cleanly. Everything else must fall back to the
event engine with a :class:`CompiledFallbackWarning` — never a wrong
answer, never a crash. Faults are an interpreter-only feature and are
rejected explicitly.
"""

import warnings

import numpy as np
import pytest

from repro.compiled import CompiledFallbackWarning
from repro.compiled.kernels import KERNELS
from repro.core import (
    FCLayerSpec,
    NetworkDesign,
    PoolLayerSpec,
    cifar10_design,
    random_weights,
    tiny_design,
    usps_design,
)
from repro.core.builder import build_network, seeded_batch
from repro.core.multi_fpga import plan_split
from repro.core.zoo import alexnet_pilot_design, vgg16_pilot_design
from repro.dataflow import ArraySource, DataflowGraph, FifoStage, ListSink, MapActor
from repro.errors import ConfigurationError


def tiny_built(rng, memory_system="behavioral"):
    design = tiny_design()
    weights = random_weights(design, seed=7)
    batch = rng.uniform(-1, 1, (2, 1, 8, 8)).astype(np.float32)
    return build_network(design, weights, batch, memory_system=memory_system)


class TestStrictGate:
    def test_strict_design_compiles(self, rng):
        built = tiny_built(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CompiledFallbackWarning)
            res = built.run(scheduler="compiled")
        assert res.scheduler_stats["scheduler"] == "compiled"

    def test_graph_without_design_falls_back(self):
        g = DataflowGraph("bare", default_capacity=2)
        src = g.add_actor(ArraySource("src", list(range(8))))
        snk = g.add_actor(ListSink("snk", count=8))
        g.connect(src, "out", snk, "in")
        with pytest.warns(CompiledFallbackWarning, match="NetworkDesign"):
            res = g.build_simulator(scheduler="compiled").run()
        assert res.scheduler_stats["scheduler"] == "event"
        assert list(snk.received) == list(range(8))

    def test_tracer_falls_back(self, rng):
        from repro.dataflow.trace import Tracer

        built = tiny_built(rng)
        with pytest.warns(CompiledFallbackWarning):
            res = built.run(tracer=Tracer(1), scheduler="compiled")
        assert res.scheduler_stats["scheduler"] == "event"

    def test_unknown_actor_subclass_falls_back(self, rng):
        # Literal memory systems elaborate subclassed actors; the
        # compiled engine's exact-type dispatch refuses them.
        built = tiny_built(rng, memory_system="literal")
        with pytest.warns(CompiledFallbackWarning):
            res = built.run(scheduler="compiled")
        assert res.scheduler_stats["scheduler"] == "event"

    @pytest.mark.parametrize("glue", [
        lambda: FifoStage("glue"),
        lambda: MapActor("glue", lambda v: v),
    ])
    def test_hand_built_glue_actor_falls_back(self, glue):
        # Fork / FifoStage / MapActor are hand-built-graph glue the builder
        # never emits, so they have no kernel: even with a design attached
        # the graph runs on the event engine.
        design = tiny_design()
        n = int(np.prod(design.input_shape))
        g = DataflowGraph("hand", default_capacity=2)
        src = g.add_actor(ArraySource("src", np.arange(n, dtype=np.float32)))
        mid = g.add_actor(glue())
        snk = g.add_actor(ListSink("snk", count=n))
        g.connect(src, "out", mid, "in")
        g.connect(mid, "out", snk, "in")
        g.design = design
        with pytest.warns(CompiledFallbackWarning, match="has no compiled kernel"):
            res = g.build_simulator(scheduler="compiled").run()
        assert res.scheduler_stats["scheduler"] == "event"

    def test_kernel_table_is_exactly_what_the_builder_emits(self):
        # Closed world: every actor type some build can contain has a
        # kernel, and KERNELS holds no entry no build can reach.
        usps = usps_design()
        builds = [
            (usps, {}),
            (cifar10_design(), {}),
            (tiny_design(), {}),
            (alexnet_pilot_design(), {}),
            (vgg16_pilot_design(), {}),
            (tiny_design(), {"normalize": True}),
            (usps, {"multi_plan": plan_split(usps, 2)}),
            (tiny_design().with_blocking(2), {}),
        ]
        emitted = set()
        for design, kwargs in builds:
            built = build_network(
                design, random_weights(design, seed=0),
                seeded_batch(design, 0, 1), **kwargs,
            )
            emitted |= {type(a) for a in built.graph.actors.values()}
        assert emitted == set(KERNELS)
        assert len(KERNELS) == 13

    def test_fallback_matches_event_outputs(self, rng):
        design = tiny_design()
        weights = random_weights(design, seed=7)
        batch = rng.uniform(-1, 1, (2, 1, 8, 8)).astype(np.float32)
        a = build_network(design, weights, batch, memory_system="literal")
        with pytest.warns(CompiledFallbackWarning):
            a.run(scheduler="compiled")
        b = build_network(design, weights, batch, memory_system="literal")
        b.run(scheduler="event")
        np.testing.assert_array_equal(a.outputs(), b.outputs())

    def test_pool_first_design_runs_on_measured_timing(self, rng):
        # Seeded counter-example (ROADMAP item 3): compiled, this design
        # gave the right outputs and interval but cycles 276, completions
        # [147, 211, 275] — the fill model runs 20 cycles long behind a
        # leading pool. It is refused, so both engines report the same.
        design = NetworkDesign("pool-first", (1, 8, 8), [
            PoolLayerSpec(name="pool1", in_fm=1, out_fm=1, kh=2, stride=2),
            FCLayerSpec(name="fc1", in_fm=16, out_fm=4),
        ])
        weights = random_weights(design, seed=7)
        batch = rng.uniform(-1, 1, (3, 1, 8, 8)).astype(np.float32)
        event = build_network(design, weights, batch)
        want = event.run(scheduler="event")
        built = build_network(design, weights, batch)
        with pytest.warns(CompiledFallbackWarning, match="leading pool"):
            got = built.run(scheduler="compiled")
        assert got.scheduler_stats["scheduler"] == "event"
        assert got.cycles == want.cycles == 257
        assert (
            built.image_completion_cycles()
            == event.image_completion_cycles()
            == [127, 191, 255]
        )
        np.testing.assert_array_equal(built.outputs(), event.outputs())


class TestRefusals:
    def test_faults_rejected_with_clear_error(self, rng):
        from repro.faults import ChannelJitter, FaultScenario, arm_faults

        built = tiny_built(rng)
        sc = FaultScenario(
            "jitter", (ChannelJitter(probability=0.5, max_delay=2),)
        )
        sim = built.graph.build_simulator(scheduler="compiled")
        sim.faults = arm_faults(built.graph, sc, seed=1)
        with pytest.raises(ConfigurationError, match="interpreted engine"):
            sim.run()

    def test_run_with_faults_rejected_like_assignment(self, rng):
        from repro.faults import ChannelJitter, FaultScenario, arm_faults

        built = tiny_built(rng)
        sc = FaultScenario(
            "jitter", (ChannelJitter(probability=0.5, max_delay=2),)
        )
        armed = arm_faults(built.graph, sc, seed=1)
        with pytest.raises(ConfigurationError, match="interpreted engine"):
            built.run(scheduler="compiled", faults=armed)
        assert built.result is None

