"""Property test: timing faults never change any design's outputs.

A correctly buffered elaboration is a Kahn network with bounded FIFOs —
channel latencies and actor stall windows may reshuffle *when* beats
move, but the value streams are determined by the dataflow alone. So for
ANY valid design Hypothesis can dream up, a run under a seeded timing
fault scenario must be bit-identical to the clean run, under both
schedulers. This is invariant 1 of DESIGN.md section 10 stated over the
whole design space rather than the zoo.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import random_weights
from repro.core.builder import build_network
from repro.dataflow.digest import stable_digest
from repro.faults import (
    ActorSlowdown,
    ChannelJitter,
    DmaThrottle,
    FaultScenario,
    arm_faults,
)
from tests.strategies import small_designs

_SETTINGS = settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: One representative per timing fault family, plus the combination.
_SCENARIOS = [
    FaultScenario("jitter", (ChannelJitter(probability=0.4, max_delay=3),)),
    FaultScenario("dma", (DmaThrottle(channels="*", period=5, burst=4),)),
    FaultScenario("slowdown", (ActorSlowdown(mean_gap=20, max_stall=5),)),
    FaultScenario(
        "storm",
        (
            ChannelJitter(probability=0.3, max_delay=2),
            ActorSlowdown(mean_gap=30, max_stall=4),
        ),
    ),
]


def run_once(design, seed, scenario, scheduler):
    """(cycles, digest) of one clean or faulted simulation."""
    weights = random_weights(design, seed=seed)
    rng = np.random.default_rng(seed)
    batch = rng.uniform(0, 1, (2,) + design.input_shape).astype(np.float32)
    built = build_network(design, weights, batch)
    armed = None
    if scenario is not None:
        armed = arm_faults(built.graph, scenario, seed)
    sim = built.graph.build_simulator(stall_limit=20_000, scheduler=scheduler)
    sim.faults = armed
    result = sim.run()
    built.result = result
    return result.cycles, stable_digest(built.outputs())


class TestLatencyInsensitivity:
    @_SETTINGS
    @given(
        design=small_designs(),
        seed=st.integers(0, 2**16),
        scenario_idx=st.integers(0, len(_SCENARIOS) - 1),
    )
    def test_timing_faults_preserve_outputs(self, design, seed, scenario_idx):
        scenario = _SCENARIOS[scenario_idx]
        _, clean_digest = run_once(design, seed, None, "event")
        for scheduler in ("event", "lockstep"):
            cycles, digest = run_once(design, seed, scenario, scheduler)
            assert digest == clean_digest, (
                f"{scenario.name} under {scheduler} changed the outputs of\n"
                f"{design.block_design()}"
            )

    @_SETTINGS
    @given(design=small_designs(), seed=st.integers(0, 2**16))
    def test_fault_cycles_agree_across_schedulers(self, design, seed):
        # The same seeded scenario must cost the same number of cycles
        # under both engines — fault RNG draws are consult-ordered, not
        # scheduler-ordered.
        scenario = _SCENARIOS[0]
        a = run_once(design, seed, scenario, "event")
        b = run_once(design, seed, scenario, "lockstep")
        assert a == b
