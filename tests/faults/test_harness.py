"""The one seeded-run path: every harness draws the same experiment.

``seeded_batch`` + ``random_weights`` + ``run_design`` define what a
(design, seed, images) run is; faultsim, profile, shrink validation and
shard all claim their digests and cycle counts are comparable because
they go through it. These tests hold them to that.
"""

import pytest

from repro.analysis.depths import infer_depth_plan, validate_plan
from repro.core import random_weights, tiny_design, usps_design
from repro.core.block_transform import design_is_blocked
from repro.core.builder import build_network, seeded_batch
from repro.core.shard import run_shard
from repro.core.zoo import alexnet_blocked_design, alexnet_design
from repro.errors import ConfigurationError
from repro.faults import faultsim, load_scenario, run_design, simulable_design
from repro.faults.harness import PILOT_WEIGHT_LIMIT
from repro.profiling import profile_design


@pytest.mark.parametrize("factory", [tiny_design, usps_design])
def test_harnesses_agree_on_one_seeded_run(factory):
    design, seed, images = factory(), 3, 2
    run = run_design(design, seed=seed, images=images)
    assert run.finished and run.digest is not None

    fault = faultsim(design, load_scenario("jitter"), seed=seed, images=images)
    assert fault["clean"]["digest"] == run.digest
    assert fault["clean"]["cycles"] == run.cycles

    shard = run_shard(
        design, devices=(1,), engines=("event",), images=images, seed=seed
    )
    assert shard.baseline_digests["event"] == run.digest

    literal = build_network(
        design, random_weights(design, seed=seed),
        seeded_batch(design, seed, images), memory_system="literal",
    )
    plan = infer_depth_plan(literal.graph, design_name=design.name)
    val = validate_plan(
        design, plan, seed=seed, images=images, probe_channels=[],
    )
    assert val.baseline_digest == run.digest

    profile = profile_design(design, images=images, seed=seed)
    assert profile.cycles == run.cycles


class TestSimulableDesign:
    """The one automatic "too big" decision: a refusal, never a swap."""

    SMALL = staticmethod(tiny_design)
    HUGE = staticmethod(alexnet_design)
    PROMOTED = staticmethod(alexnet_blocked_design)

    def test_the_three_designs_are_what_they_claim(self):
        assert self.SMALL().weight_count() <= PILOT_WEIGHT_LIMIT
        assert self.HUGE().weight_count() > PILOT_WEIGHT_LIMIT
        assert not design_is_blocked(self.HUGE())
        assert self.PROMOTED().weight_count() > PILOT_WEIGHT_LIMIT
        assert design_is_blocked(self.PROMOTED())

    @pytest.mark.parametrize(
        "kind, refused",
        [("SMALL", False), ("HUGE", True), ("PROMOTED", False)],
    )
    def test_automatic_rule(self, kind, refused):
        design = getattr(self, kind)()
        if refused:
            with pytest.raises(
                ConfigurationError, match=r"pilot_design\(design\).*with_blocking"
            ):
                simulable_design(design)
        else:
            assert simulable_design(design) is design

    def test_faultsim_refuses_the_huge_design(self):
        with pytest.raises(ConfigurationError, match="too large"):
            faultsim(self.HUGE(), load_scenario("jitter"))
