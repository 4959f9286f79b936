"""Depth certification composed with block convolution.

PR 7's depth prover (`repro shrink`) and this PR's block transform must
compose: a blocked design's literal elaboration is certified channel by
channel, the tight certificates still deadlock at depth-1 on exactly
the blamed channel, and the promoted full-size networks end up with
certified word totals strictly below what the *unblocked* full-size
designs would need at full buffering — the whole point of blocking.
"""

import numpy as np
import pytest

from repro.analysis import run_shrink
from repro.analysis.depths import infer_depth_plan, probe_tight_certificate
from repro.core import (
    ConvLayerSpec,
    FCLayerSpec,
    NetworkDesign,
    PoolLayerSpec,
    alexnet_blocked_design,
    build_network,
    random_weights,
    vgg16_blocked_design,
)
from repro.core.block_transform import without_blocking
from repro.core.resource_model import buffering_savings
from repro.core.zoo import alexnet_design, alexnet_pilot_design, vgg16_design
from repro.errors import ConfigurationError
from repro.faults import pilot_design


def blocked_midsize():
    """Two blocked convs + pool + FC, small enough for validated runs."""
    return NetworkDesign(
        "blk-mid", (2, 12, 12),
        [
            ConvLayerSpec(name="c1", in_fm=2, out_fm=4, kh=3, pad=1,
                          activation="relu"),
            PoolLayerSpec(name="p1", in_fm=4, out_fm=4, kh=2, stride=2),
            ConvLayerSpec(name="c2", in_fm=4, out_fm=4, kh=3, pad=1,
                          in_ports=2, out_ports=2),
            FCLayerSpec(name="f1", in_fm=4 * 6 * 6, out_fm=3),
        ],
    ).with_blocking({"c1": 4, "c2": 3})


@pytest.fixture(scope="module")
def midsize_report():
    return run_shrink(blocked_midsize())


class TestBlockedMidsize:
    def test_certifies_clean(self, midsize_report):
        rep = midsize_report
        assert rep["ok"] and not rep["violations"]
        assert rep["prover"]["heuristic"] == 0
        assert rep["prover"]["proven"] == rep["prover"]["channels"]
        assert rep["words"]["certified"] < rep["words"]["full"]

    def test_blocked_chains_are_certified(self, midsize_report):
        # The split -> window -> core -> merge rewrite is covered by the
        # plan, not special-cased around: the per-port tile chains show
        # up as certified channels.
        channels = set(midsize_report["plan"]["certificates"])
        assert any(".split" in name for name in channels)
        assert any(".merge" in name for name in channels)
        assert any(".win0.fifo" in name for name in channels)

    def test_every_tight_probe_deadlocks_on_the_blamed_channel(
        self, midsize_report
    ):
        probes = midsize_report["validation"]["probes"]
        assert probes, "expected tight certificates to probe"
        for p in probes:
            assert p["deadlocked"], f"{p['channel']} did not deadlock"
            assert p["blamed"], f"{p['channel']} not blamed at deadlock"
            assert p["matched"], f"{p['channel']} not matched by analyzer"

    def test_probe_outcome_object_agrees(self):
        design = blocked_midsize()
        rng = np.random.default_rng(0)
        batch = rng.uniform(0, 1, (1,) + design.input_shape).astype(
            np.float32
        )
        built = build_network(
            design, random_weights(design, seed=0), batch,
            memory_system="literal",
        )
        plan = infer_depth_plan(built.graph, design_name=design.name)
        tight = plan.tight_channels()
        assert tight
        outcome = probe_tight_certificate(design, plan, tight[0])
        assert outcome.ok and outcome.probe_depth == (
            plan.capacity(tight[0]) - 1
        )


class TestPromotedFullSize:
    def test_blocking_shrinks_the_closed_form_words(self):
        # Closed-form (no elaboration): for both promoted networks the
        # certified blocked chains need strictly fewer words than the
        # unblocked full-size design's full-buffering footprint, and
        # blocking alone already shrinks the full-buffering footprint.
        for blocked, reference in (
            (alexnet_blocked_design(), alexnet_design()),
            (vgg16_blocked_design(), vgg16_design()),
        ):
            unblocked_full = reference.full_buffering_words()
            assert blocked.full_buffering_words() < unblocked_full
            savings = buffering_savings(blocked)
            assert savings["certified_words"] < savings["full_words"]
            assert savings["certified_words"] < unblocked_full

    def test_shrink_certifies_full_size_alexnet(self):
        # The real prover over the real full-size literal elaboration
        # (validation replay is exercised on the midsize design above
        # and in CI's block-suite job; replaying AlexNet's ~1.6M-cycle
        # runs per probe is too slow for tier-1).
        blocked = alexnet_blocked_design()
        rep = run_shrink(blocked, validate=False)
        assert rep["ok"]
        assert rep["prover"]["heuristic"] == 0
        assert rep["words"]["certified"] < rep["words"]["full"]
        assert (
            rep["words"]["certified"]
            < alexnet_design().full_buffering_words()
        )

    def test_pilot_alias_reports_distinct_full_buffering_words(self):
        # `pilot_design()` of a promoted design is what the
        # `<name>-pilot` presets resolve to; the downscaled run must
        # visibly be the downscale, not a silent duplicate of the
        # full-size report.
        blocked = alexnet_blocked_design()
        pilot_rep = run_shrink(pilot_design(blocked), validate=False)
        preset_rep = run_shrink(alexnet_pilot_design(), validate=False)
        full_rep = run_shrink(blocked, validate=False)
        assert pilot_rep["design"] == preset_rep["design"]
        assert pilot_rep["design"] != full_rep["design"]
        assert pilot_rep["words"]["full"] == preset_rep["words"]["full"]
        assert pilot_rep["words"]["full"] != full_rep["words"]["full"]

    def test_unblocked_references_are_refused(self):
        # Too large to simulate unblocked: shrink refuses instead of
        # certifying a downscale under the full-size design's name.
        with pytest.raises(ConfigurationError, match="too large"):
            run_shrink(vgg16_design(), validate=False)

    def test_without_blocking_round_trip(self):
        blocked = vgg16_blocked_design()
        assert without_blocking(blocked).full_buffering_words() == (
            vgg16_design().full_buffering_words()
        )
