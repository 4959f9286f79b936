"""Sharded co-simulation: the multi-device equivalence suite.

Covers the acceptance contract of the shard subsystem:

- output digests identical across 1/2/4-device co-simulated placements
  for every zoo design (including the blocked full-size AlexNet), on
  both the event and compiled engines;
- measured shard interval equal to ``MultiFpgaPlan.interval`` on the
  compiled engine, ``max(single-device measured, link stages)`` on the
  interpreted engines, and per-core Eq. 4 II at 0.00% everywhere;
- certified depth plans classify the link wires (``link-pace`` method)
  and a certified shard still produces the same digests;
- a link-throttle fault campaign whose degraded interval tracks the
  analytical replay in ``repro.faults.analytical``.
"""

import json

import numpy as np
import pytest

from repro.analysis.depths import METHOD_LINK, apply_depth_plan, infer_depth_plan
from repro.analysis.steady_state import extract_schedule
from repro.core import (
    cifar10_design,
    random_weights,
    run_shard,
    tiny_design,
    usps_design,
)
from repro.core.builder import build_network
from repro.core.multi_fpga import (
    LinkModel,
    MultiFpgaPlan,
    Segment,
    plan_split,
    segment_egress_words,
)
from repro.core.perf_model import LinkPerf, network_perf
from repro.core.resource_model import BASE_DESIGN, layer_resources
from repro.core.zoo import alexnet_blocked_design
from repro.dataflow.digest import stable_digest
from repro.errors import ConfigurationError
from repro.profiling import profile_design
from repro.report import SCHEMA_VERSION

SMALL_ZOO = {
    # tiny has only three layers, so its deepest placement is 3-way.
    "tiny": (tiny_design, (1, 2, 3)),
    "usps": (usps_design, (1, 2, 4)),
    "cifar10": (cifar10_design, (1, 2, 4)),
}


def forced_two_way_plan(design, cut_layer, link=None):
    """A hand-built 2-device plan cut exactly after ``cut_layer``."""
    placements = design.placements
    names = [p.spec.name for p in placements]
    cut = names.index(cut_layer) + 1
    link = link or LinkModel()
    segments = []
    for d, (lo, hi) in enumerate([(0, cut), (cut, len(names))]):
        res = BASE_DESIGN
        for p in placements[lo:hi]:
            res = res + layer_resources(p)
        segments.append(
            Segment(
                device_index=d,
                layer_names=tuple(names[lo:hi]),
                resources=res,
                egress_words=segment_egress_words(placements[hi - 1]),
            )
        )
    wire = LinkPerf(
        after=cut_layer,
        cycles=link.stream_cycles(segments[0].egress_words),
        beat=link.beat_interval(),
    )
    stages = network_perf(design, links=[wire]).stages
    return MultiFpgaPlan(design.name, segments, link, stages)


def seeded_build(design, images=3, seed=0, multi_plan=None):
    weights = random_weights(design, seed=seed)
    rng = np.random.default_rng(seed)
    batch = rng.uniform(0, 1, (images,) + design.input_shape).astype(
        np.float32
    )
    return build_network(design, weights, batch, multi_plan=multi_plan)


class TestZooPlacements:
    @pytest.mark.parametrize("name", sorted(SMALL_ZOO))
    def test_digests_and_intervals_verify(self, name):
        factory, devices = SMALL_ZOO[name]
        report = run_shard(factory(), devices=devices, images=3, seed=0)
        assert report.ok, report.summary()
        for run in report.runs:
            for e in run.engines:
                assert e.digest_match
                assert e.core_ii_rel_err == 0.0
                assert e.interval_error_pct == 0.0
                if e.engine == "compiled":
                    # Eq. 4 with the link stages racing in: 0.00% error.
                    assert e.measured_interval == run.plan.interval

    def test_multi_device_runs_are_one_simulation(self):
        # The sharded build is a single graph: link actors and wire
        # channels appear alongside both segments' layer actors.
        design = usps_design()
        plan = plan_split(design, 2)
        built = seeded_build(design, multi_plan=plan)
        assert "link0.tx" in built.graph.actors
        assert "link0.rx" in built.graph.actors
        assert "link0.wire" in built.graph.channels
        layers = {n.split(".", 1)[0] for n in built.graph.actors}
        for segment in plan.segments:
            assert set(segment.layer_names) <= layers

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            run_shard(tiny_design(), devices=(1,), engines=("quantum",))

    def test_zero_images_rejected(self):
        with pytest.raises(ConfigurationError):
            run_shard(tiny_design(), devices=(1,), images=0)


class TestBlockedFullSizeAlexNet:
    def test_compiled_placements_verify(self):
        # The full-size promoted design: blocked convs, real 227x227
        # images. Weight storage overflows a single Virtex-7 (fit=False
        # keeps honest resource totals), but the co-simulation is exact.
        report = run_shard(
            alexnet_blocked_design(),
            devices=(1, 2, 4),
            images=2,
            seed=0,
            fit=False,
            engines=("compiled",),
        )
        assert report.ok, report.summary()
        for run in report.runs:
            (e,) = run.engines
            assert e.digest_match
            assert e.measured_interval == run.plan.interval
            assert e.core_ii_rel_err == 0.0


class TestForcedBlockedCut:
    """Cut directly after a blocked conv: the merge stages relocate to
    the downstream device and the full tile grid (overhang included)
    crosses the wire."""

    def blocked_design(self):
        # Tile 5 does not divide the 12x12 output: boundary tiles carry
        # overhang, which crosses the wire and is dropped by the
        # relocated merge on the downstream device.
        return usps_design().with_blocking({"conv1": 5})

    def test_egress_prices_the_tile_grid(self):
        design = self.blocked_design()
        plan = forced_two_way_plan(design, "conv1")
        placement = design.placements[0]
        block = placement.spec.block_plan(
            placement.in_shape[1], placement.in_shape[2]
        )
        k, oh, ow = placement.out_shape
        assert plan.segments[0].egress_words == block.out_words * k
        assert plan.segments[0].egress_words > k * oh * ow

    @pytest.mark.parametrize("scheduler", ["event", "compiled"])
    def test_digest_equals_unsharded(self, scheduler):
        design = self.blocked_design()
        base = seeded_build(design)
        base.run(scheduler=scheduler)
        reference = stable_digest(base.outputs())

        plan = forced_two_way_plan(design, "conv1")
        sharded = seeded_build(design, multi_plan=plan)
        sharded.run(scheduler=scheduler)
        assert stable_digest(sharded.outputs()) == reference
        # The deferred merges run on device 1 under their layer names.
        assert "conv1.merge0" in sharded.graph.actors
        assert "link0.tx" in sharded.graph.actors

    def test_compiled_interval_matches_plan(self):
        design = self.blocked_design()
        plan = forced_two_way_plan(design, "conv1")
        sharded = seeded_build(design, images=3, multi_plan=plan)
        sharded.run(scheduler="compiled")
        cc = sharded.image_completion_cycles()
        deltas = {b - a for a, b in zip(cc, cc[1:])}
        assert deltas == {plan.interval}


class TestLinkDepthCertificates:
    """`repro shrink` treatment for the new wires: the link-pace method
    proves minimal depths from the transmitter's beat interval."""

    def test_wire_certified_depth_two_at_beat_one(self):
        design = usps_design()
        built = seeded_build(design, multi_plan=plan_split(design, 2))
        plan = infer_depth_plan(built.graph, design_name=design.name)
        cert = plan.certificates["link0.wire"]
        assert cert.method == METHOD_LINK
        assert cert.proven and not cert.tight
        assert cert.depth == 2

    def test_wire_certified_depth_one_on_slow_link(self):
        design = usps_design()
        slow = LinkModel(bandwidth_bytes_per_s=1e6, clock_hz=100e6)
        mp = forced_two_way_plan(design, design.specs[0].name, link=slow)
        built = seeded_build(design, images=1, multi_plan=mp)
        plan = infer_depth_plan(built.graph, design_name=design.name)
        cert = plan.certificates["link0.wire"]
        assert cert.method == METHOD_LINK
        assert cert.depth == 1

    def test_certified_shard_preserves_digest(self):
        design = usps_design()
        mp = plan_split(design, 2)
        reference = seeded_build(design, multi_plan=mp)
        reference.run()
        expected = stable_digest(reference.outputs())

        certified = seeded_build(design, multi_plan=mp)
        plan = infer_depth_plan(certified.graph, design_name=design.name)
        apply_depth_plan(certified.graph, plan)
        assert certified.graph.channels["link0.wire"].capacity == 2
        certified.run()
        assert stable_digest(certified.outputs()) == expected


class TestThrottleCampaign:
    def test_throttled_links_track_the_analytical_replay(self):
        report = run_shard(
            usps_design(),
            devices=(2, 4),
            images=4,
            seed=0,
            throttles=((1, 3), (7, 5)),
        )
        assert report.ok, report.summary()
        assert len(report.throttles) == 4
        for t in report.throttles:
            # Timing-only faults never change values.
            assert t.digest_match
            # The seeded-phase commit replay prices the degraded wire;
            # residual error is phase drift across a finite batch.
            assert t.error_pct <= 0.5, t.to_dict()

    def test_period_one_prediction_is_exact(self):
        # period=1 has a single phase, making the analytic replay
        # seed-exact (the serving chaos preset's regime).
        report = run_shard(
            usps_design(), devices=(4,), images=4, seed=3,
            throttles=((1, 3),),
        )
        for t in report.throttles:
            assert t.error_pct == 0.0, t.to_dict()


class TestShardedProfile:
    def test_profile_design_accepts_multi_plan(self):
        design = usps_design()
        plan = plan_split(design, 4)
        assert plan.bottleneck == "link0"
        report = profile_design(design, images=3, multi_plan=plan)
        # Link parks are excluded from fires: per-core Eq. 4 II still
        # holds at 0.00% with the cuts in place.
        for core in report.cores:
            assert core["rel_err"] == 0.0
        # The link stages enter the interval cross-check.
        assert report.throughput["interval_predicted"] == plan.interval
        assert report.throughput["interval_measured"] == plan.interval

    @pytest.mark.parametrize("name", sorted(SMALL_ZOO))
    def test_plan_schedule_and_profile_name_one_bottleneck(self, name):
        # One stage list answers all three; they used to disagree on
        # cifar10 (plan "segment0"/"link0" vs schedule/profile "conv1").
        factory, _ = SMALL_ZOO[name]
        design = factory()
        for n in range(1, min(4, design.n_layers) + 1):
            plan = plan_split(design, n)
            mp = plan if n > 1 else None
            g = seeded_build(design, multi_plan=mp).graph
            schedule = extract_schedule(
                list(g.actors.values()), list(g.channels.values()), design,
                multi_plan=mp,
            )
            report = profile_design(
                design, images=2, scheduler="compiled", multi_plan=mp
            )
            assert (
                plan.bottleneck
                == schedule.bottleneck
                == report.bottleneck["predicted"]
            ), (name, n)
            assert plan.interval == schedule.interval
            assert report.latency["fill_predicted"] == schedule.fill_latency



class TestShardReportEnvelope:
    def test_envelope_and_embedded_plan_round_trip(self):
        report = run_shard(tiny_design(), devices=(1, 2), images=2, seed=0)
        env = json.loads(report.to_json())
        assert env["schema_version"] == SCHEMA_VERSION
        assert env["kind"] == "shard"
        assert env["ok"] is True
        for run in env["runs"]:
            clone = MultiFpgaPlan.from_dict(run["plan"])
            assert clone.to_dict() == run["plan"]
