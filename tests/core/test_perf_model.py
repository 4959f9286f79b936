"""Unit tests for the analytical performance model."""

import pytest

from repro.core import (
    batch_sweep,
    cifar10_design,
    layer_perf,
    network_perf,
    plan_split,
    usps_design,
)
from repro.core.perf_model import LinkPerf, Stage, pacing_stage, repriced
from repro.core.zoo import alexnet_design, vgg16_blocked_design
from repro.errors import ConfigurationError
from repro.fpga import VC707


class TestLayerPerf:
    def test_usps_conv1_input_bound(self):
        p = layer_perf(usps_design().placements[0])
        assert p.in_beats == 256
        assert p.core_cycles == 144  # II=1, 144 coordinates
        assert p.interval == 256

    def test_usps_conv2_core_bound(self):
        p = layer_perf(usps_design().placements[2])
        assert p.core_cycles == 4 * 16
        assert p.interval == 64

    def test_cifar_conv1_dominates(self):
        p = layer_perf(cifar10_design().placements[0])
        assert p.core_cycles == 28 * 28 * 12 == 9408
        assert p.interval == 9408

    def test_fc_interval_is_input_count(self):
        p = layer_perf(cifar10_design().placements[4])
        assert p.core_cycles == 900
        assert p.interval == 900

    def test_pool_full_rate(self):
        p = layer_perf(usps_design().placements[1])
        assert p.kind == "pool"
        assert p.core_cycles == p.out_beats


class TestNetworkPerf:
    def test_usps_interval_dma_bound(self):
        perf = network_perf(usps_design())
        assert perf.interval == 256
        assert perf.bottleneck == "dma_in"

    def test_cifar_interval_conv1_bound(self):
        perf = network_perf(cifar10_design())
        assert perf.interval == 9408
        assert perf.bottleneck == "conv1"

    def test_fill_at_least_interval(self):
        for d in (usps_design(), cifar10_design()):
            perf = network_perf(d)
            assert perf.fill_latency >= perf.interval

    def test_batch_cycles_affine(self):
        perf = network_perf(usps_design())
        assert perf.batch_cycles(5) - perf.batch_cycles(4) == perf.interval

    def test_mean_cycles_decreasing(self):
        perf = network_perf(cifar10_design())
        means = [perf.mean_cycles_per_image(b) for b in (1, 2, 5, 20, 100)]
        assert means == sorted(means, reverse=True)

    def test_mean_converges_to_interval(self):
        perf = network_perf(usps_design())
        assert perf.mean_cycles_per_image(10_000) == pytest.approx(
            perf.interval, rel=0.01
        )

    def test_images_per_second(self):
        perf = network_perf(usps_design())
        assert perf.images_per_second(VC707) == pytest.approx(100e6 / 256)

    def test_invalid_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            network_perf(usps_design()).batch_cycles(0)


class TestBatchSweep:
    def test_rows_shape(self):
        rows = batch_sweep(usps_design(), [1, 5, 50])
        assert [r["batch"] for r in rows] == [1, 5, 50]
        assert all(r["mean_us"] > 0 for r in rows)

    def test_us_conversion(self):
        (row,) = batch_sweep(usps_design(), [100000])
        assert row["mean_us"] == pytest.approx(2.56, rel=0.02)


class TestLoopOverheadCalibration:
    def test_zero_overhead_is_ideal_model(self):
        from repro.core.perf_model import network_perf

        assert network_perf(usps_design(), loop_overhead=0.0).interval == 256

    def test_overhead_slows_conv_bound_designs(self):
        from repro.core.perf_model import network_perf

        base = network_perf(cifar10_design()).interval
        slowed = network_perf(cifar10_design(), loop_overhead=4.0).interval
        assert slowed > base

    def test_negative_overhead_rejected(self):
        from repro.core.perf_model import layer_perf

        with pytest.raises(ConfigurationError):
            layer_perf(usps_design().placements[0], loop_overhead=-1.0)

    def test_fit_recovers_papers_tc1_measurement(self):
        # Paper: 5.8 us/image = 580 cycles at 100 MHz.
        from repro.core.perf_model import fit_loop_overhead, network_perf

        oh = fit_loop_overhead(usps_design(), 580)
        assert 2.5 < oh < 3.6
        fitted = network_perf(usps_design(), loop_overhead=oh).interval
        assert fitted == pytest.approx(580, rel=0.02)

    def test_fit_recovers_papers_tc2_measurement(self):
        # Paper: 128.1 us/image = 12810 cycles at 100 MHz.
        from repro.core.perf_model import fit_loop_overhead, network_perf

        oh = fit_loop_overhead(cifar10_design(), 12_810)
        assert 3.8 < oh < 4.9
        fitted = network_perf(cifar10_design(), loop_overhead=oh).interval
        assert fitted == pytest.approx(12_810, rel=0.02)

    def test_single_constant_explains_both_testcases(self):
        # The reconciliation claim of EXPERIMENTS.md: one ~3.7-cycle
        # per-coordinate overhead lands both designs within 20% of the
        # paper's measured intervals.
        from repro.core.perf_model import network_perf

        oh = 3.7
        tc1 = network_perf(usps_design(), loop_overhead=oh).interval
        tc2 = network_perf(cifar10_design(), loop_overhead=oh).interval
        assert tc1 == pytest.approx(580, rel=0.20)
        assert tc2 == pytest.approx(12_810, rel=0.20)

    def test_invalid_measurement_rejected(self):
        from repro.core.perf_model import fit_loop_overhead

        with pytest.raises(ConfigurationError):
            fit_loop_overhead(usps_design(), 0)

    def test_dma_setup_fit_inconsistent_across_testcases(self):
        # The rejected alternative hypothesis (docs/calibration.md): a
        # per-image DMA setup constant cannot explain both measurements.
        from repro.core.perf_model import fit_dma_setup

        s1 = fit_dma_setup(usps_design(), 580)
        s2 = fit_dma_setup(cifar10_design(), 12_810)
        assert s1 < 600
        assert s2 > 10 * s1

    def test_dma_setup_shifts_interval(self):
        from repro.core.perf_model import network_perf

        base = network_perf(usps_design()).interval
        padded = network_perf(usps_design(), dma_setup_cycles=100).interval
        assert padded == base + 100

    def test_negative_dma_setup_rejected(self):
        from repro.core.perf_model import network_perf

        with pytest.raises(ConfigurationError):
            network_perf(usps_design(), dma_setup_cycles=-1)


class TestIntervalBreakdown:
    def test_rows_cover_all_stages(self):
        from repro.core.perf_model import interval_breakdown, network_perf

        rows = interval_breakdown(network_perf(usps_design()))
        stages = [r["stage"] for r in rows]
        assert stages == ["dma_in", "conv1", "pool1", "conv2", "fc1", "dma_out"]

    def test_exactly_one_bottleneck(self):
        from repro.core.perf_model import interval_breakdown, network_perf

        for d in (usps_design(), cifar10_design()):
            rows = interval_breakdown(network_perf(d))
            assert sum(1 for r in rows if r["bottleneck"]) == 1

    def test_bottleneck_row_has_max_interval(self):
        from repro.core.perf_model import interval_breakdown, network_perf

        rows = interval_breakdown(network_perf(cifar10_design()))
        best = max(r["interval"] for r in rows)
        marked = next(r for r in rows if r["bottleneck"])
        assert marked["interval"] == best


def _linked(factory, n_devices):
    """The model of ``factory()`` sharded over ``n_devices`` (1 = whole)."""
    design = factory()
    plan = plan_split(design, n_devices, fit=False)
    return network_perf(design, links=plan.link_perfs())


USPS_X4 = [
    ("dma_in", 256), ("conv1", 256), ("link0", 864), ("pool1", 144),
    ("link1", 216), ("conv2", 64), ("link2", 64), ("fc1", 64),
    ("dma_out", 10),
]
USPS_X2 = [
    ("dma_in", 256), ("conv1", 256), ("pool1", 144), ("link0", 216),
    ("conv2", 64), ("fc1", 64), ("dma_out", 10),
]

#: One case per kind of pacing stage; every number is the parent
#: commit's (PR 12), where several modules each computed their own.
#: (id, model, throttle (stage, cycles) or None,
#:  stages, interval, bottleneck, fill latency)
STAGE_CASES = [
    ("dma-bound usps", lambda: _linked(usps_design, 1), None,
     [("dma_in", 256), ("conv1", 256), ("pool1", 144), ("conv2", 64),
      ("fc1", 64), ("dma_out", 10)],
     256, "dma_in", 568),
    ("core-bound cifar10", lambda: _linked(cifar10_design, 1), None,
     [("dma_in", 3072), ("conv1", 9408), ("pool1", 9408), ("conv2", 3600),
      ("pool2", 3600), ("fc1", 900), ("fc2", 64), ("dma_out", 10)],
     9408, "conv1", 10254),
    ("halo-bound blocked vgg16", lambda: _linked(vgg16_blocked_design, 1), None,
     [("dma_in", 150528), ("b1_conv1", 3211264), ("b1_conv2", 3686400),
      ("b1_pool", 3211264), ("b2_conv1", 1605632), ("b2_conv2", 1843200),
      ("b2_pool", 1605632), ("b3_conv1", 802816), ("b3_conv2", 1048576),
      ("b3_conv3", 1048576), ("b3_pool", 802816), ("b4_conv1", 401408),
      ("b4_conv2", 524288), ("b4_conv3", 524288), ("b4_pool", 401408),
      ("b5_conv1", 165888), ("b5_conv2", 165888), ("b5_conv3", 165888),
      ("b5_pool", 100352), ("fc6", 25088), ("fc7", 4096), ("fc8", 4096),
      ("dma_out", 1000)],
     3686400, "b1_conv2", 14521622),
    ("weight-streaming fc",
     lambda: network_perf(alexnet_design(weight_streaming=True)), None,
     [("dma_in", 154587), ("conv1", 290400), ("pool1", 290400),
      ("conv2", 186624), ("pool2", 186624), ("conv3", 64896),
      ("conv4", 64896), ("conv5", 64896), ("pool5", 43264),
      ("fc6", 37748736), ("fc7", 16777216), ("fc8", 4096000),
      ("dma_out", 1000)],
     37748736, "fc6", 58822316),
    ("link-bound usps x4", lambda: _linked(usps_design, 4), None,
     USPS_X4, 864, "link0", 583),
    # link0 == conv1 == 9408: the layer wins the tie (links rank last).
    ("cifar10 x2 link/layer tie", lambda: _linked(cifar10_design, 2), None,
     [("dma_in", 3072), ("conv1", 9408), ("link0", 9408), ("pool1", 9408),
      ("conv2", 3600), ("pool2", 3600), ("fc1", 900), ("fc2", 64),
      ("dma_out", 10)],
     9408, "conv1", 10259),
    # The `dma-throttle` preset: 4.5 cycles/word on the 256-word input.
    ("throttled dma_in", lambda: _linked(usps_design, 1), ("dma_in", 1152),
     [("dma_in", 1152), ("conv1", 256), ("pool1", 144), ("conv2", 64),
      ("fc1", 64), ("dma_out", 10)],
     1152, "dma_in", 568),
    # `repro shard --throttle 7:5` on usps x2, seed 0.
    ("throttled wire", lambda: _linked(usps_design, 2), ("link0", 280.86328125),
     [s if s[0] != "link0" else ("link0", 280.86328125) for s in USPS_X2],
     280.86328125, "link0", 573),
]


class TestStageList:
    @pytest.mark.parametrize(
        "model, throttle, stages, interval, bottleneck, fill",
        [c[1:] for c in STAGE_CASES], ids=[c[0] for c in STAGE_CASES],
    )
    def test_one_list_answers_everything(
        self, model, throttle, stages, interval, bottleneck, fill
    ):
        perf = model()
        got = perf.stages if throttle is None else repriced(perf.stages, *throttle)
        assert [(s.name, s.cycles) for s in got] == stages
        pacing = pacing_stage(got)
        assert (pacing.cycles, pacing.name) == (interval, bottleneck)
        # A throttle re-prices a stage of the steady state, not the fill.
        assert perf.fill_latency == fill
        if throttle is None:
            assert (perf.interval, perf.bottleneck) == (interval, bottleneck)

    def test_stage_kinds(self):
        kinds = [s.kind for s in _linked(usps_design, 2).stages]
        assert kinds == ["dma", "conv", "pool", "link", "conv", "fc", "dma"]

    def test_tie_break_order(self):
        # DMA ends, then layers in pipeline order, then links; a later
        # stage needs strictly more cycles to win.
        stages = [
            Stage("dma_in", "dma", 5), Stage("a", "conv", 5),
            Stage("link0", "link", 7), Stage("b", "fc", 7),
            Stage("dma_out", "dma", 5),
        ]
        assert pacing_stage(stages).name == "b"
        assert pacing_stage(stages[:2] + stages[4:]).name == "dma_in"

    def test_repricing_an_unknown_stage_rejected(self):
        with pytest.raises(ConfigurationError):
            repriced(network_perf(usps_design()).stages, "link0", 1)

    def test_link_after_unknown_layer_rejected(self):
        wire = LinkPerf(after="pool9", cycles=1, beat=1)
        with pytest.raises(ConfigurationError):
            network_perf(usps_design(), links=[wire]).stages
