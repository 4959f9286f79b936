"""Unit tests for the multi-FPGA partitioning extension."""

import json

import pytest

from repro.core import (
    LinkModel,
    MultiFpgaPlan,
    cifar10_design,
    network_perf,
    plan_split,
    usps_design,
)
from repro.core.multi_fpga import load_multi_fpga_plan, segment_egress_words
from repro.core.zoo import alexnet_blocked_design, vgg16_blocked_design
from repro.errors import ConfigurationError, ResourceError
from repro.fpga import Device, XC7VX485T
from repro.fpga.dma import DmaModel
from repro.hls import ResourceVector
from repro.report import SCHEMA_VERSION


class TestLinkModel:
    def test_stream_cycles_serial_word_stream(self):
        link = LinkModel(bandwidth_bytes_per_s=1e9, clock_hz=100e6)
        # 10 bytes/cycle of bandwidth, but a serial stream moves at most
        # one 32-bit word per cycle: 100 words need 100 cycles, not 40.
        assert link.beat_interval() == 1
        assert link.stream_cycles(100) == 100

    def test_words_per_cycle_never_exceeds_one(self):
        fast = LinkModel(bandwidth_bytes_per_s=1e12, clock_hz=100e6)
        assert fast.words_per_cycle() == 1.0

    def test_bandwidth_paces_the_beat(self):
        # 1e6 B/s at 100 MHz = 0.01 B/cycle -> 400 cycles per 4-byte word.
        slow = LinkModel(bandwidth_bytes_per_s=1e6, clock_hz=100e6)
        assert slow.beat_interval() == 400
        assert slow.stream_cycles(10) == 4000

    def test_delegates_to_dma_model(self):
        link = LinkModel(bandwidth_bytes_per_s=3e8, clock_hz=150e6,
                         word_bits=64)
        dma = link.dma
        assert isinstance(dma, DmaModel)
        assert link.beat_interval() == dma.beat_interval(64)
        assert link.stream_cycles(7) == dma.transfer_cycles(7, 64)

    def test_negative_words_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkModel().stream_cycles(-1)

    def test_round_trip(self):
        link = LinkModel(bandwidth_bytes_per_s=5e8, clock_hz=200e6,
                         word_bits=16)
        assert LinkModel.from_dict(link.to_dict()) == link


class TestPlanSplit:
    def test_single_device_plan(self):
        plan = plan_split(cifar10_design(), 1)
        assert len(plan.segments) == 1
        assert plan.interval == network_perf(cifar10_design()).interval

    def test_two_device_split_contiguous(self):
        plan = plan_split(cifar10_design(), 2)
        names = [n for s in plan.segments for n in s.layer_names]
        assert names == [s.name for s in cifar10_design().specs]

    def test_split_never_slower_than_monolithic(self):
        mono = plan_split(cifar10_design(), 1).interval
        duo = plan_split(cifar10_design(), 2).interval
        assert duo <= mono

    def test_segments_fit_device(self):
        plan = plan_split(cifar10_design(), 2)
        assert plan.fits(XC7VX485T)

    def test_too_many_devices_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_split(usps_design(), 10)

    def test_zero_devices_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_split(usps_design(), 0)

    def test_tiny_device_unfit_raises(self):
        matchbox = Device("matchbox", "toy", ResourceVector(ff=10, lut=10, bram=1, dsp=1))
        with pytest.raises(ResourceError):
            plan_split(usps_design(), 2, device=matchbox)

    def test_no_fit_escape_keeps_honest_resources(self):
        matchbox = Device("matchbox", "toy", ResourceVector(ff=10, lut=10, bram=1, dsp=1))
        plan = plan_split(usps_design(), 2, device=matchbox, fit=False)
        assert not plan.fits(matchbox)
        assert plan.fits(XC7VX485T)

    def test_slow_link_becomes_bottleneck(self):
        # A link slower than every layer paces the split pipeline.
        slow = LinkModel(bandwidth_bytes_per_s=1e6, clock_hz=100e6)
        plan = plan_split(cifar10_design(), 2, link=slow)
        cut = plan.n_devices - 2
        assert plan.interval == slow.stream_cycles(
            plan.segments[cut].egress_words
        )
        assert plan.interval > network_perf(cifar10_design()).interval
        assert plan.bottleneck == "link0"

    def test_dma_endpoints_priced_like_network_perf(self):
        design = usps_design()
        plan = plan_split(design, 2)
        perf = network_perf(design)
        assert plan.stages[0] == perf.stages[0]
        assert plan.stages[0].cycles == design.input_words_per_image()
        assert plan.stages[-1] == perf.stages[-1]

    def test_cut_layers_name_segment_boundaries(self):
        plan = plan_split(cifar10_design(), 2)
        assert plan.cut_layers() == (plan.segments[0].layer_names[-1],)

    @pytest.mark.parametrize("n_devices", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "factory, pacing",
        [
            (cifar10_design, "conv1"),
            (alexnet_blocked_design, "conv1"),
            (vgg16_blocked_design, "b1_conv2"),
        ],
    )
    def test_bottleneck_names_the_pacing_layer(self, factory, pacing, n_devices):
        # Regression: the plan used to answer "segment0" (and "link0" on
        # the cifar10 conv1/link0 tie) where the model names the layer.
        design = factory()
        plan = plan_split(design, n_devices, fit=False)
        assert plan.bottleneck == pacing
        linked = network_perf(design, links=plan.link_perfs())
        assert (plan.interval, plan.bottleneck) == (
            linked.interval, linked.bottleneck
        )
        assert plan.stages == linked.stages


class TestBlockedEgress:
    def test_blocked_conv_prices_tile_grid_not_out_shape(self):
        design = usps_design().with_blocking({"conv1": 5})
        placement = design.placements[0]
        spec = placement.spec
        plan = spec.block_plan(placement.in_shape[1], placement.in_shape[2])
        k = placement.out_shape[0]
        assert segment_egress_words(placement) == plan.out_words * k
        # Overhang crosses the wire: strictly more words than the
        # trimmed output volume.
        _, oh, ow = placement.out_shape
        assert segment_egress_words(placement) > k * oh * ow

    def test_plain_layer_prices_output_volume(self):
        placement = usps_design().placements[0]
        k, oh, ow = placement.out_shape
        assert segment_egress_words(placement) == k * oh * ow


class TestPlanEnvelope:
    def test_round_trip(self):
        plan = plan_split(cifar10_design(), 2)
        clone = MultiFpgaPlan.from_dict(plan.to_dict())
        assert clone.to_dict() == plan.to_dict()
        assert clone.interval == plan.interval
        assert clone.bottleneck == plan.bottleneck

    def test_envelope_fields(self):
        plan = plan_split(usps_design(), 2)
        env = json.loads(plan.to_json())
        assert env["schema_version"] == SCHEMA_VERSION
        assert env["kind"] == "multi-fpga-plan"
        assert env["n_devices"] == 2

    def test_load_from_file(self, tmp_path):
        plan = plan_split(usps_design(), 2)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json() + "\n")
        loaded = load_multi_fpga_plan(str(path))
        assert loaded.to_dict() == plan.to_dict()

    def test_empty_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiFpgaPlan("empty", [], LinkModel(), stages=())
