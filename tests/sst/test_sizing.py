"""Unit tests for SST buffer sizing."""

import pytest

from repro.core.layer_spec import ConvLayerSpec, PoolLayerSpec
from repro.core.network_design import NetworkDesign
from repro.errors import ConfigurationError
from repro.faults import FaultScenario, FifoShrink, run_design
from repro.sst import WindowSpec, bandwidth_memory_tradeoff, chain_words, layer_buffer_budget
from repro.sst.sizing import chain_fifo_capacities, chain_run_ahead, tap_capacity


class TestChainWords:
    def test_basic_line_buffer(self):
        # 5x5 over width 16: 4 lines + 5 pixels.
        assert chain_words(WindowSpec(5, 5), 16) == 4 * 16 + 5

    def test_group_multiplies(self):
        assert chain_words(WindowSpec(3, 3), 10, group=4) == (2 * 10 + 3) * 4

    def test_padding_widens_lines(self):
        assert chain_words(WindowSpec(3, 3, pad=1), 10) == 2 * 12 + 3


class TestLayerBudget:
    def test_single_port(self):
        b = layer_buffer_budget(WindowSpec(5, 5), 16, in_fm=1, in_ports=1)
        assert b.fifo_words == 69
        assert b.window_registers == 25
        assert b.chains == 1
        assert b.total_words == 94

    def test_multi_port_splits_fms(self):
        full = layer_buffer_budget(WindowSpec(3, 3), 12, in_fm=6, in_ports=1)
        split = layer_buffer_budget(WindowSpec(3, 3), 12, in_fm=6, in_ports=6)
        # Same total FIFO words (full buffering), more window registers.
        assert full.fifo_words == split.fifo_words
        assert split.window_registers == 6 * full.window_registers

    def test_ports_must_divide(self):
        with pytest.raises(ConfigurationError):
            layer_buffer_budget(WindowSpec(3, 3), 12, in_fm=6, in_ports=4)

    def test_zero_ports_rejected(self):
        with pytest.raises(ConfigurationError):
            layer_buffer_budget(WindowSpec(3, 3), 12, in_fm=6, in_ports=0)


class TestTradeoff:
    def test_bandwidth_scales_with_replicas(self):
        rows = bandwidth_memory_tradeoff(WindowSpec(3, 3), 12, 6, [1, 2, 3, 6])
        assert [r["relative_bandwidth"] for r in rows] == [1, 2, 3, 6]

    def test_fifo_words_constant_registers_grow(self):
        rows = bandwidth_memory_tradeoff(WindowSpec(3, 3), 12, 6, [1, 6])
        assert rows[0]["fifo_words"] == rows[1]["fifo_words"]
        assert rows[1]["window_registers"] > rows[0]["window_registers"]


class TestRecursionIsTheModel:
    """``chain_run_ahead`` held to the simulator, shrink by shrink.

    For every chain FIFO of a few small literal chains, at every capacity
    below the full-buffering one: the recursion on the shrunk capacities
    says ``min R < 1`` exactly when the event engine deadlocks. No margin
    — the 3x3/width-7 line FIFOs sit at ``depth == tap_cap + 1``, the
    boundary a hand-argued bound once excluded.
    """

    CASES = {
        # name: (design, images, [(layer, window, input width, group)])
        "3x3-w7": (
            NetworkDesign("c", (1, 7, 7), [
                ConvLayerSpec(name="conv1", in_fm=1, out_fm=2, kh=3, kw=3),
            ]),
            1, [("conv1", WindowSpec(3, 3), 7, 1)],
        ),
        "3x3-pad1": (
            NetworkDesign("p", (1, 6, 6), [
                ConvLayerSpec(name="conv1", in_fm=1, out_fm=2, kh=3, kw=3, pad=1),
            ]),
            1, [("conv1", WindowSpec(3, 3, pad=1), 6, 1)],
        ),
        "conv-pool-group4-2img": (
            NetworkDesign("g", (1, 8, 8), [
                ConvLayerSpec(name="conv1", in_fm=1, out_fm=4, kh=3, kw=3),
                PoolLayerSpec(name="pool1", in_fm=4, out_fm=4, kh=2, kw=2,
                              stride=2, mode="max"),
            ]),
            2, [("conv1", WindowSpec(3, 3), 8, 1),
                ("pool1", WindowSpec(2, 2, stride=2), 6, 4)],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_min_budget_below_one_iff_simulator_deadlocks(self, case):
        design, images, chains = self.CASES[case]
        outcomes = set()
        for layer, window, w, group in chains:
            caps = chain_fifo_capacities(window, w, group)
            depths = [c - 1 for c in caps]
            taps = [tap_capacity(group)] * (len(caps) + 1)
            if case == "3x3-w7":
                assert tap_capacity(group) + 1 in depths  # the old margin's gap
            for i, full in enumerate(caps):
                for cap in range(1, full):
                    shrunk = caps[:i] + [cap] + caps[i + 1:]
                    predicted = min(chain_run_ahead(depths, shrunk, taps)) < 1
                    channel = f"{layer}.win0.fifo{i}"
                    run = run_design(
                        design, images=images, memory_system="literal",
                        scenario=FaultScenario(
                            "shrink", (FifoShrink(channel, cap),)
                        ),
                    )
                    assert run.armed.shrunk[channel] == (full, cap)
                    assert (run.deadlock is not None) == predicted, (
                        f"{case}: {channel} at {cap}/{full}"
                    )
                    outcomes.add(predicted)
        assert outcomes == {True, False}
