"""Unit + property tests for interleaved accumulators (Section IV-B)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError
from repro.hls import AccumulatorModel, interleaved_sum, tree_reduce
from tests.compiled.test_kernels_conv import bits
from tests.hls.test_tree_adder import SPECIAL_FLOATS


def lane_rotation(values, lanes):
    """Section IV-B one element at a time: element ``i`` is added to lane
    ``i % lanes`` of zero-initialised partial sums, then the lanes meet in
    the tree. What the vectorised ``interleaved_sum`` must equal bit for bit."""
    arr = np.asarray(values, dtype=np.float32)
    partial = np.zeros(arr.shape[:-1] + (lanes,), dtype=np.float32)
    for i in range(arr.shape[-1]):
        lane = i % lanes
        partial[..., lane] = partial[..., lane] + arr[..., i]
    return tree_reduce(partial)


class TestFunctional:
    def test_single_lane_is_sequential_sum(self):
        vals = np.array([1, 2, 3, 4], dtype=np.float32)
        assert interleaved_sum(vals, 1) == np.float32(10)

    def test_lanes_partition_by_index(self):
        vals = np.array([1, 10, 2, 20], dtype=np.float32)
        # lane0: 1+2, lane1: 10+20, tree: 3+30.
        assert interleaved_sum(vals, 2) == np.float32(33)

    def test_more_lanes_than_values(self):
        vals = np.array([1, 2], dtype=np.float32)
        assert interleaved_sum(vals, 8) == np.float32(3)

    def test_batched(self):
        vals = np.arange(8, dtype=np.float32).reshape(2, 4)
        got = interleaved_sum(vals, 2)
        assert np.allclose(got, vals.sum(axis=-1))

    def test_invalid_lanes_rejected(self):
        with pytest.raises(ConfigurationError):
            interleaved_sum(np.ones(4, dtype=np.float32), 0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            interleaved_sum(np.zeros((0,), dtype=np.float32), 2)

    @settings(max_examples=50)
    @given(
        arrays(np.float32, st.integers(1, 64), elements=st.floats(-1e3, 1e3, width=32)),
        st.integers(1, 16),
    )
    def test_property_close_to_float64(self, vals, lanes):
        got = float(interleaved_sum(vals, lanes))
        exp = float(np.sum(vals, dtype=np.float64))
        assert got == pytest.approx(exp, abs=1e-2, rel=1e-4)


class TestLaneChainsBitExact:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bitwise_the_per_element_rotation(self, data):
        # Ragged n % lanes, lanes > n, lanes == 1, and one lane of one
        # sum (lead () or (1,)): the case numpy would add pairwise.
        lead = data.draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
        n = data.draw(st.integers(1, 70))
        lanes = data.draw(st.sampled_from([1, 2, 3, 12, 16, n + 5]))
        vals = data.draw(arrays(np.float32, lead + (n,), elements=SPECIAL_FLOATS))
        with np.errstate(all="ignore"):
            got = interleaved_sum(vals, lanes)
            want = lane_rotation(vals, lanes)
        assert got.shape == want.shape == lead
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("lead", [(), (1,), (1, 1)])
    def test_one_lane_one_sum_is_added_in_sequence(self, rng, lead):
        # 300 terms of mixed magnitude: a pairwise sum rounds differently.
        vals = (rng.standard_normal(lead + (300,)) * 10.0 ** rng.integers(
            -3, 4, lead + (300,))).astype(np.float32)
        want = lane_rotation(vals, 1)
        assert np.array_equal(bits(interleaved_sum(vals, 1)), bits(want))
        assert bits(want) != bits(vals.sum(dtype=np.float32))  # non-vacuous

    def test_first_term_is_added_to_a_zero(self):
        # 0 + -0.0 = +0.0: a lane never holds the -0.0 it was handed.
        vals = np.full((4, 5), -0.0, dtype=np.float32)
        for lanes in (1, 2, 5, 9):
            assert not np.signbit(interleaved_sum(vals, lanes)).any()


class TestModel:
    def test_single_accumulator_ii_is_add_latency(self):
        assert AccumulatorModel(64, 1).ii == 11

    def test_enough_lanes_reach_ii1(self):
        # Paper: "a higher number of accumulators than the single addition
        # latency" pipelines fully.
        assert AccumulatorModel(64, 11).ii == 1
        assert AccumulatorModel(64, 12).ii == 1

    def test_partial_unroll_intermediate_ii(self):
        assert AccumulatorModel(64, 4).ii == 3  # ceil(11/4)

    def test_latency_decreases_with_lanes(self):
        lat = [AccumulatorModel(64, l).total_latency for l in (1, 2, 4, 12)]
        assert lat == sorted(lat, reverse=True)

    def test_resource_increase_with_lanes(self):
        # The paper's trade-off: lower latency, higher resource utilization.
        assert (
            AccumulatorModel(64, 12).resources.dsp
            > AccumulatorModel(64, 1).resources.dsp
        )

    def test_speedup_vs_single(self):
        assert AccumulatorModel(900, 12).speedup_vs_single() > 5

    def test_invalid_terms_rejected(self):
        with pytest.raises(ConfigurationError):
            AccumulatorModel(0, 1)

    def test_fixed_point_has_no_issue(self):
        # Section IV-B: "the issue does not arise when using integer values".
        assert AccumulatorModel(64, 1, dtype="fixed16").ii == 1
