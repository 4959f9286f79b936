"""Unit + property tests for the tree adder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError
from repro.hls import AdderTreeModel, chain_reduce, tree_reduce
from tests.compiled.test_kernels_conv import bits


class TestFunctional:
    def test_single_element(self):
        assert tree_reduce(np.array([3.5], dtype=np.float32)) == np.float32(3.5)

    def test_pairwise_association(self):
        # ((a+b) + (c+d)) — not ((a+b)+c)+d.
        vals = np.array([1e8, 1.0, -1e8, 1.0], dtype=np.float32)
        got = tree_reduce(vals)
        exp = np.float32(np.float32(1e8 + 1.0) + np.float32(-1e8 + 1.0))
        assert got == exp

    def test_odd_count_carries_last(self):
        vals = np.array([1, 2, 3], dtype=np.float32)
        assert tree_reduce(vals) == np.float32(np.float32(1 + 2) + 3)

    def test_batched_last_axis(self):
        vals = np.arange(12, dtype=np.float32).reshape(3, 4)
        got = tree_reduce(vals)
        assert got.shape == (3,)
        assert np.allclose(got, vals.sum(axis=-1))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            tree_reduce(np.zeros((0,), dtype=np.float32))

    def test_chain_reduce_left_to_right(self):
        vals = np.array([1e8, 1.0, 1.0], dtype=np.float32)
        exp = np.float32(np.float32(1e8 + 1.0) + 1.0)
        assert chain_reduce(vals) == exp

    @settings(max_examples=50)
    @given(
        arrays(
            np.float32, st.integers(1, 40),
            elements=st.floats(-1e3, 1e3, width=32),
        )
    )
    def test_property_close_to_float64_sum(self, vals):
        got = float(tree_reduce(vals))
        exp = float(np.sum(vals, dtype=np.float64))
        assert got == pytest.approx(exp, abs=1e-2, rel=1e-4)

    @settings(max_examples=30)
    @given(
        arrays(
            np.float32, st.integers(1, 33),
            elements=st.floats(-100, 100, width=32),
        )
    )
    def test_property_permutation_of_pairs_exact_when_exactable(self, vals):
        # Tree reduce of all-equal values is exact regardless of shape.
        const = np.full_like(vals, 2.0)
        assert tree_reduce(const) == np.float32(2.0 * len(vals))


#: float32 draws that include what a carry or a zero pad could mishandle.
SPECIAL_FLOATS = st.one_of(
    st.floats(width=32),
    st.sampled_from([-0.0, 0.0, float("inf"), float("-inf"), float("nan")]),
)


class TestStackedLeadingAxis:
    """The conv core evaluates queued coordinates as one stacked block: the
    tree over ``(B, G, OUT_FM, K)`` must be the ``B`` per-item trees."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_stack_is_bitwise_the_per_item_calls(self, data):
        k = data.draw(st.sampled_from([3, 5, 6, 7, 9, 25, 27, 75]))  # no 2**n
        lead = data.draw(st.sampled_from([(2,), (4, 1), (3, 2, 2)]))
        stack = data.draw(arrays(np.float32, lead + (k,), elements=SPECIAL_FLOATS))
        with np.errstate(all="ignore"):
            got = tree_reduce(stack)
            want = np.stack([tree_reduce(item) for item in stack])
        assert got.shape == want.shape == lead
        assert np.array_equal(bits(got), bits(want))


class TestModel:
    def test_depth_levels(self):
        assert AdderTreeModel(150).depth_levels == 8

    def test_latency(self):
        assert AdderTreeModel(8).latency == 3 * 11

    def test_adder_count(self):
        assert AdderTreeModel(25).n_adders == 24

    def test_chain_latency_worse(self):
        m = AdderTreeModel(25)
        assert m.chain_latency == 24 * 11
        assert m.depth_advantage == (24 - 5) * 11

    def test_resources_scale_with_adders(self):
        assert AdderTreeModel(9).resources.dsp == 8 * 2

    def test_single_input_free(self):
        m = AdderTreeModel(1)
        assert m.latency == 0 and m.n_adders == 0

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            AdderTreeModel(0)

    def test_paper_motivation_depth_decreases(self):
        # Section IV-A: the tree "decreases the pipeline depth" vs a chain.
        for n in (4, 25, 150):
            m = AdderTreeModel(n)
            assert m.latency < m.chain_latency
