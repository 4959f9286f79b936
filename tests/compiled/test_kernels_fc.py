"""The compiled FC kernel against the actor's per-input recurrence, bit for bit.

``k_fc`` lays the multiply-accumulate terms out lane-major and blocks them
over outputs and images, but each accumulator lane must still add its
terms one after the other, starting from zero, and the lanes must still
meet in the actor's tree. The reference here is ``FCCoreActor._compute``
written out input by input.
"""

import numpy as np
import pytest

from repro.compiled import kernels
from repro.compiled.kernels import k_fc
from repro.config import DTYPE
from repro.core.fc_core import FCCoreActor
from repro.errors import CompilationError
from repro.hls.tree_adder import tree_reduce
from tests.compiled.test_kernels_conv import bits

OUT_FM = 7


def make_case(in_fm, lanes, batch, activation="tanh", seed=0):
    rng = np.random.default_rng(seed)
    weight = rng.standard_normal((OUT_FM, in_fm)).astype(DTYPE)
    weight[rng.random(weight.shape) < 0.1] = -0.0
    x = rng.standard_normal((batch, in_fm)).astype(DTYPE)
    x[rng.random(x.shape) < 0.1] = 0.0
    # Chain step 0 of every lane (inputs 0..lanes-1) sees the products a
    # zero-initialized accumulator must canonicalize: -0.0 * x, w * -0.0,
    # 0 * x — and output 0 sees nothing else on any step.
    x[:, 0:in_fm:3] = -0.0
    weight[1, 1:in_fm:3] = -0.0
    weight[0] = -0.0
    bias = rng.standard_normal(OUT_FM).astype(DTYPE)
    bias[0] = -0.0
    actor = FCCoreActor(
        "fc", weight, bias, acc_lanes=lanes, images=batch, activation=activation
    )
    return actor, x


def actor_formulation(actor, x):
    """``FCCoreActor._compute``, one input value at a time."""
    outs = []
    for image in x:
        partial = np.zeros((actor.out_fm, actor.acc_lanes), dtype=DTYPE)
        for i in range(actor.in_fm):
            lane = i % actor.acc_lanes
            partial[:, lane] = (
                partial[:, lane] + actor.weight[:, i] * DTYPE(image[i])
            ).astype(DTYPE)
        out = (tree_reduce(partial) + actor.bias).astype(DTYPE)
        outs.append(actor._act(out))
    return np.concatenate(outs)


def set_room(monkeypatch, actor, elems):
    """Budget for ``elems`` (image, output) pairs per term block."""
    steps = -(-actor.in_fm // actor.acc_lanes)
    monkeypatch.setattr(
        kernels, "_FC_BLOCK_BYTES", elems * steps * actor.acc_lanes * 4
    )


class TestFCKernel:
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("lanes", [1, 12, 16])
    @pytest.mark.parametrize("in_fm", [1, 5, 12, 29, 48, 100])
    def test_bit_equal_to_actor_recurrence(self, in_fm, lanes, batch):
        # in_fm below the lane count (idle lanes stay +0.0), a multiple of
        # it, and ragged (the last chain step reaches only some lanes).
        actor, x = make_case(in_fm, lanes, batch, seed=in_fm)
        want = actor_formulation(actor, x)
        got = k_fc(actor, {"in": x.reshape(-1)})["out"]
        assert got.dtype == DTYPE
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("activation", [None, "relu", "tanh"])
    @pytest.mark.parametrize(
        "elems,blocks",
        [(1, "7x1 outputs, 5x1 images"), (3, "3+3+1 outputs, 5x1 images"),
         (16, "7 outputs, 2+2+1 images"), (21, "7 outputs, 3+2 images"),
         (1 << 20, "one block")],
    )
    def test_ragged_output_and_image_blocks(
        self, monkeypatch, elems, blocks, activation
    ):
        actor, x = make_case(29, 12, 5, activation, seed=elems)
        want = actor_formulation(actor, x)
        set_room(monkeypatch, actor, elems)
        got = k_fc(actor, {"in": x.reshape(-1)})["out"]
        assert np.array_equal(bits(got), bits(want)), blocks

    @pytest.mark.parametrize("in_fm", [1, 7, 8, 29, 100, 1024])
    def test_a_one_element_block_is_still_a_sequential_chain(self, in_fm):
        # One lane, one image, one output: the term block is a single
        # column, which numpy's add.reduce would sum pairwise (8-way
        # unrolled from 8 terms on), not one term after the other.
        rng = np.random.default_rng(in_fm)
        weight = rng.standard_normal((1, in_fm)).astype(DTYPE)
        bias = rng.standard_normal(1).astype(DTYPE)
        x = rng.standard_normal((1, in_fm)).astype(DTYPE)
        x[0, 0] = -0.0
        actor = FCCoreActor("fc", weight, bias, acc_lanes=1, images=1)
        got = k_fc(actor, {"in": x.reshape(-1)})["out"]
        assert got.dtype == DTYPE
        assert np.array_equal(bits(got), bits(actor_formulation(actor, x)))

    @pytest.mark.parametrize("in_fm", [29, 100])
    @pytest.mark.parametrize(
        "elems,blocks",
        [(1, "7x1 outputs, 5x1 images"), (2, "2+2+2+1 outputs, 5x1 images"),
         (8, "7 outputs, 5x1 images"), (14, "7 outputs, 2+2+1 images")],
    )
    def test_one_lane_blocks_down_to_one_element(
        self, monkeypatch, in_fm, elems, blocks
    ):
        # With one lane a block of one (image, output) pair, whole or as
        # the ragged tail of 2-wide blocks, is a one-element row.
        actor, x = make_case(in_fm, 1, 5, seed=in_fm + elems)
        want = actor_formulation(actor, x)
        set_room(monkeypatch, actor, elems)
        got = k_fc(actor, {"in": x.reshape(-1)})["out"]
        assert np.array_equal(bits(got), bits(want)), blocks

    def test_budget_below_one_term_column_still_runs(self, monkeypatch):
        actor, x = make_case(29, 12, 2)
        monkeypatch.setattr(kernels, "_FC_BLOCK_BYTES", 1)
        got = k_fc(actor, {"in": x.reshape(-1)})["out"]
        assert np.array_equal(bits(got), bits(actor_formulation(actor, x)))

    @pytest.mark.parametrize("lanes", [1, 12, 16])
    def test_all_negative_zero_terms_give_a_positive_zero(self, lanes):
        # Positive inputs against output 0's -0.0 weights and -0.0 bias:
        # every term is -0.0, yet each lane's chain starts 0 + -0.0 = +0.0
        # and stays there, the tree of +0.0 is +0.0, and +0.0 + -0.0 =
        # +0.0. A chain seeded with its first term would end in -0.0
        # (through a 1- or 16-lane tree, which carries nothing, unchanged).
        actor, x = make_case(48, lanes, 3, activation=None)
        x = np.abs(x) + DTYPE(1)
        got = k_fc(actor, {"in": x.reshape(-1)})["out"]
        assert np.array_equal(bits(got[::OUT_FM]), np.zeros(3, np.uint32))
        assert np.array_equal(bits(got), bits(actor_formulation(actor, x)))

    def test_inputs_are_not_modified(self):
        actor, x = make_case(29, 12, 3)
        stream, weight = x.reshape(-1).copy(), actor.weight.copy()
        k_fc(actor, {"in": stream})
        assert np.array_equal(bits(stream), bits(x.reshape(-1)))
        assert np.array_equal(bits(actor.weight), bits(weight))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_length_stream_is_a_compilation_error(self, delta):
        actor, x = make_case(29, 12, 3)
        with pytest.raises(CompilationError, match="'fc'"):
            k_fc(actor, {"in": np.resize(x, x.size + delta)})
