"""The compiled FC kernel against the actor's per-input recurrence, bit for bit.

``k_fc`` runs in C (``fc_chains`` in ``repro/compiled/cores.c``): per
image and group of 4 output rows it reads each weight row in place, runs
the accumulator lanes' sequential chains side by side in 16-lane vectors,
and meets them in the unpadded lane tree before the bias. It may reorder
memory but not a single float32 operation. The reference is
``FCCoreActor._compute`` written out input by input, compared by
``bits``, which counts every NaN as one (DESIGN.md section 12).
"""

import threading

import numpy as np
import pytest

from repro.compiled.kernels import k_fc
from repro.config import DTYPE
from repro.core.fc_core import FCCoreActor
from repro.errors import CompilationError
from repro.hls.tree_adder import tree_reduce
from tests.compiled.test_kernels_conv import SPECIALS, bits

OUT_FM = 7


def make_case(in_fm, lanes, batch, activation="tanh", seed=0, out_fm=OUT_FM):
    rng = np.random.default_rng(seed)
    weight = rng.standard_normal((out_fm, in_fm)).astype(DTYPE)
    weight[rng.random(weight.shape) < 0.1] = -0.0
    x = rng.standard_normal((batch, in_fm)).astype(DTYPE)
    x[rng.random(x.shape) < 0.1] = 0.0
    # Chain step 0 of every lane (inputs 0..lanes-1) sees the products a
    # zero-initialized accumulator must canonicalize: -0.0 * x, w * -0.0,
    # 0 * x — and output 0 sees nothing else on any step.
    x[:, 0:in_fm:3] = -0.0
    weight[1 % out_fm, 1:in_fm:3] = -0.0
    weight[0] = -0.0
    bias = rng.standard_normal(out_fm).astype(DTYPE)
    bias[0] = -0.0
    actor = FCCoreActor(
        "fc", weight, bias, acc_lanes=lanes, images=batch, activation=activation
    )
    return actor, x


#: Output rows per pass of ``actor_formulation``'s transposed weights.
ROW_BLOCK = 512


def actor_formulation(actor, x):
    """``FCCoreActor._compute``, one input value at a time.

    Every output row's lanes are independent, so a wide layer is written
    out a block of rows at a time, over a transposed copy of the block.
    """
    outs = []
    for image in x:
        out = np.empty(actor.out_fm, dtype=DTYPE)
        for o0 in range(0, actor.out_fm, ROW_BLOCK):
            w_t = actor.weight[o0 : o0 + ROW_BLOCK].T.copy()
            partial = np.zeros((len(w_t[0]), actor.acc_lanes), dtype=DTYPE)
            for i in range(actor.in_fm):
                lane = i % actor.acc_lanes
                partial[:, lane] = (
                    partial[:, lane] + w_t[i] * DTYPE(image[i])
                ).astype(DTYPE)
            out[o0 : o0 + ROW_BLOCK] = tree_reduce(partial)
        outs.append(actor._act((out + actor.bias).astype(DTYPE)))
    return np.concatenate(outs)


def assert_bit_equal(actor, x, want=None):
    got = k_fc(actor, {"in": x.reshape(-1)})["out"]
    assert got.dtype == DTYPE
    if want is None:
        want = actor_formulation(actor, x)
    assert np.array_equal(bits(got), bits(want))
    return got


class TestFCKernel:
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("lanes", [1, 12, 16, 17, 33])
    @pytest.mark.parametrize("in_fm", [1, 5, 12, 29, 48, 100])
    def test_bit_equal_to_actor_recurrence(self, in_fm, lanes, batch):
        # in_fm below the lane count (idle lanes stay +0.0), a multiple of
        # it, and ragged (the last chain step reaches only some lanes);
        # more than 16 lanes take two or three vectors per row.
        actor, x = make_case(in_fm, lanes, batch, seed=in_fm)
        assert_bit_equal(actor, x)

    @pytest.mark.parametrize("batch", [1, 15, 16, 17, 64])
    def test_batch_sizes(self, batch):
        actor, x = make_case(100, 12, batch, seed=batch)
        assert_bit_equal(actor, x)

    @pytest.mark.parametrize("out_fm", range(1, 10))
    def test_ragged_row_groups(self, out_fm):
        # 4 rows per pass: 1-3 rows are one short group, 5-7 a full one
        # and a short one (the missing rows repeat the last), 8 two full.
        actor, x = make_case(29, 12, 3, seed=out_fm, out_fm=out_fm)
        assert_bit_equal(actor, x)

    @pytest.mark.parametrize("layout", ["fortran", "column-strided"])
    def test_non_contiguous_weight(self, layout):
        actor, x = make_case(29, 12, 3, seed=7, out_fm=9)
        weight = actor.weight
        if layout == "fortran":
            weight = np.asfortranarray(weight)
        else:
            wide = np.zeros((9, 58), dtype=DTYPE)
            wide[:, ::2] = weight
            weight = wide[:, ::2]
        assert not weight.flags.c_contiguous
        strided = FCCoreActor(
            "fc", weight, actor.bias, acc_lanes=12, images=3, activation="tanh"
        )
        assert_bit_equal(strided, x, actor_formulation(actor, x))

    @pytest.mark.parametrize(
        "in_fm,out_fm,batch,activation",
        [(900, 64, 64, "tanh"),  # TC2 fc1
         (9216, 4096, 1, "relu"),  # AlexNet fc6
         (4096, 4096, 1, "relu"),  # AlexNet fc7
         (4096, 1000, 1, None)],  # AlexNet fc8
        ids=["tc2-fc1", "alexnet-fc6", "alexnet-fc7", "alexnet-fc8"],
    )
    def test_zoo_shapes(self, in_fm, out_fm, batch, activation):
        rng = np.random.default_rng(in_fm + out_fm)
        weight = rng.standard_normal((out_fm, in_fm), dtype=DTYPE)
        weight *= DTYPE(1 / np.sqrt(in_fm))
        bias = rng.standard_normal(out_fm, dtype=DTYPE)
        x = rng.standard_normal((batch, in_fm), dtype=DTYPE)
        actor = FCCoreActor(
            "fc", weight, bias, acc_lanes=12, images=batch,
            activation=activation,
        )
        assert_bit_equal(actor, x)

    @pytest.mark.parametrize("in_fm", [1, 7, 8, 29, 100, 1024])
    def test_a_one_element_block_is_still_a_sequential_chain(self, in_fm):
        # One lane, one image, one output: a single chain in one vector
        # lane, added one term after the other (numpy's reduce over a
        # one-element row would have summed it pairwise).
        rng = np.random.default_rng(in_fm)
        weight = rng.standard_normal((1, in_fm)).astype(DTYPE)
        bias = rng.standard_normal(1).astype(DTYPE)
        x = rng.standard_normal((1, in_fm)).astype(DTYPE)
        x[0, 0] = -0.0
        actor = FCCoreActor("fc", weight, bias, acc_lanes=1, images=1)
        assert_bit_equal(actor, x)

    @pytest.mark.parametrize("lanes", [1, 12, 16])
    def test_all_negative_zero_terms_give_a_positive_zero(self, lanes):
        # Positive inputs against output 0's -0.0 weights and -0.0 bias:
        # every term is -0.0, yet each lane's chain starts 0 + -0.0 = +0.0
        # and stays there, the tree of +0.0 is +0.0, and +0.0 + -0.0 =
        # +0.0. A chain seeded with its first term would end in -0.0
        # (through a 1- or 16-lane tree, which carries nothing, unchanged).
        actor, x = make_case(48, lanes, 3, activation=None)
        x = np.abs(x) + DTYPE(1)
        got = assert_bit_equal(actor, x)
        assert np.array_equal(bits(got[::OUT_FM]), np.zeros(3, np.uint32))

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


class TestFCSpecialValues:
    """``±0.0``, ``±1e-45``, ``1e-39``, ``±inf`` and both NaN payloads in
    the weights, the inputs and the bias, against the actor's per-input
    recurrence. (The test keeps the name its ids were recorded under.)"""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("lanes", [1, 5, 12, 16, 20])
    def test_bit_equal_to_scalar_recurrence(self, lanes, seed):
        rng = np.random.default_rng(seed)
        actor, x = make_case(40, lanes, 3, None, seed=seed, out_fm=9)
        for arr in (actor.weight, x, actor.bias):
            hit = rng.random(arr.shape) < 0.08
            arr[hit] = rng.choice(SPECIALS, int(hit.sum()))
        with np.errstate(invalid="ignore"):
            assert_bit_equal(actor, x)


def test_two_threads_at_once():
    # The C kernel runs without the GIL, from any number of threads.
    cases = [make_case(900, 12, 16, seed=s, out_fm=64) for s in (1, 2)]
    want = [k_fc(actor, {"in": x.reshape(-1)})["out"] for actor, x in cases]
    got = [None, None]
    start = threading.Barrier(2)

    def run(i):
        actor, x = cases[i]
        start.wait()
        got[i] = [k_fc(actor, {"in": x.reshape(-1)})["out"] for _ in range(5)]

    threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    for i in (0, 1):
        for out in got[i]:
            assert np.array_equal(bits(out), bits(want[i]))
