"""The compiled conv kernel against the actor's own arithmetic, bit for bit.

``k_conv`` reorders memory (lanes minor, blocked slabs, an unpadded
in-place product tree) but may not reorder a single float32 operation.
These tests pin that down below the engine level: the tree helper
against :func:`repro.hls.tree_adder.tree_reduce` on adversarial values,
and the kernel against the per-coordinate formulation of
``ConvCoreActor._compute`` over a port/kernel/blocking grid.
"""

import numpy as np
import pytest

from repro.compiled import kernels
from repro.compiled.kernels import _tree_reduce_pingpong, k_conv
from repro.config import DTYPE
from repro.core.compute_core import ConvCoreActor
from repro.errors import CompilationError
from repro.hls.tree_adder import tree_reduce


def bits(arr):
    return np.ascontiguousarray(arr, dtype=DTYPE).view(np.uint32)


def carried_rows(n):
    """Rows the unpadded tree carries (``row + 0.0``) at some level."""
    rows, width, level = [], n, 0
    while width > 1:
        if width & 1:
            rows.append((width - 1) << level)
        width = (width + 1) >> 1
        level += 1
    return rows


class TestTreeReducePingpong:
    @pytest.mark.parametrize("n", range(1, 131))
    def test_bit_equal_to_tree_reduce(self, n):
        rng = np.random.default_rng(n)
        cols = 24
        arr = rng.standard_normal((n, cols)).astype(DTYPE)
        # Values a carry could mishandle, placed where carries happen
        # (the first row of a carried subtree; row n-1 for odd n) and
        # in their neighbours, one kind per column.
        specials = np.array(
            [-0.0, 0.0, 1e-45, -1e-45, 1e-39, np.inf, -np.inf, np.nan],
            dtype=DTYPE,
        )
        for row in set(carried_rows(n)) | {0, n - 1}:
            arr[row, : len(specials)] = specials
            arr[row - 1, len(specials) : 2 * len(specials)] = specials
        arr[:, -1] = -0.0  # a whole column of negative zeros
        want = tree_reduce(arr.T)
        slab = arr.copy()
        scratch = np.empty(((n + 1) // 2, cols), dtype=DTYPE)
        got = _tree_reduce_pingpong(slab, scratch)
        assert got.dtype == DTYPE
        assert np.array_equal(bits(got), bits(want))

    def test_negative_zero_is_canonicalized_only_by_a_carry(self):
        neg = np.full((3, 1), -0.0, dtype=DTYPE)
        # n = 3: (-0 + -0) + (-0 + 0.0) = -0 + 0 = +0
        out = _tree_reduce_pingpong(neg.copy(), np.empty((2, 1), DTYPE))
        assert bits(out)[0] == 0
        # n = 2: no carry, -0 + -0 stays -0; n = 1: returned untouched
        out = _tree_reduce_pingpong(neg[:2].copy(), np.empty((1, 1), DTYPE))
        assert bits(out)[0] == 0x80000000
        out = _tree_reduce_pingpong(neg[:1].copy(), np.empty((1, 1), DTYPE))
        assert bits(out)[0] == 0x80000000


def make_case(in_ports, out_ports, k, n_lanes, activation, seed=0):
    rng = np.random.default_rng(seed)
    groups, out_fm = 2, 6
    in_fm = in_ports * groups
    weight = rng.standard_normal((out_fm, in_fm, k, k)).astype(DTYPE)
    weight[rng.random(weight.shape) < 0.05] = -0.0
    bias = rng.standard_normal(out_fm).astype(DTYPE)
    images = 2 if n_lanes % 2 == 0 else 1
    actor = ConvCoreActor(
        "core", weight, bias, in_ports, out_ports,
        n_coords=n_lanes // images, images=images, activation=activation,
    )
    ins = {}
    for p in range(in_ports):
        wins = rng.standard_normal((n_lanes * groups, k, k)).astype(DTYPE)
        wins[rng.random(wins.shape) < 0.05] = 0.0
        ins[f"in{p}"] = wins
    return actor, ins


def actor_formulation(actor, ins):
    """``ConvCoreActor._compute``/``_emit``, one coordinate at a time."""
    n_lanes = actor.images * actor.n_coords
    groups = actor.in_groups
    outs = [[] for _ in range(actor.out_ports)]
    for i in range(n_lanes):
        wins = np.stack([
            np.concatenate([
                ins[f"in{p}"][i * groups + g].ravel()
                for p in range(actor.in_ports)
            ])
            for g in range(groups)
        ])[:, None, :]
        trees = tree_reduce(actor._w_all * wins)
        acc = actor.bias
        for g in range(groups):
            acc = acc + trees[g]
        acc = actor._act(acc)
        for p in range(actor.out_ports):
            outs[p].append(acc[p :: actor.out_ports])
    return {f"out{p}": np.concatenate(o) for p, o in enumerate(outs)}


#: Tree rows of 150 lanes: the lane chunk is 144 (whole cache lines), and
#: a chunk of 36 lanes gets an output block of 4 of the 6 output maps.
ROW = 150


class TestConvKernelBlocking:
    @pytest.mark.parametrize("n_lanes", [36, 144, 324])
    @pytest.mark.parametrize("k", [1, 3, 5, 6, 11])
    @pytest.mark.parametrize(
        "out_ports,activation", [(1, None), (2, "relu"), (3, "tanh")]
    )
    @pytest.mark.parametrize("in_ports", [1, 2, 4])
    def test_bit_equal_to_actor_formulation(
        self, monkeypatch, in_ports, out_ports, activation, k, n_lanes
    ):
        # K = in_ports*k*k covers 1, 9, 25, 36, 121 and their multiples;
        # 36 lanes sit below the chunk, 144 equal it, 324 = 144+144+36.
        monkeypatch.setattr(
            kernels, "_CONV_BLOCK_BYTES", ROW * in_ports * k * k * 4
        )
        actor, ins = make_case(in_ports, out_ports, k, n_lanes, activation)
        want = actor_formulation(actor, ins)
        got = k_conv(actor, ins)
        assert sorted(got) == sorted(want)
        for port, arr in want.items():
            assert got[port].dtype == DTYPE
            assert np.array_equal(bits(got[port]), bits(arr)), port

    @pytest.mark.parametrize("block_bytes", [1, 64, 1 << 12, 1 << 19, 1 << 24])
    def test_blocking_is_bit_neutral(self, monkeypatch, block_bytes):
        actor, ins = make_case(2, 2, 3, 330, "tanh", seed=3)
        want = k_conv(actor, ins)
        monkeypatch.setattr(kernels, "_CONV_BLOCK_BYTES", block_bytes)
        got = k_conv(actor, ins)
        for port, arr in want.items():
            assert np.array_equal(bits(got[port]), bits(arr)), port

    def test_inputs_are_not_modified(self):
        actor, ins = make_case(2, 1, 3, 40, "relu")
        before = {port: arr.copy() for port, arr in ins.items()}
        k_conv(actor, ins)
        for port, arr in before.items():
            assert np.array_equal(bits(ins[port]), bits(arr))

    @pytest.mark.parametrize("port", ["in0", "in1"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_length_stream_is_a_compilation_error(self, port, delta):
        actor, ins = make_case(2, 1, 3, 40, None)
        n = len(ins[port]) + delta
        ins[port] = np.resize(ins[port], (n, 3, 3))
        with pytest.raises(CompilationError, match=port):
            k_conv(actor, ins)
