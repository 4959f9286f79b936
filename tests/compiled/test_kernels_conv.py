"""The compiled conv kernel against the actor's own arithmetic, bit for bit.

``k_conv`` runs the product tree in C (``conv_tree`` in
``repro/compiled/cores.c``): 16-lane tiles, either 16 images at one
coordinate read in place from an image-minor copy (whole blocks of 16
images) or 16 consecutive coordinates gathered straight from the window
views (the rest); every output map's products, the unpadded tree and the
bias-first group chain in one pass, blocks of maps side by side. It may
reorder memory but not a single float32 operation. These tests pin that
down below the engine level: the unpadded tree, as ``k_fc``'s lane tree,
against :func:`repro.hls.tree_adder.tree_reduce` on adversarial values,
and the conv kernel against the per-coordinate formulation of
``ConvCoreActor._compute`` over a port/kernel/tiling/map-block grid, both
walks, special values and the largest zoo shapes — every case fed both
the ``k_window`` views and the gathered ``(n, kh, kw)`` beat stacks of
the same pixels. ``TestOverRead`` runs both walks up to a guard page, and
``TestOutputAllocation`` checks that ``k_conv`` and ``k_fc`` apply the
activation in place.
"""

import ctypes
import mmap
import os
import re
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.compiled import native
from repro.compiled.kernels import _beats, k_conv, k_fc, k_pool, k_window
from repro.config import DTYPE
from repro.core.compute_core import ConvCoreActor
from repro.core.fc_core import FCCoreActor
from repro.core.pool_core import PoolCoreActor
from repro.errors import CompilationError
from repro.hls.tree_adder import tree_reduce
from repro.sst import SlidingWindowActor, WindowSpec


def bits(arr):
    """float32 bit patterns with every NaN as ``np.nan``'s, the rule
    :func:`repro.dataflow.stable_digest` compares outputs by."""
    arr = np.ascontiguousarray(arr, dtype=DTYPE)
    return np.where(np.isnan(arr), DTYPE(np.nan), arr).view(np.uint32)


ROOT = Path(__file__).resolve().parents[2]

#: Output maps whose trees ``conv_tree`` runs side by side (``MAPS`` in
#: ``cores.c``).
MAPS = int(re.search(r"#define MAPS (\d+)", native.SOURCE.read_text())[1])

#: The quiet NaN ``np.nan`` and the default NaN ``inf - inf`` makes: the
#: two payloads (they differ in the sign bit) a run can hold.
NAN, DEFAULT_NAN = np.array([0x7FC00000, 0xFFC00000], np.uint32).view(DTYPE)
SPECIALS = np.array(
    [-0.0, 0.0, 1e-45, -1e-45, 1e-39, np.inf, -np.inf, NAN, DEFAULT_NAN],
    dtype=DTYPE,
)


def carried_rows(n):
    """Rows the unpadded tree carries (``row + 0.0``) at some level."""
    rows, width, level = [], n, 0
    while width > 1:
        if width & 1:
            rows.append((width - 1) << level)
        width = (width + 1) >> 1
        level += 1
    return rows


def special_rows(n, cols=24):
    """``(n, cols)`` normals with the values a carry could mishandle
    placed where carries happen (the first row of a carried subtree; row
    ``n - 1`` for odd ``n``) and in their neighbours, one kind per column,
    plus a whole column of negative zeros."""
    arr = np.random.default_rng(n).standard_normal((n, cols)).astype(DTYPE)
    specials = np.array(
        [-0.0, 0.0, 1e-45, -1e-45, 1e-39, np.inf, -np.inf, np.nan],
        dtype=DTYPE,
    )
    for row in set(carried_rows(n)) | {0, n - 1}:
        arr[row, : len(specials)] = specials
        arr[row - 1, len(specials) : 2 * len(specials)] = specials
    arr[:, -1] = -0.0
    return arr


def lane_tree(arr):
    """``k_fc``'s lane tree over the rows of ``arr``, one column an output.

    With ``in_fm = acc_lanes`` and every input 1, each lane holds one
    term, so lane ``l``'s partial sum is ``0 + w[o, l]``; a ``-0.0`` bias
    then leaves the tree's bits as they are (``t + -0.0`` is ``t``).
    """
    n, cols = arr.shape
    actor = FCCoreActor(
        "fc", arr.T.copy(), np.full(cols, -0.0, dtype=DTYPE), acc_lanes=n
    )
    return k_fc(actor, {"in": np.ones(n, dtype=DTYPE)})["out"]


class TestTreeReducePingpong:
    """The unpadded, carry-once tree both C kernels share, mostly as
    ``k_fc``'s lane tree. (The class keeps the name its test ids were
    recorded under; the ping-pong tree it first covered, and the numpy
    tree after it, are gone.)"""

    @pytest.mark.parametrize("n", range(1, 131))
    def test_bit_equal_to_tree_reduce(self, n):
        arr = special_rows(n)
        got = lane_tree(arr)
        assert got.dtype == DTYPE
        assert np.array_equal(bits(got), bits(tree_reduce(DTYPE(0) + arr.T)))

    def test_negative_zero_is_canonicalized_only_by_a_carry(self):
        # A lane partial is never -0.0, so this is the conv tree: K = 3
        # -0.0 products give (-0 + -0) + (-0 + 0.0) = +0; K = 2 adds no
        # carry, -0 + -0 = -0; K = 1 is the product itself. The -0.0 bias
        # shows the tree's sign.
        for in_ports, want in ((3, 0), (2, 0x80000000), (1, 0x80000000)):
            actor, views, _ = make_case(in_ports, 1, 1, 16, None)
            actor = ConvCoreActor(
                "core", np.full_like(actor.weight, -0.0),
                np.full_like(actor.bias, -0.0), in_ports, 1,
                n_coords=actor.n_coords, images=actor.images,
            )
            views = {p: np.abs(v) for p, v in views.items()}
            assert set(bits(k_conv(actor, views)["out0"])) == {want}

    @pytest.mark.parametrize("last", [-0.0, 0.0, -1e-45, np.nan, 1.5])
    def test_row_carried_once_survives_three_more_odd_levels(self, last):
        # 25 lanes: 25 -> 13 -> 7 -> 4. Lane 24 is the odd last node of the
        # first three levels; it is carried (+ 0.0) at the first only, and
        # the padded tree's two further + 0.0 change no bit of it.
        arr = special_rows(25)
        arr[24] = last
        arr[24, 0] = -0.0
        got = lane_tree(arr)
        assert np.array_equal(bits(got), bits(tree_reduce(DTYPE(0) + arr.T)))


def grid_shape(n_coords):
    """``(oh, ow)`` with ``oh * ow == n_coords``, as square as it divides."""
    oh = max(d for d in range(1, int(n_coords ** 0.5) + 1) if n_coords % d == 0)
    return oh, n_coords // oh


def sprinkle(rng, arr, share):
    """Overwrite about ``share`` of ``arr`` with :data:`SPECIALS`."""
    hit = rng.random(arr.shape) < share
    arr[hit] = rng.choice(SPECIALS, int(hit.sum()))


def make_case(in_ports, out_ports, k, n_lanes, activation, seed=0, images=None,
              groups=2, out_fm=6, special=None, stride=1, pad=0, place=None):
    """A conv core plus the same windows in both stream representations.

    Returns ``(actor, views, beats)``: per in-port the ``k_window`` view
    of seeded pixels (zero-copy unless padded) and its gathered
    ``(n, k, k)`` beat stack. ``special`` (a dict of share per
    ``"pixels"``, ``"weights"``, ``"bias"``) sprinkles :data:`SPECIALS`
    over them; ``place`` (pixels -> an array of the same values) decides
    where the pixel stream lives.
    """
    special = special or {}
    rng = np.random.default_rng(seed)
    in_fm = in_ports * groups
    weight = rng.standard_normal((out_fm, in_fm, k, k)).astype(DTYPE)
    weight[rng.random(weight.shape) < 0.05] = -0.0
    sprinkle(rng, weight, special.get("weights", 0))
    bias = rng.standard_normal(out_fm).astype(DTYPE)
    sprinkle(rng, bias, special.get("bias", 0))
    if images is None:
        images = 2 if n_lanes % 2 == 0 else 1
    oh, ow = grid_shape(n_lanes // images)
    h, w = (oh - 1) * stride + k - 2 * pad, (ow - 1) * stride + k - 2 * pad
    actor = ConvCoreActor(
        "core", weight, bias, in_ports, out_ports,
        n_coords=oh * ow, images=images, activation=activation,
    )
    views, beats = {}, {}
    for p in range(in_ports):
        px = rng.standard_normal(images * h * w * groups).astype(DTYPE)
        px[rng.random(px.shape) < 0.05] = 0.0
        sprinkle(rng, px, special.get("pixels", 0))
        if place is not None:
            px = place(px)
        win = SlidingWindowActor(
            f"win{p}", WindowSpec(k, k, stride, pad), h, w, group=groups,
            images=images,
        )
        views[f"in{p}"] = k_window(win, {"in": px})["out"]
        beats[f"in{p}"] = _beats(views[f"in{p}"])
        assert views[f"in{p}"].shape == (images, oh, ow, groups, k, k)
        assert beats[f"in{p}"].shape == (n_lanes * groups, k, k)
    return actor, views, beats


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


def assert_both_forms_bit_equal(actor, views, beats, want=None):
    """``k_conv`` on the views and on the beat stacks against ``want``
    (default: the actor formulation)."""
    if want is None:
        want = actor_formulation(actor, beats)
    for form, ins in (("view", views), ("beats", beats)):
        got = k_conv(actor, ins)
        assert sorted(got) == sorted(want), form
        for port, arr in want.items():
            assert got[port].dtype == DTYPE
            assert np.array_equal(bits(got[port]), bits(arr)), (form, port)
    return want


class TestConvKernelBlocking:
    """Calls of fewer than 16 images, as here, take the coordinate walk
    throughout: lanes go through the kernel in tiles of 16 consecutive
    coordinates that cross output rows and images wherever those end, and
    the last tile of a call may be partial. (:class:`TestConvImageWalk`
    covers 16 images or more.)"""

    @pytest.mark.parametrize("n_lanes", [36, 144, 324])
    @pytest.mark.parametrize("k", [1, 3, 5, 6, 11])
    @pytest.mark.parametrize(
        "out_ports,activation", [(1, None), (2, "relu"), (3, "tanh")]
    )
    @pytest.mark.parametrize("in_ports", [1, 2, 4])
    def test_bit_equal_to_actor_formulation(
        self, in_ports, out_ports, activation, k, n_lanes
    ):
        # K = in_ports*k*k covers 1, 9, 25, 36, 121 and their multiples:
        # whole 8-leaf blocks only, a partial block only, and both. Two
        # images of 18 / 72 / 162 coordinates: tiles straddle the images,
        # and 36 = 16 + 16 + 4, 324 = 20 * 16 + 4 end on a partial tile.
        actor, views, beats = make_case(in_ports, out_ports, k, n_lanes, activation)
        assert_both_forms_bit_equal(actor, views, beats)

    def test_ragged_last_image_block(self):
        # 5 images of 4x5 coordinates: 100 lanes, tiles across images, a
        # last tile of 4.
        actor, views, beats = make_case(2, 2, 3, 100, "relu", seed=5, images=5)
        assert_both_forms_bit_equal(actor, views, beats)

    def test_row_blocks_when_one_image_exceeds_the_budget(self):
        # 3 images of 7x11 = 77 coordinates: rows of 11, so every tile
        # holds the end of one row and the start of the next.
        actor, views, beats = make_case(2, 1, 3, 231, "tanh", seed=6, images=3)
        assert views["in0"].shape[:3] == (3, 7, 11)
        assert_both_forms_bit_equal(actor, views, beats)

    @pytest.mark.parametrize("n_coords", [1, 6, 15, 16])
    def test_blocks_of_at_most_sixteen_lanes(self, n_coords):
        # Images of <= 16 coordinates: one tile holds several whole images
        # (1, 6, 15) or exactly one (16).
        actor, views, beats = make_case(
            1, 3, 3, 3 * n_coords, None, seed=n_coords, images=3
        )
        assert_both_forms_bit_equal(actor, views, beats)

    def test_row_wider_than_the_budget_is_one_block(self):
        # 1x40 coordinates per image: tiles of 16, 16, then 8 + 8 across
        # the two images.
        actor, views, beats = make_case(1, 1, 3, 80, "relu", seed=8)
        views = {"in0": views["in0"].reshape(2, 1, 40, 2, 3, 3)}
        assert_both_forms_bit_equal(actor, views, beats)

    def test_inputs_are_not_modified(self):
        actor, views, beats = make_case(2, 1, 3, 40, "relu")
        for ins in (views, beats):
            before = {port: arr.copy() for port, arr in ins.items()}
            k_conv(actor, ins)
            for port, arr in before.items():
                assert np.array_equal(bits(ins[port]), bits(arr))
        assert not any(v.flags.writeable for v in views.values())

    @pytest.mark.parametrize("port", ["in0", "in1"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_length_stream_is_a_compilation_error(self, port, delta):
        actor, _, beats = make_case(2, 1, 3, 40, None)
        n = len(beats[port]) + delta
        beats[port] = np.resize(beats[port], (n, 3, 3))
        with pytest.raises(CompilationError, match=port):
            k_conv(actor, beats)

    @pytest.mark.parametrize("port", ["in0", "in1"])
    @pytest.mark.parametrize(
        "crop", [np.s_[:1], np.s_[:, :-1], np.s_[:, :, 1:], np.s_[:, :, :, :1]],
        ids=["image", "row", "column", "group"],
    )
    def test_wrong_length_view_is_a_compilation_error(self, port, crop):
        actor, views, _ = make_case(2, 1, 3, 40, None)
        views[port] = views[port][crop]
        with pytest.raises(CompilationError, match=port):
            k_conv(actor, views)

    def test_ports_must_share_one_geometry(self):
        # Same beat count, different (images, rows, cols): one lane index
        # could not address both ports.
        actor, views, beats = make_case(2, 1, 3, 40, None)
        views["in1"] = beats["in1"]
        with pytest.raises(CompilationError, match="in1"):
            k_conv(actor, views)


def slab_views(views, beats):
    """The windows of ``views`` re-cut from per-image slabs of 40 pixel
    rows, of which the windows cover the top ones: the image stride is
    the views' largest by far, and every row no window covers is NaN."""
    out = {}
    for port, view in views.items():
        images, oh, ow, groups, k, _ = view.shape
        slab = np.full((images, 40, ow + k - 1, groups), np.nan, DTYPE)
        wins = beats[port].reshape(view.shape)
        for ky in range(k):
            for kx in range(k):
                slab[:, ky : ky + oh, kx : kx + ow] = wins[..., ky, kx]
        out[port] = sliding_window_view(
            slab[:, : oh + k - 1], (k, k), axis=(1, 2)
        )
        assert out[port].strides[0] == max(out[port].strides)
        assert out[port].strides[0] > 10 * out[port].strides[1]
    return out


class TestConvKernelMapBlocks:
    """Output maps go through the kernel in blocks of :data:`MAPS` that
    share each window vector; the last block of a layer may be short, and
    the tree widths and view strides around it must not matter."""

    @pytest.mark.parametrize("out_fm", range(1, 2 * MAPS + 2))
    def test_every_remainder_of_the_map_block(self, out_fm):
        # K = 18: two 8-leaf blocks and a partial one; two groups, so the
        # chain adds a second tree to every map of the block.
        actor, views, beats = make_case(
            2, 1, 3, 40, "tanh", seed=out_fm, out_fm=out_fm
        )
        assert_both_forms_bit_equal(actor, views, beats)

    @pytest.mark.parametrize(
        "in_ports,k", [(1, 1), (8, 1), (1, 3)], ids=["K1", "K8", "K9"]
    )
    def test_tree_widths_around_one_leaf_block(self, in_ports, k):
        # One group: a one-leaf tree, one whole block of 8, and a block
        # plus one leaf carried up to it, each over 2 blocks of maps + 1.
        actor, views, beats = make_case(
            in_ports, 1, k, 40, "relu", seed=k, groups=1, out_fm=2 * MAPS + 1
        )
        assert actor._w_all.shape[::2] == (1, in_ports * k * k)
        assert_both_forms_bit_equal(actor, views, beats)

    @pytest.mark.parametrize("in_ports,k", [(8, 1), (5, 1), (1, 3), (6, 2)])
    def test_negative_zero_carry_in_every_map_of_the_block(self, in_ports, k):
        # TestConvSpecialValues' all -0.0 products over 2 blocks of maps
        # + 1: K = 8 carries nothing and stays -0.0; K = 5 carries inside
        # the partial block, 9 on its way up to the block level, 24 among
        # the block sums, each in every map of every block, to +0.0.
        actor, views, beats = make_case(
            in_ports, 1, k, 40, None, out_fm=2 * MAPS + 1
        )
        actor = ConvCoreActor(
            "core", np.full_like(actor.weight, -0.0), np.full_like(actor.bias, -0.0),
            in_ports, 1, n_coords=actor.n_coords, images=actor.images,
        )
        views = {p: np.abs(v) for p, v in views.items()}
        beats = {p: np.abs(b) for p, b in beats.items()}
        want = assert_both_forms_bit_equal(actor, views, beats)
        n = in_ports * k * k
        assert set(bits(want["out0"])) == {0x80000000 if n == 8 else 0}

    def test_image_stride_is_the_largest_stride(self):
        # 8 images of 1x5 coordinates, each the top 3 pixel rows of a slab
        # of 40: tiles of 16 lanes cross up to four images, and the lanes'
        # offsets from a tile's first lane jump by whole slabs. The rows
        # no window covers are NaN, so a stray read shows.
        actor, views, beats = make_case(2, 1, 3, 40, "relu", images=8)
        assert_both_forms_bit_equal(actor, slab_views(views, beats), beats)


class TestConvKernelLaneCounts:
    """Lane counts around a whole number of tiles, and the tails of TC2's
    two conv layers at batch 10 and 64, at their real shapes."""

    @pytest.mark.parametrize("n_lanes", [4095, 4096, 4097])
    def test_lane_rows_around_the_buffer_threshold(self, n_lanes):
        # One image of 63x65 / 64x64 / 17x241 coordinates, K = 25: a last
        # tile of 15 lanes, none, and 1. (The ids keep the name of the
        # numpy buffer size these counts used to straddle.)
        actor, views, beats = make_case(1, 2, 5, n_lanes, "relu", seed=n_lanes)
        assert_both_forms_bit_equal(actor, views, beats)

    @pytest.mark.parametrize(
        "images,n_coords",
        [(64, 100), (10, 784)],  # TC2 conv2 at batch 64, conv1 at 10
        ids=["conv2-tail", "conv1-tail"],
    )
    def test_short_tail_block(self, images, n_coords):
        actor, views, beats = make_case(
            1, 1, 5, images * n_coords, "tanh", seed=images, images=images
        )
        want = actor_formulation(actor, beats)
        for ins in (views, beats):
            got = k_conv(actor, ins)
            assert np.array_equal(bits(got["out0"]), bits(want["out0"]))


class TestConvSpecialValues:
    """Signed zeros, subnormals, infinities and both NaN payloads in the
    windows, the weights and the bias. ``inf * 0`` and ``inf - inf`` make
    the default NaN, which then meets ``np.nan`` in the tree; which of the
    two an add keeps is nobody's contract, so :func:`bits` counts every
    NaN as one, and the NaNs must sit where the actor's do."""

    @pytest.mark.parametrize("share", [0.02, 0.3])
    @pytest.mark.parametrize(
        "where", ["pixels", "weights", "bias", "all"]
    )
    @pytest.mark.parametrize("in_ports,k", [(2, 3), (1, 5)])
    def test_bit_equal_to_actor_formulation(self, in_ports, k, where, share):
        special = (
            {"pixels": share, "weights": share, "bias": share}
            if where == "all" else {where: share}
        )
        actor, views, beats = make_case(
            in_ports, 2, k, 72, None, seed=sum(map(ord, where)) + int(share * 100),
            special=special,
        )
        with np.errstate(invalid="ignore"):
            want = assert_both_forms_bit_equal(actor, views, beats)
        out = np.concatenate(list(want.values()))
        if where == "all" and share > 0.1:
            # Both payloads reach the output: the test exercises both.
            nans = out[np.isnan(out)]
            assert set(np.signbit(nans)) == {False, True}

    @pytest.mark.parametrize(
        "in_ports,k",
        [(1, 1), (8, 1), (1, 2), (2, 4), (5, 1), (3, 3), (6, 2), (1, 3),
         (2, 3), (1, 5), (1, 11)],
    )
    def test_negative_zero_products_are_carried_once(self, in_ports, k):
        # Every product -0.0: a tree of K = 1, 8, 4, 32 (powers of two)
        # adds no pad and stays -0.0; any other K carries a node, inside
        # the last partial block of 8 (5, 27), among the block sums (24),
        # or on the partial block's way up to the block level (9, 18, 25,
        # 121), and comes out +0.0. The bias is -0.0 too, so the output
        # shows which.
        actor, views, beats = make_case(in_ports, 1, k, 40, None)
        actor = ConvCoreActor(
            "core", np.full_like(actor.weight, -0.0), np.full_like(actor.bias, -0.0),
            in_ports, 1, n_coords=actor.n_coords, images=actor.images,
        )
        views = {p: np.abs(v) for p, v in views.items()}
        beats = {p: np.abs(b) for p, b in beats.items()}
        want = assert_both_forms_bit_equal(actor, views, beats)
        n = in_ports * k * k
        assert set(bits(want["out0"])) == {0x80000000 if n & (n - 1) == 0 else 0}

    def test_subnormals_are_not_flushed(self):
        # A build with -ffast-math would set FTZ/DAZ for the process.
        actor, views, beats = make_case(1, 1, 3, 32, None, seed=1)
        tiny = {p: np.full_like(b, 1e-39) for p, b in beats.items()}
        got = k_conv(actor, tiny)["out0"]
        assert np.array_equal(bits(got), bits(actor_formulation(actor, tiny)["out0"]))
        assert DTYPE(1e-39) * DTYPE(0.5) != 0


class TestConvShapes:
    """The largest trees and layers of the zoo's networks."""

    def test_k_121(self):
        # AlexNet conv1: 11x11 windows, one port.
        actor, views, beats = make_case(1, 1, 11, 24, "relu", groups=3)
        assert actor._w_all.shape[2] == 121
        assert_both_forms_bit_equal(actor, views, beats)

    @pytest.mark.parametrize("in_ports", [8, 64, 512])
    def test_multi_port_k_up_to_vgg_largest(self, in_ports):
        # VGG-16's widest layers take 512 maps: on 512 ports a 3x3 tree
        # has K = 4608 leaves.
        actor, views, beats = make_case(
            in_ports, 1, 3, 20, None, seed=in_ports, groups=1
        )
        assert actor._w_all.shape[2] == in_ports * 9
        assert_both_forms_bit_equal(actor, views, beats)

    def test_out_fm_512(self):
        actor, views, beats = make_case(1, 2, 3, 40, "tanh", out_fm=512)
        assert_both_forms_bit_equal(actor, views, beats)


def test_two_threads_at_once():
    # The C kernel runs without the GIL, from any number of threads.
    run_in_two_threads([make_case(2, 2, 5, 2048, "relu", seed=s) for s in (1, 2)])


def run_in_two_threads(cases):
    """Two ``(actor, views, beats)`` cases, each in its own thread five
    times at once, against one call of each on this thread."""
    want = [k_conv(actor, views) for actor, views, _ in cases]
    got = [None, None]
    start = threading.Barrier(2)

    def run(i):
        actor, views, _ = cases[i]
        start.wait()
        got[i] = [k_conv(actor, views) for _ in range(5)]

    threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    for i in (0, 1):
        for outs in got[i]:
            for port, arr in want[i].items():
                assert np.array_equal(bits(outs[port]), bits(arr))


#: Image counts around whole blocks of 16: none (15), one exactly (16), one
#: and a remainder of 1 (17) or 15 (31), two (32), two and 1 (33), three.
IMAGE_COUNTS = [15, 16, 17, 31, 32, 33, 48]


class TestConvImageWalk:
    """A call of 16 or more images runs each whole block of 16 images as
    16 lanes at one output coordinate, every window vector read in place
    from an image-minor copy of the block; the images past the last whole
    block, and every call of fewer than 16, take the coordinate walk of
    :class:`TestConvKernelBlocking`. A beat stack is one image, so its
    call takes the coordinate walk throughout and checks the view's."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("in_ports", [1, 2, 4])
    @pytest.mark.parametrize("images", IMAGE_COUNTS)
    def test_bit_equal_to_actor_formulation(self, images, in_ports, k):
        # 3x4 coordinates, two groups: port p's copy starts after the
        # extents of the ports before it; K = 1 ... 100.
        actor, views, beats = make_case(
            in_ports, 2, k, images * 12, "tanh", seed=images * 16 + in_ports * 4 + k,
            images=images,
        )
        assert_both_forms_bit_equal(actor, views, beats)

    @pytest.mark.parametrize("out_fm", range(1, 2 * MAPS + 2))
    def test_every_remainder_of_the_map_block(self, out_fm):
        actor, views, beats = make_case(
            2, 1, 3, 32 * 6, "tanh", seed=out_fm, images=32, out_fm=out_fm
        )
        assert_both_forms_bit_equal(actor, views, beats)

    @pytest.mark.parametrize("share", [0.02, 0.3])
    @pytest.mark.parametrize("where", ["pixels", "weights", "bias", "all"])
    @pytest.mark.parametrize("in_ports,k", [(2, 3), (1, 5)])
    def test_special_values(self, in_ports, k, where, share):
        # TestConvSpecialValues' draw over 32 images of 2x3 coordinates.
        special = (
            {"pixels": share, "weights": share, "bias": share}
            if where == "all" else {where: share}
        )
        actor, views, beats = make_case(
            in_ports, 2, k, 32 * 6, None,
            seed=sum(map(ord, where)) + int(share * 100), images=32,
            special=special,
        )
        with np.errstate(invalid="ignore"):
            assert_both_forms_bit_equal(actor, views, beats)

    @pytest.mark.parametrize(
        "in_ports,k",
        [(1, 1), (8, 1), (1, 2), (2, 4), (5, 1), (3, 3), (6, 2), (1, 3),
         (2, 3), (1, 5), (1, 11)],
    )
    def test_negative_zero_products_are_carried_once(self, in_ports, k):
        actor, views, beats = make_case(in_ports, 1, k, 32 * 2, None, images=32)
        actor = ConvCoreActor(
            "core", np.full_like(actor.weight, -0.0), np.full_like(actor.bias, -0.0),
            in_ports, 1, n_coords=actor.n_coords, images=actor.images,
        )
        views = {p: np.abs(v) for p, v in views.items()}
        beats = {p: np.abs(b) for p, b in beats.items()}
        want = assert_both_forms_bit_equal(actor, views, beats)
        n = in_ports * k * k
        assert set(bits(want["out0"])) == {0x80000000 if n & (n - 1) == 0 else 0}

    @pytest.mark.parametrize(
        "k,stride,pad", [(3, 1, 1), (5, 1, 2), (3, 2, 0), (3, 2, 1), (5, 2, 2)]
    )
    def test_padded_and_strided_windows(self, k, stride, pad):
        # A padded view reads np.pad's copy of the pixels; a stride-2 view
        # has row and column strides of two pixels, and its last rows or
        # columns may lie past every window.
        actor, views, beats = make_case(
            2, 1, k, 32 * 12, "relu", seed=k * 10 + stride * 3 + pad,
            images=32, stride=stride, pad=pad,
        )
        assert views["in0"].strides[2] == stride * views["in0"].strides[5]
        assert_both_forms_bit_equal(actor, views, beats)

    def test_image_stride_is_the_largest_stride(self):
        # The slab case of TestConvKernelBlocking over 32 images: each
        # image's copied extent holds 3 rows of its slab, and the NaN rows
        # between the extents are never copied.
        actor, views, beats = make_case(2, 1, 3, 32 * 5, "relu", images=32)
        assert_both_forms_bit_equal(actor, slab_views(views, beats), beats)

    def test_two_threads_at_once(self):
        cases = [
            make_case(2, 2, 5, 32 * 36, "relu", seed=s, images=32) for s in (1, 2)
        ]
        for case in cases:
            assert_both_forms_bit_equal(*case)
        run_in_two_threads(cases)


def before_guard_page(px):
    """A copy of ``px`` whose last byte is the last before a ``PROT_NONE``
    page, so a read past its end faults (Linux: ``mmap``, ``mprotect``)."""
    page = mmap.PAGESIZE
    size = -(-px.nbytes // page) * page
    buf = mmap.mmap(-1, size + page)
    addr = ctypes.addressof(ctypes.c_char.from_buffer(buf))
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    if libc.mprotect(ctypes.c_void_p(addr + size), page, 0):  # PROT_NONE
        raise OSError(ctypes.get_errno(), "mprotect")
    out = np.frombuffer(buf, px.dtype, px.size, size - px.nbytes)
    out[:] = px
    return out


def run_up_to_a_guard_page(images):
    """Both forms of a two-port case whose pixel streams each end on a
    guard page (this runs in a child process: an over-read kills it)."""
    actor, views, beats = make_case(
        2, 1, 3, images * 12, "relu", seed=images, images=images,
        place=before_guard_page,
    )
    assert_both_forms_bit_equal(actor, views, beats)


def in_child(code):
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
        )),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )


@pytest.mark.skipif(sys.platform != "linux", reason="mmap guard pages")
class TestOverRead:
    """The last image's windows end on the last pixel, so the image walk's
    copy (16 images) and the coordinate walk's gather (3, and the 17th
    image of 17) each read up to the end of a pixel stream placed right
    before a page that faults on any access."""

    def test_the_guard_page_faults(self):
        # The placement is exact: the last float reads, one more faults.
        # (An image extent one float too long reads exactly that float.)
        code = (
            "import ctypes, numpy as np\n"
            "from tests.compiled.test_kernels_conv import before_guard_page\n"
            "px = before_guard_page(np.arange(1000, dtype=np.float32))\n"
            "end = px.ctypes.data + px.nbytes\n"
            "assert ctypes.string_at(end - 4, 4) == np.float32(999).tobytes()\n"
            "print('read', flush=True)\n"
            "ctypes.string_at(end, 4)\n"
        )
        proc = in_child(code)
        assert proc.stdout == "read\n"
        assert proc.returncode == -signal.SIGSEGV, proc.stderr

    @pytest.mark.parametrize("images", [3, 16, 17])
    def test_kernel_reads_up_to_the_page(self, images):
        proc = in_child(
            "from tests.compiled.test_kernels_conv import run_up_to_a_guard_page\n"
            f"run_up_to_a_guard_page({images})\n"
        )
        assert proc.returncode == 0, proc.stderr


class TestOutputAllocation:
    """``k_conv`` and ``k_fc`` apply the activation in place, to the
    output buffer the C pass filled: a call allocates one output-sized
    array, not a second one for the activation's result."""

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("kernel", ["k_conv", "k_fc"])
    def test_one_output_sized_array(self, kernel, activation):
        rng = np.random.default_rng(0)
        if kernel == "k_conv":
            actor, views, _ = make_case(
                1, 1, 3, 2048, activation, groups=1, out_fm=64
            )

            def call():
                return k_conv(actor, views)["out0"]
        else:
            fc = FCCoreActor(
                "fc", rng.standard_normal((2048, 16)).astype(DTYPE),
                rng.standard_normal(2048).astype(DTYPE),
                acc_lanes=4, images=64, activation=activation,
            )
            x = rng.standard_normal(64 * 16).astype(DTYPE)

            def call():
                return k_fc(fc, {"in": x})["out"]
        call()  # the C object is loaded before tracing starts
        tracemalloc.start()
        try:
            out = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.nbytes == 512 * 1024
        assert out.nbytes <= peak < 1.5 * out.nbytes


class TestNumpyState:
    def test_kernels_never_touch_the_buffer(self, monkeypatch):
        def refuse(size):
            raise AssertionError(f"np.setbufsize({size}) in a kernel")

        monkeypatch.setattr(np, "setbufsize", refuse)
        rng = np.random.default_rng(0)
        fc = FCCoreActor(
            "fc", rng.standard_normal((7, 29)).astype(DTYPE),
            rng.standard_normal(7).astype(DTYPE),
            acc_lanes=4, images=3, activation="tanh",
        )
        k_fc(fc, {"in": rng.standard_normal(3 * 29).astype(DTYPE)})
        actor, views, beats = make_case(1, 1, 3, 40, None)
        k_conv(actor, views)
        for mode in ("max", "mean"):
            pool = PoolCoreActor("pool", mode, count=len(beats["in0"]))
            k_pool(pool, {"in": views["in0"]})
