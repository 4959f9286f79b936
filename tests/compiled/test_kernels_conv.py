"""The compiled conv kernel against the actor's own arithmetic, bit for bit.

``k_conv`` reorders memory (lanes minor, blocked slabs, an unpadded
in-place product tree) and shrinks numpy's ufunc buffer while it runs, but
may not reorder a single float32 operation or leave the buffer changed.
These tests pin that down below the engine level: the tree helper
against :func:`repro.hls.tree_adder.tree_reduce` on adversarial values,
and the kernel against the per-coordinate formulation of
``ConvCoreActor._compute`` over a port/kernel/blocking grid — every case
fed both the zero-copy ``k_window`` views and the gathered ``(n, kh, kw)``
beat stacks of the same pixels.
"""

import threading

import numpy as np
import pytest

from repro.compiled import kernels
from repro.compiled.kernels import (
    _beats,
    _tree_reduce_inplace,
    k_conv,
    k_fc,
    k_pool,
    k_window,
)
from repro.config import DTYPE
from repro.core.compute_core import ConvCoreActor
from repro.core.fc_core import FCCoreActor
from repro.core.pool_core import PoolCoreActor
from repro.errors import CompilationError
from repro.hls.tree_adder import tree_reduce
from repro.sst import SlidingWindowActor, WindowSpec


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


class TestTreeReducePingpong:
    """``_tree_reduce_inplace``. (The class keeps the name its test ids
    were recorded under; the ping-pong tree it first covered is gone.)"""

    @pytest.mark.parametrize("n", range(1, 131))
    def test_bit_equal_to_tree_reduce(self, n):
        arr = special_rows(n)
        want = tree_reduce(arr.T)
        slab = arr.copy()
        got = _tree_reduce_inplace(slab)
        assert got.dtype == DTYPE
        assert np.array_equal(bits(got), bits(want))
        # In place: the result is the slab's first row.
        assert got.base is slab and np.shares_memory(got, slab[0])

    def test_negative_zero_is_canonicalized_only_by_a_carry(self):
        neg = np.full((3, 1), -0.0, dtype=DTYPE)
        # n = 3: (-0 + -0) + (-0 + 0.0) = -0 + 0 = +0
        assert bits(_tree_reduce_inplace(neg.copy()))[0] == 0
        # n = 2: no carry, -0 + -0 stays -0; n = 1: returned untouched
        assert bits(_tree_reduce_inplace(neg[:2].copy()))[0] == 0x80000000
        assert bits(_tree_reduce_inplace(neg[:1].copy()))[0] == 0x80000000

    def test_no_second_buffer_is_taken(self, monkeypatch):
        # Every level's destination is a slice of the slab itself.
        slab = special_rows(25)
        outs = []
        real_add = np.add

        def spy(a, b, out):
            outs.append(out)
            return real_add(a, b, out=out)

        monkeypatch.setattr(kernels.np, "add", spy)
        _tree_reduce_inplace(slab)
        monkeypatch.undo()
        assert len(outs) == 6  # five levels and one carry
        assert all(np.shares_memory(out, slab) for out in outs)

    @pytest.mark.parametrize("last", [-0.0, 0.0, -1e-45, np.nan, 1.5])
    def test_row_carried_once_survives_three_more_odd_levels(self, last):
        # K = 25: 25 -> 13 -> 7 -> 4. Row 24 is the odd last row of the
        # first three levels; it is carried (+ 0.0) at the first only, and
        # the padded tree's two further + 0.0 change no bit of it.
        arr = special_rows(25)
        arr[24] = last
        arr[24, 0] = -0.0
        slab = arr.copy()
        got = _tree_reduce_inplace(slab)
        assert np.array_equal(bits(got), bits(tree_reduce(arr.T)))
        # Row 24 is only read after its carry (into row 16, at the 4-wide
        # level): it still holds the value carried once.
        assert np.array_equal(bits(slab[24]), bits(arr[24] + DTYPE(0.0)))


def grid_shape(n_coords):
    """``(oh, ow)`` with ``oh * ow == n_coords``, as square as it divides."""
    oh = max(d for d in range(1, int(n_coords ** 0.5) + 1) if n_coords % d == 0)
    return oh, n_coords // oh


def make_case(in_ports, out_ports, k, n_lanes, activation, seed=0, images=None):
    """A conv core plus the same windows in both stream representations.

    Returns ``(actor, views, beats)``: per in-port the zero-copy
    ``k_window`` view of seeded pixels and its gathered ``(n, k, k)``
    beat stack (what ``k_window`` used to emit).
    """
    rng = np.random.default_rng(seed)
    groups, out_fm = 2, 6
    in_fm = in_ports * groups
    weight = rng.standard_normal((out_fm, in_fm, k, k)).astype(DTYPE)
    weight[rng.random(weight.shape) < 0.05] = -0.0
    bias = rng.standard_normal(out_fm).astype(DTYPE)
    if images is None:
        images = 2 if n_lanes % 2 == 0 else 1
    oh, ow = grid_shape(n_lanes // images)
    h, w = oh + k - 1, ow + k - 1
    actor = ConvCoreActor(
        "core", weight, bias, in_ports, out_ports,
        n_coords=oh * ow, images=images, activation=activation,
    )
    views, beats = {}, {}
    for p in range(in_ports):
        px = rng.standard_normal(images * h * w * groups).astype(DTYPE)
        px[rng.random(px.shape) < 0.05] = 0.0
        win = SlidingWindowActor(
            f"win{p}", WindowSpec(k, k), h, w, group=groups, images=images
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


#: Tree rows of 150 lanes: the lane budget is 144 (whole cache lines), and
#: a block of 36 lanes gets an output block of 4 of the 6 output maps.
ROW = 150


def set_row(monkeypatch, lanes, tree_width):
    monkeypatch.setattr(kernels, "_CONV_BLOCK_BYTES", lanes * tree_width * 4)


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
        # K = in_ports*k*k covers 1, 9, 25, 36, 121 and their multiples.
        # Two images of 18 / 72 / 162 coordinates: as beats, 36 lanes sit
        # below the budget, 144 equal it, 324 = 144+144+36; as views, both
        # images in one block, twice, and 162 = 9 rows of 18 > budget, so
        # each image goes in row blocks of 8 + 1.
        set_row(monkeypatch, ROW, in_ports * k * k)
        actor, views, beats = make_case(in_ports, out_ports, k, n_lanes, activation)
        assert_both_forms_bit_equal(actor, views, beats)

    @pytest.mark.parametrize("block_bytes", [1, 64, 1 << 12, 1 << 19, 1 << 24])
    def test_blocking_is_bit_neutral(self, monkeypatch, block_bytes):
        actor, views, beats = make_case(2, 2, 3, 330, "tanh", seed=3)
        want = k_conv(actor, beats)
        monkeypatch.setattr(kernels, "_CONV_BLOCK_BYTES", block_bytes)
        assert_both_forms_bit_equal(actor, views, beats, want)

    def test_ragged_last_image_block(self, monkeypatch):
        # 5 images of 4x5 coordinates, budget 48 lanes: blocks of 2, 2, 1.
        set_row(monkeypatch, 50, 2 * 9)
        actor, views, beats = make_case(2, 2, 3, 100, "relu", seed=5, images=5)
        assert_both_forms_bit_equal(actor, views, beats)

    def test_row_blocks_when_one_image_exceeds_the_budget(self, monkeypatch):
        # 3 images of 7x11 = 77 coordinates, budget 32 lanes: each image in
        # row blocks of 2, 2, 2, 1 rows (22 and 11 lanes), never across images.
        set_row(monkeypatch, 40, 2 * 9)
        actor, views, beats = make_case(2, 1, 3, 231, "tanh", seed=6, images=3)
        assert views["in0"].shape[:3] == (3, 7, 11)
        assert_both_forms_bit_equal(actor, views, beats)

    @pytest.mark.parametrize("n_coords", [1, 6, 15, 16])
    def test_blocks_of_at_most_sixteen_lanes(self, monkeypatch, n_coords):
        # The budget never drops under 16 lanes; images of <= 16
        # coordinates then go one whole image per block.
        set_row(monkeypatch, 1, 9)
        actor, views, beats = make_case(
            1, 3, 3, 3 * n_coords, None, seed=n_coords, images=3
        )
        assert_both_forms_bit_equal(actor, views, beats)

    def test_row_wider_than_the_budget_is_one_block(self, monkeypatch):
        # 1x40 coordinates against a 16-lane budget: a block is at least
        # one whole output row.
        set_row(monkeypatch, 1, 9)
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
        # Same beat count, different (images, rows, cols): one block slice
        # could not address both ports.
        actor, views, beats = make_case(2, 1, 3, 40, None)
        views["in1"] = beats["in1"]
        with pytest.raises(CompilationError, match="in1"):
            k_conv(actor, views)


def spy_on_slabs(monkeypatch):
    """Record the shape of every product slab ``k_conv`` reduces."""
    shapes = []
    tree = kernels._tree_reduce_inplace

    def spy(slab):
        shapes.append(slab.shape)
        return tree(slab)

    monkeypatch.setattr(kernels, "_tree_reduce_inplace", spy)
    return shapes


class TestConvKernelLaneCounts:
    """Both sides of numpy's buffered-iterator threshold (an inner row of
    4096 elements under the default buffer) and the output-blocked slab of
    a short tail block, at the real block size, pinned by value."""

    @pytest.mark.parametrize("n_lanes", [4095, 4096, 4097])
    def test_lane_rows_around_the_buffer_threshold(self, monkeypatch, n_lanes):
        # One image of 63x65 / 64x64 / 17x241 coordinates, K = 25: one
        # block of one output map, as a view and as a beat stack.
        shapes = spy_on_slabs(monkeypatch)
        actor, views, beats = make_case(1, 2, 5, n_lanes, "relu", seed=n_lanes)
        assert_both_forms_bit_equal(actor, views, beats)
        assert set(shapes) == {(25, 1, n_lanes)}

    @pytest.mark.parametrize(
        "images,n_coords,view_slabs,beat_slabs",
        [
            # TC2 conv2, 64 images of 10x10: 52 + 12 images, the tail's
            # six output maps in blocks of 4 + 2.
            (64, 100, {(25, 1, 5200), (25, 4, 1200), (25, 2, 1200)},
             {(25, 1, 5232), (25, 4, 1168), (25, 2, 1168)}),
            # TC2 conv1's last ten images of 28x28: 6 + 4.
            (10, 784, {(25, 1, 4704), (25, 1, 3136)},
             {(25, 1, 5232), (25, 2, 2608)}),
        ],
        ids=["conv2-tail", "conv1-tail"],
    )
    def test_short_tail_block(
        self, monkeypatch, images, n_coords, view_slabs, beat_slabs
    ):
        # A view is cut at whole images, a stack at the 5232-lane budget
        # wherever that falls; either way the tail is under 4096 lanes.
        actor, views, beats = make_case(
            1, 1, 5, images * n_coords, "tanh", seed=images, images=images
        )
        want = actor_formulation(actor, beats)
        shapes = spy_on_slabs(monkeypatch)
        for ins, slabs in ((views, view_slabs), (beats, beat_slabs)):
            shapes.clear()
            got = k_conv(actor, ins)
            assert set(shapes) == slabs
            assert np.array_equal(bits(got["out0"]), bits(want["out0"]))


class TestUfuncBufferScope:
    """``k_conv`` shrinks numpy's ufunc buffer around its block loop and
    nowhere else; the caller's setting is back whatever happens."""

    @pytest.fixture
    def caller_bufsize(self):
        # Not numpy's default, so "restored" cannot be "reset".
        old = np.setbufsize(2048)
        yield 2048
        np.setbufsize(old)

    def test_small_buffer_spans_the_block_loop_only(
        self, monkeypatch, caller_bufsize
    ):
        actor, views, beats = make_case(2, 2, 3, 40, "relu")
        seen = {}
        tree, act = kernels._tree_reduce_inplace, actor._act

        def tree_spy(slab):
            seen["tree"] = np.getbufsize()
            return tree(slab)

        def act_spy(x):
            seen["act"] = np.getbufsize()
            return act(x)

        monkeypatch.setattr(kernels, "_tree_reduce_inplace", tree_spy)
        monkeypatch.setattr(actor, "_act", act_spy)
        for ins in (views, beats):
            seen.clear()
            k_conv(actor, ins)
            assert seen == {"tree": 16, "act": caller_bufsize}
            assert np.getbufsize() == caller_bufsize

    @pytest.mark.parametrize("where", ["length", "geometry", "block loop"])
    def test_restored_when_the_kernel_raises(
        self, monkeypatch, caller_bufsize, where
    ):
        actor, views, beats = make_case(2, 1, 3, 40, None)
        if where == "length":
            views["in1"] = views["in1"][:, :-1]
        elif where == "geometry":
            views["in1"] = beats["in1"]
        else:
            def jam(slab):
                assert np.getbufsize() == 16
                raise CompilationError("mid-run")

            monkeypatch.setattr(kernels, "_tree_reduce_inplace", jam)
        with pytest.raises(CompilationError):
            k_conv(actor, views)
        assert np.getbufsize() == caller_bufsize

    def test_second_thread_keeps_its_own_and_leaves_ours(self, caller_bufsize):
        # Serve's replicas run kernels off the main thread; numpy keeps
        # the buffer size per thread.
        actor, views, beats = make_case(2, 2, 3, 40, "relu")
        want = k_conv(actor, views)
        seen = {}

        def replica():
            np.setbufsize(1024)
            seen["out"] = k_conv(actor, beats)
            seen["after"] = np.getbufsize()

        thread = threading.Thread(target=replica)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert seen["after"] == 1024
        assert np.getbufsize() == caller_bufsize
        for port, arr in want.items():
            assert np.array_equal(bits(seen["out"][port]), bits(arr))

    def test_other_kernels_never_touch_the_buffer(self, monkeypatch):
        def refuse(size):
            raise AssertionError(f"np.setbufsize({size}) outside k_conv")

        monkeypatch.setattr(np, "setbufsize", refuse)
        rng = np.random.default_rng(0)
        fc = FCCoreActor(
            "fc", rng.standard_normal((7, 29)).astype(DTYPE),
            rng.standard_normal(7).astype(DTYPE),
            acc_lanes=4, images=3, activation="tanh",
        )
        k_fc(fc, {"in": rng.standard_normal(3 * 29).astype(DTYPE)})
        _, views, beats = make_case(1, 1, 3, 40, None)
        for mode in ("max", "mean"):
            pool = PoolCoreActor("pool", mode, count=len(beats["in0"]))
            k_pool(pool, {"in": views["in0"]})
