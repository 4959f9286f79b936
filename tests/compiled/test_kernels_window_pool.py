"""Window streams as zero-copy views, and the kernels that read them.

``k_window`` hands its consumers a strided view of the pixel stream, the
one ``sliding_window_view`` gives, shape ``(images, out_h, out_w, group,
kh, kw)``, instead of a gathered ``(n, kh, kw)`` stack; ``_beats`` is the
one place that stack is still made, for the kernels that route single
beats. These tests pin the view's emission order against
:func:`repro.sst.reference_windows`, guard that the ``kh*kw``-fold copy
is gone, and hold ``k_pool`` bitwise to the actor's per-beat arithmetic
on both representations: max as one C pass over the windows in place
(``max_pool`` in ``cores.c``), read and stored up to guard pages, mean in
numpy.
"""

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.compiled import kernels
from repro.compiled.kernels import (
    _beats,
    k_demux,
    k_interleave,
    k_pool,
    k_sink,
    k_window,
)
from repro.config import DTYPE
from repro.core.pool_core import PoolCoreActor
from repro.dataflow.actors import Interleaver, ListSink, ScheduleDemux
from repro.errors import CompilationError
from repro.sst import SlidingWindowActor, WindowSpec
from tests.compiled.test_kernels_conv import before_guard_page, bits, in_child
from tests.sst.test_line_buffer import expected_windows

#: Pixel values that make a window's maximum a tie between the two zeros
#: most of the time, and NaN, an infinity or a denormal now and then.
TIE_VALUES = np.array(
    [-0.0, 0.0, -1e-45, -1e-39, -1.0, -np.inf, 1e-45, 2.0, np.inf, np.nan],
    dtype=DTYPE,
)
TIE_SHARES = [0.22, 0.22, 0.1, 0.1, 0.1, 0.16, 0.025, 0.025, 0.025, 0.025]


def window_case(spec, h, w, group, images, rng, ties=False):
    """``(actor, pixel stream)``: raster order, FM-minor, image after image."""
    n = images * h * w * group
    if ties:
        px = rng.choice(TIE_VALUES, size=n, p=TIE_SHARES)
    else:
        px = rng.standard_normal(n).astype(DTYPE)
    actor = SlidingWindowActor("win", spec, h, w, group=group, images=images)
    return actor, px


def gathered_emission(actor, px):
    """The actor's window beats from the golden per-FM extraction
    (``reference_windows``): coordinate-major, FM-minor — the stack
    ``k_window`` used to materialize."""
    planes = px.reshape(actor.images, actor.h, actor.w, actor.group)
    return np.stack(
        expected_windows(planes.transpose(0, 3, 1, 2), actor.spec, actor.group)
    )


class TestWindowView:
    @pytest.mark.parametrize("images", [1, 3])
    @pytest.mark.parametrize("group", [1, 3])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 4])
    @pytest.mark.parametrize("kh,kw,h,w", [(3, 3, 9, 9), (3, 5, 11, 14), (5, 3, 7, 12)])
    def test_beats_equal_reference_windows(
        self, rng, kh, kw, h, w, stride, pad, group, images
    ):
        spec = WindowSpec(kh, kw, stride=stride, pad=pad)
        actor, px = window_case(spec, h, w, group, images, rng)
        before = px.copy()
        out = k_window(actor, {"in": px})["out"]
        assert out.shape == (images, actor.out_h, actor.out_w, group, kh, kw)
        assert out.dtype == DTYPE
        assert np.array_equal(bits(_beats(out)), bits(gathered_emission(actor, px)))
        # The guard that the kh*kw-fold copy is gone: without padding the
        # stream is a view of the pixels it was given, and a kernel
        # downstream cannot write through it.
        assert np.shares_memory(out, px) == (pad == 0)
        assert not out.flags.writeable
        assert np.array_equal(bits(px), bits(before))
        # The ledger's bytes_out: a view's nbytes is its logical size.
        assert out.nbytes == actor.windows_per_image * images * kh * kw * 4

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_length_pixel_stream_is_a_compilation_error(self, rng, delta):
        actor, px = window_case(WindowSpec(3, 3), 6, 7, 2, 2, rng)
        with pytest.raises(CompilationError, match="pixel stream"):
            k_window(actor, {"in": np.resize(px, len(px) + delta)})

    def test_beats_of_a_scalar_stream_or_a_stack_is_the_array_itself(self, rng):
        scalars = rng.standard_normal(12).astype(DTYPE)
        assert _beats(scalars) is scalars
        stack = rng.standard_normal((12, 2, 3)).astype(DTYPE)
        assert np.shares_memory(_beats(stack), stack)
        assert _beats(stack).shape == stack.shape


def owner(arr):
    """The array at the end of ``arr``'s base chain: the one holding the data."""
    while getattr(arr, "base", None) is not None:
        arr = arr.base
    return arr


class TestWindowViewIsTheSlidingView:
    """``k_window`` builds, in one step, the view ``sliding_window_view``
    would give: the ledger's byte counts and every reader see no change."""

    @pytest.mark.parametrize("images", [1, 17])
    @pytest.mark.parametrize("group", [1, 3, 12])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 4])
    @pytest.mark.parametrize("kh,kw,h,w", [(3, 3, 9, 9), (5, 3, 7, 12)])
    def test_same_view(self, rng, kh, kw, h, w, stride, pad, group, images):
        spec = WindowSpec(kh, kw, stride=stride, pad=pad)
        actor, px = window_case(spec, h, w, group, images, rng)
        out = k_window(actor, {"in": px})["out"]
        # The pixels the view reads: the stream itself, or its padded copy.
        pixels = owner(out)
        assert (pixels is px) == (pad == 0)
        padded = np.pad(
            px.reshape(images, h, w, group),
            ((0, 0), (pad, pad), (pad, pad), (0, 0)),
        )
        assert np.array_equal(bits(pixels.reshape(padded.shape)), bits(padded))
        want = sliding_window_view(
            pixels.reshape(padded.shape), (kh, kw), axis=(1, 2)
        )[:, ::stride, ::stride]
        assert out.shape == want.shape
        assert out.strides == want.strides
        assert owner(want) is pixels
        assert not out.flags.writeable and not want.flags.writeable
        assert out.nbytes == want.nbytes
        assert np.array_equal(bits(out), bits(want))


class TestRoutingKernelsTakeViews:
    """Kernels that move single beats see a view as its ``(n, kh, kw)`` beats."""

    def case(self, rng):
        actor, px = window_case(WindowSpec(2, 3, stride=2), 6, 9, 3, 2, rng)
        view = k_window(actor, {"in": px})["out"]
        return view, gathered_emission(actor, px)

    def test_sink_receives_one_window_per_beat(self, rng):
        view, beats = self.case(rng)
        sink = ListSink("snk", count=len(beats))
        assert k_sink(sink, {"in": view}) == {}
        assert len(sink.received) == len(beats)
        assert all(np.array_equal(a, b) for a, b in zip(sink.received, beats))
        with pytest.raises(CompilationError, match="sink input"):
            k_sink(ListSink("snk", count=len(beats) + 1), {"in": view})

    def test_demux_then_interleave_round_trips_the_beats(self, rng):
        view, beats = self.case(rng)
        demux = ScheduleDemux("dem", n_outputs=3)
        lanes = k_demux(demux, {"in": view})
        for i in range(3):
            assert np.array_equal(lanes[f"out{i}"], beats[i::3])
        merged = k_interleave(
            Interleaver("mux", n_inputs=3),
            {f"in{i}": lanes[f"out{i}"] for i in range(3)},
        )["out"]
        assert np.array_equal(bits(merged), bits(beats))

    def test_interleave_gathers_views_on_its_inputs(self, rng):
        view, beats = self.case(rng)
        merged = k_interleave(
            Interleaver("mux", n_inputs=2), {"in0": view, "in1": view}
        )["out"]
        assert np.array_equal(bits(merged[0::2]), bits(beats))
        assert np.array_equal(bits(merged[1::2]), bits(beats))


#: Pool geometries: disjoint, overlapping at stride 2, fully overlapping,
#: a one-column window (kw == 1), and windows past 8 and 16 elements,
#: where numpy's ``w.max()`` stops settling a -0.0/+0.0 tie in raster
#: order (it reduces in SIMD lane order) and a plain chain would differ.
POOL_SPECS = [
    WindowSpec(2, 2, stride=2),
    WindowSpec(3, 3, stride=2),
    WindowSpec(3, 3, stride=1),
    WindowSpec(3, 1, stride=1),
    WindowSpec(5, 5, stride=1),
    WindowSpec(2, 9, stride=1),
    WindowSpec(1, 17, stride=2),
    WindowSpec(7, 7, stride=1),
]


def pool_streams(spec, rng, ties):
    actor, px = window_case(spec, spec.kh + 8, spec.kw + 20, 3, 2, rng, ties)
    view = k_window(actor, {"in": px})["out"]
    return {"view": view, "beats": _beats(view)}


@pytest.mark.parametrize("form", ["view", "beats"])
@pytest.mark.parametrize("spec", POOL_SPECS, ids=WindowSpec.describe)
class TestPoolKernel:
    def test_max_is_bitwise_the_actors_per_beat_max(self, rng, spec, form):
        streams = pool_streams(spec, rng, ties=True)
        beats = streams["beats"]
        want = np.array([DTYPE(w.max()) for w in beats])
        # A NaN maximum occurs, and so does the one answer that depends on
        # the order of comparison: a zero maximum over a window holding
        # both zeros.
        zeros = beats == 0
        tie = (zeros & np.signbit(beats)).any(axis=(1, 2)) & (
            zeros & ~np.signbit(beats)
        ).any(axis=(1, 2))
        assert np.isnan(want).any() and (tie & (want == 0)).sum() >= 10
        actor = PoolCoreActor("pool", "max", count=len(beats))
        got = k_pool(actor, {"in": streams[form]})["out"]
        assert got.dtype == DTYPE and got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("ties", [False, True], ids=["normal", "specials"])
    def test_mean_is_bitwise_the_actors_per_beat_mean(self, rng, spec, form, ties):
        streams = pool_streams(spec, rng, ties)
        beats = streams["beats"]
        with np.errstate(invalid="ignore"):
            want = np.array([DTYPE(w.mean(dtype=np.float64)) for w in beats])
            actor = PoolCoreActor("pool", "mean", count=len(beats))
            got = k_pool(actor, {"in": streams[form]})["out"]
        assert got.dtype == DTYPE and got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("mode", ["max", "mean"])
    def test_count_is_checked_against_the_windows_carried(
        self, rng, spec, form, mode
    ):
        # A view's len() is its image count: the schedule's beat count is
        # compared with the number of windows, whatever the representation.
        stream = pool_streams(spec, rng, ties=False)[form]
        n = stream.size // (spec.kh * spec.kw)
        before = stream.copy()
        k_pool(PoolCoreActor("pool", mode, count=n), {"in": stream})
        assert np.array_equal(bits(stream), bits(before))
        for wrong in {n - 1, n + 1, len(stream)} - {n}:
            with pytest.raises(CompilationError, match="window stream"):
                k_pool(PoolCoreActor("pool", mode, count=wrong), {"in": stream})


#: Map counts around the C pass's chunks of 16 maps: one map, partial
#: chunks (4, 12 = TC2 pool1, 15), one whole chunk, a whole chunk and one
#: map (17), and whole chunks with (36 = TC2 pool2) or without (96 =
#: AlexNet pool1) a partial one.
POOL_GROUPS = [1, 4, 12, 15, 16, 17, 36, 96]

#: The zoo's max windows: 2x2/s2, AlexNet's 3x3/s2, a fully overlapping
#: 3x3/s1, and padded windows, whose view reads np.pad's copy.
MAX_SPECS = [
    WindowSpec(2, 2, stride=2),
    WindowSpec(3, 3, stride=2),
    WindowSpec(3, 3, stride=1),
    WindowSpec(3, 3, stride=2, pad=1),
    WindowSpec(2, 2, stride=1, pad=1),
]


def actor_max(beats):
    """The actor's per-beat maximum of every window of a stack."""
    return np.array([DTYPE(w.max()) for w in beats])


def max_case(spec, h, w, group, rng, ties):
    """A max pool's view and its stack: at least 2 images, about 100 maps
    in all, so few maps still give the specials' NaN and zero maxima."""
    images = max(2, 96 // group)
    actor, px = window_case(spec, h, w, group, images, rng, ties)
    view = k_window(actor, {"in": px})["out"]
    return view, np.ascontiguousarray(_beats(view))


class TestMaxPoolPass:
    """``k_pool`` max is one C pass over the windows in place (``max_pool``
    in ``cores.c``): per output row the maximum over the window's input
    rows along the whole row, 16 floats at a time, then per column the
    maximum over its chunks of ``group`` maps. Held bitwise to the actor
    across map counts around the 16-map chunks, the zoo's windows, odd
    input widths (a last input column no window reads), views and
    stacks."""

    @pytest.mark.parametrize("form", ["view", "beats"])
    @pytest.mark.parametrize("ties", [False, True], ids=["normal", "specials"])
    @pytest.mark.parametrize("h,w", [(7, 9), (8, 11)])
    @pytest.mark.parametrize("spec", MAX_SPECS, ids=WindowSpec.describe)
    @pytest.mark.parametrize("group", POOL_GROUPS)
    def test_bitwise_the_actors_max(self, rng, group, spec, h, w, ties, form):
        view, beats = max_case(spec, h, w, group, rng, ties)
        want = actor_max(beats)
        if ties:
            assert np.isnan(want).any() and (want == 0).any()
        actor = PoolCoreActor("pool", "max", count=len(beats))
        stream = view if form == "view" else beats
        got = k_pool(actor, {"in": stream})["out"]
        assert got.dtype == DTYPE and got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("group", [1, 12, 17])
    def test_views_the_pass_does_not_walk_are_gathered(self, rng, group):
        # Every other map (maps 8 bytes apart) and rows and columns walked
        # backwards (negative strides): gathered into a stack first.
        view, _ = max_case(WindowSpec(3, 3, stride=2), 9, 11, 2 * group, rng, True)
        for other in (view[:, :, :, ::2], view[:, ::-1, ::-1]):
            want = actor_max(_beats(other))
            actor = PoolCoreActor("pool", "max", count=len(want))
            got = k_pool(actor, {"in": other})["out"]
            assert np.array_equal(bits(got), bits(want))

    def test_two_threads_at_once(self, rng):
        cases = [
            max_case(WindowSpec(3, 3, stride=2), 33, 35, group, rng, True)
            for group in (12, 36)
        ]
        want = [actor_max(beats) for _, beats in cases]
        got = [None, None]
        start = threading.Barrier(2)

        def run(i):
            view, beats = cases[i]
            actor = PoolCoreActor("pool", "max", count=len(beats))
            start.wait()
            got[i] = [
                k_pool(actor, {"in": stream})["out"]
                for stream in (view, beats) * 3
            ]

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        for i in (0, 1):
            assert len(got[i]) == 6
            for out in got[i]:
                assert np.array_equal(bits(out), bits(want[i]))


def relu_case(spec, group, rng, planted):
    """A max pool's view and stack over ReLU outputs, most of them +0.0,
    with a share ``planted`` of the pixels overwritten with -0.0 (a conv
    sum that is exactly -0.0 stays -0.0 through the ReLU)."""
    h, w = 2 * spec.kh + 7, 2 * spec.kw + 9
    actor, px = window_case(spec, h, w, group, 2, rng)
    px = np.maximum(px - 1, 0).astype(DTYPE)
    px[rng.random(px.size) < planted] = -0.0
    view = k_window(actor, {"in": px})["out"]
    return view, np.ascontiguousarray(_beats(view))


class TestZeroMaximumTies:
    """A zero maximum depends on the order of comparison only where its
    window holds both zeros, so ``k_pool`` settles in numpy only the zero
    maxima of windows that hold a -0.0; padding is +0.0, and a stream
    with no -0.0 (a ReLU's, as a rule) settles none."""

    @pytest.mark.parametrize("form", ["view", "beats"])
    @pytest.mark.parametrize("spec", MAX_SPECS, ids=WindowSpec.describe)
    @pytest.mark.parametrize("group", [1, 12, 17])
    def test_planted_negative_zeros_are_settled_as_the_actor(
        self, rng, group, spec, form
    ):
        view, beats = relu_case(spec, group, rng, planted=0.1)
        want = actor_max(beats)
        neg = (beats.view(np.uint32) == 0x80000000).any(axis=(1, 2))
        # Ties happen, and the zero maxima of windows without a -0.0 too.
        assert (neg & (want == 0)).sum() >= 5 and (~neg & (want == 0)).any()
        actor = PoolCoreActor("pool", "max", count=len(beats))
        with mock.patch.object(
            kernels, "_settle_zero_maxima", wraps=kernels._settle_zero_maxima
        ) as settle:
            got = k_pool(actor, {"in": view if form == "view" else beats})["out"]
        assert np.array_equal(bits(got), bits(want))
        (_, _, redo), _ = settle.call_args
        assert list(redo) == list(np.flatnonzero(neg & (want == 0)))

    @pytest.mark.parametrize("form", ["view", "beats"])
    @pytest.mark.parametrize("spec", MAX_SPECS, ids=WindowSpec.describe)
    def test_a_stream_without_negative_zeros_gathers_nothing(
        self, rng, spec, form
    ):
        view, beats = relu_case(spec, 12, rng, planted=0)
        want = actor_max(beats)
        assert (want == 0).sum() >= 5
        actor = PoolCoreActor("pool", "max", count=len(beats))
        with mock.patch.object(kernels, "_settle_zero_maxima") as settle:
            got = k_pool(actor, {"in": view if form == "view" else beats})["out"]
        settle.assert_not_called()
        assert np.array_equal(bits(got), bits(want))


def pool_up_to_a_guard_page(group):
    """``k_pool`` max with its input, then its output, ending right before
    a guard page, on views and stacks (this runs in a child process: a read
    or store past either end kills it). The last window ends on the last
    pixel, so the pass reads the input up to its last float."""
    real_empty = np.empty

    def empty(shape, dtype=float):
        # The pass's one output array, (images, rows, cols, group); its
        # scratch is 1-D.
        arr = real_empty(shape, dtype)
        if isinstance(shape, tuple) and len(shape) == 4:
            arr = before_guard_page(arr.reshape(-1)).reshape(shape)
            placed.append(arr)
        return arr

    rng = np.random.default_rng(group)
    for spec, h, w in [
        (WindowSpec(2, 2, stride=2), 6, 10),
        (WindowSpec(3, 3, stride=2), 7, 9),
        (WindowSpec(3, 3, stride=1), 5, 6),
    ]:
        actor, px = window_case(spec, h, w, group, 3, rng, ties=True)
        view = k_window(actor, {"in": before_guard_page(px)})["out"]
        beats = _beats(view)
        stack = before_guard_page(beats.reshape(-1)).reshape(beats.shape)
        want = actor_max(beats)
        pool = PoolCoreActor("pool", "max", count=len(beats))
        for stream in (view, stack):
            placed = []
            with mock.patch.object(np, "empty", empty):
                got = k_pool(pool, {"in": stream})["out"]
            assert len(placed) == 1 and np.shares_memory(got, placed[0])
            assert np.array_equal(bits(got), bits(want)), (spec, group)
    print("pooled", flush=True)


@pytest.mark.skipif(sys.platform != "linux", reason="mmap guard pages")
class TestMaxPoolGuardPages:
    """The vertical pass reads the last input row up to its last float,
    and a last chunk of fewer than 16 maps is stored whole only where the
    store ends inside the output: a whole-vector read or store past either
    end faults on the ``PROT_NONE`` page (``test_kernels_conv.py``'s
    ``TestOverRead`` / ``TestOverWrite`` show the placement is exact)."""

    @pytest.mark.parametrize("group", [1, 12, 17, 36])
    def test_kernel_stays_inside_its_input_and_output(self, group):
        proc = in_child(
            "from tests.compiled.test_kernels_window_pool import "
            "pool_up_to_a_guard_page\n"
            f"pool_up_to_a_guard_page({group})\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "pooled\n"
