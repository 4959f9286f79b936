"""Property-test wall around block-convolution tiling correctness.

Three guarantees, over randomized geometry (image size x kernel x
stride x padding x tile size x port counts):

* **Exactness** — a blocked conv layer produces the byte-identical
  output digest of the unblocked full-buffering reference, on both the
  event and the compiled engine (the lockstep engine is covered by the
  three-way equivalence suite).
* **Halo minimality** — the halo width is exactly ``max(0, k - stride)``
  and shrinking it by one row or column corrupts the result: an
  engine-free numpy property over :func:`reference_block_stream` zeroes
  the last halo row/column of every tile, convolves the tiles, merges
  them and compares against the unblocked convolution.
* **Geometry invariants** — the static plan arithmetic (tile count,
  overhang, per-tile window shapes) is self-consistent.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import ConvLayerSpec, NetworkDesign, build_network, random_weights
from repro.core.block_transform import design_is_blocked, without_blocking
from repro.dataflow import ArraySource, DataflowGraph, ListSink, stable_digest
from repro.sst.block import (
    BlockSpec,
    BlockSplitActor,
    plan_blocks,
    reference_block_stream,
    tile_coords,
)
from repro.sst.window import WindowSpec

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def conv_geometries(draw):
    """A random single-conv design plus a tile size for its output."""
    h = draw(st.integers(4, 10))
    w = draw(st.integers(4, 10))
    k = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, k - 1)) if k > 1 else 0
    assume(h + 2 * pad >= k and w + 2 * pad >= k)
    window = WindowSpec(k, k, stride=stride, pad=pad)
    oh, ow = window.out_shape(h, w)
    th = draw(st.integers(1, oh))
    tw = draw(st.integers(1, ow))
    in_fm = draw(st.sampled_from([1, 2]))
    out_fm = draw(st.sampled_from([1, 2, 4]))
    in_ports = draw(st.sampled_from([d for d in (1, 2) if in_fm % d == 0]))
    out_ports = draw(st.sampled_from([d for d in (1, 2) if out_fm % d == 0]))
    spec = ConvLayerSpec(
        name="c0", in_fm=in_fm, out_fm=out_fm, kh=k, kw=k, stride=stride,
        pad=pad, in_ports=in_ports, out_ports=out_ports,
        activation=draw(st.sampled_from([None, "relu"])),
        block=BlockSpec(th, tw),
    )
    return NetworkDesign("blocked-prop", (in_fm, h, w), [spec])


def _digest(design, batch, scheduler):
    weights = random_weights(design, seed=7)
    net = build_network(design, weights, batch)
    net.run(max_cycles=2_000_000, scheduler=scheduler)
    return stable_digest(net.sink.received)


class TestBlockedEqualsUnblocked:
    @settings(max_examples=30, **_SETTINGS)
    @given(conv_geometries(), st.integers(0, 10_000))
    def test_digest_matches_reference_on_event_and_compiled(self, design, s):
        rng = np.random.default_rng(s)
        batch = rng.uniform(-1, 1, (2,) + design.input_shape).astype(np.float32)
        reference = _digest(without_blocking(design), batch, "event")
        for scheduler in ("event", "compiled"):
            assert _digest(design, batch, scheduler) == reference

    def test_designs_actually_differ_in_structure(self):
        design = NetworkDesign(
            "blocked-prop", (1, 8, 8),
            [ConvLayerSpec(name="c0", in_fm=1, out_fm=1, kh=3, pad=1,
                           block=BlockSpec(3))],
        )
        assert design_is_blocked(design)
        assert not design_is_blocked(without_blocking(design))


def _correlate(x, stride, kernel):
    """Unpadded 2-D correlation of ``x`` with ``kernel``, in float64."""
    kh, kw = kernel.shape
    oh = (x.shape[0] - kh) // stride + 1
    ow = (x.shape[1] - kw) // stride + 1
    out = np.zeros((oh, ow))
    for i in range(kh):
        for j in range(kw):
            out += kernel[i, j] * x[
                i : i + stride * (oh - 1) + 1 : stride,
                j : j + stride * (ow - 1) + 1 : stride,
            ]
    return out


def _blocked(image, plan, kernel, shave_h=0, shave_w=0):
    """Split ``image`` into its tiles, zero the last ``shave_h`` rows and
    ``shave_w`` columns of every tile, convolve each tile, merge."""
    tiles = np.asarray(reference_block_stream(image, plan)).reshape(
        plan.gh, plan.gw, plan.ih, plan.iw
    )
    if shave_h:
        tiles[:, :, -shave_h:, :] = 0
    if shave_w:
        tiles[:, :, :, -shave_w:] = 0
    stride = plan.window.stride
    merged = np.block(
        [[_correlate(tile, stride, kernel) for tile in row] for row in tiles]
    )
    return merged[: plan.oh, : plan.ow]


class TestHaloMinimality:
    @settings(max_examples=100, **_SETTINGS)
    @given(conv_geometries(), st.integers(0, 10_000))
    def test_shrinking_any_halo_breaks_the_digest(self, design, s):
        spec = design.specs[0]
        _, h, w = design.input_shape
        plan = spec.block_plan(h, w)
        assert plan.halo_h == max(0, spec.kh - spec.stride)
        assert plan.halo_w == max(0, spec.kw - spec.stride)
        # A narrower halo is only observable when halo rows exist, a
        # later tile actually re-reads them (at least two tiles in that
        # dimension), and tile 0's shaved window row/column holds real
        # image data rather than zero padding (ih <= pad + h): zeroing
        # zero-fill is a no-op no matter how wrong the halo is.
        shrink_h = (
            plan.halo_h > 0 and plan.gh >= 2 and plan.ih <= spec.pad + h
        )
        shrink_w = (
            plan.halo_w > 0 and plan.gw >= 2 and plan.iw <= spec.pad + w
        )
        assume(shrink_h or shrink_w)
        # Positive pixels and weights: a zeroed pixel always lowers the
        # sum it feeds, so no cancellation can hide it.
        rng = np.random.default_rng(s)
        image = rng.uniform(0.1, 1, (h, w)).astype(np.float32)
        kernel = rng.uniform(0.1, 1, (spec.kh, spec.kw))
        padded = np.pad(image.astype(np.float64), spec.pad)
        reference = stable_digest(_correlate(padded, spec.stride, kernel))
        assert stable_digest(_blocked(image, plan, kernel)) == reference
        if shrink_h:
            assert stable_digest(_blocked(image, plan, kernel, shave_h=1)) \
                != reference
        if shrink_w:
            assert stable_digest(_blocked(image, plan, kernel, shave_w=1)) \
                != reference


class TestPlanGeometry:
    @settings(max_examples=100, **_SETTINGS)
    @given(conv_geometries())
    def test_plan_invariants(self, design):
        spec = design.specs[0]
        _, h, w = design.input_shape
        plan = spec.block_plan(h, w)
        oh, ow = spec.window.out_shape(h, w)
        # Tiles cover the output exactly once, overhang aside.
        assert plan.gh * plan.th >= oh and (plan.gh - 1) * plan.th < oh
        assert plan.gw * plan.tw >= ow and (plan.gw - 1) * plan.tw < ow
        assert plan.coords == plan.n_tiles * plan.th * plan.tw
        assert plan.overhang_h == plan.gh * plan.th - oh
        assert plan.overhang_w == plan.gw * plan.tw - ow
        # Every tile's window pass reproduces the tile's output shape.
        assert plan.tile_window.out_shape(plan.ih, plan.iw) == (
            plan.th, plan.tw,
        )
        coords = tile_coords(plan)
        assert len(coords) == plan.coords
        real = [c for c in coords if c is not None]
        assert len(real) == oh * ow
        assert sorted(real) == [(y, x) for y in range(oh) for x in range(ow)]

    @settings(max_examples=50, **_SETTINGS)
    @given(conv_geometries(), st.integers(0, 10_000))
    def test_split_actor_emits_the_reference_stream(self, design, s):
        spec = design.specs[0]
        _, h, w = design.input_shape
        plan = spec.block_plan(h, w)
        rng = np.random.default_rng(s)
        image = rng.uniform(-1, 1, (h, w)).astype(np.float32)
        g = DataflowGraph("split-ref", default_capacity=4)
        src = g.add_actor(ArraySource("src", image.reshape(-1).tolist()))
        split = g.add_actor(BlockSplitActor("split", plan))
        snk = g.add_actor(ListSink("snk", count=plan.in_words))
        g.connect(src, "out", split, "in")
        g.connect(split, "out", snk, "in")
        g.build_simulator().run(max_cycles=100_000)
        np.testing.assert_array_equal(
            np.asarray(snk.received, dtype=np.float32),
            np.asarray(reference_block_stream(image, plan), dtype=np.float32),
        )
