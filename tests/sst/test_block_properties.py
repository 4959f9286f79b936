"""Property-test wall around block-convolution tiling correctness.

Three guarantees, over randomized geometry (image size x kernel x
stride x padding x tile size x port counts):

* **Exactness** — a blocked conv layer produces the byte-identical
  output digest of the unblocked full-buffering reference, on both the
  event and the compiled engine (the lockstep engine is covered by the
  three-way equivalence suite).
* **Halo minimality** — the halo width is exactly ``max(0, k - stride)``
  and shrinking it by one row or column (via the split actor's
  test-only ``shave`` hooks, which zero the last halo row/column of
  every tile without changing any rate) corrupts the digest. Rates are
  preserved by construction, so the failure mode is wrong data, never
  a deadlock.
* **Geometry invariants** — the static plan arithmetic (tile count,
  overhang, per-tile window shapes) is self-consistent.
"""

import dataclasses

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


def _digest(design, batch, scheduler, shave=None):
    weights = random_weights(design, seed=7)
    net = build_network(design, weights, batch)
    if shave is not None:
        actor = net.graph.actors["c0.split0"]
        actor.shave_h, actor.shave_w = shave
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


class TestHaloMinimality:
    @settings(max_examples=30, **_SETTINGS)
    @given(conv_geometries(), st.integers(0, 10_000))
    def test_shrinking_any_halo_breaks_the_digest(self, design, s):
        spec = design.specs[0]
        if spec.activation is not None:
            # Halo minimality is a data-path property; an activation
            # like relu can clamp both the clean and the corrupted
            # pre-activation to the same value and mask the shave.
            spec = dataclasses.replace(spec, activation=None)
            design = NetworkDesign(design.name, design.input_shape, [spec])
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
        rng = np.random.default_rng(s)
        batch = rng.uniform(0.1, 1, (1,) + design.input_shape).astype(
            np.float32
        )
        reference = _digest(design, batch, "event")
        for scheduler in ("event", "compiled"):
            if shrink_h:
                assert _digest(design, batch, scheduler, shave=(1, 0)) \
                    != reference
            if shrink_w:
                assert _digest(design, batch, scheduler, shave=(0, 1)) \
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
