"""Unit tests for the behavioral sliding-window actor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow import ArraySource, DataflowGraph, ListSink
from repro.errors import ConfigurationError
from repro.sst import SlidingWindowActor, WindowSpec, completion_map, reference_windows


def stream_windows(images, spec, group=1):
    """Run images (list of (group, H, W) arrays) through the actor."""
    n_img = len(images)
    h, w = images[0].shape[-2:]
    interleaved = np.concatenate(
        [img.transpose(1, 2, 0).ravel() for img in images]
    ).astype(np.float32)
    g = DataflowGraph("t")
    src = g.add_actor(ArraySource("src", interleaved))
    win = g.add_actor(SlidingWindowActor("win", spec, h, w, group=group, images=n_img))
    count = win.windows_per_image * n_img
    snk = g.add_actor(ListSink("snk", count=count))
    g.connect(src, "out", win, "in", capacity=4)
    g.connect(win, "out", snk, "in", capacity=4)
    g.build_simulator().run()
    return snk


def expected_windows(images, spec, group=1):
    out = []
    for img in images:
        per_fm = [reference_windows(img[g], spec) for g in range(group)]
        n = len(per_fm[0])
        for i in range(n):
            for g in range(group):
                out.append(per_fm[g][i])
    return out


class TestValidation:
    def test_group_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowActor("w", WindowSpec(3, 3), 8, 8, group=0)

    def test_images_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowActor("w", WindowSpec(3, 3), 8, 8, images=0)

    def test_windows_per_image(self):
        a = SlidingWindowActor("w", WindowSpec(3, 3), 8, 8, group=2)
        assert a.windows_per_image == 6 * 6 * 2


class TestCompletionMap:
    def test_valid_conv_completions(self):
        done = completion_map(WindowSpec(3, 3), 5, 5)
        # Window (0,0) completes when pixel (2,2) arrives.
        assert (0, 0) in done[(2, 2)]

    def test_each_window_completes_once(self):
        spec = WindowSpec(3, 3, stride=2)
        done = completion_map(spec, 9, 9)
        all_coords = [c for lst in done.values() for c in lst]
        assert len(all_coords) == len(set(all_coords)) == spec.num_windows(9, 9)

    def test_padding_completions_at_edges(self):
        # With padding, the last column of windows completes at the last
        # real column.
        done = completion_map(WindowSpec(3, 3, pad=1), 4, 4)
        assert any((oy, ox) == (0, 3) for (oy, ox) in done[(1, 3)])


class TestLazyCompletionMap:
    """The map is the receiver's: built by ``processes()``, not ``__init__``."""

    @pytest.mark.parametrize("kh,kw", [(1, 1), (2, 5), (3, 3), (5, 2)])
    def test_deferring_the_map_defers_no_failure(self, kh, kw):
        # The map's one error is a window with no real pixel. WindowSpec
        # refuses the smallest pad that could produce one, and under the
        # largest pad it accepts the map builds even on the smallest image.
        pad = min(kh, kw) - 1
        with pytest.raises(ConfigurationError, match="pad"):
            WindowSpec(kh, kw, pad=pad + 1)
        spec = WindowSpec(kh, kw, pad=pad)
        h, w = max(1, kh - 2 * pad), max(1, kw - 2 * pad)
        done = completion_map(spec, h, w)
        assert sum(len(c) for c in done.values()) == spec.num_windows(h, w)

    def test_compiled_run_never_builds_the_map(self, monkeypatch):
        import repro.sst.line_buffer as line_buffer
        from repro.core import random_weights, tiny_design
        from repro.core.builder import build_network, seeded_batch

        calls = []
        real = line_buffer.completion_map
        monkeypatch.setattr(
            line_buffer, "completion_map",
            lambda *a: calls.append(a) or real(*a),
        )
        design = tiny_design()
        weights = random_weights(design, seed=3)
        batch = seeded_batch(design, 3, 2)
        built = build_network(design, weights, batch)
        windows = [
            a for a in built.graph.actors.values()
            if isinstance(a, SlidingWindowActor)
        ]
        assert windows and not calls
        assert built.run(scheduler="compiled").scheduler_stats["scheduler"] == "compiled"
        assert not calls
        want = built.outputs()
        built = build_network(design, weights, batch)
        built.run(scheduler="event")
        assert len(calls) == len(windows)
        assert np.array_equal(built.outputs(), want)


class TestStreaming:
    def test_simple_3x3(self, rng):
        img = rng.standard_normal((1, 5, 6)).astype(np.float32)
        snk = stream_windows([img], WindowSpec(3, 3))
        exp = expected_windows([img], WindowSpec(3, 3))
        assert all(np.array_equal(a, b) for a, b in zip(snk.received, exp))

    def test_strided_2x2(self, rng):
        img = rng.standard_normal((1, 6, 6)).astype(np.float32)
        spec = WindowSpec(2, 2, stride=2)
        snk = stream_windows([img], spec)
        exp = expected_windows([img], spec)
        assert all(np.array_equal(a, b) for a, b in zip(snk.received, exp))

    def test_padded(self, rng):
        img = rng.standard_normal((1, 5, 5)).astype(np.float32)
        spec = WindowSpec(3, 3, pad=1)
        snk = stream_windows([img], spec)
        exp = expected_windows([img], spec)
        assert len(snk.received) == 25
        assert all(np.array_equal(a, b) for a, b in zip(snk.received, exp))

    def test_two_fm_interleaved(self, rng):
        img = rng.standard_normal((2, 5, 5)).astype(np.float32)
        spec = WindowSpec(3, 3)
        snk = stream_windows([img], spec, group=2)
        exp = expected_windows([img], spec, group=2)
        assert all(np.array_equal(a, b) for a, b in zip(snk.received, exp))

    def test_multiple_images_back_to_back(self, rng):
        imgs = [rng.standard_normal((1, 4, 4)).astype(np.float32) for _ in range(3)]
        spec = WindowSpec(2, 2)
        snk = stream_windows(imgs, spec)
        exp = expected_windows(imgs, spec)
        assert all(np.array_equal(a, b) for a, b in zip(snk.received, exp))

    def test_window_not_emitted_before_last_pixel(self, rng):
        # Timing: the first 3x3 window needs 2 rows + 3 pixels = at least
        # 2*W+3 input cycles before it can appear.
        img = rng.standard_normal((1, 5, 5)).astype(np.float32)
        snk = stream_windows([img], WindowSpec(3, 3))
        assert snk.timestamps[0] >= 2 * 5 + 3

    @settings(max_examples=25, deadline=None)
    @given(
        kh=st.integers(1, 3), kw=st.integers(1, 3),
        stride=st.integers(1, 2), pad=st.integers(0, 1),
        h=st.integers(4, 7), w=st.integers(4, 7),
        group=st.integers(1, 2), seed=st.integers(0, 2**16),
    )
    def test_property_matches_reference(self, kh, kw, stride, pad, h, w, group, seed):
        if pad >= kh or pad >= kw:
            return
        spec = WindowSpec(kh, kw, stride, pad)
        img = (
            np.random.default_rng(seed)
            .standard_normal((group, h, w))
            .astype(np.float32)
        )
        snk = stream_windows([img], spec, group=group)
        exp = expected_windows([img], spec, group=group)
        assert len(snk.received) == len(exp)
        assert all(np.array_equal(a, b) for a, b in zip(snk.received, exp))


class TestReferenceWindows:
    def test_requires_2d(self):
        with pytest.raises(ConfigurationError):
            reference_windows(np.zeros((2, 3, 3)), WindowSpec(2, 2))

    def test_count(self):
        wins = reference_windows(np.zeros((6, 6)), WindowSpec(3, 3))
        assert len(wins) == 16
