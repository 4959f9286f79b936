"""Unit + integration tests for the network builder."""

import numpy as np
import pytest

from repro.core import (
    ConvLayerSpec,
    FCLayerSpec,
    NetworkDesign,
    PoolLayerSpec,
    build_network,
    cifar10_design,
    extract_weights,
    interleave_images,
    random_weights,
    tiny_design,
    tiny_model,
    usps_design,
)
from repro.core.builder import seeded_batch
from repro.errors import ConfigurationError, ShapeError, SimulationError
from repro.nn import Conv2D, Flatten, Linear, MaxPool2D, Sequential, Tanh


class TestInterleave:
    def test_order_is_pixel_major_fm_minor(self):
        batch = np.arange(2 * 2 * 2 * 2, dtype=np.float32).reshape(2, 2, 2, 2)
        stream = interleave_images(batch)
        # First beats: image 0, pixel (0,0), FM 0 then FM 1.
        assert stream[0] == batch[0, 0, 0, 0]
        assert stream[1] == batch[0, 1, 0, 0]
        assert stream[2] == batch[0, 0, 0, 1]

    def test_requires_4d(self):
        with pytest.raises(ShapeError):
            interleave_images(np.zeros((2, 2, 2), dtype=np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 2, 4, 5), (2, 1, 8, 8), (1, 6, 1, 1)])
    def test_one_copy_that_never_aliases_the_callers_batch(self, shape, dtype, rng):
        batch = rng.uniform(-1, 1, shape).astype(dtype)
        # The expression this replaced: it copied a float32 batch twice.
        expected = (
            np.ascontiguousarray(batch.transpose(0, 2, 3, 1)).ravel().astype(np.float32)
        )
        stream = interleave_images(batch)
        assert stream.dtype == np.float32 and stream.shape == (batch.size,)
        assert stream.tobytes() == expected.tobytes()
        # (N, 1, H, W) transposes to a contiguous view: still not the batch.
        assert stream.flags.owndata and not np.shares_memory(stream, batch)

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 3, 4, 12])
    def test_plane_copies_are_the_transpose_bit_for_bit(self, c, dtype, strided, rng):
        # Written one map plane at a time, the stream is still the
        # transposed batch cast to float32, whatever the input's dtype and
        # strides, signed zeros, subnormals, infinities and NaN included.
        batch = rng.standard_normal((3, 2 * c, 5, 14)).astype(dtype)
        every7 = batch.reshape(-1)[::7]
        every7[:] = np.resize([-0.0, 1e-40, np.inf, -np.inf, np.nan], every7.size)
        # Every second map and column, or a contiguous copy of the same.
        batch = batch[:, ::2, :, ::2]
        if not strided:
            batch = np.ascontiguousarray(batch)
        assert batch.flags.c_contiguous != strided
        before = batch.tobytes()
        stream = interleave_images(batch)
        want = batch.transpose(0, 2, 3, 1).astype(np.float32)
        assert stream.dtype == np.float32 and stream.shape == (batch.size,)
        assert stream.tobytes() == want.tobytes()
        assert batch.tobytes() == before  # the caller's array is untouched


class TestSeededBatch:
    @pytest.mark.parametrize(
        "factory", [tiny_design, usps_design, cifar10_design]
    )
    @pytest.mark.parametrize("seed, images", [(0, 1), (7, 3)])
    def test_is_the_harness_recipe_bit_for_bit(self, factory, seed, images):
        d = factory()
        expected = (
            np.random.default_rng(seed)
            .uniform(0, 1, (images,) + d.input_shape)
            .astype(np.float32)
        )
        got = seeded_batch(d, seed, images)
        assert got.dtype == np.float32
        assert got.tobytes() == expected.tobytes()


class TestWeights:
    def test_random_weights_cover_parameterized_layers(self):
        d = tiny_design()
        w = random_weights(d)
        assert set(w) == {"conv1", "fc1"}
        assert w["conv1"]["weight"].shape == (2, 1, 3, 3)

    @pytest.mark.parametrize(
        "factory",
        [
            tiny_design,
            usps_design,
            cifar10_design,
            # 1.2 M float64 draws: more than one block of rows, then a
            # second layer that only matches from the same generator state.
            lambda: NetworkDesign(
                "wide-fc",
                (8, 16, 16),
                [
                    FCLayerSpec(name="fc1", in_fm=2048, out_fm=600),
                    FCLayerSpec(name="fc2", in_fm=600, out_fm=10),
                ],
            ),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 11])
    def test_random_weights_are_the_one_shot_draws_bit_for_bit(self, factory, seed):
        d = factory()
        rng = np.random.default_rng(seed)
        got = random_weights(d, seed)
        for spec in d.specs:
            if isinstance(spec, ConvLayerSpec):
                shape = (spec.out_fm, spec.in_fm, spec.kh, spec.kw)
            elif isinstance(spec, FCLayerSpec):
                shape = (spec.out_fm, spec.in_fm)
            else:
                assert spec.name not in got
                continue
            # Drawn the old way: whole, as float64, then cast.
            weight = rng.uniform(-0.5, 0.5, shape).astype(np.float32)
            bias = rng.uniform(-0.1, 0.1, spec.out_fm).astype(np.float32)
            layer = got.pop(spec.name)
            assert layer["weight"].dtype == layer["bias"].dtype == np.float32
            assert layer["weight"].tobytes() == weight.tobytes()
            assert layer["bias"].tobytes() == bias.tobytes()
            assert layer["weight"].shape == shape
        assert not got

    def test_extract_matches_shapes(self):
        d = tiny_design()
        m = tiny_model()
        w = extract_weights(d, m)
        assert np.array_equal(w["conv1"]["weight"], m.layers[0].weight)
        assert np.array_equal(w["fc1"]["bias"], m.layers[4].bias)

    def test_extract_shape_mismatch_rejected(self, rng):
        d = tiny_design()
        wrong = Sequential(
            [Conv2D(1, 3, 3, rng=rng), Tanh(), MaxPool2D(2), Flatten(),
             Linear(27, 4, rng=rng)],
            in_shape=(1, 8, 8),
        )
        with pytest.raises(ShapeError):
            extract_weights(d, wrong)

    def test_extract_leftover_layers_rejected(self, rng):
        d = tiny_design()
        extra = Sequential(
            [Conv2D(1, 2, 3, rng=rng), Tanh(), MaxPool2D(2), Flatten(),
             Linear(18, 4, rng=rng), Linear(4, 4, rng=rng)],
            in_shape=(1, 8, 8),
        )
        with pytest.raises(ConfigurationError):
            extract_weights(d, extra)


class TestBuild:
    def test_batch_shape_validated(self):
        d = tiny_design()
        with pytest.raises(ShapeError):
            build_network(d, random_weights(d), np.zeros((1, 1, 9, 9), dtype=np.float32))

    def test_missing_weights_rejected(self, rng):
        d = tiny_design()
        with pytest.raises(ConfigurationError):
            build_network(d, {}, rng.uniform(0, 1, (1, 1, 8, 8)).astype(np.float32))

    def test_functional_equals_timed(self, rng):
        """A values-only run is a compiled run: same bits as `event`."""
        d = tiny_design()
        w = random_weights(d, seed=3)
        batch = rng.uniform(0, 1, (2, 1, 8, 8)).astype(np.float32)
        timed = build_network(d, w, batch)
        timed.run(scheduler="event")
        funct = build_network(d, w, batch)
        funct.run(scheduler="compiled")
        assert np.array_equal(timed.outputs(), funct.outputs())

    def test_outputs_before_run_rejected(self, rng):
        d = tiny_design()
        built = build_network(
            d, random_weights(d), rng.uniform(0, 1, (1, 1, 8, 8)).astype(np.float32)
        )
        with pytest.raises(ShapeError):
            built.outputs()

    @pytest.mark.parametrize("second", ["event", "compiled"])
    @pytest.mark.parametrize("first", ["event", "compiled"])
    def test_a_built_network_runs_once(self, rng, first, second):
        d = tiny_design()
        built = build_network(
            d, random_weights(d), rng.uniform(0, 1, (2, 1, 8, 8)).astype(np.float32)
        )
        result = built.run(scheduler=first)
        assert result.scheduler_stats["scheduler"] == first
        want = built.outputs()
        with pytest.raises(SimulationError, match="already run"):
            built.run(scheduler=second)
        # The refused run added nothing to the sink.
        assert built.result is result
        assert len(built.sink.received) == want.size
        assert np.array_equal(built.outputs(), want)

    def test_demux_adapter_network(self, rng):
        # First conv with 2 input ports forces a demux from the DMA stream.
        d = NetworkDesign(
            "demux-net", (2, 6, 6),
            [
                ConvLayerSpec(name="c1", in_fm=2, out_fm=2, kh=3, in_ports=2,
                              out_ports=2),
                FCLayerSpec(name="f1", in_fm=2 * 16, out_fm=3),
            ],
        )
        m = Sequential(
            [Conv2D(2, 2, 3, rng=np.random.default_rng(5)), Flatten(),
             Linear(32, 3, rng=np.random.default_rng(6))],
            in_shape=(2, 6, 6),
        )
        w = extract_weights(d, m)
        batch = rng.uniform(0, 1, (2, 2, 6, 6)).astype(np.float32)
        built = build_network(d, w, batch)
        built.run()
        assert np.allclose(built.outputs(), m.forward(batch), atol=1e-4)

    def test_widen_adapter_network(self, rng):
        # conv out 4 ports -> conv in 2 ports exercises the interleaver.
        d = NetworkDesign(
            "widen-net", (1, 8, 8),
            [
                ConvLayerSpec(name="c1", in_fm=1, out_fm=4, kh=3, out_ports=4,
                              activation="tanh"),
                ConvLayerSpec(name="c2", in_fm=4, out_fm=2, kh=3, in_ports=2),
                FCLayerSpec(name="f1", in_fm=2 * 16, out_fm=3),
            ],
        )
        rng0 = np.random.default_rng(4)
        m = Sequential(
            [Conv2D(1, 4, 3, rng=rng0), Tanh(), Conv2D(4, 2, 3, rng=rng0),
             Flatten(), Linear(32, 3, rng=rng0)],
            in_shape=(1, 8, 8),
        )
        w = extract_weights(d, m)
        batch = rng.uniform(0, 1, (2, 1, 8, 8)).astype(np.float32)
        built = build_network(d, w, batch)
        built.run()
        assert np.allclose(built.outputs(), m.forward(batch), atol=1e-4)

    def test_conv_ending_network_output_shape(self, rng):
        # A design ending in a conv layer reshapes outputs to (N, K, OH, OW).
        d = NetworkDesign(
            "conv-end", (1, 6, 6),
            [ConvLayerSpec(name="c1", in_fm=1, out_fm=2, kh=3, out_ports=2)],
        )
        m = Sequential([Conv2D(1, 2, 3, rng=np.random.default_rng(1))], in_shape=(1, 6, 6))
        w = extract_weights(d, m)
        batch = rng.uniform(0, 1, (2, 1, 6, 6)).astype(np.float32)
        built = build_network(d, w, batch)
        built.run()
        out = built.outputs()
        assert out.shape == (2, 2, 4, 4)
        assert np.allclose(out, m.forward(batch), atol=1e-4)

    def test_image_completion_cycles_monotone(self, rng):
        d = tiny_design()
        w = random_weights(d)
        batch = rng.uniform(0, 1, (4, 1, 8, 8)).astype(np.float32)
        built = build_network(d, w, batch)
        built.run()
        cc = built.image_completion_cycles()
        assert cc == sorted(cc) and len(cc) == 4


class TestGeometryVariants:
    def test_rectangular_kernel_end_to_end(self, rng):
        # 1x3 and 3x1 kernels through the full dataflow build.
        d = NetworkDesign(
            "rect", (1, 6, 8),
            [
                ConvLayerSpec(name="c1", in_fm=1, out_fm=2, kh=1, kw=3,
                              activation="tanh"),
                ConvLayerSpec(name="c2", in_fm=2, out_fm=2, kh=3, kw=1),
                FCLayerSpec(name="f1", in_fm=2 * 4 * 6, out_fm=3),
            ],
        )
        from repro.nn import Conv2D, Flatten, Linear, Sequential, Tanh

        rng0 = np.random.default_rng(8)
        m = Sequential(
            [Conv2D(1, 2, 1, 3, rng=rng0), Tanh(),
             Conv2D(2, 2, 3, 1, rng=rng0), Flatten(), Linear(48, 3, rng=rng0)],
            in_shape=(1, 6, 8),
        )
        batch = rng.uniform(0, 1, (2, 1, 6, 8)).astype(np.float32)
        built = build_network(d, extract_weights(d, m), batch)
        built.run()
        assert np.allclose(built.outputs(), m.forward(batch), atol=1e-4)

    def test_overlapping_pooling_end_to_end(self, rng):
        # AlexNet-style 3x3/s2 overlapping max pooling.
        d = NetworkDesign(
            "overlap", (1, 9, 9),
            [
                ConvLayerSpec(name="c1", in_fm=1, out_fm=2, kh=3,
                              activation="relu"),
                PoolLayerSpec(name="p1", in_fm=2, out_fm=2, kh=3, stride=2),
                FCLayerSpec(name="f1", in_fm=2 * 3 * 3, out_fm=4),
            ],
        )
        from repro.nn import Conv2D, Flatten, Linear, MaxPool2D, ReLU, Sequential

        rng0 = np.random.default_rng(9)
        m = Sequential(
            [Conv2D(1, 2, 3, rng=rng0), ReLU(), MaxPool2D(3, stride=2),
             Flatten(), Linear(18, 4, rng=rng0)],
            in_shape=(1, 9, 9),
        )
        batch = rng.uniform(0, 1, (2, 1, 9, 9)).astype(np.float32)
        built = build_network(d, extract_weights(d, m), batch)
        built.run()
        assert np.allclose(built.outputs(), m.forward(batch), atol=1e-4)
