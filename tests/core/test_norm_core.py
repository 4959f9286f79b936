"""Unit + integration tests for the Eq. 3 normalization operator core."""

import numpy as np
import pytest

from repro.core.norm_core import (
    NormalizationActor,
    normalization_depth,
    normalization_resources,
)
from repro.dataflow import ArraySource, DataflowGraph, ListSink
from repro.errors import ConfigurationError
from repro.nn import softmax


def run_norm(logit_batches, depth=0):
    n, k = logit_batches.shape
    g = DataflowGraph("t", default_capacity=4)
    src = g.add_actor(ArraySource("src", logit_batches.ravel()))
    norm = g.add_actor(
        NormalizationActor("norm", n_classes=k, images=n, pipeline_depth=depth)
    )
    snk = g.add_actor(ListSink("snk", count=n * k))
    g.connect(src, "out", norm, "in")
    g.connect(norm, "out", snk, "in")
    g.build_simulator().run()
    return np.asarray(snk.received, dtype=np.float32).reshape(n, k), snk


class TestNormalizationActor:
    def test_matches_reference_softmax(self, rng):
        logits = rng.standard_normal((3, 10)).astype(np.float32)
        got, _ = run_norm(logits)
        assert np.allclose(got, softmax(logits), atol=1e-6)

    def test_eq3_invariants(self, rng):
        logits = (rng.standard_normal((2, 5)) * 10).astype(np.float32)
        got, _ = run_norm(logits)
        assert np.all(got >= 0) and np.all(got <= 1)
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-5)

    def test_stable_for_large_logits(self):
        logits = np.array([[500.0, 0.0, -500.0]], dtype=np.float32)
        got, _ = run_norm(logits)
        assert np.isfinite(got).all()

    def test_pipeline_depth_delays_output(self, rng):
        logits = rng.standard_normal((1, 4)).astype(np.float32)
        _, fast = run_norm(logits, depth=0)
        _, slow = run_norm(logits, depth=25)
        assert slow.timestamps[0] >= fast.timestamps[0] + 25

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            NormalizationActor("n", n_classes=0)
        with pytest.raises(ConfigurationError):
            NormalizationActor("n", n_classes=3, pipeline_depth=-1)


class TestCostModels:
    def test_depth_positive_and_grows_with_k(self):
        assert normalization_depth(2) > 0
        assert normalization_depth(1000) > normalization_depth(10)

    def test_resources_include_exp_and_div(self):
        r = normalization_resources(10)
        assert r.dsp >= 7  # the exp core's DSPs
        assert r.lut > 1000


class TestBuilderIntegration:
    def test_normalized_network_outputs_probabilities(self, rng):
        from repro.core import extract_weights, tiny_design, tiny_model
        from repro.core.builder import build_network

        d = tiny_design()
        m = tiny_model()
        batch = rng.uniform(0, 1, (3, 1, 8, 8)).astype(np.float32)
        built = build_network(d, extract_weights(d, m), batch, normalize=True)
        built.run()
        got = built.outputs()
        assert np.allclose(got.sum(axis=-1), 1.0, atol=1e-5)
        assert np.allclose(got, m.predict_proba(batch), atol=1e-4)

    def test_normalize_requires_flat_output(self, rng):
        from repro.core import ConvLayerSpec, NetworkDesign, random_weights
        from repro.core.builder import build_network

        d = NetworkDesign(
            "conv-end", (1, 6, 6),
            [ConvLayerSpec(name="c1", in_fm=1, out_fm=2, kh=3)],
        )
        with pytest.raises(ConfigurationError):
            build_network(
                d, random_weights(d),
                rng.uniform(0, 1, (1, 1, 6, 6)).astype(np.float32),
                normalize=True,
            )

    def test_normalized_classification_identical(self, rng):
        from repro.core import extract_weights, tiny_design, tiny_model
        from repro.core.builder import build_network

        d = tiny_design()
        m = tiny_model()
        batch = rng.uniform(0, 1, (4, 1, 8, 8)).astype(np.float32)
        built = build_network(d, extract_weights(d, m), batch, normalize=True)
        built.run(scheduler="event")
        assert np.array_equal(
            np.argmax(built.outputs(), axis=-1), m.predict(batch)
        )
