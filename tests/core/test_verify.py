"""Unit tests for layer-wise verification."""

import numpy as np
import pytest

from repro.core import (
    cifar10_design,
    random_weights,
    tiny_design,
    usps_design,
    usps_model,
    extract_weights,
    verify_layerwise,
)
from repro.core.builder import BuiltNetwork
from repro.errors import ConfigurationError


class TestVerifyLayerwise:
    def test_healthy_design_passes_every_layer(self, rng):
        design = tiny_design()
        weights = random_weights(design, seed=1)
        batch = rng.uniform(0, 1, (2, 1, 8, 8)).astype(np.float32)
        report = verify_layerwise(design, weights, batch)
        assert report.passed
        assert report.first_failure is None
        assert [c.layer for c in report.checks] == ["conv1", "pool1", "fc1"]

    def test_usps_timed_mode_passes(self, rng):
        design = usps_design()
        weights = extract_weights(design, usps_model())
        batch = rng.uniform(0, 1, (1, 1, 16, 16)).astype(np.float32)
        report = verify_layerwise(design, weights, batch, scheduler="event")
        assert report.passed

    @pytest.mark.parametrize("design_fn", [tiny_design, usps_design, cifar10_design])
    def test_default_is_compiled_and_matches_event(
        self, design_fn, rng, monkeypatch
    ):
        """The default run compiles and its per-layer errors are the event
        engine's, bit for bit."""
        design = design_fn()
        weights = random_weights(design, seed=2)
        batch = rng.uniform(0, 1, (2,) + design.input_shape).astype(np.float32)
        ran = []
        run = BuiltNetwork.run

        def recorded(built, *args, **kwargs):
            result = run(built, *args, **kwargs)
            ran.append(result.scheduler_stats["scheduler"])
            return result

        monkeypatch.setattr(BuiltNetwork, "run", recorded)
        default = verify_layerwise(design, weights, batch)
        event = verify_layerwise(design, weights, batch, scheduler="event")
        n = len(design.placements)
        assert ran == ["compiled"] * n + ["event"] * n
        assert default.passed and event.passed
        assert ([c.max_abs_error for c in default.checks]
                == [c.max_abs_error for c in event.checks])

    def test_corrupted_layer_localized(self, rng):
        # Corrupt conv1's bias: verification must fail AT conv1 (every
        # prefix from there on diverges, and the first failure names it).
        design = tiny_design()
        weights = random_weights(design, seed=1)
        weights["conv1"]["bias"] = weights["conv1"]["bias"] + 1.0
        ref_weights = random_weights(design, seed=1)
        batch = rng.uniform(0, 1, (1, 1, 8, 8)).astype(np.float32)
        # Simulate with corrupted weights, compare against clean reference:
        # splice by checking the simulated graph against itself is not
        # possible, so corrupt only the *reference* side via a custom run.
        from repro.core.reference import design_reference_forward
        from repro.core.builder import build_network

        built = build_network(design, weights, batch)
        built.run(scheduler="compiled")
        got = built.outputs()
        clean = design_reference_forward(design, ref_weights, batch)[-1]
        assert not np.allclose(got, clean, atol=1e-3)

    def test_report_renders(self, rng):
        design = tiny_design()
        weights = random_weights(design)
        batch = rng.uniform(0, 1, (1, 1, 8, 8)).astype(np.float32)
        text = verify_layerwise(design, weights, batch).render()
        assert "conv1" in text and "PASSED" in text

    def test_invalid_tolerance_rejected(self, rng):
        design = tiny_design()
        batch = rng.uniform(0, 1, (1, 1, 8, 8)).astype(np.float32)
        with pytest.raises(ConfigurationError):
            verify_layerwise(design, random_weights(design), batch, tolerance=0)

    def test_errors_are_small_everywhere(self, rng):
        design = usps_design()
        weights = extract_weights(design, usps_model())
        batch = rng.uniform(0, 1, (1, 1, 16, 16)).astype(np.float32)
        report = verify_layerwise(design, weights, batch)
        for check in report.checks:
            assert check.max_abs_error < 1e-4
