"""Unit tests for the automated design flow."""

import os

import numpy as np
import pytest

from repro.core import FLOW_PRESETS, run_flow
from repro.errors import ConfigurationError


class TestRunFlow:
    def test_tiny_flow_ok(self):
        res = run_flow("tiny", seed=1, epochs=3)
        assert res.ok
        assert res.verification.passed
        assert res.fits_device
        assert res.training.losses[-1] < res.training.losses[0]

    def test_usps_flow_trains_and_verifies(self):
        res = run_flow("usps", seed=2, epochs=3)
        assert res.ok
        assert res.training.test_accuracy > 0.6
        assert res.interval == 256

    def test_artifacts_emitted(self, tmp_path):
        out = str(tmp_path / "flow")
        res = run_flow("tiny", seed=1, epochs=2, output_dir=out)
        names = {os.path.basename(p) for p in res.artifacts}
        assert names == {"design.json", "weights.npz", "hls_report.txt",
                         "verify.txt"}
        for p in res.artifacts:
            assert os.path.getsize(p) > 0

    def test_artifacts_reload_and_match(self, tmp_path):
        from repro.core import design_from_json, load_weights
        from repro.core.builder import build_network

        out = str(tmp_path / "flow")
        res = run_flow("tiny", seed=3, epochs=2, output_dir=out)
        with open(os.path.join(out, "design.json")) as fh:
            design = design_from_json(fh.read())
        weights = load_weights(os.path.join(out, "weights.npz"))
        batch = np.random.default_rng(0).uniform(
            0, 1, (2,) + design.input_shape
        ).astype(np.float32)
        built = build_network(design, weights, batch)
        built.run(scheduler="compiled")
        ref = res.model.forward(batch)
        assert np.allclose(built.outputs(), ref, atol=1e-4)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            run_flow("alexnet")

    def test_invalid_verify_images_rejected(self):
        with pytest.raises(ConfigurationError):
            run_flow("tiny", verify_images=0)

    def test_presets_registry(self):
        assert set(FLOW_PRESETS) == {"usps", "cifar10", "tiny"}


class TestStateDict:
    def test_roundtrip(self):
        from repro.core import tiny_model

        a = tiny_model(np.random.default_rng(1))
        b = tiny_model(np.random.default_rng(2))
        b.load_state_dict(a.state_dict())
        x = np.random.default_rng(0).uniform(0, 1, (2, 1, 8, 8)).astype(np.float32)
        assert np.array_equal(a.forward(x), b.forward(x))

    def test_mismatched_keys_rejected(self):
        from repro.core import tiny_model
        from repro.errors import ShapeError

        m = tiny_model()
        state = m.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(ShapeError):
            m.load_state_dict(state)

    def test_mismatched_shape_rejected(self):
        from repro.core import tiny_model
        from repro.errors import ShapeError

        m = tiny_model()
        state = m.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ShapeError):
            m.load_state_dict(state)
