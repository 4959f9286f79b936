"""Unit tests for the batch runner."""

import numpy as np
import pytest

from repro.core import (
    build_network,
    random_weights,
    run_batch,
    run_trained,
    simulated_batch_sweep,
    tiny_design,
    tiny_model,
)
from repro.errors import ConfigurationError


class TestRunBatch:
    def test_report_fields(self, rng):
        d = tiny_design()
        w = random_weights(d)
        batch = rng.uniform(0, 1, (3, 1, 8, 8)).astype(np.float32)
        rep = run_batch(d, w, batch)
        assert rep.images == 3
        assert len(rep.completion_cycles) == 3
        assert rep.outputs.shape == (3, 4)
        assert rep.measured_interval > 0

    def test_single_image_interval_nan(self, rng):
        d = tiny_design()
        rep = run_batch(d, random_weights(d),
                        rng.uniform(0, 1, (1, 1, 8, 8)).astype(np.float32))
        assert np.isnan(rep.measured_interval)

    def test_reference_check(self, rng):
        d = tiny_design()
        m = tiny_model()
        batch = rng.uniform(0, 1, (2, 1, 8, 8)).astype(np.float32)
        rep = run_trained(d, m, batch)
        assert rep.max_abs_error < 1e-4

    def test_untimed_mode_same_values(self, rng):
        d = tiny_design()
        w = random_weights(d)
        batch = rng.uniform(0, 1, (2, 1, 8, 8)).astype(np.float32)
        timed = run_batch(d, w, batch)
        funct = build_network(d, w, batch)
        funct.run(scheduler="compiled")
        assert np.array_equal(timed.outputs, funct.outputs())

    def test_mean_us_per_image(self, rng):
        d = tiny_design()
        rep = run_batch(d, random_weights(d),
                        rng.uniform(0, 1, (2, 1, 8, 8)).astype(np.float32))
        assert rep.mean_us_per_image() == pytest.approx(
            rep.completion_cycles[-1] / 2 / 100, rel=1e-6
        )


class TestSweep:
    def test_mean_time_decreases_with_batch(self, rng):
        d = tiny_design()
        w = random_weights(d)
        image = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
        rows = simulated_batch_sweep(d, w, image, [1, 2, 4, 8])
        means = [r["mean_us"] for r in rows]
        assert means == sorted(means, reverse=True)

    def test_image_must_be_3d(self, rng):
        d = tiny_design()
        with pytest.raises(ConfigurationError):
            simulated_batch_sweep(
                d, random_weights(d),
                rng.uniform(0, 1, (1, 1, 8, 8)).astype(np.float32), [1],
            )
