"""Fig. 6 / Eq. 4 convergence, property-tested on measured cycles.

The paper's claim: per-image cost ``(fill + (B-1)·II) / B`` starts at
the full fill latency for B=1 and converges to the bottleneck II as the
batch grows past the pipeline depth. These tests sweep the batch across
the knee on the *event* engine — genuinely measured cycle counts, not
the compiled engine's modeled timing — and assert both sides of the
knee: small batches pay the fill, large batches amortize it to within
tolerance of II.
"""

import numpy as np
import pytest

from repro.core import network_perf, random_weights, tiny_design, usps_design
from repro.core.builder import build_network
from repro.serve import convergence_knee

TOLERANCE = 0.05

DESIGNS = {
    "tiny": tiny_design,
    "usps": usps_design,
}


def measured_per_image_cycles(design, batch, seed=0):
    weights = random_weights(design, seed=seed)
    rng = np.random.default_rng(seed)
    images = rng.uniform(0, 1, (batch,) + design.input_shape).astype(
        np.float32
    )
    built = build_network(design, weights, images)
    result = built.run(scheduler="event")
    return result.cycles / batch


@pytest.mark.parametrize("name", sorted(DESIGNS))
class TestAcrossTheKnee:
    def test_small_batch_pays_the_fill(self, name):
        # At B <= #layers the pipeline never fully fills: per-image cost
        # must still sit well above the bottleneck II (by at least half
        # the amortized fill gap Eq. 4 predicts at that batch).
        design = DESIGNS[name]()
        perf = network_perf(design)
        batch = max(design.n_layers // 2, 1)
        measured = measured_per_image_cycles(design, batch)
        predicted_gap = (perf.fill_latency - perf.interval) / batch
        assert measured >= perf.interval + predicted_gap / 2

    def test_large_batch_converges_to_ii(self, name):
        # At B >> #layers (twice the knee) the measured per-image cost
        # is within tolerance of the Eq. 4 bottleneck II.
        design = DESIGNS[name]()
        perf = network_perf(design)
        batch = 2 * convergence_knee(design, tolerance=TOLERANCE, perf=perf)
        measured = measured_per_image_cycles(design, batch)
        rel = (measured - perf.interval) / perf.interval
        assert rel >= 0  # fill can only add cycles
        assert rel <= TOLERANCE

    def test_monotone_convergence(self, name):
        # Per-image cost is non-increasing in batch size (Eq. 4 is
        # monotone; the measured curve must be too, modulo nothing —
        # the simulator is deterministic).
        design = DESIGNS[name]()
        knee = convergence_knee(design, tolerance=TOLERANCE)
        batches = sorted({1, design.n_layers, knee, 2 * knee})
        costs = [measured_per_image_cycles(design, b) for b in batches]
        assert all(b <= a * 1.001 for a, b in zip(costs, costs[1:]))

    def test_eq4_brackets_measurement_everywhere(self, name):
        # At every swept batch, Eq. 4 brackets the measurement: the
        # bottleneck II is a hard floor, and the model's fill latency is
        # a (conservative) ceiling, so measured per-image cost lies in
        # [II, II + (fill - II)/B]. Past the knee the bracket itself is
        # tight, which is the convergence claim.
        design = DESIGNS[name]()
        perf = network_perf(design)
        knee = convergence_knee(design, tolerance=TOLERANCE, perf=perf)
        for batch in sorted({1, design.n_layers, knee, 2 * knee}):
            measured = measured_per_image_cycles(design, batch)
            predicted = perf.mean_cycles_per_image(batch)
            assert perf.interval <= measured <= predicted * 1.001, (
                f"{name} batch {batch}: {measured} outside "
                f"[{perf.interval}, {predicted}]"
            )
