"""End-to-end batch runner: simulate a design and verify/measure it.

The one-stop API used by examples, tests and benchmarks: build, run,
compare against the NumPy reference, and extract the measured timing
(per-image completion cycles, steady-state interval, Figure 6 curves from
actual cycle simulation rather than the analytical model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.builder import (
    BuiltNetwork,
    DesignWeights,
    build_network,
    extract_weights,
)
from repro.core.network_design import NetworkDesign
from repro.errors import ConfigurationError, ShapeError
from repro.fpga.board import Board, VC707
from repro.nn.network import Sequential


@dataclass
class RunReport:
    """Everything one simulated batch run produced."""

    design_name: str
    images: int
    total_cycles: int
    outputs: np.ndarray
    completion_cycles: List[int]
    #: Mean steady-state cycles between image completions (NaN if 1 image).
    measured_interval: float
    #: Max |simulated - reference| when a reference model was supplied.
    max_abs_error: Optional[float] = None

    def mean_cycles_per_image(self) -> float:
        """Total cycles divided by batch size (Figure 6's measured y)."""
        return self.completion_cycles[-1] / self.images

    def mean_us_per_image(self, board: Board = VC707) -> float:
        """Figure 6's y-axis in microseconds."""
        return board.seconds(self.mean_cycles_per_image()) * 1e6


def run_batch(
    design: NetworkDesign,
    weights: DesignWeights,
    batch: np.ndarray,
    reference: Optional[Sequential] = None,
) -> RunReport:
    """Build ``design``, stream ``batch`` through it, and report.

    The run is the cycle-accurate simulation on the ``event`` engine.
    ``reference`` optionally checks the outputs against the software model.
    """
    built = build_network(design, weights, batch)
    built.run()
    outputs = built.outputs()
    completions = built.image_completion_cycles()
    interval = (
        float(np.mean(np.diff(completions))) if len(completions) > 1 else float("nan")
    )
    max_err = None
    if reference is not None:
        ref = reference.forward(batch)
        if ref.shape != outputs.shape:
            raise ShapeError(
                f"reference output {ref.shape} != simulated {outputs.shape}"
            )
        max_err = float(np.max(np.abs(ref - outputs)))
    return RunReport(
        design_name=design.name,
        images=batch.shape[0],
        total_cycles=built.result.cycles,
        outputs=outputs,
        completion_cycles=completions,
        measured_interval=interval,
        max_abs_error=max_err,
    )


def run_trained(
    design: NetworkDesign,
    model: Sequential,
    batch: np.ndarray,
) -> RunReport:
    """Convenience wrapper: extract ``model``'s weights and verify against it."""
    weights = extract_weights(design, model)
    return run_batch(design, weights, batch, reference=model)


def simulated_batch_sweep(
    design: NetworkDesign,
    weights: DesignWeights,
    image: np.ndarray,
    batches: Sequence[int],
    board: Board = VC707,
) -> List[dict]:
    """Figure 6 from actual cycle simulation: one run per batch size.

    ``image`` is a single ``(C, H, W)`` sample replicated ``B`` times per
    run (the timing is data-independent, so replication is sound).
    """
    if image.ndim != 3:
        raise ConfigurationError(f"image must be (C, H, W), got {image.shape}")
    rows = []
    for b in batches:
        batch = np.repeat(image[None], b, axis=0)
        report = run_batch(design, weights, batch)
        rows.append(
            {
                "batch": b,
                "mean_cycles": report.mean_cycles_per_image(),
                "mean_us": report.mean_us_per_image(board),
                "interval": report.measured_interval,
            }
        )
    return rows
