"""Layer-wise verification: localize dataflow/reference divergence.

Given a design, weights and a batch, :func:`verify_layerwise` simulates
every *prefix* of the layer chain as its own dataflow graph and compares
each prefix's streamed output against the NumPy reference of the same
prefix (:mod:`repro.core.reference`). The result pinpoints the first layer
whose hardware elaboration diverges — the debugging workflow a designer
needs when a full-network check merely says "outputs differ".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.builder import DesignWeights, build_network
from repro.core.network_design import NetworkDesign
from repro.core.reference import design_reference_forward
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LayerCheck:
    """Outcome of verifying one prefix of the chain."""

    layer: str
    kind: str
    max_abs_error: float
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    """All prefix checks plus the overall verdict."""

    design_name: str
    checks: List[LayerCheck]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self) -> Optional[str]:
        """Name of the first diverging layer, or ``None``."""
        for c in self.checks:
            if not c.passed:
                return c.layer
        return None

    def render(self) -> str:
        """Human-readable per-layer table."""
        lines = [f"=== layer-wise verification: {self.design_name} "
                 f"(tol {self.tolerance:g}) ==="]
        width = max(len(c.layer) for c in self.checks)
        for c in self.checks:
            mark = "ok " if c.passed else "FAIL"
            lines.append(
                f"  {mark} {c.layer.ljust(width)} [{c.kind}] "
                f"max|err| = {c.max_abs_error:.3e}"
            )
        verdict = "PASSED" if self.passed else f"FAILED at {self.first_failure}"
        lines.append(f"  -> {verdict}")
        return "\n".join(lines)


def _prefix_design(design: NetworkDesign, upto: int) -> NetworkDesign:
    """The sub-design consisting of layers ``0..upto``."""
    return NetworkDesign(
        f"{design.name}[:{upto + 1}]",
        design.input_shape,
        design.specs[: upto + 1],
    )


def verify_layerwise(
    design: NetworkDesign,
    weights: DesignWeights,
    batch: np.ndarray,
    tolerance: float = 1e-4,
    scheduler: str = "compiled",
) -> VerifyReport:
    """Simulate every chain prefix and compare against the reference.

    ``scheduler`` is the engine each prefix runs on (``"event"`` or
    ``"compiled"``); the values are bit-identical on both, the compiled
    engine is an order of magnitude quicker.
    """
    if tolerance <= 0:
        raise ConfigurationError(f"tolerance must be positive, got {tolerance}")
    refs = design_reference_forward(design, weights, batch)
    checks: List[LayerCheck] = []
    for i, placement in enumerate(design.placements):
        sub = _prefix_design(design, i)
        built = build_network(sub, weights, batch)
        built.run(scheduler=scheduler)
        got = built.outputs()
        ref = refs[i]
        if ref.ndim == 2 and got.ndim == 2:
            pass
        elif ref.shape != got.shape:
            # FC reference is (N, F); conv/pool outputs are (N, C, OH, OW).
            ref = ref.reshape(got.shape)
        err = float(np.max(np.abs(got - ref))) if got.size else 0.0
        checks.append(
            LayerCheck(
                layer=placement.spec.name,
                kind=placement.spec.kind,
                max_abs_error=err,
                passed=err <= tolerance,
            )
        )
    return VerifyReport(design.name, checks, tolerance)
