"""Automated design flow (the paper's final future-work item).

Section VI: "we envision the development of an automated design flow and
its integration into industry-standard frameworks." This module chains
the whole methodology into one call: offline training of the software
model on the matching synthetic dataset, weight extraction, layer-wise
verification of the elaborated dataflow design against the model, the
HLS-style synthesis report and the performance/resource summaries —
emitting the artifact set (design JSON, weights NPZ, reports) a downstream
implementation step would consume.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.builder import extract_weights
from repro.core.hls_report import render_report
from repro.core.models import (
    cifar10_design,
    cifar10_model,
    tiny_design,
    tiny_model,
    usps_design,
    usps_model,
)
from repro.core.network_design import NetworkDesign
from repro.core.perf_model import network_perf
from repro.core.resource_model import design_resources
from repro.core.serialize import design_to_json, save_weights
from repro.core.verify import VerifyReport, verify_layerwise
from repro.errors import ConfigurationError
from repro.nn.network import Sequential
from repro.nn.train import TrainResult, train_classifier


@dataclass
class FlowResult:
    """Everything one automated-flow run produced."""

    design: NetworkDesign
    model: Sequential
    training: TrainResult
    verification: VerifyReport
    interval: int
    fits_device: bool
    #: Paths of the emitted artifacts (empty when no output_dir given).
    artifacts: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """Flow verdict: verified design that fits the device."""
        return self.verification.passed and self.fits_device


def _usps_data(seed: int):
    from repro.datasets import generate_usps

    return generate_usps(400, seed=seed)


def _cifar_data(seed: int):
    from repro.datasets import generate_cifar10

    return generate_cifar10(400, seed=seed)


def _tiny_data(seed: int):
    from repro.datasets import generate_usps

    x, y = generate_usps(240, seed=seed)
    return x[:, :, 4:12, 4:12], y % 4


#: preset -> (design factory, model factory, dataset factory, epochs, lr)
FLOW_PRESETS = {
    "usps": (usps_design, usps_model, _usps_data, 5, 0.08),
    "cifar10": (cifar10_design, cifar10_model, _cifar_data, 6, 0.02),
    "tiny": (tiny_design, tiny_model, _tiny_data, 4, 0.05),
}


def run_flow(
    preset: str,
    seed: int = 0,
    output_dir: Optional[str] = None,
    epochs: Optional[int] = None,
    verify_images: int = 2,
    scheduler: str = "compiled",
) -> FlowResult:
    """Run the end-to-end flow for one preset network.

    Parameters
    ----------
    preset: ``"usps"``, ``"cifar10"`` or ``"tiny"``.
    seed: controls training data, weight init and verification inputs.
    output_dir: when given, emits ``design.json``, ``weights.npz``,
        ``hls_report.txt`` and ``verify.txt`` there.
    epochs: override the preset's training length.
    verify_images: batch size of the layer-wise verification run.
    scheduler: the engine the layer-wise verification runs on
        (``"event"`` or ``"compiled"``).
    """
    try:
        design_fn, model_fn, data_fn, preset_epochs, lr = FLOW_PRESETS[preset]
    except KeyError:
        raise ConfigurationError(
            f"unknown flow preset {preset!r}; available: {sorted(FLOW_PRESETS)}"
        ) from None
    if verify_images < 1:
        raise ConfigurationError(
            f"verify_images must be >= 1, got {verify_images}"
        )

    design = design_fn()
    model = model_fn(np.random.default_rng(seed))
    x, y = data_fn(seed)
    n_test = max(1, len(x) // 5)
    training = train_classifier(
        model, x[:-n_test], y[:-n_test],
        epochs=epochs or preset_epochs, lr=lr, batch_size=32,
        x_test=x[-n_test:], y_test=y[-n_test:], seed=seed,
    )

    weights = extract_weights(design, model)
    batch = x[-verify_images:].astype(np.float32)
    verification = verify_layerwise(design, weights, batch, scheduler=scheduler)
    perf = network_perf(design)
    res = design_resources(design)

    artifacts = ()
    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
        paths = []
        p = os.path.join(output_dir, "design.json")
        with open(p, "w") as fh:
            fh.write(design_to_json(design))
        paths.append(p)
        p = os.path.join(output_dir, "weights.npz")
        save_weights(p, weights)
        paths.append(p)
        p = os.path.join(output_dir, "hls_report.txt")
        with open(p, "w") as fh:
            fh.write(render_report(design) + "\n")
        paths.append(p)
        p = os.path.join(output_dir, "verify.txt")
        with open(p, "w") as fh:
            fh.write(verification.render() + "\n")
        paths.append(p)
        artifacts = tuple(paths)

    return FlowResult(
        design=design,
        model=model,
        training=training,
        verification=verification,
        interval=perf.interval,
        fits_device=res.fits(),
        artifacts=artifacts,
    )
