"""Designer workflow: synthesis report, layer-wise verification, handoff.

Walks what a user of the methodology does before committing a design:

1. read the HLS-style synthesis report (II, depth, resources per core);
2. run layer-wise verification, which simulates every prefix of the chain
   and pinpoints the first diverging layer if anything is wrong;
3. serialize the design (JSON) and trained weights (NPZ) as the artifacts
   the elaboration step consumes, and prove they reload identically.

Run:  python examples/verify_and_report.py
"""

import os
import tempfile

import numpy as np

from repro.core import (
    design_from_json,
    design_to_json,
    extract_weights,
    load_weights,
    render_report,
    save_weights,
    tiny_design,
    tiny_model,
    verify_layerwise,
)
from repro.core.builder import build_network

design = tiny_design()
model = tiny_model()
weights = extract_weights(design, model)
batch = np.random.default_rng(0).uniform(0, 1, (2, 1, 8, 8)).astype(np.float32)

# 1. Synthesis-style report.
print(render_report(design))
print()

# 2. Layer-wise verification (every prefix simulated and compared).
report = verify_layerwise(design, weights, batch)
print(report.render())
print()

# 3. Serialization round trip.
with tempfile.TemporaryDirectory() as tmp:
    design_path = os.path.join(tmp, "design.json")
    weights_path = os.path.join(tmp, "weights.npz")
    with open(design_path, "w") as fh:
        fh.write(design_to_json(design))
    save_weights(weights_path, weights)

    with open(design_path) as fh:
        design2 = design_from_json(fh.read())
    weights2 = load_weights(weights_path)

    a = build_network(design, weights, batch)
    a.run(scheduler="compiled")
    b = build_network(design2, weights2, batch)
    b.run(scheduler="compiled")
    identical = np.array_equal(a.outputs(), b.outputs())

print(f"serialized design + weights reload bit-identically: {identical}")
assert report.passed and identical
print("OK")
