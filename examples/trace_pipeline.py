"""Observing the high-level pipeline: activity traces and waveforms.

The paper's key dynamic claim is that "at steady state, all the different
layers of the network will be concurrently active and computing". This
example attaches a tracer to the simulated USPS design, prints per-actor
activity strips and a steady-state utilization table that make the claim
visible, checks the graph's reconvergent branches for buffering problems,
and writes a VCD waveform of every FIFO's occupancy for GTKWave.

Run:  python examples/trace_pipeline.py       (writes trace.vcd)
"""

import numpy as np

from repro.analysis import analyze_graph
from repro.core import extract_weights, usps_design, usps_model
from repro.core.builder import build_network
from repro.dataflow import Tracer
from repro.report import format_table

design = usps_design()
model = usps_model(np.random.default_rng(1))
batch = np.random.default_rng(2).uniform(0, 1, (8, 1, 16, 16)).astype(np.float32)

built = build_network(design, extract_weights(design, model), batch)
tracer = Tracer()
built.run(tracer=tracer)

total = built.result.cycles
print(f"simulated {batch.shape[0]} images in {total} cycles\n")

# Activity strips: one row per actor, '#' = working, '.' = stalled.
print(tracer.activity_strips(width=64))
print()

# Steady-state utilization (middle third of the run, fill/drain excluded).
start, end = total // 3, 2 * total // 3
util = tracer.utilization(start, end)
rows = sorted(
    ([name, frac * 100] for name, frac in util.items()),
    key=lambda r: -r[1],
)
print(format_table(
    ["actor", "busy %"],
    rows,
    title=f"steady-state utilization (cycles {start}..{end})",
    float_fmt="{:.0f}",
))
print()

active = tracer.concurrently_active(threshold=0.3, start=start, end=end)
layers = sorted({a.split(".")[0] for a in active if "." in a})
print(f"concurrently active pipeline stages: {layers}")
print("-> the paper's Section IV-C claim, observed directly\n")

# Static check of the elaborated graph, the buffering of its parallel
# branches (BUFFER.SKEW) included.
print(analyze_graph(built.graph, design).format_text())

# Waveform export.
with open("trace.vcd", "w") as fh:
    fh.write(tracer.to_vcd())
print("\nwrote trace.vcd (FIFO occupancies; open with any VCD viewer)")
