"""Entry points of the static dataflow verifier.

The checker composes the design-level rules (:mod:`.design_rules`) with
the graph-level rules (:mod:`.graph_rules`):

* :func:`analyze_chain` — tolerant analysis of a raw, possibly broken
  ``(name, input_shape, specs)`` chain (never raises on a bad design;
  emits diagnostics instead);
* :func:`analyze_design` — full design-level analysis of a valid
  :class:`NetworkDesign`, including the perf-model bottleneck report;
* :func:`analyze_graph` — graph-level analysis of any elaborated
  :class:`DataflowGraph` (design optional);
* :func:`check_network` — the whole pipeline, always: design rules, then
  elaborate with placeholder weights and run the graph rules (structure
  needs no weight values, so no design is too big to elaborate);
* :func:`check_design_dict` — lenient JSON-dict front end used by the
  ``repro check`` CLI: bad specs become SPEC.VALID findings, valid
  designs get the full treatment.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.design_rules import run_bottleneck_rule, run_chain_rules
from repro.analysis.diagnostics import AnalysisReport, Severity, make
from repro.analysis.graph_rules import run_graph_rules
from repro.config import DTYPE
from repro.core.builder import DesignWeights, build_network
from repro.core.layer_spec import ConvLayerSpec, FCLayerSpec, LayerSpec
from repro.core.network_design import NetworkDesign, walk_chain
from repro.dataflow.graph import DataflowGraph
from repro.errors import ReproError


def placeholder_weights(design: NetworkDesign) -> DesignWeights:
    """All-zero weights: enough to elaborate, free of RNG cost.

    ``np.zeros`` pages are never touched by elaboration, so even VGG-16's
    100M+ FC parameters cost no resident memory.
    """
    out: DesignWeights = {}
    for p in design.placements:
        spec = p.spec
        if isinstance(spec, ConvLayerSpec):
            kw = spec.kw if spec.kw is not None else spec.kh
            out[spec.name] = {
                "weight": np.zeros(
                    (spec.out_fm, spec.in_fm, spec.kh, kw), dtype=DTYPE
                ),
                "bias": np.zeros(spec.out_fm, dtype=DTYPE),
            }
        elif isinstance(spec, FCLayerSpec):
            out[spec.name] = {
                "weight": np.zeros((spec.out_fm, spec.in_fm), dtype=DTYPE),
                "bias": np.zeros(spec.out_fm, dtype=DTYPE),
            }
    return out


def analyze_chain(
    name: str, input_shape: Sequence[int], specs: Sequence[LayerSpec]
) -> AnalysisReport:
    """Design-level rules over a raw (possibly invalid) spec chain."""
    report = AnalysisReport(name)
    run_chain_rules(walk_chain(input_shape, specs), report)
    return report


def analyze_design(design: NetworkDesign) -> AnalysisReport:
    """Design-level rules plus the perf-model bottleneck report."""
    report = analyze_chain(design.name, design.input_shape, design.specs)
    run_bottleneck_rule(design, report)
    return report


def analyze_graph(
    graph: DataflowGraph, design: Optional[NetworkDesign] = None
) -> AnalysisReport:
    """Graph-level rules over an elaborated graph."""
    report = AnalysisReport(design.name if design is not None else graph.name)
    run_graph_rules(graph, report, design)
    return report


def check_network(
    design: NetworkDesign, memory_system: str = "behavioral"
) -> AnalysisReport:
    """Full static check of a valid design: spec rules + elaborated graph.

    Elaboration uses zero weights and a single blank image — the graph
    rules only look at structure, never at values.
    """
    report = analyze_design(design)
    try:
        built = build_network(
            design,
            placeholder_weights(design),
            np.zeros((1,) + design.input_shape, dtype=DTYPE),
            memory_system=memory_system,
        )
    except ReproError as exc:
        report.add(make(
            "GRAPH.STRUCTURE", Severity.ERROR, "design",
            f"design does not elaborate: {exc}",
        ))
        report.note_rule("GRAPH.STRUCTURE")
        return report
    return report.merge(analyze_graph(built.graph, design))


def check_design_dict(d: dict) -> AnalysisReport:
    """Lenient front end for design dicts (the ``repro check`` CLI path).

    Specs that fail to construct become SPEC.VALID errors; a chain whose
    walk finds violations gets them all reported per boundary, and one
    whose walk finds none *is* a constructible :class:`NetworkDesign`
    and gets the full :func:`check_network`.
    """
    from repro.core.serialize import spec_from_dict

    name = str(d.get("name", "design"))
    report = AnalysisReport(name)
    report.note_rule("SPEC.VALID")

    shape = d.get("input_shape")
    if (not isinstance(shape, (list, tuple)) or len(shape) != 3
            or not all(isinstance(v, int) and v > 0 for v in shape)):
        report.add(make(
            "SPEC.VALID", Severity.ERROR, "design",
            f"input_shape must be a positive (C, H, W) triple, got {shape!r}",
        ))
        return report

    specs: List[LayerSpec] = []
    spec_errors = False
    for i, sd in enumerate(d.get("layers", [])):
        try:
            specs.append(spec_from_dict(dict(sd)))
        except (ReproError, TypeError, KeyError) as exc:
            spec_errors = True
            report.add(make(
                "SPEC.VALID", Severity.ERROR, f"layer[{i}]",
                f"spec does not construct: {exc}",
                hint="fix this layer's parameters; the remaining layers "
                     "were still analyzed",
            ))

    walk = walk_chain(shape, specs)
    if not spec_errors and not walk.errors():
        design = NetworkDesign(name, shape, specs)
        return report.merge(check_network(design))
    if specs or not spec_errors:
        run_chain_rules(walk, report)
    return report
