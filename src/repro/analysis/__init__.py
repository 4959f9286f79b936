"""Static dataflow-network verification (``repro check``).

A rule-based analyzer that catches rate, adapter, buffering and
initiation-interval bugs *before* simulation: design-level rules check the
layer-spec chain against the paper's balance equations, port-adapter cases
and Eq. 4; graph-level rules check the elaborated dataflow graph for
mis-wired adapters, under-buffered reconvergent branches and full-buffering
violations. See DESIGN.md section 9 for the rule catalog.
"""

from repro.analysis.checker import (
    analyze_chain,
    analyze_design,
    analyze_graph,
    check_design_dict,
    check_network,
    placeholder_weights,
)
from repro.analysis.depths import (
    DepthCertificate,
    DepthPlan,
    ShrinkReport,
    apply_depth_plan,
    bisect_channel_floor,
    bisect_plan,
    chain_run_ahead,
    infer_depth_plan,
    load_depth_plan,
    probe_tight_certificate,
    run_shrink,
    validate_plan,
)
from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity, make
from repro.analysis.graph_rules import actor_skew_latency
from repro.analysis.rules import DESIGN_RULES, GRAPH_RULES, RULES, RuleInfo, render_catalog

__all__ = [
    "AnalysisReport",
    "DepthCertificate",
    "DepthPlan",
    "Diagnostic",
    "Severity",
    "ShrinkReport",
    "RuleInfo",
    "RULES",
    "DESIGN_RULES",
    "GRAPH_RULES",
    "actor_skew_latency",
    "analyze_chain",
    "analyze_design",
    "analyze_graph",
    "apply_depth_plan",
    "bisect_channel_floor",
    "bisect_plan",
    "chain_run_ahead",
    "check_design_dict",
    "check_network",
    "infer_depth_plan",
    "load_depth_plan",
    "make",
    "placeholder_weights",
    "probe_tight_certificate",
    "render_catalog",
    "run_shrink",
    "validate_plan",
]
