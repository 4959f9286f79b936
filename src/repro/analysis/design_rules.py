"""Design-level (spec chain) rules of the static verifier.

The chain itself — shapes forward, the Section IV-A adapter case at every
boundary, every broken invariant — is resolved once, by
:func:`repro.core.network_design.walk_chain`, the walk
:class:`NetworkDesign` construction raises from. Because the walk never
raises, the verifier reports *every* violation of a broken chain with a
rule id and a fix hint instead of dying on the first one.

What lives here is what is a rule *on top of* the walk: each layer's
Eq. 4 initiation interval recomputed from first principles, the dead
storage of a window that does not tile its input, and (for a valid
design) the steady-state bottleneck of :mod:`repro.core.perf_model`.
"""

from __future__ import annotations

from repro.analysis.diagnostics import AnalysisReport, Severity, make
from repro.core.layer_spec import ConvLayerSpec, LayerSpec, PoolLayerSpec
from repro.core.network_design import ChainWalk, NetworkDesign, Violation, WalkedLayer
from repro.errors import ReproError
from repro.hls.pipeline import ii_bounds


def run_chain_rules(walk: ChainWalk, report: AnalysisReport) -> None:
    """Report the walk's violations and run the per-layer rules on top."""
    for rule in ("SPEC.VALID", "RATE.BALANCE", "RATE.GEOMETRY",
                 "ADAPTER.LEGAL", "II.EQ4"):
        report.note_rule(rule)
    for v in walk.violations:
        _report_violation(v, report)
    for layer in walk.layers:
        for v in layer.violations:
            _report_violation(v, report)
        _check_eq4(layer.spec, report)
        _check_tiling(layer, report)
        if layer.stopped:
            report.add(make(
                "GRAPH.STRUCTURE", Severity.INFO, f"layer:{layer.spec.name}",
                layer.stopped,
            ))
            report.note_rule("GRAPH.STRUCTURE")


def _report_violation(v: Violation, report: AnalysisReport) -> None:
    report.add(make(v.rule, Severity.ERROR, v.location, v.message, hint=v.hint))


def _check_eq4(spec: LayerSpec, report: AnalysisReport) -> None:
    """II.EQ4: the spec's II must equal Eq. 4 exactly."""
    loc = f"layer:{spec.name}"
    try:
        lo_in, lo_out = ii_bounds(
            spec.in_fm, spec.in_ports, spec.out_fm, spec.out_ports
        )
    except ReproError as exc:
        report.add(make(
            "II.EQ4", Severity.ERROR, loc,
            f"Eq. 4 undefined: {exc}",
            hint="port counts must divide the feature-map counts",
        ))
        return
    expected = max(lo_in, lo_out, 1)
    if spec.ii != expected:
        binding = ("input" if lo_in >= lo_out else "output")
        report.add(make(
            "II.EQ4", Severity.ERROR, loc,
            f"spec reports II={spec.ii} but Eq. 4 gives "
            f"max(IN_FM/IN_PORTS={lo_in}, OUT_FM/OUT_PORTS={lo_out}) "
            f"= {expected}",
            hint=f"the {binding} side binds; the performance model "
                 f"would silently disagree with this core",
        ))


def _check_tiling(layer: WalkedLayer, report: AnalysisReport) -> None:
    """RATE.GEOMETRY (warning): a window that fits should tile the input."""
    spec = layer.spec
    if layer.out_shape is None or not isinstance(spec, (ConvLayerSpec, PoolLayerSpec)):
        return
    _, h, w = layer.in_shape
    win = spec.window
    rh = (h + 2 * win.pad - win.kh) % win.stride
    rw = (w + 2 * win.pad - win.kw) % win.stride
    if rh or rw:
        report.add(make(
            "RATE.GEOMETRY", Severity.WARNING, f"layer:{spec.name}",
            f"window {win.kh}x{win.kw}/s{win.stride} does "
            f"not tile the padded {h}x{w} input: {rh} "
            f"trailing row(s) and {rw} column(s) are "
            f"buffered but never enter any window",
            hint="adjust stride/padding or crop the input "
                 "to avoid dead on-chip storage",
        ))


# -- II.BOTTLENECK: the performance model's pacing stage ---------------------


def run_bottleneck_rule(design: NetworkDesign, report: AnalysisReport) -> None:
    """Report the stage that paces the pipeline, as the perf model has it.

    The analyzer keeps no interval arithmetic of its own: the stage list
    of :mod:`repro.core.perf_model` is the one definition, and it is held
    to *measurement* by ``repro profile`` (``PROFILE.II_MISMATCH``) and
    the exact-interval gates of ``repro shard`` / ``repro loadtest``.
    """
    report.note_rule("II.BOTTLENECK")
    if any(d.rule == "II.EQ4" and d.severity is Severity.ERROR
           for d in report.diagnostics):
        report.add(make(
            "II.BOTTLENECK", Severity.INFO, "design",
            "bottleneck report skipped: Eq. 4 violations present",
        ))
        return
    from repro.core.perf_model import network_perf, pacing_stage  # heavy; import on use

    pacing = pacing_stage(network_perf(design).stages)
    report.add(make(
        "II.BOTTLENECK", Severity.INFO, f"stage:{pacing.name}",
        f"steady-state bottleneck: {pacing.name!r} paces the pipeline "
        f"at {pacing.cycles} cycles/image",
    ))
