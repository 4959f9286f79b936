"""Design-level (spec chain) rules of the static verifier.

These rules operate on a :class:`SpecChain` — a *raw* ``(name,
input_shape, specs)`` triple that, unlike :class:`NetworkDesign`, is never
validated on construction. That lets the verifier walk a broken chain to
the end and report *every* violation with a rule id and a fix hint,
instead of dying on the first exception the way elaboration would.

The walk mirrors :class:`NetworkDesign`'s propagation: shapes flow
forward, every layer boundary is classified into the Section IV-A adapter
cases, and each layer's Eq. 4 initiation interval is recomputed from
first principles. A valid design additionally gets the steady-state
bottleneck of :mod:`repro.core.perf_model` reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.diagnostics import AnalysisReport, Severity, make
from repro.core.layer_spec import ConvLayerSpec, FCLayerSpec, LayerSpec, PoolLayerSpec
from repro.core.network_design import NetworkDesign, PortAdapter, classify_adapter
from repro.errors import PortMismatchError, ReproError
from repro.hls.pipeline import ii_bounds

#: Layer kinds the rate/II rules know how to model.
_KNOWN_KINDS = ("conv", "pool", "fc")


@dataclass(frozen=True)
class SpecChain:
    """An unvalidated design: the verifier's tolerant input form."""

    name: str
    #: Nominally (C, H, W); arity is a SPEC.VALID check, not a type bound.
    input_shape: Tuple[int, ...]
    specs: Tuple[LayerSpec, ...]

    @classmethod
    def from_design(cls, design: NetworkDesign) -> "SpecChain":
        return cls(design.name, design.input_shape, tuple(design.specs))


@dataclass
class ResolvedLayer:
    """One chain position with whatever shape facts could be derived."""

    spec: LayerSpec
    index: int
    prev_name: str
    prev_out_ports: int
    #: Spatial size arriving from upstream (None once propagation broke).
    in_hw: Optional[Tuple[int, int]]
    out_shape: Optional[Tuple[int, int, int]]
    adapter: Optional[PortAdapter]


def run_chain_rules(chain: SpecChain, report: AnalysisReport) -> List[ResolvedLayer]:
    """Run all design-level rules except the bottleneck report."""
    for rule in ("SPEC.VALID", "RATE.BALANCE", "RATE.GEOMETRY",
                 "ADAPTER.LEGAL", "II.EQ4"):
        report.note_rule(rule)

    resolved: List[ResolvedLayer] = []
    if not chain.specs:
        report.add(make(
            "SPEC.VALID", Severity.ERROR, "design",
            "a network needs at least one layer",
        ))
        return resolved
    if len(chain.input_shape) != 3 or any(d < 1 for d in chain.input_shape):
        report.add(make(
            "SPEC.VALID", Severity.ERROR, "design",
            f"input_shape must be a positive (C, H, W), got {chain.input_shape}",
        ))
        return resolved

    shape: Optional[Tuple[int, ...]] = tuple(chain.input_shape)
    prev_name = "dma_in"
    prev_out_ports = 1
    seen_fc = False
    names = set()
    for index, spec in enumerate(chain.specs):
        loc = f"layer:{spec.name}"
        boundary = f"boundary:{prev_name}->{spec.name}"

        if spec.name in names:
            report.add(make(
                "SPEC.VALID", Severity.ERROR, loc,
                f"duplicate layer name {spec.name!r}",
                hint="give every layer a unique name",
            ))
        names.add(spec.name)
        if spec.kind not in _KNOWN_KINDS:
            report.add(make(
                "SPEC.VALID", Severity.ERROR, loc,
                f"unknown layer kind {spec.kind!r}",
            ))
        if seen_fc and not isinstance(spec, FCLayerSpec):
            report.add(make(
                "SPEC.VALID", Severity.ERROR, loc,
                "feature-extraction layer after the classifier stage",
                hint="move all conv/pool layers before the first FC layer",
            ))
            report.add(make(
                "GRAPH.STRUCTURE", Severity.INFO, loc,
                "analysis of downstream layers skipped (broken chain order)",
            ))
            report.note_rule("GRAPH.STRUCTURE")
            break

        # -- RATE.BALANCE: words/image leaving upstream == words entering here.
        if shape is not None:
            upstream_words = shape[0] * shape[1] * shape[2]
            if isinstance(spec, FCLayerSpec):
                consumed = spec.in_fm
                what = f"IN_FM {spec.in_fm} flattened inputs"
            else:
                consumed = spec.in_fm * shape[1] * shape[2]
                what = (f"IN_FM {spec.in_fm} x {shape[1]}x{shape[2]} = "
                        f"{consumed} words")
            if consumed != upstream_words:
                report.add(make(
                    "RATE.BALANCE", Severity.ERROR, boundary,
                    f"rate imbalance: upstream produces {upstream_words} "
                    f"words/image ({shape[0]} FMs over {shape[1]}x{shape[2]}) "
                    f"but {spec.name!r} consumes {what}",
                    hint=f"set {spec.name}.in_fm to match the upstream "
                         f"output volume",
                ))

        # -- ADAPTER.LEGAL: the Section IV-A port classification must exist.
        adapter: Optional[PortAdapter] = None
        try:
            adapter = classify_adapter(prev_out_ports, spec.in_ports)
        except PortMismatchError as exc:
            report.add(make(
                "ADAPTER.LEGAL", Severity.ERROR, boundary,
                f"no legal port adapter: {exc} "
                f"(OUT_PORTS={prev_out_ports}, IN_PORTS={spec.in_ports})",
                hint="pick port counts where one divides the other "
                     "(direct/demux/widen are the only adapter cases)",
            ))

        # -- II.EQ4: the spec's II must equal Eq. 4 exactly.
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
        else:
            expected = max(lo_in, lo_out, 1)
            actual: Optional[int]
            try:
                actual = spec.ii
            except ReproError as exc:
                actual = None
                report.add(make(
                    "II.EQ4", Severity.ERROR, loc,
                    f"spec cannot report an initiation interval: {exc}",
                ))
            if actual is not None and actual != expected:
                binding = ("input" if lo_in >= lo_out else "output")
                report.add(make(
                    "II.EQ4", Severity.ERROR, loc,
                    f"spec reports II={actual} but Eq. 4 gives "
                    f"max(IN_FM/IN_PORTS={lo_in}, OUT_FM/OUT_PORTS={lo_out}) "
                    f"= {expected}",
                    hint=f"the {binding} side binds; the performance model "
                         f"would silently disagree with this core",
                ))

        # -- RATE.GEOMETRY: the window must fit and should tile the input.
        in_hw = (shape[1], shape[2]) if shape is not None else None
        out_shape: Optional[Tuple[int, int, int]] = None
        if isinstance(spec, FCLayerSpec):
            seen_fc = True
            out_shape = (spec.out_fm, 1, 1)
        elif in_hw is not None:
            h, w = in_hw
            try:
                oh, ow = spec.out_hw(h, w)
            except ReproError as exc:
                report.add(make(
                    "RATE.GEOMETRY", Severity.ERROR, loc,
                    f"window does not fit the {h}x{w} input: {exc}",
                    hint="shrink the kernel/stride or add padding",
                ))
            else:
                out_shape = (spec.out_fm, oh, ow)
                if isinstance(spec, (ConvLayerSpec, PoolLayerSpec)):
                    pad = getattr(spec, "pad", 0)
                    kw = spec.kw if spec.kw is not None else spec.kh
                    rh = (h + 2 * pad - spec.kh) % spec.stride
                    rw = (w + 2 * pad - kw) % spec.stride
                    if rh or rw:
                        report.add(make(
                            "RATE.GEOMETRY", Severity.WARNING, loc,
                            f"window {spec.kh}x{spec.kw}/s{spec.stride} does "
                            f"not tile the padded {h}x{w} input: {rh} "
                            f"trailing row(s) and {rw} column(s) are "
                            f"buffered but never enter any window",
                            hint="adjust stride/padding or crop the input "
                                 "to avoid dead on-chip storage",
                        ))

        resolved.append(ResolvedLayer(
            spec=spec, index=index, prev_name=prev_name,
            prev_out_ports=prev_out_ports, in_hw=in_hw,
            out_shape=out_shape, adapter=adapter,
        ))
        prev_name = spec.name
        prev_out_ports = spec.out_ports
        shape = out_shape
        if shape is None and index + 1 < len(chain.specs):
            report.add(make(
                "GRAPH.STRUCTURE", Severity.INFO, loc,
                "shapes of downstream layers unresolved; their rate/geometry "
                "checks were skipped",
            ))
            report.note_rule("GRAPH.STRUCTURE")
            # Keep walking: per-spec (II/adapter) checks still apply.
            for j, rest in enumerate(chain.specs[index + 1:], index + 1):
                resolved.append(ResolvedLayer(
                    spec=rest, index=j, prev_name=prev_name,
                    prev_out_ports=prev_out_ports, in_hw=None,
                    out_shape=None, adapter=None,
                ))
                prev_name = rest.name
                prev_out_ports = rest.out_ports
            break
    return resolved


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
