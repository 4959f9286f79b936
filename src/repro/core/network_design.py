"""Whole-network designs: validated layer chains and port matching.

:class:`NetworkDesign` is the artifact a designer produces with this
methodology (Figures 4/5): an input shape plus a chain of layer specs.
:func:`walk_chain` resolves such a chain once — it propagates shapes,
classifies every layer-to-layer connection into the three port cases of
Section IV-A (direct / demux / widen) and records every broken invariant
without raising; constructing a :class:`NetworkDesign` raises the walk's
first violation, ``repro check`` (:mod:`repro.analysis`) reports them all.
The design also renders the textual block design of Figures 4 and 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Set, Tuple, Type

from repro.errors import ConfigurationError, PortMismatchError, ReproError, ShapeError
from repro.core.layer_spec import ConvLayerSpec, FCLayerSpec, LayerSpec, PoolLayerSpec

#: A feature-map volume ``(C, H, W)``.
Shape = Tuple[int, int, int]


class PortAdapter(Enum):
    """The three inter-layer connection cases of Section IV-A."""

    DIRECT = "direct"   # OUT_PORTS(i-1) == IN_PORTS(i)
    DEMUX = "demux"     # OUT_PORTS(i-1) <  IN_PORTS(i)
    WIDEN = "widen"     # OUT_PORTS(i-1) >  IN_PORTS(i)


def classify_adapter(prev_out_ports: int, next_in_ports: int) -> PortAdapter:
    """Classify a connection and validate routable divisibility.

    The modulo-interleaved FM-to-port mapping routes cleanly only when one
    port count divides the other; other ratios would require re-ordering
    buffers the paper does not describe.
    """
    if prev_out_ports == next_in_ports:
        return PortAdapter.DIRECT
    if prev_out_ports < next_in_ports:
        if next_in_ports % prev_out_ports:
            raise PortMismatchError(
                f"cannot demux {prev_out_ports} ports into {next_in_ports} "
                f"(not a multiple)"
            )
        return PortAdapter.DEMUX
    if prev_out_ports % next_in_ports:
        raise PortMismatchError(
            f"cannot widen {prev_out_ports} ports onto {next_in_ports} "
            f"(not a multiple)"
        )
    return PortAdapter.WIDEN


@dataclass(frozen=True)
class LayerPlacement:
    """A spec plus its resolved input/output shapes within a network."""

    spec: LayerSpec
    in_shape: Shape
    out_shape: Shape
    #: Adapter between the *previous* stage and this layer.
    adapter: PortAdapter


@dataclass(frozen=True)
class Violation:
    """One broken chain invariant, in the verifier's vocabulary."""

    #: Rule id of :mod:`repro.analysis.rules` the violation reports under.
    rule: str
    #: ``"design"``, ``"layer:<name>"`` or ``"boundary:<prev>-><name>"``.
    location: str
    message: str
    #: What :class:`NetworkDesign` raises for it.
    error: Type[ReproError]
    hint: str = ""


@dataclass(frozen=True)
class WalkedLayer:
    """One chain position with whatever the walk could resolve of it."""

    spec: LayerSpec
    #: Volume arriving from upstream (flattened to ``(n, 1, 1)`` for FC).
    in_shape: Shape
    #: ``None`` when the window does not fit or the layer is out of order.
    out_shape: Optional[Shape]
    #: ``None`` when no Section IV-A case applies (or out of order).
    adapter: Optional[PortAdapter]
    violations: Tuple[Violation, ...]
    #: Why the walk stopped here with layers still ahead ("" when it went on).
    stopped: str = ""


@dataclass(frozen=True)
class ChainWalk:
    """A resolved chain: the layers reached and everything wrong with them."""

    #: Layers up to and including the one the walk stopped at.
    layers: Tuple[WalkedLayer, ...]
    #: Chain-level violations (nothing could be walked).
    violations: Tuple[Violation, ...] = ()

    def errors(self) -> List[Violation]:
        """Every violation in walk order; empty for a constructible chain."""
        return [*self.violations, *(v for lay in self.layers for v in lay.violations)]


def walk_chain(input_shape: Sequence[int], specs: Sequence[LayerSpec]) -> ChainWalk:
    """Resolve a raw layer chain; never raises on a bad one.

    The only place a chain is resolved: shapes flow forward, every layer
    boundary is classified into the Section IV-A adapter cases, and each
    broken invariant becomes a :class:`Violation`. :class:`NetworkDesign`
    raises the first of them; ``repro check`` reports them all. The walk
    stops at a feature-extraction layer behind the classifier and at a
    window that does not fit, because no shape flows past either.
    """
    problem = ""
    if not specs:
        problem = "a network needs at least one layer"
    elif len(input_shape) != 3 or any(d < 1 for d in input_shape):
        problem = f"input_shape must be a positive (C, H, W), got {input_shape}"
    if problem:
        return ChainWalk(
            (), (Violation("SPEC.VALID", "design", problem, ConfigurationError),)
        )

    layers: List[WalkedLayer] = []
    shape: Shape = (int(input_shape[0]), int(input_shape[1]), int(input_shape[2]))
    prev_name = "dma_in"
    prev_out_ports = 1  # the DMA is a single stream
    seen_fc = False
    names: Set[str] = set()
    for index, spec in enumerate(specs):
        loc = f"layer:{spec.name}"
        boundary = f"boundary:{prev_name}->{spec.name}"
        found: List[Violation] = []
        if spec.name in names:
            found.append(Violation(
                "SPEC.VALID", loc, f"duplicate layer name {spec.name!r}",
                ConfigurationError, "give every layer a unique name",
            ))
        names.add(spec.name)
        is_fc = isinstance(spec, FCLayerSpec)
        if seen_fc and not is_fc:
            found.append(Violation(
                "SPEC.VALID", loc,
                "feature-extraction layer after the classifier stage",
                ConfigurationError,
                "move all conv/pool layers before the first FC layer",
            ))
            layers.append(WalkedLayer(
                spec, shape, None, None, tuple(found),
                "analysis of downstream layers skipped (broken chain order)",
            ))
            break
        seen_fc = seen_fc or is_fc

        # RATE.BALANCE: words/image leaving upstream == words entering here.
        c, h, w = shape
        if is_fc:
            in_shape: Shape = (c * h * w, 1, 1)  # classifier stage: flatten
            what = f"IN_FM {spec.in_fm} flattened inputs"
        else:
            in_shape = shape
            what = f"IN_FM {spec.in_fm} x {h}x{w} = {spec.in_fm * h * w} words"
        if in_shape[0] != spec.in_fm:
            found.append(Violation(
                "RATE.BALANCE", boundary,
                f"rate imbalance: upstream produces {c * h * w} words/image "
                f"({c} FMs over {h}x{w}) but {spec.name!r} consumes {what}",
                ShapeError,
                f"set {spec.name}.in_fm to match the upstream output volume",
            ))

        # ADAPTER.LEGAL: the Section IV-A port classification must exist.
        adapter: Optional[PortAdapter] = None
        try:
            adapter = classify_adapter(prev_out_ports, spec.in_ports)
        except PortMismatchError as exc:
            found.append(Violation(
                "ADAPTER.LEGAL", boundary,
                f"no legal port adapter: {exc} "
                f"(OUT_PORTS={prev_out_ports}, IN_PORTS={spec.in_ports})",
                PortMismatchError,
                "pick port counts where one divides the other "
                "(direct/demux/widen are the only adapter cases)",
            ))

        # RATE.GEOMETRY: the window must fit the arriving feature maps.
        out_shape: Optional[Shape] = None
        stopped = ""
        try:
            out_shape = (spec.out_fm,) + spec.out_hw(in_shape[1], in_shape[2])
        except ReproError as exc:
            found.append(Violation(
                "RATE.GEOMETRY", loc,
                f"window does not fit the {h}x{w} input: {exc}", type(exc),
                "shrink the kernel/stride or add padding",
            ))
            if index + 1 < len(specs):
                stopped = ("shapes of downstream layers unresolved; their "
                           "rate/geometry checks were skipped")
        layers.append(WalkedLayer(
            spec, in_shape, out_shape, adapter, tuple(found), stopped
        ))
        if out_shape is None:
            break
        shape = out_shape
        prev_name = spec.name
        prev_out_ports = spec.out_ports
    return ChainWalk(tuple(layers))


class NetworkDesign:
    """A validated chain of layer specs over a fixed input shape.

    Parameters
    ----------
    name: design name (e.g. ``"usps"``).
    input_shape: ``(C, H, W)`` of the images fed by the DMA.
    specs: the layer chain, feature extraction first, classifier last.
    """

    #: ``sha256:`` digest of the design's JSON form, computed on first use
    #: by :func:`repro.compiled.plan_cache.design_digest`.
    _digest: Optional[str] = None

    def __init__(
        self,
        name: str,
        input_shape: Sequence[int],
        specs: Sequence[LayerSpec],
    ) -> None:
        walk = walk_chain(input_shape, specs)
        for first in walk.errors():
            raise first.error(f"{first.location}: {first.message}")
        self.name = str(name)
        c, h, w = input_shape
        self.input_shape: Shape = (int(c), int(h), int(w))
        # A tuple of frozen placements: a design never changes once built,
        # so a digest of it can be kept (compiled.plan_cache.design_digest).
        placements: List[LayerPlacement] = []
        for lay in walk.layers:
            assert lay.out_shape is not None and lay.adapter is not None  # no errors
            placements.append(
                LayerPlacement(lay.spec, lay.in_shape, lay.out_shape, lay.adapter)
            )
        self.placements: Tuple[LayerPlacement, ...] = tuple(placements)

    # -- convenience views ------------------------------------------------------

    @property
    def specs(self) -> List[LayerSpec]:
        return [p.spec for p in self.placements]

    @property
    def n_layers(self) -> int:
        return len(self.placements)

    @property
    def output_shape(self) -> Tuple[int, int, int]:
        return self.placements[-1].out_shape

    @property
    def n_classes(self) -> int:
        """Output feature count of the last layer (classification classes)."""
        return self.output_shape[0]

    def input_words_per_image(self) -> int:
        """Stream words the DMA sends per image."""
        c, h, w = self.input_shape
        return c * h * w

    def output_words_per_image(self) -> int:
        """Stream words the design emits per image."""
        k, oh, ow = self.output_shape
        return k * oh * ow

    def macs_per_image(self) -> int:
        """Total MAC operations per image across all layers."""
        return sum(
            p.spec.macs_per_image(p.in_shape[1], p.in_shape[2])
            for p in self.placements
        )

    def flops_per_image(self) -> int:
        """Total FLOPs per image (2 per MAC)."""
        return 2 * self.macs_per_image()

    def weight_count(self) -> int:
        """Total parameters hard-coded on chip."""
        return sum(p.spec.weight_count() for p in self.placements)

    def full_buffering_words(self) -> int:
        """Total full-buffering FIFO words across all memory structures.

        The worst-case sizing the paper pays (Section II-B); the depth
        prover (:mod:`repro.analysis.depths`) certifies how far below
        this a design can actually run. Blocked conv layers are sized on
        their *tile* geometry — the point of block convolution: line
        buffers span the input-block width ``iw``, not the full
        feature-map width.
        """
        from repro.sst.sizing import layer_buffer_budget

        total = 0
        for p in self.placements:
            spec = p.spec
            if not isinstance(spec, (ConvLayerSpec, PoolLayerSpec)):
                continue
            plan = (
                spec.block_plan(p.in_shape[1], p.in_shape[2])
                if isinstance(spec, ConvLayerSpec)
                else None
            )
            if plan is not None:
                total += layer_buffer_budget(
                    plan.tile_window, plan.iw, spec.in_fm, spec.in_ports
                ).fifo_words
            else:
                total += layer_buffer_budget(
                    spec.window, p.in_shape[2], spec.in_fm, spec.in_ports
                ).fifo_words
        return total

    def with_blocking(self, tiles: "dict | int") -> "NetworkDesign":
        """A copy with block convolution applied to conv layers.

        See :func:`repro.core.block_transform.with_blocking`; ``tiles``
        maps conv layer names to tile sizes (or is one tile size applied
        to every conv layer).
        """
        from repro.core.block_transform import with_blocking

        return with_blocking(self, tiles)

    # -- rendering (Figures 4 / 5) -----------------------------------------------

    def block_design(self) -> str:
        """Textual block design: the reproduction of Figures 4 and 5.

        Each block shows the window size, input/output channel counts and
        the number of windows taken as input, as the figure captions
        describe, plus the resolved shapes and adapters.
        """
        c, h, w = self.input_shape
        lines = [
            f"=== Block design: {self.name} ===",
            f"input: {h}x{w}x{c} (DMA stream, 1 port)",
        ]
        for p in self.placements:
            ci, hi, wi = p.in_shape
            co, ho, wo = p.out_shape
            if p.adapter is not PortAdapter.DIRECT:
                lines.append(f"  |- adapter: {p.adapter.value}")
            windows = (
                p.spec.in_ports
                if isinstance(p.spec, (ConvLayerSpec, PoolLayerSpec))
                else 0
            )
            detail = f"{p.spec.describe()}  in={hi}x{wi}x{ci} out={ho}x{wo}x{co}"
            if windows:
                detail += f"  windows={windows}"
            detail += f"  II={p.spec.ii}"
            lines.append(f"  [{p.spec.name}] {detail}")
        lines.append(f"output: {self.n_classes} classes")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"NetworkDesign({self.name!r}, {self.n_layers} layers)"
