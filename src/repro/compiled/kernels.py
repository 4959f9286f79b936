"""Fused, bit-exact vectorized kernels for the compiled engine.

Each kernel consumes an actor's *entire* input streams as numpy arrays
and produces its entire output streams in one pass, batching over the
``images x coordinates`` lanes of the steady-state schedule. A scalar
stream is an ``(n,)`` float32 array. A window stream is the zero-copy
``sliding_window_view`` of the pixel array it was cut from, shape
``(images, out_h, out_w, group, kh, kw)``: its leading four axes flatten
to the actor's emission order (coordinate-major, FM-minor) and its
``nbytes`` is the logical stream size, but the ``kh*kw``-times-expanded
stream is never stored — like the paper's filter chain, every pixel is
held once and the cores read their windows through strides. The conv
and pool kernels do exactly that; the routing kernels that move single
beats (sink, demux, interleave) gather the ``(n, kh, kw)`` stack
of beats first, through :func:`_beats`, and a stack is accepted
wherever a view is.

Bit-exactness with the interpreted engines is a hard contract, every NaN
counting as one value (which payload survives where two NaNs meet is
not a computed result; :func:`repro.dataflow.stable_digest`). It is
kept by reproducing the per-beat association order exactly:

* the conv kernel runs the same product tree
  (``tree_reduce(w_all * wins)``) and the same sequential per-group
  accumulation chain the actor runs per coordinate, in C
  (``conv_tree`` in ``cores.c``, built and loaded by
  :mod:`repro.compiled.native`):
  a tile is 16 output rows ("lanes"), one vector lane each. A whole block
  of 16 images runs as those images at one coordinate, every window
  vector read in place from a copy of the block laid out image-minor;
  the images past the last whole block (all of a call with fewer than
  16) run as 16 consecutive coordinates, whose ``(G, K)`` windows are
  gathered from the port views once, lanes minor. Either way every
  output map's ``K = P*kh*kw`` products, tree and bias-first group chain
  run on 16-lane vectors, in blocks of maps that share each loaded
  window vector. The tree is *not* padded to a power of two: an odd
  level's last node is carried as ``node + 0.0``, which is what the
  padded tree computes for it (``-0.0`` becomes ``+0.0`` on the first
  carry; further pad zeros change nothing, so it is carried once). The
  object is built without FMA contraction or fast-math. ``np.dot``/BLAS
  stays out: it accumulates in an order of its own choosing (blocked,
  FMA-fused), which is not the hardware tree's;
* the FC kernel keeps the interleaved-accumulator order (input ``i``
  feeds lane ``i % acc_lanes``; each lane adds its terms ``w[o, i] *
  x[i]`` one after the other from zero, rounding to float32 at every
  step; the lanes meet in one tree, then the bias), in the same C object
  (``fc_chains``): per image and group of 4 output rows it reads each
  weight row and the image in place, runs the lane chains side by side
  in 16-lane vectors, and meets them in the conv kernel's unpadded,
  carry-once tree;
* max pooling is a chain of ``np.maximum`` over the window elements in
  raster order, each a strided slice of the view — comparisons are
  exact, so only a zero maximum (a ``-0.0``/``+0.0`` tie) depends on the
  order, and the actor's ``w.max()`` settles it in numpy's SIMD lane
  order: exactly those windows are gathered and reduced like the
  actor's, contiguously.
  Mean pooling gathers every beat: numpy's float64 pairwise order over
  ``kh*kw`` contiguous elements is not the order of a strided chain;
* activation/softmax are elementwise or per-row reductions whose
  numpy reduction order over the trailing axis is the same for one row
  or a batch of rows. The conv and FC kernels apply the activation in
  place, to the output their C pass filled (``actor._act(out, out=out)``),
  so a call allocates one output-sized array.

Kernels validate stream lengths against the extracted schedule as they
go; a mismatch is a :class:`~repro.errors.CompilationError` (the graph
was not in steady state after all).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.compiled import native
from repro.config import DTYPE
from repro.core.compute_core import ConvCoreActor
from repro.core.fc_core import FCCoreActor
from repro.core.norm_core import NormalizationActor
from repro.core.pool_core import PoolCoreActor
from repro.dataflow.actors import ArraySource, Interleaver, ListSink, ScheduleDemux
from repro.dataflow.link import LinkRxActor, LinkTxActor
from repro.errors import CompilationError
from repro.sst.block import BlockMergeActor, BlockSplitActor
from repro.sst.line_buffer import SlidingWindowActor

Streams = Dict[str, np.ndarray]


def _expect(actor_name: str, what: str, got: int, want: int) -> None:
    if got != want:
        raise CompilationError(
            f"{actor_name!r}: {what} carries {got} beats, schedule "
            f"expects {want}"
        )


# -- endpoint / routing kernels ------------------------------------------


def _beats(arr: np.ndarray) -> np.ndarray:
    """A stream as one array row per beat.

    A scalar stream already is; a window stream — :func:`k_window`'s
    ``(images, out_h, out_w, group, kh, kw)`` view — is gathered into
    the ``(n, kh, kw)`` stack of its beats in emission order. Only the
    kernels that route individual beats pay for that copy.
    """
    return arr if arr.ndim < 3 else arr.reshape((-1,) + arr.shape[-2:])


def _n_windows(arr: np.ndarray) -> int:
    """Window beats carried by a view or an ``(n, kh, kw)`` stack."""
    return math.prod(arr.shape[:-2])


def k_source(actor: ArraySource, ins: Streams) -> Streams:
    # No kernel writes into its input streams, so the caller's array can
    # be streamed as is instead of being rebuilt from the per-beat list.
    arr = actor.array
    return {actor.port: np.asarray(actor.values) if arr is None else arr}


def k_sink(actor: ListSink, ins: Streams) -> Streams:
    arr = _beats(ins[actor.port])
    if actor.count is not None:
        _expect(actor.name, "sink input", len(arr), actor.count)
    # received gets the per-beat values (numpy scalars / window arrays),
    # matching what the interpreted engines would have appended.
    actor.received.extend(list(arr))
    return {}


def k_link(actor, ins: Streams) -> Streams:
    # LinkTx/LinkRx move words unchanged; their bandwidth pacing lives
    # entirely in the schedule's timing frame.
    return {"out": ins["in"]}


def _cyclic_sources(schedule: List[int], n: int) -> np.ndarray:
    sched = np.asarray(schedule, dtype=np.int64)
    return sched[np.arange(n, dtype=np.int64) % len(sched)]


def k_demux(actor: ScheduleDemux, ins: Streams) -> Streams:
    arr = _beats(ins[actor.src])
    dst = _cyclic_sources(actor.schedule, len(arr))
    return {f"out{i}": arr[dst == i] for i in range(actor.n_outputs)}


def k_interleave(actor: Interleaver, ins: Streams) -> Streams:
    lanes = [_beats(ins[f"in{i}"]) for i in range(actor.n_inputs)]
    n = sum(len(l) for l in lanes)
    src = _cyclic_sources(actor.schedule, n)
    first = next((l for l in lanes if len(l)), None)
    if first is None:
        return {actor.dst: np.empty(0, dtype=DTYPE)}
    out = np.empty((n,) + first.shape[1:], dtype=first.dtype)
    for i, lane in enumerate(lanes):
        mask = src == i
        _expect(actor.name, f"in{i} consumption", int(mask.sum()), len(lane))
        out[mask] = lane
    return {actor.dst: out}


# -- memory structure ----------------------------------------------------


def k_window(actor: SlidingWindowActor, ins: Streams) -> Streams:
    spec = actor.spec
    n_in = actor.images * actor.h * actor.w * actor.group
    arr = np.asarray(ins["in"], dtype=DTYPE)
    _expect(actor.name, "pixel stream", len(arr), n_in)
    # The raster-ordered FM-minor stream *is* the (images, h, w, group)
    # pixel array; only padding copies it (once, not kh*kw times).
    px = arr.reshape(actor.images, actor.h, actor.w, actor.group)
    if spec.pad:
        px = np.pad(px, ((0, 0), (spec.pad,) * 2, (spec.pad,) * 2, (0, 0)))
    # (images, out_h, out_w, group, kh, kw), read-only, nothing copied.
    # The leading four axes flatten to the actor's emission order:
    # coordinate-major, FM-minor.
    wins = sliding_window_view(px, (spec.kh, spec.kw), axis=(1, 2))
    wins = wins[:, :: spec.stride, :: spec.stride]
    if wins.shape[1:3] != (actor.out_h, actor.out_w):
        raise CompilationError(
            f"{actor.name!r}: window geometry mismatch "
            f"({wins.shape[1]}x{wins.shape[2]} vs "
            f"{actor.out_h}x{actor.out_w})"
        )
    return {"out": wins}


def k_block_split(actor: BlockSplitActor, ins: Streams) -> Streams:
    plan = actor.plan
    group = actor.group
    arr = np.asarray(ins["in"], dtype=DTYPE)
    _expect(
        actor.name, "pixel stream", len(arr),
        actor.images * actor.beats_in_per_image,
    )
    # Raster-ordered FM-minor stream -> (images, group, h, w) planes.
    px = np.ascontiguousarray(
        arr.reshape(actor.images, plan.h, plan.w, group).transpose(0, 3, 1, 2)
    )
    # Pad enough to cover the layer padding plus the bottom/right overhang
    # extent of the uniform tile grid (zero-filled, like the actor).
    pad = plan.window.pad
    s = plan.window.stride
    ext_h = (plan.gh - 1) * plan.th * s + plan.ih
    ext_w = (plan.gw - 1) * plan.tw * s + plan.iw
    px = np.pad(px, (
        (0, 0), (0, 0),
        (pad, max(0, ext_h - plan.h - pad)),
        (pad, max(0, ext_w - plan.w - pad)),
    ))
    # Gather each tile's ih x iw block: rows (gh, 1, ih, 1) x cols
    # (1, gw, 1, iw) broadcast into (images, group, gh, gw, ih, iw).
    rows = (np.arange(plan.gh) * plan.th * s)[:, None] + np.arange(plan.ih)
    cols = (np.arange(plan.gw) * plan.tw * s)[:, None] + np.arange(plan.iw)
    tiles = px[:, :, rows[:, None, :, None], cols[None, :, None, :]]
    if actor.shave_h or actor.shave_w:
        # Test hook parity with the actor: zero the shaved halo pixels.
        tiles = tiles.copy()
        if actor.shave_h:
            tiles[..., plan.ih - actor.shave_h :, :] = 0
        if actor.shave_w:
            tiles[..., plan.iw - actor.shave_w :] = 0
    # Emission order: tile-major, raster within the tile, FM-minor.
    out = np.ascontiguousarray(tiles.transpose(0, 2, 3, 4, 5, 1)).reshape(-1)
    return {"out": out}


def k_block_merge(actor: BlockMergeActor, ins: Streams) -> Streams:
    plan = actor.plan
    group = actor.group
    arr = np.asarray(ins["in"], dtype=DTYPE)
    _expect(
        actor.name, "tile stream", len(arr),
        actor.images * actor.beats_in_per_image,
    )
    tiles = arr.reshape(actor.images, plan.gh, plan.gw, plan.th, plan.tw, group)
    # (images, gh, th, gw, tw, group) -> full uniform grid, crop overhang,
    # emit raster FM-minor.
    full = np.ascontiguousarray(tiles.transpose(0, 1, 3, 2, 4, 5)).reshape(
        actor.images, plan.gh * plan.th, plan.gw * plan.tw, group
    )
    return {"out": np.ascontiguousarray(full[:, : plan.oh, : plan.ow]).reshape(-1)}


# -- computation cores ---------------------------------------------------


def k_conv(actor: ConvCoreActor, ins: Streams) -> Streams:
    n_lanes = actor.images * actor.n_coords
    groups = actor.in_groups
    win_shape = (groups, actor.kh, actor.kw)
    ports = []
    for p in range(actor.in_ports):
        arr = np.asarray(ins[f"in{p}"], dtype=DTYPE)
        _expect(actor.name, f"in{p}", _n_windows(arr), n_lanes * groups)
        if arr.ndim == 3:
            # A stack of beats is one "image" of n_lanes one-coordinate
            # rows: the same (images, rows, cols, G, kh, kw) walk below.
            arr = arr.reshape((1, n_lanes, 1) + win_shape)
        ports.append(arr)
        if arr.shape != ports[0].shape[:3] + win_shape:
            raise CompilationError(
                f"{actor.name!r}: in{p} window geometry {arr.shape} is not "
                f"{win_shape} windows over {ports[0].shape[:3]}"
            )
    cores = native.cores()
    # (G, OUT_FM, K), K = P*kh*kw the tree width
    w_all = np.ascontiguousarray(actor._w_all, dtype=DTYPE)
    bias = np.ascontiguousarray(actor.bias, dtype=DTYPE)
    bases = np.array([p.ctypes.data for p in ports], dtype=np.uintp)
    strides = np.array([p.strides for p in ports], dtype=np.int64)
    # The geometry conv_tree walks; cores.c alone decides how, and sizes
    # the scratch for it.
    geometry = (
        strides.ctypes.data, actor.in_ports, *ports[0].shape[:3], groups,
        actor.kh, actor.kw, actor.out_fm,
    )
    scratch = np.empty(cores.conv_scratch(*geometry), DTYPE)
    out = np.empty((n_lanes, actor.out_fm), dtype=DTYPE)
    cores.conv_tree(
        bases.ctypes.data, *geometry, w_all.ctypes.data, bias.ctypes.data,
        out.ctypes.data, scratch.ctypes.data,
    )
    # In place: the op holds one output-sized array, not two.
    actor._act(out, out=out)
    if actor.out_ports == 1:
        return {"out0": out.reshape(-1)}
    return {
        f"out{p}": np.ascontiguousarray(out[:, p :: actor.out_ports]).reshape(-1)
        for p in range(actor.out_ports)
    }


def k_pool(actor: PoolCoreActor, ins: Streams) -> Streams:
    arr = np.asarray(ins["in"], dtype=DTYPE)
    _expect(actor.name, "window stream", _n_windows(arr), actor.count)
    if actor.mode == "max":
        # One np.maximum per window element over the strided slices
        # arr[..., dy, dx]; the windows are not gathered and the result,
        # C-ordered over the leading axes, already is the output stream.
        taps = [
            arr[..., dy, dx]
            for dy in range(arr.shape[-2]) for dx in range(arr.shape[-1])
        ]
        out = np.empty(arr.shape[:-2], dtype=DTYPE)
        np.copyto(out, taps[0])
        for tap in taps[1:]:
            np.maximum(out, tap, out=out)
        # Comparisons round nothing, so a non-zero maximum has one bit
        # pattern whatever the order, and a window holding a NaN has a NaN
        # maximum either way (stable_digest counts every NaN as one). The
        # order shows only in a tie between -0.0 and +0.0, which numpy's
        # contiguous reduce settles in SIMD lane order (by window length
        # and host), not raster order: the windows whose maximum is a zero
        # are gathered and reduced the way the actor reduces one, over
        # kh*kw contiguous elements.
        out = out.reshape(-1)
        redo = np.flatnonzero(out == 0)
        if len(redo):
            wins = arr[np.unravel_index(redo, arr.shape[:-2])]
            out[redo] = np.ascontiguousarray(wins).max(axis=(1, 2))
    else:
        # Not fused: numpy's float64 pairwise order over kh*kw contiguous
        # elements is not the order of a strided per-element chain.
        out = _beats(arr).mean(axis=(1, 2), dtype=np.float64).astype(DTYPE)
    return {"out": out.reshape(-1)}


def k_fc(actor: FCCoreActor, ins: Streams) -> Streams:
    batch, in_fm, out_fm = actor.images, actor.in_fm, actor.out_fm
    x = np.ascontiguousarray(ins["in"], dtype=DTYPE)
    _expect(actor.name, "in", len(x), batch * in_fm)
    cores = native.cores()
    # Row-major, so every weight row is read in place (a no-op for the
    # C-ordered matrices the builder hands over).
    weight = np.ascontiguousarray(actor.weight, dtype=DTYPE)
    bias = np.ascontiguousarray(actor.bias, dtype=DTYPE)
    scratch = np.empty(cores.fc_scratch(batch, actor.acc_lanes), DTYPE)
    out = np.empty((batch, out_fm), dtype=DTYPE)
    cores.fc_chains(
        weight.ctypes.data, x.ctypes.data, batch, in_fm, out_fm,
        actor.acc_lanes, bias.ctypes.data, out.ctypes.data,
        scratch.ctypes.data,
    )
    actor._act(out, out=out)
    return {"out": out.reshape(-1)}


def k_norm(actor: NormalizationActor, ins: Streams) -> Streams:
    arr = np.asarray(ins["in"], dtype=DTYPE)
    _expect(actor.name, "in", len(arr), actor.images * actor.n_classes)
    logits = arr.reshape(actor.images, actor.n_classes)
    # Same stable-softmax association order as the actor (per row).
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    exps = np.exp(shifted).astype(DTYPE)
    probs = (exps / exps.sum(axis=1, dtype=DTYPE, keepdims=True)).astype(DTYPE)
    return {"out": probs.reshape(-1)}


#: Exact-type kernel dispatch: the 13 actor types the builder can emit
#: (a graph needs ``design`` set, which only ``build_network`` does, to
#: reach this engine at all). Subclasses deliberately do NOT inherit a
#: kernel: an overridden behavior would silently diverge from the fused
#: implementation, so unknown (sub)types refuse to compile instead.
KERNELS: Dict[type, Callable] = {
    ArraySource: k_source,
    ListSink: k_sink,
    LinkTxActor: k_link,
    LinkRxActor: k_link,
    ScheduleDemux: k_demux,
    Interleaver: k_interleave,
    SlidingWindowActor: k_window,
    BlockSplitActor: k_block_split,
    BlockMergeActor: k_block_merge,
    ConvCoreActor: k_conv,
    PoolCoreActor: k_pool,
    FCCoreActor: k_fc,
    NormalizationActor: k_norm,
}


def run_kernels(actors, in_ports_of, out_ports_of, order) -> None:
    """Execute every actor's kernel in topological order.

    A stream lives until its reader has run: every channel has exactly one
    reader, so each input stream is popped as it is handed to its kernel
    and is freed when the kernel's outputs no longer refer to it (a window
    stream is a view of the pixel stream; see :func:`k_window`). Values
    leave through the sink kernel, which fills ``ListSink.received``.
    """
    by_name = {a.name: a for a in actors}
    streams: Streams = {}
    for name in order:
        actor = by_name[name]
        kernel = KERNELS.get(type(actor))
        if kernel is None:
            raise CompilationError(
                f"actor {name!r} of type {type(actor).__name__} has no "
                f"compiled kernel"
            )
        outs = kernel(
            actor,
            {port: streams.pop(cname) for port, cname in in_ports_of[name].items()},
        )
        for port, arr in outs.items():
            cname = out_ports_of[name].get(port)
            if cname is None:
                raise CompilationError(
                    f"{name!r}: kernel produced unbound port {port!r}"
                )
            streams[cname] = arr
