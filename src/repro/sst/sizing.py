"""On-chip buffer sizing for SST memory systems.

Computes, without simulating, the storage an SST-style memory structure
needs: the *full buffering* footprint (data read once from off-chip memory
and held until all dependent computations complete) and the
memory/bandwidth trade-off of Cattaneo et al. (TACO 2016, ref. [18] of the
paper): replicating the input stream over ``r`` ports divides the per-port
buffer at the cost of ``r`` times the input bandwidth.

These numbers feed :mod:`repro.core.resource_model` (BRAM estimation for
Table I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.sst.window import WindowSpec


@dataclass(frozen=True)
class BufferBudget:
    """Storage requirement of one layer's memory structure, in elements."""

    #: FIFO words for full buffering across all input port chains.
    fifo_words: int
    #: Window registers (kh*kw per chain) — register slices, not BRAM.
    window_registers: int
    #: Number of independent filter chains (one per input port).
    chains: int

    @property
    def total_words(self) -> int:
        """Total on-chip words (FIFO + registers)."""
        return self.fifo_words + self.window_registers


def chain_words(spec: WindowSpec, w: int, group: int = 1) -> int:
    """Full-buffering words of a single chain over a width-``w`` input.

    ``(kh-1) * w_padded + kw`` raster positions, times the ``group``
    feature maps interleaved on the port (the paper's FIFO enlargement for
    the ``OUT_PORTS(i-1) > IN_PORTS(i)`` case).
    """
    _, wp = spec.padded_shape(1, w)
    return spec.footprint(wp) * group


def layer_buffer_budget(
    spec: WindowSpec,
    w: int,
    in_fm: int,
    in_ports: int,
) -> BufferBudget:
    """Buffer budget of a layer's whole memory structure.

    Parameters
    ----------
    spec: window geometry of the layer.
    w: input feature-map width.
    in_fm: number of input feature maps.
    in_ports: number of physical input ports (chains).
    """
    if in_ports < 1:
        raise ConfigurationError(f"in_ports must be >= 1, got {in_ports}")
    if in_fm % in_ports != 0:
        raise ConfigurationError(
            f"in_fm ({in_fm}) must be a multiple of in_ports ({in_ports})"
        )
    group = in_fm // in_ports
    per_chain = chain_words(spec, w, group)
    regs = spec.kh * spec.kw * in_ports
    return BufferBudget(
        fifo_words=per_chain * in_ports,
        window_registers=regs,
        chains=in_ports,
    )


def _full_depths(spec: WindowSpec, w: int, group: int) -> List[int]:
    """Full-buffering depths ``d_i`` of the chain over a width-``w`` input."""
    from repro.sst.filter_chain import fifo_depths  # local: avoid heavy import

    _, wp = spec.padded_shape(1, w)
    return fifo_depths(spec, wp, group)


def tap_capacity(group: int = 1) -> int:
    """Capacity of every tap channel of a literal filter chain.

    Small, since the assembler drains taps at stream rate, but above
    ``group`` so one pixel's interleaved feature maps never block.
    """
    return max(4, group + 1)


def chain_fifo_capacities(spec: WindowSpec, w: int, group: int = 1) -> List[int]:
    """Channel capacities of a literal filter chain's FIFOs, tap to tap.

    ``fifo_depths`` gives the full-buffering delay each inter-filter FIFO
    provides; the elaborated channel needs one extra slot so the producer
    can stay at full rate while the consumer lags by the whole depth.
    ``build_filter_chain`` provisions exactly these, and the static
    verifier (BUFFER.FULL) checks elaborated chains against them.
    """
    return [d + 1 for d in _full_depths(spec, w, group)]


def chain_channel_words(spec: WindowSpec, w: int, group: int = 1) -> int:
    """Total elaborated channel capacity of one full-buffering chain.

    What the literal elaboration provisions: the
    :func:`chain_fifo_capacities` inter-filter FIFOs plus one
    :func:`tap_capacity`-deep tap channel per filter. This is the
    like-for-like baseline for the certified depths — :func:`chain_words`
    measures the *data footprint* held, not the channel storage paid.
    """
    caps = chain_fifo_capacities(spec, w, group)
    return sum(caps) + (len(caps) + 1) * tap_capacity(group)


def chain_run_ahead(
    depths: Sequence[int],
    fifo_caps: Sequence[int],
    tap_caps: Sequence[int],
) -> List[int]:
    """The max-plus run-ahead budgets ``R_i`` of a literal chain.

    ``depths`` are the full-buffering depths ``d_i`` between consecutive
    taps, ``fifo_caps`` the chain FIFO capacities ``c_i``, and
    ``tap_caps`` the tap-channel capacities ``T_i`` (one per filter).
    Filter ``i`` can run ahead of the assembly step by::

        R_{n-1} = T_{n-1}
        R_i     = min(T_i, R_{i+1} + c_i - d_i)

    and the chain is deadlock-free iff every budget is >= 1 (filter ``i``
    can deliver the beat the assembler's lock-step tap pop demands).
    Certified floors, tight certificates and provable shrink targets are
    all this recursion on some capacities; ``tests/sst/test_sizing.py``
    holds it to the simulator.
    """
    n = len(tap_caps)
    if len(depths) != n - 1 or len(fifo_caps) != n - 1:
        raise ConfigurationError(
            f"chain shape mismatch: {n} taps need {n - 1} FIFOs, got "
            f"{len(depths)} depths / {len(fifo_caps)} capacities"
        )
    budgets = [0] * n
    budgets[n - 1] = tap_caps[n - 1]
    for i in range(n - 2, -1, -1):
        budgets[i] = min(
            tap_caps[i], budgets[i + 1] + fifo_caps[i] - depths[i]
        )
    return budgets


def capacity_one_jams(
    depths: Sequence[int],
    fifo_caps: Sequence[int],
    tap_caps: Sequence[int],
) -> List[int]:
    """Chain FIFO indices whose shrink to capacity 1 deadlocks the chain.

    :func:`chain_run_ahead` with that one FIFO at 1 and every other
    channel as given: the shrink jams iff some budget drops below 1.
    """
    out = []
    for i in range(len(fifo_caps)):
        shrunk = list(fifo_caps)
        shrunk[i] = 1
        if min(chain_run_ahead(depths, shrunk, tap_caps)) < 1:
            out.append(i)
    return out


def certified_chain_floors(
    spec: WindowSpec, w: int, group: int = 1
) -> List[int]:
    """Word-minimal chain FIFO capacities the depth prover certifies.

    :func:`chain_run_ahead` admits the backward greedy assignment
    ``T_i = 1`` (unit tap channels), ``c_i = max(1, d_i)`` — each chain
    FIFO drops the ``+1`` in-flight slot full buffering pays for
    full-rate operation. Word-optimal for the recursion: spending a
    tap word buys back at most one word per chain FIFO but costs one
    per *tap*, and there are more taps than FIFOs.
    """
    return [max(1, d) for d in _full_depths(spec, w, group)]


def certified_chain_words(spec: WindowSpec, w: int, group: int = 1) -> int:
    """Total certified FIFO words of one chain (chain FIFOs + unit taps).

    Compare against :func:`chain_channel_words`: the certified plan runs
    every tap at capacity 1.
    """
    floors = certified_chain_floors(spec, w, group)
    n_taps = len(floors) + 1
    return sum(floors) + n_taps


def deadlock_shrink_targets(
    spec: WindowSpec, w: int, group: int = 1
) -> List[tuple]:
    """FIFO shrinks that *provably* deadlock a full-buffering chain.

    Returns ``(fifo_index, shrunk_capacity)`` pairs, capacity always 1:
    :func:`capacity_one_jams` over the capacities ``build_filter_chain``
    provisions. With every other FIFO at ``d + 1`` and every tap at
    ``tap_cap`` the recursion reduces to ``d_i > tap_cap`` — small
    inter-tap FIFOs (depth 1, between taps in the same kernel row) are
    excluded because the tap slack absorbs their whole skew.

    The fault-injection agreement suite iterates these targets and
    asserts the simulator's deadlock names the same channel as the
    BUFFER.FULL diagnostic.
    """
    caps = chain_fifo_capacities(spec, w, group)
    jams = capacity_one_jams(
        _full_depths(spec, w, group),
        caps,
        [tap_capacity(group)] * (len(caps) + 1),
    )
    return [(i, 1) for i in jams]


def bandwidth_memory_tradeoff(
    spec: WindowSpec, w: int, in_fm: int, replicas: List[int]
) -> List[dict]:
    """Tabulate the memory/bandwidth trade-off of ref. [18].

    For each port count ``r`` in ``replicas`` (must divide ``in_fm``),
    report the total buffered words and the relative input bandwidth
    (``r`` parallel streams). More ports -> more aggregate window
    registers and bandwidth, same full-buffering FIFO total (each chain
    holds fewer interleaved FMs).
    """
    rows = []
    for r in replicas:
        b = layer_buffer_budget(spec, w, in_fm, r)
        rows.append(
            {
                "ports": r,
                "fifo_words": b.fifo_words,
                "window_registers": b.window_registers,
                "total_words": b.total_words,
                "relative_bandwidth": r,
            }
        )
    return rows
