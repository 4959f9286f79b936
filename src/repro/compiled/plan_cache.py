"""Compiled-plan cache: skip re-lowering for repeatedly built designs.

Lowering a design graph for the compiled engine costs two analyses per
:class:`~repro.compiled.engine.CompiledEngine` construction: the static
verifier pass (:func:`repro.analysis.analyze_design`) and the
steady-state schedule extraction
(:func:`repro.analysis.steady_state.extract_schedule`). Both are pure
functions of the design (plus the batch geometry), yet serving workloads
build the *same* design once per request batch — replica workers,
repeated loadtests, warm restarts. This module memoizes the lowering:
the **plan** — schedule plus port routing tables — is cached per
``(design digest, stream geometry, graph structure)`` key, because the
solved fires/beat counts depend on the batch size and the elaborated
actor set (``normalize=True`` adds an actor; ``loop_overhead`` shifts
the timing frame). Only a plan miss runs the verifier; nothing else is
cached, so a design that fails verification fails it again, the same
way, on every attempt.

Entries are immutable-by-convention (:class:`SteadySchedule` is frozen;
the port maps are only ever read by the engine), so one cached plan is
shared safely across any number of engine constructions in a process.
Each process (e.g. every serving replica worker) holds its own cache.
"""

from __future__ import annotations

import hashlib
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.steady_state import SteadySchedule
from repro.core.network_design import NetworkDesign

#: Default number of (design, geometry) plans kept per process.
DEFAULT_MAXSIZE = 32


def design_digest(design: NetworkDesign) -> str:
    """Stable content digest of a design (sha256 over its JSON form).

    Two designs digest identically iff their serialized descriptions
    (name, input shape, every layer spec field) are identical — the same
    round-trip form ``repro.core.serialize`` persists. A design never
    changes once built, so each design object is serialised and hashed
    once and keeps its digest.
    """
    digest = design._digest
    if digest is None:
        from repro.core.serialize import design_to_json

        h = hashlib.sha256(design_to_json(design, indent=0).encode())
        digest = design._digest = f"sha256:{h.hexdigest()}"
    return digest


def _structure_crc(actors, channels) -> int:
    """CRC over the elaborated graph's actor/channel name sequences.

    Guards the plan key against graph-shape differences the design digest
    cannot see (``normalize=True`` appends an actor, a literal memory
    system elaborates filter chains): same names in the same order means
    the same routing tables and the same rate solution.
    """
    crc = 0
    for a in actors:
        crc = zlib.crc32(a.name.encode(), crc)
        crc = zlib.crc32(b"\x00", crc)
    crc = zlib.crc32(b"\x01", crc)
    for ch in channels:
        crc = zlib.crc32(ch.name.encode(), crc)
        crc = zlib.crc32(b"\x00", crc)
    return crc


@dataclass(frozen=True)
class CompiledPlan:
    """One lowered design: the schedule plus the port routing tables."""

    schedule: SteadySchedule
    in_ports: Dict[str, Dict[str, str]]
    out_ports: Dict[str, Dict[str, str]]


PlanKey = Tuple[str, int, int, int, int, int]


def plan_key(
    digest: str,
    n_values: int,
    beat: int,
    overhead: int,
    structure: int,
    link_beat: int = 0,
) -> PlanKey:
    """The full cache key of one lowered plan.

    ``n_values``/``beat`` pin the DMA stream geometry (batch size and
    source rate), ``overhead`` the conv-core calibration constant, and
    ``structure`` the elaborated graph's name CRC. ``link_beat`` pins the
    board-to-board beat interval of a sharded build (0 when unsharded):
    two shardings of the same design at different link bandwidths share
    every actor and channel name, so the structure CRC alone cannot tell
    their timing frames apart.
    """
    return (digest, n_values, beat, overhead, structure, link_beat)


class PlanCache:
    """A bounded LRU over compiled plans; ``hits``/``misses`` count
    lookups."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._plans: "OrderedDict[PlanKey, CompiledPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # -- plans ------------------------------------------------------------

    def get_plan(self, key: PlanKey) -> Optional[CompiledPlan]:
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
            return None
        self._plans.move_to_end(key)
        self.hits += 1
        return plan

    def put_plan(self, key: PlanKey, plan: CompiledPlan) -> None:
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.maxsize:
            self._plans.popitem(last=False)

    # -- introspection ----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """JSON-friendly counters (what serving replicas report back)."""
        return {"plans": len(self._plans), "hits": self.hits, "misses": self.misses}

    def clear(self) -> None:
        self._plans.clear()
        self.hits = self.misses = 0


#: The per-process cache the compiled engine uses.
GLOBAL_PLAN_CACHE = PlanCache()


def plan_cache_stats() -> Dict[str, int]:
    """Counters of the process-wide plan cache."""
    return GLOBAL_PLAN_CACHE.stats()


def clear_plan_cache() -> None:
    """Drop every cached plan (tests, memory pressure)."""
    GLOBAL_PLAN_CACHE.clear()
