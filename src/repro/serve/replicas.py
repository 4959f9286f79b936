"""The replica fleet: per-design compiled-engine simulators as workers.

Each replica is one OS process holding a warm copy of the model: the
design, its seeded weights, and — after the first batch — the compiled
plan in that process's :data:`~repro.compiled.plan_cache.
GLOBAL_PLAN_CACHE`. Requests are shipped as *indices*, not arrays: a
request's input image is a pure function of ``(seed, index)`` (the same
recipe on both sides of the IPC boundary), so a batch submission is a
few hundred bytes and the parent can independently compute the
single-shot reference digest for any request.

The fleet deliberately uses one single-worker ``ProcessPoolExecutor``
*per replica* rather than one N-worker pool: replicas must be
individually addressable so chaos mode can arm a fault scenario on one
replica while the others stay clean (pools give no control over which
worker picks up a job). ``mode="inline"`` executes the same worker code
in-process — for tests, and for machines where forking per-replica
costs more than it buys.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.compiled import check_design
from repro.core.builder import build_network, random_weights
from repro.core.network_design import NetworkDesign
from repro.core.serialize import design_from_json, design_to_json
from repro.dataflow.digest import stable_digest
from repro.errors import ConfigurationError
from repro.faults.injectors import arm_faults
from repro.faults.scenario import FaultScenario


def request_image(
    design: NetworkDesign, seed: int, index: int
) -> np.ndarray:
    """The input image of request ``index`` (pure function of seed+index).

    Both the fleet workers and the parent's single-shot verifier derive
    request payloads from this one recipe, which is what makes
    per-request digest comparison meaningful across process boundaries.
    """
    rng = np.random.default_rng([seed, index])
    return rng.uniform(0, 1, design.input_shape).astype(np.float32)


def run_replica_batch(
    design: NetworkDesign,
    seed: int,
    indices: Sequence[int],
    scenario: Optional[FaultScenario] = None,
    weights=None,
) -> Dict[str, object]:
    """Simulate one batch; the core of both worker and inline execution.

    Returns a JSON-friendly dict: per-request output digests (row ``i``
    of the outputs is request ``indices[i]``), total cycles, per-image
    completion cycles, the measured steady interval, the engine that ran
    and wall time. A clean batch runs compiled; a faulted one runs on the
    event engine (the compiled engine rejects armed faults by contract).
    """
    if not indices:
        raise ConfigurationError("a batch needs at least one request")
    t0 = time.perf_counter()
    if weights is None:
        weights = random_weights(design, seed=seed)
    batch = np.stack([request_image(design, seed, i) for i in indices])
    built = build_network(design, weights, batch)
    armed = None
    if scenario is not None:
        armed = arm_faults(built.graph, scenario, seed)
    result = built.run(
        scheduler="compiled" if scenario is None else "event", faults=armed
    )
    outputs = built.outputs()
    from repro.compiled import plan_cache_stats

    return {
        "indices": list(indices),
        "digests": [stable_digest(outputs[i]) for i in range(len(indices))],
        "cycles": result.cycles,
        "completion_cycles": built.image_completion_cycles(),
        "measured_interval": built.measured_interval(),
        "scheduler": result.scheduler_stats["scheduler"],
        "faulted": scenario is not None,
        "wall_s": time.perf_counter() - t0,
        "pid": os.getpid(),
        "plan_cache": plan_cache_stats(),
    }


# -- process-pool worker side (module-level for pickling) ------------------

_WORKER_DESIGN: Optional[NetworkDesign] = None
_WORKER_WEIGHTS = None
_WORKER_SEED = 0


def _worker_init(design_json: str, seed: int) -> None:
    """Per-process warm start: design + weights built once, then reused."""
    global _WORKER_DESIGN, _WORKER_WEIGHTS, _WORKER_SEED
    # Under fork the worker inherits the parent's plan cache (plans and
    # counters both); clear it so each replica's cache stats account for
    # this replica alone.
    from repro.compiled import clear_plan_cache

    clear_plan_cache()
    _WORKER_DESIGN = design_from_json(design_json)
    _WORKER_WEIGHTS = random_weights(_WORKER_DESIGN, seed=seed)
    _WORKER_SEED = seed


def _worker_run(
    indices: Sequence[int],
    scenario_json: Optional[str],
) -> Dict[str, object]:
    assert _WORKER_DESIGN is not None, "worker used before initialization"
    scenario = (
        FaultScenario.from_json(scenario_json) if scenario_json else None
    )
    return run_replica_batch(
        _WORKER_DESIGN,
        _WORKER_SEED,
        indices,
        scenario=scenario,
        weights=_WORKER_WEIGHTS,
    )


class ReplicaFleet:
    """N warm replicas of one design, individually addressable.

    ``mode="process"`` backs each replica with its own single-worker
    ``ProcessPoolExecutor`` (weights and compiled plan built once per
    process by the initializer); ``mode="inline"`` runs batches in the
    calling process, sharing one weights copy. Use as a context manager
    or call :meth:`shutdown`. A design the compiled engine refuses
    (:func:`~repro.compiled.check_design`) raises its
    :class:`~repro.errors.CompilationError` here, before any process
    starts: clean batches run compiled, so none of them could be served.
    """

    def __init__(
        self,
        design: NetworkDesign,
        n_replicas: int = 2,
        seed: int = 0,
        mode: str = "process",
    ):
        if n_replicas < 1:
            raise ConfigurationError(
                f"need >= 1 replica, got {n_replicas}"
            )
        if mode not in ("process", "inline"):
            raise ConfigurationError(
                f"unknown fleet mode {mode!r} (process|inline)"
            )
        check_design(design)
        self.design = design
        self.n_replicas = n_replicas
        self.seed = seed
        self.mode = mode
        #: Per-replica armed chaos scenario (None == clean).
        self._scenarios: List[Optional[FaultScenario]] = [None] * n_replicas
        self._pools: List[ProcessPoolExecutor] = []
        if mode == "process":
            design_json = design_to_json(design, indent=0)
            self._pools = [
                ProcessPoolExecutor(
                    max_workers=1,
                    initializer=_worker_init,
                    initargs=(design_json, seed),
                )
                for _ in range(n_replicas)
            ]
        else:
            self._weights = random_weights(design, seed=seed)

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "ReplicaFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True, cancel_futures=True)
        self._pools = []

    def warm(self) -> List[Dict[str, object]]:
        """Build weights + compiled plan on every replica (one tiny batch).

        Returns the per-replica warmup results; after this, no request
        batch pays lowering or weight-generation cost (satellite: plan
        cache hit on every subsequent batch).
        """
        futures = [
            self.submit(r, [0]) for r in range(self.n_replicas)
        ]
        return [f.result() for f in futures]

    # -- chaos -------------------------------------------------------------

    def arm(self, replica: int, scenario: FaultScenario) -> None:
        """Arm a fault scenario on one replica; later batches run faulted."""
        self._check_replica(replica)
        self._scenarios[replica] = scenario

    def disarm(self, replica: int) -> None:
        self._check_replica(replica)
        self._scenarios[replica] = None

    def armed(self, replica: int) -> Optional[FaultScenario]:
        self._check_replica(replica)
        return self._scenarios[replica]

    # -- execution ---------------------------------------------------------

    def submit(
        self,
        replica: int,
        indices: Sequence[int],
        scheduler: str = "compiled",
    ) -> "Future[Dict[str, object]]":
        """Dispatch one batch to one replica; returns a future.

        If a chaos scenario is armed on the replica, it travels with the
        batch (and makes the worker run the event engine). ``scheduler``
        is not a choice: it survives only because the frozen
        ``benchmarks/ledger`` submit wrapper passes ``"compiled"``
        positionally; remove it with the next ledger change.
        """
        if scheduler != "compiled":
            raise ConfigurationError(
                f"a replica derives its engine; got scheduler={scheduler!r}"
            )
        self._check_replica(replica)
        scenario = self._scenarios[replica]
        if self.mode == "inline":
            fut: "Future[Dict[str, object]]" = Future()
            try:
                fut.set_result(
                    run_replica_batch(
                        self.design,
                        self.seed,
                        indices,
                        scenario=scenario,
                        weights=self._weights,
                    )
                )
            except BaseException as exc:  # pragma: no cover - surfaced to caller
                fut.set_exception(exc)
            return fut
        scenario_json = scenario.to_json() if scenario is not None else None
        return self._pools[replica].submit(
            _worker_run, list(indices), scenario_json
        )

    def _check_replica(self, replica: int) -> None:
        if not 0 <= replica < self.n_replicas:
            raise ConfigurationError(
                f"replica {replica} out of range (fleet of "
                f"{self.n_replicas})"
            )
