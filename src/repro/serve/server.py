"""The live asyncio front-end: concurrent requests over a warm fleet.

Where the loadtest (:mod:`repro.serve.loadtest`) runs the serving stack
as a closed deterministic experiment, :class:`InferenceServer` runs it
open-ended: callers ``await submit(index)`` concurrently (or connect to
the JSON-lines TCP endpoint), an admission task applies the same
batch-aware triggers as the planner — target batch, hard cap, oldest
waiter's deadline — in *wall* time, and sealed batches dispatch to the
least-busy replica of a :class:`~repro.serve.replicas.ReplicaFleet`.
Every response carries the request's output digest and its
queue/batch/simulate timing so a client can audit both correctness
(digest vs single-shot) and where its latency went.

The wall-clock wait cap defaults to milliseconds, not the virtual-µs cap
of the planner: a simulated batch takes ~10–100 ms of host time, so
board-scale waits would seal every batch at size 1.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.network_design import NetworkDesign
from repro.errors import ConfigurationError
from repro.serve.admission import admission_config
from repro.serve.replicas import ReplicaFleet

#: Default wall-time cap on the oldest queued request (50 ms).
DEFAULT_MAX_WAIT_S = 0.050


class InferenceServer:
    """Batch-aware async inference over a replica fleet.

    Usage::

        server = InferenceServer(design, replicas=2)
        async with server:
            response = await server.submit(7)

    ``submit`` returns when the request's batch has simulated; the
    response dict carries ``digest``, ``batch``, ``replica``,
    ``queue_us`` / ``service_us`` (wall), and ``cycles`` (virtual).
    """

    def __init__(
        self,
        design: NetworkDesign,
        replicas: int = 2,
        seed: int = 0,
        mode: str = "process",
        target_batch: Optional[int] = None,
        max_batch: Optional[int] = None,
        max_wait_s: float = DEFAULT_MAX_WAIT_S,
    ):
        if max_wait_s <= 0:
            raise ConfigurationError(
                f"max_wait_s must be positive, got {max_wait_s}"
            )
        self.design = design
        # One derivation with the loadtest: the knee is the target, the cap
        # clamps it. An explicit target overrides (and lifts a default cap).
        cfg = admission_config(design, max_batch=max_batch)
        self.target_batch = target_batch or cfg.target_batch
        self.max_batch = max_batch or max(cfg.max_batch, self.target_batch)
        if self.max_batch < self.target_batch:
            raise ConfigurationError(
                f"max_batch ({self.max_batch}) < target_batch "
                f"({self.target_batch})"
            )
        self.max_wait_s = max_wait_s
        self.fleet = ReplicaFleet(design, replicas, seed=seed, mode=mode)
        self._queue: List[Tuple[int, float, "asyncio.Future[dict]"]] = []
        self._wake: Optional[asyncio.Event] = None
        self._batcher: Optional[asyncio.Task] = None
        self._inflight = [0] * replicas
        self._served = 0
        self._batches: List[int] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self.fleet.warm()
        self._wake = asyncio.Event()
        self._batcher = asyncio.create_task(self._admission_loop())

    async def stop(self) -> None:
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        for _, _, fut in self._queue:
            if not fut.done():
                fut.cancel()
        self._queue.clear()
        self.fleet.shutdown()

    async def __aenter__(self) -> "InferenceServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- request path ------------------------------------------------------

    async def submit(self, index: int) -> Dict[str, Any]:
        """One inference request; resolves when its batch completes."""
        if self._batcher is None:
            raise ConfigurationError("server not started (use 'async with')")
        fut: "asyncio.Future[dict]" = asyncio.get_running_loop().create_future()
        self._queue.append((index, time.perf_counter(), fut))
        self._wake.set()
        return await fut

    def stats(self) -> Dict[str, Any]:
        return {
            "design": self.design.name,
            "served": self._served,
            "queued": len(self._queue),
            "batches": len(self._batches),
            "target_batch": self.target_batch,
            "max_batch": self.max_batch,
        }

    # -- admission ---------------------------------------------------------

    async def _admission_loop(self) -> None:
        while True:
            while not self._queue:
                self._wake.clear()
                await self._wake.wait()
            oldest = self._queue[0][1]
            deadline = oldest + self.max_wait_s
            while (
                len(self._queue) < self.target_batch
                and time.perf_counter() < deadline
            ):
                self._wake.clear()
                try:
                    await asyncio.wait_for(
                        self._wake.wait(),
                        timeout=deadline - time.perf_counter(),
                    )
                except asyncio.TimeoutError:
                    break
            take = min(self.max_batch, len(self._queue))
            sealed, self._queue = self._queue[:take], self._queue[take:]
            replica = min(
                range(self.fleet.n_replicas),
                key=lambda r: (self._inflight[r], r),
            )
            asyncio.create_task(self._run_batch(replica, sealed))

    async def _run_batch(
        self,
        replica: int,
        sealed: List[Tuple[int, float, "asyncio.Future[dict]"]],
    ) -> None:
        indices = [idx for idx, _, _ in sealed]
        self._inflight[replica] += 1
        dispatch = time.perf_counter()
        loop = asyncio.get_running_loop()
        try:
            if self.fleet.mode == "inline":
                # Inline submit simulates synchronously; keep the event
                # loop responsive by pushing it to a thread.
                result = await loop.run_in_executor(
                    None,
                    lambda: self.fleet.submit(replica, indices).result(),
                )
            else:
                result = await asyncio.wrap_future(
                    self.fleet.submit(replica, indices)
                )
        except Exception as exc:  # pragma: no cover - surfaced per request
            for _, _, fut in sealed:
                if not fut.done():
                    fut.set_exception(exc)
            return
        finally:
            self._inflight[replica] -= 1
        done = time.perf_counter()
        self._batches.append(len(sealed))
        for pos, (idx, arrived, fut) in enumerate(sealed):
            self._served += 1
            if not fut.done():
                fut.set_result(
                    {
                        "request": idx,
                        "digest": result["digests"][pos],
                        "batch": len(sealed),
                        "replica": replica,
                        "scheduler": result["scheduler"],
                        "cycles": result["cycles"],
                        "queue_us": round((dispatch - arrived) * 1e6, 1),
                        "service_us": round((done - dispatch) * 1e6, 1),
                    }
                )


async def serve_tcp(
    server: InferenceServer,
    host: str = "127.0.0.1",
    port: int = 8707,
) -> "asyncio.AbstractServer":
    """Expose the server as a JSON-lines TCP endpoint.

    One request per line: ``{"index": <int>[, "id": <any>]}`` answered by
    the response dict (plus the echoed ``id``); ``{"cmd": "stats"}``
    answers with :meth:`InferenceServer.stats`. Malformed lines get an
    ``{"error": ...}`` reply instead of a dropped connection.
    """

    async def handle(reader, writer):
        async def answer(payload: Dict[str, Any]) -> None:
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    msg = json.loads(line)
                except json.JSONDecodeError as exc:
                    await answer({"error": f"bad json: {exc}"})
                    continue
                if msg.get("cmd") == "stats":
                    await answer(server.stats())
                    continue
                if "index" not in msg:
                    await answer({"error": "missing 'index'"})
                    continue
                response = await server.submit(int(msg["index"]))
                if "id" in msg:
                    response = {"id": msg["id"], **response}
                await answer(response)
        finally:
            writer.close()

    return await asyncio.start_server(handle, host, port)
