"""The ledger's workloads: set-up, one timed op, its check, its traced pass.

Every workload exposes the same four steps to ``run.py``:

* ``setup(seed, tracer)`` — build everything the timed ops need (design,
  seeded weights and inputs, oracles, warm caches, the serving fleet);
* ``measure(seconds, min_ops)`` — the untraced timed pass, returning a
  :class:`Measured`; end-to-end metrics come from this and nothing else;
* ``trace(seconds, tracer)`` — the traced pass: the same work with spans
  opened here, around the public functions of each layer, returning the
  per-layer counters that are not span durations;
* ``close()`` — stop whatever set-up started.

The workloads only *call* the program. They change none of its behaviour.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import analyze_design
from repro.analysis.depths import (
    infer_depth_plan,
    probe_tight_certificate,
    run_shrink,
    validate_plan,
)
from repro.analysis.steady_state import extract_schedule, port_maps
from repro.compiled.kernels import KERNELS
from repro.core import (
    alexnet_blocked_design,
    cifar10_design,
    design_reference_forward,
    network_perf,
    random_weights,
    tiny_design,
    usps_design,
)
from repro.core.builder import build_network
from repro.dataflow import stable_digest
from repro.fpga import VC707
from repro.profiling import profile_design
from repro.profiling.synthesis import (
    synthesize_actor_stats,
    synthesize_channel_stats,
)
from repro.serve import InferenceServer, arrival_schedule, single_shot_digests

from spans import Tracer, pct

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"

#: CLI preset name -> design factory (the names `repro --design` accepts).
DESIGNS = {
    "cifar10": cifar10_design,
    "alexnet": alexnet_blocked_design,
    "usps": usps_design,
    "tiny": tiny_design,
}
#: Converged per-image time the paper measured on the board (Fig. 6), by
#: design name. Designs the paper did not build have no entry.
PAPER_INTERVAL_US = {"cifar10-tc2": 128.1}
#: Kernels reported one by one; every other entry of KERNELS is `k_other`.
KERNEL_GROUPS = (
    "k_conv", "k_fc", "k_window", "k_pool", "k_block_split",
    "k_block_merge", "k_source", "k_sink", "k_other",
)
#: Percentile of the op times that stands for one op of a single caller:
#: the fastest. One caller repeats identical CPU-bound work, and the shared
#: host only ever adds time, in epochs that outlast a short run (seven
#: minutes of TC2 event ops: floor 414 ms, median 639 ms, a whole minute at
#: +40 %, 40 s at 2x). Across the windows of that one process the fastest
#: op moved least, the more so the longer the window: interquartile range
#: over median 33 % in 10 s windows, 8 % in 40 s, 5 % in 60 s, against
#: 33 / 11 / 9 % for the 5th percentile and 22 / 16 / 13 % for the median.
SINGLE_Q = 0
#: The same for the 12-caller serve loop, whose thousands of ~50 ms rounds
#: have outliers on the fast side too (a round that caught a short batch).
CLOSED_Q = 5
#: A served request slower than this counts as failed.
SERVE_LIMIT_S = 1.0
#: float32 tolerance against the NumPy reference, relative to the largest
#: output: the longest dot product (9216 terms) accumulates about
#: sqrt(9216) * 2**-24 = 6e-6 of rounding; 1e-4 leaves a decade of room.
REFERENCE_RTOL = 1e-4


@dataclass
class Measured:
    """What one timed pass produced."""

    #: Percentile of the op times that stands for "one op" (see the loops).
    q: float
    #: Host seconds per op (serve: per request, from its due time).
    lat: List[float] = field(default_factory=list)
    #: Host seconds from the first op's start to the last op's end.
    window: float = 0.0
    #: Simulated cycles the ops covered.
    sim_cycles: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Simulated cycles per host second, as the loop defines it.
    cycles_per_s: float = 0.0

    @property
    def op_s(self) -> float:
        return pct(self.lat, self.q)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


def closed_loop(op: Callable[[], Tuple[int, str]], seconds: float,
                min_ops: int) -> Measured:
    """One caller, next op only after the previous one returned.

    Runs until ``seconds`` have passed *and* ``min_ops`` ops are done.
    ``op`` returns ``(simulated cycles, "" or why it failed)``.

    One op is timed as the fastest of the op times (:data:`SINGLE_Q`),
    and the cycle rate is cycles per op over that.
    """
    m = Measured(q=SINGLE_Q)
    start = time.perf_counter()
    while m.attempted < min_ops or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            cycles, why = op()
        except Exception:  # an op that raises is a failed op, not a crash
            cycles, why = 0, traceback.format_exc(limit=3)
        m.lat.append(time.perf_counter() - t0)
        m.attempted += 1
        m.sim_cycles += cycles
        if why:
            m.fail(why)
    m.window = time.perf_counter() - start
    m.cycles_per_s = m.sim_cycles / m.attempted / m.op_s
    return m


class SingleCaller:
    """A closed loop of one caller around ``self.op``."""

    def measure(self, seconds: float, min_ops: int) -> Measured:
        return closed_loop(self.op, seconds, min_ops)

    def close(self) -> None:
        pass


def seeded_batch(design, seed: int, images: int) -> np.ndarray:
    return (
        np.random.default_rng(seed)
        .uniform(0, 1, (images,) + design.input_shape)
        .astype(np.float32)
    )


def interval_err_pct(completions: List[int], design) -> Dict[str, float]:
    """Measured steady interval against Eq. 4 and against the paper.

    The measured interval is the largest gap between consecutive image
    completions; a single image has no interval and reports 0.
    """
    gaps = [b - a for a, b in zip(completions, completions[1:])]
    if not gaps:
        return {}
    predicted = network_perf(design).interval
    out = {
        "sim.eq4_interval_err_pct": abs(max(gaps) - predicted) / predicted * 100,
    }
    paper_us = PAPER_INTERVAL_US.get(design.name)
    if paper_us is not None:
        measured_us = VC707.seconds(max(gaps)) * 1e6
        out["sim.paper_interval_err_pct"] = (
            abs(measured_us - paper_us) / paper_us * 100
        )
    return out


def stage_of(actor_name: str) -> str:
    """Design stage (layer or DMA endpoint) an elaborated actor belongs to."""
    return actor_name.split(".", 1)[0].replace("dma_out_sink", "dma_out")


def event_counters(result, tr: Tracer) -> Dict[str, float]:
    """The event scheduler's own counts for one run (exact), and the host
    time each productive fire cost."""
    fires = sum(
        p["fires"] for procs in result.actor_stats.values() for p in procs
    )
    out = {
        f"dataflow.event.{key}": result.scheduler_stats[key]
        for key in ("executed_cycles", "skipped_cycles", "parks", "wakeups")
    }
    out["dataflow.event.fires"] = fires
    out["dataflow.event.host_us_per_fire"] = (
        tr.typical_s("dataflow.event.run") / fires * 1e6
    )
    return out


# -- build -> run -> outputs -> digest, one caller ----------------------------


class SimLoop(SingleCaller):
    """Closed loop over the simulator's library API on one engine.

    op = ``build_network`` -> ``run`` -> ``outputs`` -> ``stable_digest``.
    Every op's digest must equal the first op's, and the outputs must
    agree with an oracle made in set-up: ``oracle="engine"`` runs the
    first two images on the *other* engine family (event for a compiled
    workload, compiled for an interpreted one) and demands bit equality;
    ``oracle="reference"`` demands float32 agreement with
    ``design_reference_forward`` (for designs too large to interpret).
    """

    def __init__(self, design: str, scheduler: str, batch: int,
                 oracle: str = "engine", warm: bool = True):
        self.design = DESIGNS[design]()
        self.scheduler, self.batch = scheduler, batch
        self.oracle, self.warm = oracle, warm
        self.digest: Optional[str] = None

    def setup(self, seed: int, tr: Tracer) -> None:
        d = self.design
        with tr.span("core.random_weights"):
            self.weights = random_weights(d, seed)
        self.x = seeded_batch(d, seed, self.batch)
        with tr.span("oracle"):
            if self.oracle == "reference":
                self.ref = design_reference_forward(d, self.weights, self.x)[-1]
            else:
                other = "event" if self.scheduler == "compiled" else "compiled"
                built = build_network(d, self.weights, self.x[:2])
                built.run(scheduler=other)
                self.ref = stable_digest(built.outputs())
        if self.warm:
            # Fill the plan cache (and numpy's lazy imports) before timing.
            _, why = self.op()
            if why:
                raise RuntimeError(f"warm-up op failed: {why}")

    def check(self, out: np.ndarray, digest: str) -> str:
        if self.digest is None:
            self.digest = digest
        if digest != self.digest:
            return f"digest {digest} differs from the first op's {self.digest}"
        if self.oracle == "reference":
            err = float(np.max(np.abs(out - self.ref)))
            if err > REFERENCE_RTOL * float(np.max(np.abs(self.ref))):
                return f"outputs differ from the NumPy reference by {err}"
        elif stable_digest(out[:2]) != self.ref:
            return "first two images differ from the oracle engine's"
        return ""

    def op(self) -> Tuple[int, str]:
        built = build_network(self.design, self.weights, self.x)
        result = built.run(scheduler=self.scheduler)
        out = built.outputs()
        return result.cycles, self.check(out, stable_digest(out))

    # -- traced pass -------------------------------------------------------

    def trace(self, seconds: float, tr: Tracer) -> Tuple[Measured, dict]:
        d = self.design
        compiled = self.scheduler == "compiled"
        engine = "compiled.engine" if compiled else f"dataflow.{self.scheduler}"
        stats: dict = {}

        def spanned_op() -> Tuple[int, str]:
            """The real op, one span per phase."""
            with tr.span("core.builder.build"):
                built = build_network(d, self.weights, self.x)
            with tr.span(f"{engine}.run"):
                result = built.run(scheduler=self.scheduler)
            with tr.span("outputs"):
                out = built.outputs()
            with tr.span("dataflow.digest"):
                digest = stable_digest(out)
            stats.update(
                result=result, completions=built.image_completion_cycles()
            )
            return result.cycles, self.check(out, digest)

        if compiled:
            built = build_network(d, self.weights, self.x)
            actors = list(built.graph.actors.values())
            channels = list(built.graph.channels.values())
            # What a plan-cache miss pays, timed once outside the ops.
            with tr.span("analysis.analyze"):
                analyze_design(d)
            with tr.span("analysis.schedule"):
                schedule = extract_schedule(actors, channels, d)
                ports = port_maps(actors, channels)
            counters: dict = {}

            def op() -> Tuple[int, str]:
                # The real op gives the phase split; the replay (the `op`
                # span, compared with the untraced op for the overhead)
                # opens `engine.run` up into its kernels.
                cycles, why = spanned_op()
                with tr.span("op"):
                    why = why or self.replay_op(tr, schedule, ports, counters)
                return cycles, why
        else:
            def op() -> Tuple[int, str]:
                with tr.span("op"):
                    return spanned_op()

        m = traced_loop(op, seconds, tr)
        layer = {"sim.cycles_per_op": stats["result"].cycles}
        layer.update(interval_err_pct(stats["completions"], d))
        if compiled:
            # The kernel spans must account for the dispatch loops: within
            # 2 %, or within the loop's own millisecond per op on a design
            # whose kernels take less than that.
            loop = sum(tr.per_op("compiled.kernels.total"))
            busy = sum(
                sum(tr.per_op(f"compiled.kernels.{g}")) for g in KERNEL_GROUPS
            )
            if loop - busy > max(0.02 * loop, 1e-3 * m.attempted):
                m.fail(f"kernel spans cover {busy:.4f} s of {loop:.4f} s of replay")
            for group, c in counters.items():
                for key, value in c.items():
                    if value:  # a source reads no stream, a sink writes none
                        layer[f"compiled.kernels.{group}.{key}"] = (
                            value / m.attempted
                        )
            for group, kind in (("k_conv", "conv"), ("k_fc", "fc")):
                flops = self.batch * sum(
                    p.spec.flops_per_image(p.in_shape[1], p.in_shape[2])
                    for p in d.placements if p.spec.kind == kind
                )
                busy = tr.typical_s(f"compiled.kernels.{group}")
                layer[f"compiled.kernels.{group}.gflops_per_s"] = (
                    flops / busy / 1e9 if busy else 0.0
                )
        else:
            layer.update(event_counters(stats["result"], tr))
            with tr.span("dataflow.lockstep.run"):
                build_network(d, self.weights, self.x).run(scheduler="lockstep")
        return m, layer

    def replay_op(self, tr: Tracer, schedule, ports, counters: dict) -> str:
        """``run_kernels``' dispatch loop, one span per kernel call.

        Replayed here over the public ``KERNELS`` table so the program
        needs no instrumentation. An actor type without a kernel, a name
        of ``schedule.order`` left undispatched, or a sink digest other
        than the untraced op's is a failure.
        """
        in_ports, out_ports = ports
        built = build_network(self.design, self.weights, self.x)
        actors = built.graph.actors
        streams: Dict[str, np.ndarray] = {}
        dispatched = 0
        with tr.span("compiled.kernels.total"):
            for name in schedule.order:
                actor = actors[name]
                kernel = KERNELS.get(type(actor))
                if kernel is None:
                    return f"{name!r} ({type(actor).__name__}) has no kernel"
                group = kernel.__name__
                if group not in KERNEL_GROUPS:
                    group = "k_other"
                ins = {p: streams[c] for p, c in in_ports[name].items()}
                with tr.span(f"compiled.kernels.{group}", stage=stage_of(name)):
                    outs = kernel(actor, ins)
                for port, arr in outs.items():
                    streams[out_ports[name][port]] = arr
                c = counters.setdefault(
                    group, {"calls": 0, "bytes_in": 0, "bytes_out": 0}
                )
                c["calls"] += 1
                c["bytes_in"] += sum(a.nbytes for a in ins.values())
                c["bytes_out"] += sum(a.nbytes for a in outs.values())
                dispatched += 1
        if dispatched != len(actors):
            return f"replay dispatched {dispatched} of {len(actors)} actors"
        with tr.span("profiling.synthesize"):
            synthesize_actor_stats(schedule)
            synthesize_channel_stats(
                schedule, built.graph.channels.values(), built.source.name
            )
        digest = stable_digest(built.outputs())
        if digest != self.digest:
            return f"replay digest {digest} differs from the untraced {self.digest}"
        return ""



def traced_loop(op: Callable[[], Tuple[int, str]], seconds: float,
                tr: Tracer) -> Measured:
    """``closed_loop`` giving every iteration's spans their own op id.

    ``op`` opens the span called ``op`` around the part of itself that
    mirrors one untraced op; ``run.py`` compares the two for the overhead.
    """
    def one() -> Tuple[int, str]:
        tr.op = 0 if tr.op is None else tr.op + 1
        return op()

    m = closed_loop(one, seconds, 1)
    tr.op = None
    return m


# -- depth prover + validation ------------------------------------------------


class ShrinkLoop(SingleCaller):
    """Closed loop over ``run_shrink`` (literal elaboration, both
    interpreted engines, depth-1 deadlock probes)."""

    def __init__(self, design: str, probe_limit: int):
        self.design = DESIGNS[design]()
        self.probe_limit = probe_limit
        self.first: Optional[tuple] = None

    def setup(self, seed: int, tr: Tracer) -> None:
        self.seed = seed

    def op(self) -> Tuple[int, str]:
        report = run_shrink(
            self.design, seed=self.seed, probe_limit=self.probe_limit
        )
        val = report["validation"]
        cycles = (
            val["baseline_cycles"]
            + sum(run["cycles"] for run in val["runs"].values())
            + sum(probe["cycles"] for probe in val["probes"])
        )
        key = (val["baseline_digest"], report["words"]["certified"], cycles)
        if self.first is None:
            self.first = key
        if not report["ok"]:
            return cycles, f"ShrinkReport not ok: {report['violations']}"
        if key != self.first:
            return cycles, f"shrink result {key} differs from the first {self.first}"
        return cycles, ""

    def trace(self, seconds: float, tr: Tracer) -> Tuple[Measured, dict]:
        d, seed = self.design, self.seed
        weights = random_weights(d, seed)
        x = seeded_batch(d, seed, 1)
        stats: dict = {}

        def op() -> Tuple[int, str]:
            """``run_shrink``'s steps, called one by one."""
            with tr.span("op"):
                with tr.span("core.builder.build"):
                    built = build_network(d, weights, x, memory_system="literal")
                with tr.span("analysis.depths.infer"):
                    plan = infer_depth_plan(built.graph, design_name=d.name)
                with tr.span("analysis.depths.validate"):
                    val = validate_plan(d, plan, seed=seed, probe_channels=[])
                tight = plan.tight_channels()
                with tr.span("analysis.depths.probe"):
                    probes = [
                        probe_tight_certificate(d, plan, ch, seed=seed)
                        for ch in tight[: self.probe_limit]
                    ]
            stats.update(plan=plan, probes=probes, tight=tight)
            cycles = (
                val.baseline_cycles
                + sum(run["cycles"] for run in val.runs.values())
                + sum(p.cycles for p in probes)
            )
            ok = val.ok and all(p.ok for p in probes)
            return cycles, "" if ok else "certified plan failed validation"

        m = traced_loop(op, seconds, tr)
        plan = stats["plan"]
        layer = {
            "sim.cycles_per_op": m.sim_cycles / m.attempted,
            "analysis.depths.probes": len(stats["probes"]),
            "analysis.depths.channels": len(plan.certificates),
            "analysis.depths.tight": len(stats["tight"]),
            "analysis.depths.saved_words": plan.saved_words,
        }
        # The certified literal build once on each interpreted engine: the
        # sparse use of the scheduler that `validate_plan` spends its time in.
        for scheduler in ("event", "lockstep"):
            built = build_network(
                d, weights, x, memory_system="literal", depth_plan=plan
            )
            with tr.span(f"dataflow.{scheduler}.run"):
                result = built.run(scheduler=scheduler, stall_limit=50_000)
            if scheduler == "event":
                layer.update(event_counters(result, tr))
        return m, layer



# -- fresh interpreters running the CLI ---------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def time_python(code: str) -> float:
    """Host seconds of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                   timeout=120)
    return time.perf_counter() - t0


def startup_breakdown(samples: int = 3) -> Dict[str, float]:
    """What every fresh process pays before its first line of work (the
    fastest of ``samples``, like every closed-loop time here)."""
    return {
        f"cli.{name}_s": min(time_python(code) for _ in range(samples))
        for name, code in (
            ("interp", "pass"),
            ("numpy_import", "import numpy"),
            ("import", "import repro.cli"),
        )
    }


class CliLoop(SingleCaller):
    """Closed loop of cold ``python -m repro profile`` runs."""

    def __init__(self, design: str):
        self.preset, self.design = design, DESIGNS[design]()
        self.count = 0

    def setup(self, seed: int, tr: Tracer) -> None:
        self.seed = seed
        self.tmp = OUT / f"cli-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        with tr.span("oracle"):
            self.oracle = profile_design(
                self.design, seed=seed, scheduler="compiled"
            ).to_dict()

    def op(self) -> Tuple[int, str]:
        self.count += 1
        path = self.tmp / f"profile-{self.count}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "profile", "--design", self.preset,
             "--scheduler", "compiled", "--seed", str(self.seed),
             "--json", str(path)],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120,
        )
        if proc.returncode != 0:
            return 0, f"CLI exit {proc.returncode}: {proc.stderr[-300:]}"
        report = json.loads(path.read_text())
        path.unlink()
        for key in ("cycles", "ok", "throughput"):
            if report[key] != self.oracle[key]:
                return report["cycles"], (
                    f"CLI {key} {report[key]} != in-process {self.oracle[key]}"
                )
        return report["cycles"], ""

    def trace(self, seconds: float, tr: Tracer) -> Tuple[Measured, dict]:
        def op() -> Tuple[int, str]:
            with tr.span("op"):
                return self.op()

        m = traced_loop(op, seconds, tr)
        throughput = self.oracle["throughput"]
        layer = startup_breakdown()
        layer["cli.run_s"] = tr.typical_s("op") - layer["cli.import_s"]
        layer["sim.cycles_per_op"] = self.oracle["cycles"]
        layer.update(
            interval_err_pct(throughput["completion_cycles"], self.design)
        )
        return m, layer

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


# -- the live serving path ----------------------------------------------------


class ServeLoop:
    """One generator process against a live one-replica ``InferenceServer``.

    ``rate`` makes an open loop: seeded Poisson arrivals at ``rate``
    req/s, sent on schedule whatever the server does, each timed from
    the moment it was *due* — independent users, a queue that can grow.
    ``callers`` makes a closed loop: that many callers, each sending its
    next request when the previous one answered — no queue, throughput
    bound by the worker. Requests cycle through ``POOL`` distinct inputs
    so set-up can compute every reference digest.
    """

    POOL = 64

    def __init__(self, design: str, rate: Optional[float] = None,
                 callers: Optional[int] = None):
        self.design = DESIGNS[design]()
        self.rate, self.callers = rate, callers
        self.loop = asyncio.new_event_loop()
        self.server: Optional[InferenceServer] = None

    def setup(self, seed: int, tr: Tracer) -> None:
        self.seed = seed
        with tr.span("serve.verify"):
            self.refs = single_shot_digests(
                self.design, seed, list(range(self.POOL))
            )
        with tr.span("serve.fleet_spawn"):
            self.server = InferenceServer(
                self.design, replicas=1, seed=seed, mode="process"
            )
            self.loop.run_until_complete(self.server.start())
        # Each batch size is its own plan-cache entry in the worker: send
        # every size once so no timed request pays lowering.
        with tr.span("serve.warm"):
            self.loop.run_until_complete(self._warm())

    async def _warm(self) -> None:
        for size in range(1, self.server.max_batch + 1):
            await asyncio.gather(*(self.server.submit(i) for i in range(size)))

    def measure(self, seconds: float, min_ops: int) -> Measured:
        # The request count is set by the rate or the callers, not min_ops.
        return self.loop.run_until_complete(self._load(seconds, None))

    async def _load(self, seconds: float, tr: Optional[Tracer]) -> Measured:
        # In the open loop the spread of the request times is the program's
        # behaviour (admission wait, batch size), not noise: one op is the
        # p50 latency. The closed loop runs identical full batches back to
        # back, so its fast rounds are the program's own cost.
        m = Measured(q=50 if self.rate is not None else CLOSED_Q)
        self.late: List[float] = []
        self.responses: List[dict] = []

        async def request(i: int, due: float) -> None:
            index = i % self.POOL
            m.attempted += 1
            try:
                r = await self.server.submit(index)
            except Exception:  # surfaced per request by the server
                m.fail(traceback.format_exc(limit=3))
                return
            done = time.perf_counter()
            m.lat.append(done - due)
            m.sim_cycles += r["cycles"] / r["batch"]
            if r["digest"] != self.refs[index]:
                m.fail(f"request {i}: digest {r['digest']} != single-shot")
            elif done - due > SERVE_LIMIT_S:
                m.fail(f"request {i}: {done - due:.3f} s, over the limit")
            if tr is not None:
                self.responses.append(r)
                dispatch = done - r["service_us"] / 1e6
                root = tr.add("op", due, done, op=i)
                tr.add("serve.queue", dispatch - r["queue_us"] / 1e6, dispatch,
                       parent=root, op=i)
                tr.add("serve.service", dispatch, done, parent=root, op=i)

        start = time.perf_counter()
        if self.rate is not None:
            # n + 1 Poisson arrivals rescaled so the last lands at
            # `seconds`: still Poisson (given the count, arrival times are
            # uniform order statistics), but every seed offers the same n
            # requests over the same window.
            n = max(1, round(self.rate * seconds))
            sched = arrival_schedule(n + 1, self.rate, "poisson", self.seed)
            scale = seconds / sched[-1]
            tasks = []
            for i, at in enumerate(sched[:-1]):
                due = start + at * scale
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.late.append(time.perf_counter() - due)
                tasks.append(asyncio.create_task(request(i, due)))
            await asyncio.gather(*tasks)
        else:
            async def caller(c: int) -> None:
                i = c
                while time.perf_counter() - start < seconds:
                    await request(i, time.perf_counter())
                    i += self.callers

            await asyncio.gather(*(caller(c) for c in range(self.callers)))
        m.window = time.perf_counter() - start
        m.sim_cycles = round(m.sim_cycles)
        if self.rate is not None:
            m.cycles_per_s = m.sim_cycles / m.window
        elif m.lat:
            # Little's law on the undisturbed rounds: callers / latency.
            m.cycles_per_s = m.sim_cycles / len(m.lat) * self.callers / m.op_s
        return m

    def trace(self, seconds: float, tr: Tracer) -> Tuple[Measured, dict]:
        # The worker's own wall time never reaches a response, so wrap the
        # fleet's submit (benchmark-side) to read it off the batch result.
        batches: List[Tuple[float, float, dict]] = []
        submit = self.server.fleet.submit

        def traced_submit(replica, indices, scheduler="compiled"):
            t0 = time.perf_counter()
            fut = submit(replica, indices, scheduler)
            fut.add_done_callback(lambda f: done(t0, f))
            return fut

        def done(t0: float, fut) -> None:
            # A failed batch already fails each of its requests in `_load`.
            if not fut.cancelled() and fut.exception() is None:
                batches.append((t0, time.perf_counter(), fut.result()))

        self.server.fleet.submit = traced_submit
        try:
            m = self.loop.run_until_complete(self._load(seconds, tr))
        finally:
            self.server.fleet.submit = submit
        for t0, t1, result in batches:
            tr.add("serve.batch", t0, t1)
            tr.add("serve.worker_exec", t1 - result["wall_s"], t1)
        ms = 1e3
        sizes = [len(result["indices"]) for _, _, result in batches]
        layer = {
            "serve.queue_ms_p50": pct(
                [r["queue_us"] for r in self.responses], 50) / ms,
            "serve.service_ms_p50": pct(
                [r["service_us"] for r in self.responses], 50) / ms,
            "serve.worker_exec_ms_p50": pct(
                [b["wall_s"] for _, _, b in batches], 50) * ms,
            "serve.ipc_ms_p50": pct(
                [t1 - t0 - b["wall_s"] for t0, t1, b in batches], 50) * ms,
            "serve.batch_size_mean": statistics.mean(sizes) if sizes else 0.0,
            "serve.batches": len(batches),
            "serve.served_per_host_s": (m.attempted - m.failed) / m.window,
            "serve.latency_ms_p95": pct(m.lat, 95) * ms,
            "serve.generator_late_ms_p99": pct(self.late, 99) * ms,
        }
        intervals = [
            b["completion_cycles"] for _, _, b in batches
            if len(b["completion_cycles"]) > 1
        ]
        if intervals:
            layer.update(max(
                (interval_err_pct(c, self.design) for c in intervals),
                key=lambda e: e["sim.eq4_interval_err_pct"],
            ))
        return m, layer

    def close(self) -> None:
        if self.server is not None:
            self.loop.run_until_complete(self.server.stop())
            self.server = None
        self.loop.close()


#: name -> (factory(design preset), design preset). ``--quick`` swaps the
#: preset for "tiny" and leaves everything else as it is.
WORKLOADS: Dict[str, Tuple[Callable[[str], object], str]] = {
    "tc2_compiled_b64": (
        lambda d: SimLoop(d, "compiled", batch=64), "cifar10"),
    # No warm-up op: at ~3 s it would triple this workload's set-up, and
    # lowering is ~3 % of the first of >= 5 ops (the fastest ignores it).
    "alexnet_compiled_b1": (
        lambda d: SimLoop(d, "compiled", batch=1, oracle="reference",
                          warm=False), "alexnet"),
    "tc2_event_b4": (
        lambda d: SimLoop(d, "event", batch=4), "cifar10"),
    "usps_shrink_p2": (lambda d: ShrinkLoop(d, probe_limit=2), "usps"),
    "tc2_cli_cold": (lambda d: CliLoop(d), "cifar10"),
    "tc2_serve_open60": (lambda d: ServeLoop(d, rate=60.0), "cifar10"),
    "tc2_serve_closed12": (lambda d: ServeLoop(d, callers=12), "cifar10"),
}


def make_workload(name: str, quick: bool = False):
    factory, design = WORKLOADS[name]
    return factory("tiny" if quick else design)
