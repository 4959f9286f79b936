"""Tests of the ledger itself (not tier-1: ``python -m pytest benchmarks/ledger``).

They run ``run.py --quick`` — every workload on ``tiny_design`` for a
second — so they check the benchmark's plumbing, not its numbers.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import run  # noqa: E402  (needs the path set above)
import workloads  # noqa: E402

SPEC = run.spec()


def quick_set(tmp_path_factory, seed: int) -> dict:
    out = tmp_path_factory.mktemp("ledger") / f"set{seed}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", str(seed),
         "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return {"path": out, "stdout": proc.stdout, **json.loads(out.read_text())}


@pytest.fixture(scope="module")
def set1(tmp_path_factory):
    return quick_set(tmp_path_factory, 1)


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[k]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    # The driver gates on a subset (long runs, few workloads: README).
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert len(SPEC["per_layer"]) <= 128


def test_quick_run_emits_exactly_the_listed_names(set1):
    assert list(set1["workloads"]) == list(workloads.WORKLOADS)
    for name, row in set1["workloads"].items():
        assert set(row["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(row["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert row["failed"] == 0 and row["attempted"] >= 1, name
        assert all(v > 0 for v in row["end_to_end"].values()), name
    for kind in ("end_to_end", "per_layer"):
        for metric in run.metrics_of(kind):
            assert metric in set1["stdout"]
    assert set1["environment"]["seed"] == 1


def test_every_layer_is_entered_by_some_workload(set1):
    """No per-layer metric is dead: each reads nonzero on some workload
    (the paper's board interval exists for TC2 only, which --quick skips)."""
    for metric in run.metrics_of("per_layer"):
        if metric in ("sim.paper_interval_err_pct", "sim.eq4_interval_err_pct"):
            continue
        if "k_block_" in metric:  # tiny_design is not blocked
            continue
        assert any(
            row["per_layer"][metric] for row in set1["workloads"].values()
        ), metric


def test_kernel_seconds_add_up_and_trace_is_written(set1):
    row = set1["workloads"]["tc2_compiled_b64"]["per_layer"]
    parts = sum(
        row[f"compiled.kernels.{g}.s"] for g in workloads.KERNEL_GROUPS
    )
    assert parts == pytest.approx(row["compiled.kernels.total_s"], abs=1e-3)
    trace = json.loads((HERE / "out" / "trace-tc2_compiled_b64.json").read_text())
    names = {e["name"] for e in trace["traceEvents"]}
    assert {"op", "compiled.kernels.total", "compiled.kernels.k_conv"} <= names
    stages = {e["args"]["stage"] for e in trace["traceEvents"]}
    assert {"dma_in", "conv1", "fc1", "dma_out"} <= stages


def test_a_second_seed_leaves_exact_metrics_unchanged(set1, tmp_path_factory):
    set2 = quick_set(tmp_path_factory, 2)
    exact = [m for m in run.metrics_of("per_layer") if run.exact(m)]
    assert "sim.cycles_per_op" in exact and "dataflow.event.fires" in exact
    for name, row in set1["workloads"].items():
        other = set2["workloads"][name]["per_layer"]
        assert {m: row["per_layer"][m] for m in exact} == {
            m: other[m] for m in exact
        }, name
    # ... and the inputs did change with the seed.
    a, b = (workloads.make_workload("tc2_compiled_b64", quick=True)
            for _ in range(2))
    a.setup(1, workloads.Tracer())
    b.setup(2, workloads.Tracer())
    assert a.digest != b.digest


def test_injected_digest_mismatch_counts_every_op_as_failed():
    wl = workloads.make_workload("tc2_compiled_b64", quick=True)
    wl.setup(0, workloads.Tracer())
    assert wl.measure(0.05, 2).failed == 0
    wl.ref = "crc32:deadbeef"  # the oracle engine now "disagrees"
    m = wl.measure(0.05, 2)
    assert m.attempted >= 2 and m.failed == m.attempted
    assert "oracle" in m.errors[0]


def test_replay_counts_an_actor_without_a_kernel_as_a_failure(monkeypatch):
    from repro.analysis.steady_state import extract_schedule, port_maps
    from repro.core.builder import build_network
    from repro.core.pool_core import PoolCoreActor

    wl = workloads.make_workload("tc2_compiled_b64", quick=True)
    wl.setup(0, workloads.Tracer())
    graph = build_network(wl.design, wl.weights, wl.x).graph
    actors, channels = list(graph.actors.values()), list(graph.channels.values())
    schedule = extract_schedule(actors, channels, wl.design)
    ports = port_maps(actors, channels)
    assert wl.replay_op(workloads.Tracer(), schedule, ports, {}) == ""
    monkeypatch.delitem(workloads.KERNELS, PoolCoreActor)
    why = wl.replay_op(workloads.Tracer(), schedule, ports, {})
    assert "PoolCoreActor" in why and "has no kernel" in why


def test_compare_flags_a_worse_metric_and_an_exact_difference(set1, tmp_path):
    path = str(set1["path"])
    assert run.compare(path, path) == 0
    worse = json.loads(set1["path"].read_text())
    worse["workloads"]["tc2_event_b4"]["end_to_end"]["host_ms_per_op"] *= 1.5
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(worse))
    assert run.compare(path, str(slow)) == 1
    assert run.compare(str(slow), path) == 0  # an improvement passes
    moved = json.loads(set1["path"].read_text())
    moved["workloads"]["tc2_event_b4"]["per_layer"]["sim.cycles_per_op"] += 1
    cycles = tmp_path / "cycles.json"
    cycles.write_text(json.dumps(moved))
    assert run.compare(path, str(cycles)) == 1


def test_self_time_is_span_minus_children():
    tr = workloads.Tracer()
    root = tr.add("op", 0.0, 10.0)
    tr.add("a", 1.0, 4.0, parent=root)
    tr.add("a", 5.0, 6.0, parent=root)
    assert tr.self_times() == {"op": 6.0, "a": 4.0}
    assert tr.typical_s("a") == 4.0 and tr.typical_s("missing") == 0.0
