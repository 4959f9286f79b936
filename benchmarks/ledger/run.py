"""The host-time ledger: one benchmark for simulator, CLI and serving path.

One workload, as the benchmark contract runs it (last stdout line is the
JSON result; ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer ones)::

    python3 benchmarks/ledger/run.py --workload tc2_compiled_b64 \
        --seed 1 --seconds 50 --trace 0

An untraced run is split over ``STRETCHES`` fresh processes, one after
another; a traced one is one process.

``BENCHMARK.json`` lists the workloads the driver runs and gates on;
``workloads.WORKLOADS`` has those and the ones that are only surveyed.
All of them, each pass in fresh processes of its own, one at a time, with
a table of every metric and a JSON set under ``benchmarks/ledger/out/``::

    python3 benchmarks/ledger/run.py --seed 1 [--seconds 10] [--quick] [--out SET.json]

Two sets against the bounds in ``BENCHMARK.json``::

    python3 benchmarks/ledger/run.py --compare A.json B.json

See README.md for what each metric means and which one a layer moves.
"""

import time

T0 = time.perf_counter()  # set-up is timed from the first line of the run

import argparse
import functools
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"


@functools.lru_cache(maxsize=None)
def spec() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metrics_of(kind: str) -> dict:
    """name -> entry of the ``end_to_end`` or ``per_layer`` list."""
    return {m["name"]: m for m in spec()[kind]}


#: Fresh processes, one after another, that an untraced run is split over:
#: each sets up and then measures for its share of the seconds. A set-up
#: takes about a second and this host's noisy epochs last up to a minute,
#: so set-up samples taken together share an epoch (measured: the fastest
#: of three, two of them back to back, read 1.0 to 1.5 s over ten runs);
#: samples spread over the run do not.
STRETCHES = 4
#: Ops one stretch of a single caller completes however long they take.
MIN_OPS = 2


#: Per-layer metrics that are simulated or counted, not timed: they repeat
#: exactly on one commit, whatever the seed or the host's load.
EXACT_PREFIXES = ("sim.",)
EXACT_SUFFIXES = (".calls", ".bytes_in", ".bytes_out")
EXACT_NAMES = {
    f"dataflow.event.{k}"
    for k in ("executed_cycles", "skipped_cycles", "parks", "wakeups", "fires")
} | {
    f"analysis.depths.{k}" for k in ("probes", "channels", "tight", "saved_words")
}


def exact(name: str) -> bool:
    return (
        name.startswith(EXACT_PREFIXES)
        or name.endswith(EXACT_SUFFIXES)
        or name in EXACT_NAMES
    )


# -- one workload -----------------------------------------------------------------


def load_program():
    """Put the repository's ``src`` and this directory on the path."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"ledger: {ROOT / 'src' / 'repro'} not found; the "
                 f"benchmark measures the repository it is checked out in")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    return workloads


def self_args(args, seconds: float, *extra: str) -> list:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds), *extra]
    return argv + ["--quick"] if args.quick else argv


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        sys.exit(f"ledger: {' '.join(proc.args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """This process plus its largest waited-for child (the serve worker,
    a CLI run), from ``ru_maxrss`` (KiB on Linux)."""
    return sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def run_stretches(args) -> dict:
    """The untraced run: ``STRETCHES`` fresh processes, each one stretch.

    Every time is read off the stretch where it was best, because the
    host only ever adds time; memory off the one where it was largest.
    """
    parts = [
        last_json(subprocess.run(
            self_args(args, args.seconds / STRETCHES, "--stretch"),
            stdout=subprocess.PIPE, text=True,
            timeout=170 - (time.perf_counter() - T0),
        ))
        for _ in range(STRETCHES)
    ]
    metrics = {}
    for name, m in metrics_of("end_to_end").items():
        values = [part["metrics"][name]["value"] for part in parts]
        largest = m["better"] == "higher" or name == "peak_rss_mb"
        metrics[name] = {"value": (max if largest else min)(values),
                         "unit": m["unit"]}
    failed = sum(part["failed"] for part in parts)
    return {
        "correct": failed == 0,
        "attempted": sum(part["attempted"] for part in parts),
        "failed": failed,
        "metrics": metrics,
    }


def run_stretch(args) -> dict:
    """In this process: set-up, then one untraced stretch or the traced pass."""
    workloads = load_program()
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"ledger: no workload {args.workload!r}; there are "
                 f"{', '.join(workloads.WORKLOADS)}")
    tr = Tracer()
    wl = workloads.make_workload(args.workload, args.quick)
    try:
        wl.setup(args.seed, tr)
        setup_s = time.perf_counter() - T0
        if args.trace:
            m, metrics = traced_pass(wl, args.seconds, tr)
        else:
            m = wl.measure(args.seconds, MIN_OPS)
    finally:
        wl.close()

    if args.trace:
        OUT.mkdir(exist_ok=True)
        tr.write_chrome(OUT / f"trace-{args.workload}.json")
    else:
        metrics = {
            "setup_s": setup_s,
            "host_ms_per_op": m.op_s * 1e3,
            "sim_cycles_per_host_s": m.cycles_per_s,
            "peak_rss_mb": peak_rss_mb(),
        }
    for why in m.errors:
        print(f"ledger: failed op: {why}", file=sys.stderr)
    listed = metrics_of("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(listed):
        sys.exit(f"ledger: metrics {sorted(set(metrics) ^ set(listed))} are "
                 f"not the ones BENCHMARK.json lists")
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": float(value), "unit": listed[name]["unit"]}
            for name, value in metrics.items()
        },
    }


def traced_pass(wl, seconds: float, tr):
    """Half the time untraced, half traced; every per-layer metric.

    Span times first, then the workload's own counters. A metric whose
    layer this workload never enters reads 0.
    """
    from repro.compiled import plan_cache_stats

    names = metrics_of("per_layer")
    before = plan_cache_stats()
    untraced = wl.measure(seconds / 2, 1)
    after = plan_cache_stats()
    tr.q = untraced.q
    m, layer = wl.trace(seconds / 2, tr)

    metrics = dict.fromkeys(names, 0.0)
    for name in names:
        # A time metric is its span's name plus `_s` (kernels: `.s`).
        if name.endswith(("_s", ".s")):
            metrics[name] = tr.typical_s(name[:-2])
    metrics.update(layer)
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    metrics["compiled.plan_cache.hit_share"] = hits / lookups if lookups else 0.0
    base = untraced.op_s
    metrics["trace_overhead_pct"] = (tr.typical_s("op") - base) / base * 100

    m.attempted += untraced.attempted
    m.failed += untraced.failed
    m.errors += untraced.errors
    return m, metrics


# -- every workload, each in a fresh process -------------------------------------


def environment(seed: int, seconds: float) -> dict:
    import importlib.util

    import numpy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except FileNotFoundError:  # no git on this machine
        rev = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "cpu_count": os.cpu_count(),
        # Without it every fresh interpreter recompiles src/ on import.
        "bytecode_cache": not sys.dont_write_bytecode,
        "platform": platform.platform(),
        "git_revision": rev or "unknown",
        "seed": seed,
        "seconds": seconds,
    }


def run_all(args) -> int:
    result = {"environment": environment(args.seed, args.seconds),
              "workloads": {}}
    for name in load_program().WORKLOADS:
        args.workload = name
        row = result["workloads"][name] = {"attempted": 0, "failed": 0}
        for trace, kind in enumerate(("end_to_end", "per_layer")):
            print(f"ledger: {name} --trace {trace}", file=sys.stderr)
            out = last_json(subprocess.run(
                self_args(args, args.seconds, "--trace", str(trace)),
                stdout=subprocess.PIPE, text=True,
            ))
            row[kind] = {k: v["value"] for k, v in out["metrics"].items()}
            row["attempted"] += out["attempted"]
            row["failed"] += out["failed"]
    print_table(result, "end_to_end")
    print_table(result, "per_layer")
    path = Path(args.out) if args.out else OUT / f"ledger-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")
    failed = sum(row["failed"] for row in result["workloads"].values())
    print(f"\nfailed ops: {failed}; set written to {path}")
    return 1 if failed else 0


def print_table(result: dict, kind: str) -> None:
    names = list(result["workloads"])
    listed = metrics_of(kind)
    width = max(len(n) for n in listed) + 8
    print(f"\n{kind} ('-' = this workload never enters that layer)")
    print(" " * width + " ".join(f"{n:>19}" for n in names))
    for metric, m in listed.items():
        cells = [result["workloads"][n][kind][metric] for n in names]
        print(f"{metric + ' [' + m['unit'] + ']':<{width}}" + " ".join(
            f"{c:>19.4g}" if c or kind == "end_to_end" else f"{'-':>19}"
            for c in cells
        ))
    print(f"{'failed/attempted':<{width}}" + " ".join(
        f"{row['failed']}/{row['attempted']}".rjust(19)
        for row in result["workloads"].values()
    ))


# -- two sets against the bounds -------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """B against A: nonzero when any end-to-end metric is worse by more
    than its bound, an exact metric differs, or an op failed."""
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b))
    bad = 0
    print(f"{'workload':<22}{'metric':<36}{'A':>12}{'B':>12}{'B vs A':>9}  verdict")
    for name in a:
        for metric, m in metrics_of("end_to_end").items():
            va, vb = a[name]["end_to_end"][metric], b[name]["end_to_end"][metric]
            worse = (vb - va) / va * (1 if m["better"] == "lower" else -1)
            verdict = (
                "WORSE" if worse > m["bound"]
                else "better" if worse < -m["bound"] else "same"
            )
            bad += verdict == "WORSE"
            print(f"{name:<22}{metric:<36}{va:>12.5g}{vb:>12.5g}"
                  f"{worse * 100:>+8.1f}%  {verdict} (bound {m['bound']:.0%})")
        for metric in filter(exact, metrics_of("per_layer")):
            va, vb = a[name]["per_layer"][metric], b[name]["per_layer"][metric]
            if va != vb:
                bad += 1
                print(f"{name:<22}{metric:<36}{va:>12.5g}{vb:>12.5g}"
                      f"{'':>9}  DIFFERS (exact)")
        for which, row in (("A", a[name]), ("B", b[name])):
            if row["failed"]:
                bad += 1
                print(f"{name:<22}{row['failed']} failed ops in {which}")
    print(f"{bad} metric(s) outside the bounds")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="default: every one, one at a time")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds of BENCHMARK.json, 1 with --quick")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="every workload on the tiny design (for the tests)")
    ap.add_argument("--out", help="where the all-workloads run writes its set")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--stretch", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else spec()["run_seconds"]
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        return run_all(args)
    # --quick keeps to one process per pass: the tests check plumbing.
    here = args.trace or args.stretch or args.quick
    print(json.dumps(run_stretch(args) if here else run_stretches(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
