"""Command-line interface: ``python -m repro <command> ...``.

Exposes the library's main flows over the preset designs (or a design
JSON produced by :mod:`repro.core.serialize`):

* ``block-design`` — render the Figure 4/5-style block diagram;
* ``report``       — the HLS-style synthesis report;
* ``perf``         — interval / fill / throughput summary;
* ``resources``    — Table-I-style device utilization;
* ``sweep``        — the Figure-6 batch curve (analytical model);
* ``dse``          — greedy design-space exploration;
* ``simulate``     — cycle-accurate run verified against the NumPy reference;
* ``check``        — static dataflow verification: rate balance, port
  adapters, FIFO buffering, Eq. 4 II consistency;
* ``faultsim``     — fault injection, single runs or ``--campaign`` sweeps;
* ``flow``         — the automated train / verify / report design flow;
* ``profile``      — measured II, interval and bottleneck vs Eq. 4;
* ``shrink``       — certified FIFO depth inference and its validation;
* ``shard``        — multi-FPGA sharded co-simulation vs the split plan;
* ``loadtest``     — seeded open-loop serving run with digest checks;
* ``serve``        — the live JSON-lines TCP inference server.

The first seven take the design as a positional argument; the rest share
``--design``/``--json``/``--seed``. ``simulate``, ``check``, ``faultsim``,
``profile``, ``shrink``, ``shard`` and ``loadtest`` are gates: they exit
nonzero when their verdict fails. Engine choices (``--scheduler``,
``--engines``) are :data:`repro.dataflow.simulator.USER_SCHEDULERS`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from repro.core import (
    cifar10_design,
    design_from_dict,
    design_resources,
    network_perf,
    random_weights,
    render_report,
    run_batch,
    tiny_design,
    usps_design,
    batch_sweep,
)
from repro.core.builder import seeded_batch
from repro.core.reference import design_reference_forward
from repro.core.zoo import (
    alexnet_blocked_design,
    alexnet_pilot_design,
    vgg16_blocked_design,
    vgg16_pilot_design,
)
from repro.dataflow.simulator import USER_SCHEDULERS
from repro.dse import greedy_optimize
from repro.errors import ReproError
from repro.fpga import VC707, XC7VX485T
from repro.report import format_kv, format_table

_PRESETS = {
    "usps": usps_design,
    "cifar10": cifar10_design,
    "tiny": tiny_design,
    # Canonical design names (design.name) double as preset spellings so
    # reports and CLI invocations round-trip: `repro loadtest --design
    # cifar10-tc2` works on the name a ServeReport printed.
    "usps-tc1": usps_design,
    "cifar10-tc2": cifar10_design,
    # AlexNet/VGG-16 resolve to the promoted full-size designs
    # (weight-streaming FC + block convolution), simulable on every
    # engine; the '-pilot' spellings are their deterministic downscales
    # for quick fault/profile loops.
    "alexnet": alexnet_blocked_design,
    "vgg16": vgg16_blocked_design,
    "alexnet-pilot": alexnet_pilot_design,
    "vgg16-pilot": vgg16_pilot_design,
}

_DESIGN_HELP = (
    "preset (usps|cifar10|tiny|alexnet|vgg16|alexnet-pilot|vgg16-pilot) "
    "or design JSON path"
)

#: `faultsim --campaign` default: one spelling per design, AlexNet/VGG-16 as
#: pilots (full-size x scenarios x seeds on an interpreted engine is hours).
_CAMPAIGN_DESIGNS = ("usps", "cifar10", "tiny", "alexnet-pilot", "vgg16-pilot")


def _read_design(arg: str):
    """A preset's design, or the parsed object of a design JSON file."""
    if arg in _PRESETS:
        return _PRESETS[arg]()
    try:
        with open(arg) as fh:
            d = json.load(fh)
    except FileNotFoundError:
        raise ReproError(
            f"unknown design {arg!r}: not a preset ({sorted(_PRESETS)}) and "
            f"not a readable JSON file"
        ) from None
    except json.JSONDecodeError as exc:
        raise ReproError(f"{arg}: not valid JSON ({exc})") from None
    if not isinstance(d, dict):
        raise ReproError(f"{arg}: design JSON must be an object")
    return d


def _load_design(arg: str):
    """A preset name or a path to a design JSON file, as a valid design."""
    d = _read_design(arg)
    return design_from_dict(d) if isinstance(d, dict) else d


def _common_options() -> argparse.ArgumentParser:
    """Parent parser shared by ``check``/``faultsim``/``flow``/``profile``/
    ``shrink``/``shard``/``loadtest``/``serve``.

    ``--design``, ``--json`` and ``--seed`` are spelled identically
    across the commands.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--design", default=None, metavar="DESIGN", help=_DESIGN_HELP
    )
    parent.add_argument("--json", metavar="PATH", default=None,
                        help="also write the machine-readable report to PATH")
    parent.add_argument("--seed", type=int, default=0,
                        help="RNG seed (simulation-backed commands)")
    return parent


def _resolve_design(args, required: bool = True) -> Optional[str]:
    """The ``--design`` argument; an error when ``required`` and absent."""
    if args.design is None and required:
        raise ReproError(f"{args.command}: a design is required (--design)")
    return args.design


def _cmd_check(args):
    """Static dataflow verification; returns ``(text, exit_code)``."""
    from repro.analysis import check_design_dict, check_network, render_catalog

    if args.list_rules:
        return render_catalog(), 0
    design_arg = _resolve_design(args, required=False)
    if design_arg is None:
        raise ReproError("check: a design (or --list-rules) is required")
    d = _read_design(design_arg)
    # Lenient path: a broken design JSON still yields a full report
    # (per-rule diagnostics + nonzero exit) instead of one exception.
    report = check_design_dict(d) if isinstance(d, dict) else check_network(d)
    if args.json:
        report.write_json(args.json)
    failed = not report.ok or (args.warnings_as_errors and report.warnings)
    return report.format_text(), 1 if failed else 0


def _cmd_faultsim(args):
    """Fault-injection run(s); returns ``(text, exit_code)``."""
    from repro.faults import faultsim, load_scenario, run_campaign

    if args.campaign:
        designs = [(n, _load_design(n)) for n in args.designs]
        scenarios = [load_scenario(s) for s in args.scenarios]
        summary = run_campaign(
            designs, scenarios, args.seeds, images=args.images,
        )
        if args.json:
            summary.write_json(args.json)
        rows = [
            [r["design"], r["scenario"]["name"], r["seed"],
             r["verdict"], "ok" if r["ok"] else "FAIL"]
            for r in summary["runs"]
        ]
        text = format_table(
            ["design", "scenario", "seed", "verdict", ""],
            rows,
            title=f"fault campaign: {summary['passed']}/"
                  f"{summary['experiments']} passed",
        )
        return text, 0 if summary["ok"] else 1
    design_arg = _resolve_design(args, required=False)
    if design_arg is None:
        raise ReproError("faultsim: a design (or --campaign) is required")
    design = _load_design(design_arg)
    scenario = load_scenario(args.scenario)
    report = faultsim(design, scenario, seed=args.seed, images=args.images)
    if args.json:
        report.write_json(args.json)
    pairs = [
        ("scenario", scenario.name),
        ("seed", report["seed"]),
        ("clean cycles", report["clean"]["cycles"]),
        ("faulty cycles",
         report["faulty"]["cycles"]
         if report["faulty"]["finished"]
         else f"deadlocked at {report['faulty']['cycles']}"),
    ]
    if "cycle_overhead" in report:
        pairs.append(
            ("cycle overhead",
             f"{report['cycle_overhead']} (+{report['cycle_overhead_pct']}%)")
        )
    pairs.append(("clean digest", report["clean"]["digest"] or "-"))
    pairs.append(("faulty digest", report["faulty"]["digest"] or "-"))
    if report["faulty"].get("deadlock"):
        blocked = report["faulty"]["deadlock"]["channels"]
        chans = sorted({c for conds in blocked.values() for c in conds})
        pairs.append(("deadlock channels", ", ".join(chans) or "-"))
    if report.get("shrunk_channels"):
        pairs.append(("shrunk FIFO", ", ".join(report["shrunk_channels"])))
        pairs.append(
            ("matched by analyzer", ", ".join(report["matched_channels"]) or "-")
        )
    pairs.append(("invariant", report.get("invariant", "-")))
    pairs.append(("verdict", report["verdict"]))
    text = format_kv(f"fault injection: {design.name}", pairs)
    return text, 0 if report["ok"] else 1


def _cmd_block_design(args) -> str:
    return _load_design(args.design).block_design()


def _cmd_report(args) -> str:
    return render_report(_load_design(args.design))


def _cmd_perf(args) -> str:
    design = _load_design(args.design)
    perf = network_perf(design)
    ips = perf.images_per_second(VC707)
    text = format_kv(
        f"performance: {design.name}",
        [
            ("steady-state interval", f"{perf.interval} cycles"),
            ("fill latency", f"{perf.fill_latency} cycles"),
            ("bottleneck", perf.bottleneck),
            ("images/s @ 100 MHz", f"{ips:,.0f}"),
            ("GFLOPS", f"{design.flops_per_image() * ips / 1e9:.2f}"),
        ],
    )
    if getattr(args, "breakdown", False):
        from repro.core.perf_model import interval_breakdown

        rows = [
            [r["stage"], r["kind"], r["in_beats"], r["core_cycles"],
             r["out_beats"], r["interval"], "<-" if r["bottleneck"] else ""]
            for r in interval_breakdown(perf)
        ]
        text += "\n\n" + format_table(
            ["stage", "kind", "in beats", "core cycles", "out beats",
             "interval", ""],
            rows,
            title="per-stage breakdown (cycles per image)",
        )
    return text


def _cmd_sweep(args) -> str:
    design = _load_design(args.design)
    rows = batch_sweep(design, args.batches, VC707)
    return format_table(
        ["batch", "mean cycles/img", "mean us/img"],
        [[r["batch"], r["mean_cycles"], r["mean_us"]] for r in rows],
        title=f"batch sweep: {design.name}",
    )


def _cmd_dse(args) -> str:
    design = _load_design(args.design)
    res = greedy_optimize(design)
    before = network_perf(design).interval
    return format_kv(
        f"greedy DSE: {design.name}",
        [
            ("starting interval (given config)", before),
            ("best interval found", res.best.interval),
            ("best ports", res.best.ports),
            ("configurations evaluated", res.evaluated),
            ("fits xc7vx485t", res.best.fits),
        ],
    )


def _cmd_simulate(args):
    """Cycle simulation vs the NumPy reference; returns ``(text, exit_code)``."""
    design = _load_design(args.design)
    weights = random_weights(design, seed=args.seed)
    batch = seeded_batch(design, args.seed, args.images)
    report = run_batch(design, weights, batch)
    ref = design_reference_forward(design, weights, batch)[-1]
    got = report.outputs
    if ref.shape != got.shape:
        ref = ref.reshape(got.shape)
    err = float(np.max(np.abs(got - ref)))
    verified = err < args.tolerance
    text = format_kv(
        f"cycle simulation: {design.name}",
        [
            ("images", report.images),
            ("total cycles", report.total_cycles),
            ("measured interval", f"{report.measured_interval:.1f} cycles"),
            ("model interval", network_perf(design).interval),
            ("max |sim - reference|", f"{err:.3e}"),
            ("verified", verified),
        ],
    )
    return text, 0 if verified else 1


def _cmd_resources(args) -> str:
    design = _load_design(args.design)
    res = design_resources(design)
    util = res.utilization(XC7VX485T)
    total = res.total
    return format_table(
        ["resource", "used", "available", "utilization %"],
        [
            ["FF", int(total.ff), int(XC7VX485T.resources.ff), util["ff"] * 100],
            ["LUT", int(total.lut), int(XC7VX485T.resources.lut), util["lut"] * 100],
            ["BRAM36", round(total.bram, 1), int(XC7VX485T.resources.bram),
             util["bram"] * 100],
            ["DSP", int(total.dsp), int(XC7VX485T.resources.dsp), util["dsp"] * 100],
        ],
        title=f"resources: {design.name} on xc7vx485t",
    )


def _cmd_flow(args) -> str:
    from repro.core import run_flow

    design_arg = _resolve_design(args)
    res = run_flow(design_arg, seed=args.seed, output_dir=args.out,
                   epochs=args.epochs, scheduler=args.scheduler)
    if args.json:
        from repro.report import SCHEMA_VERSION

        summary = {
            "schema_version": SCHEMA_VERSION,
            "kind": "flow",
            "design": design_arg,
            "seed": args.seed,
            "test_accuracy": res.training.test_accuracy,
            "verified": res.verification.passed,
            "interval": res.interval,
            "fits_device": res.fits_device,
            "ok": res.ok,
            "artifacts": list(res.artifacts),
        }
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    pairs = [
        ("training loss", f"{res.training.losses[0]:.3f} -> "
                          f"{res.training.losses[-1]:.3f}"),
        ("test accuracy", f"{res.training.test_accuracy:.3f}"),
        ("layer-wise verification",
         "PASSED" if res.verification.passed
         else f"FAILED at {res.verification.first_failure}"),
        ("steady-state interval", f"{res.interval} cycles"),
        ("fits xc7vx485t", res.fits_device),
        ("flow verdict", "OK" if res.ok else "REJECTED"),
    ]
    if res.artifacts:
        pairs.append(("artifacts", ", ".join(res.artifacts)))
    return format_kv(f"automated flow: {design_arg}", pairs)


def _cmd_profile(args):
    """Measured-vs-predicted profile; returns ``(text, exit_code)``."""
    from repro.profiling import profile_design, write_chrome_trace

    design = _load_design(_resolve_design(args))
    kwargs = {}
    if args.tolerance is not None:
        kwargs["tolerance"] = args.tolerance
    report = profile_design(
        design, images=args.images, seed=args.seed,
        scheduler=args.scheduler, sample_every=args.sample_every,
        **kwargs,
    )
    if args.json:
        report.write_json(args.json)
    if args.chrome_trace:
        write_chrome_trace(report, args.chrome_trace)
    return report.format_text(), 0 if report.ok else 1


def _cmd_shrink(args):
    """Certified FIFO depth shrink; returns ``(text, exit_code)``."""
    from repro.analysis import run_shrink

    design = _load_design(_resolve_design(args))
    report = run_shrink(
        design, seed=args.seed, images=args.images,
        validate=not args.no_validate, bisect=args.bisect,
        probe_limit=args.probe_limit,
    )
    if args.json:
        report.write_json(args.json)
    if args.apply:
        with open(args.apply, "w") as fh:
            json.dump(report["plan"], fh, indent=2)
            fh.write("\n")
    return report.format_text(), 0 if report["ok"] else 1


def _cmd_shard(args):
    """Multi-FPGA sharded co-simulation sweep; returns ``(text, exit_code)``."""
    from repro.core.multi_fpga import LinkModel
    from repro.core.shard import run_shard

    design = _load_design(_resolve_design(args))
    link = None
    if args.link_bandwidth is not None or args.link_clock is not None:
        link = LinkModel(
            bandwidth_bytes_per_s=args.link_bandwidth
            if args.link_bandwidth is not None
            else 1e9,
            clock_hz=args.link_clock if args.link_clock is not None else 100e6,
        )
    throttles = []
    for spec in args.throttle or ():
        try:
            period, burst = spec.split(":")
            throttles.append((int(period), int(burst)))
        except ValueError:
            raise ReproError(
                f"shard: --throttle wants PERIOD:BURST, got {spec!r}"
            ) from None
    report = run_shard(
        design,
        devices=tuple(args.devices),
        images=args.images,
        seed=args.seed,
        link=link,
        fit=not args.no_fit,
        engines=tuple(args.engines),
        throttles=tuple(throttles),
    )
    if args.json:
        report.write_json(args.json)
    return report.summary(), 0 if report.ok else 1


def _cmd_loadtest(args):
    """Open-loop serving loadtest; returns ``(text, exit_code)``."""
    from repro.serve import run_loadtest

    design = _load_design(_resolve_design(args))
    report = run_loadtest(
        design,
        requests=args.requests,
        rate=args.rate,
        dist=args.dist,
        seed=args.seed,
        replicas=args.replicas,
        mode=args.mode,
        max_batch=args.max_batch,
        max_wait_us=args.max_wait_us,
        fault=args.fault,
        probe=not args.no_probe,
        verify_digests=not args.no_verify,
    )
    if args.json:
        report.write_json(args.json)
    return report.format_text(), 0 if report.ok else 1


def _cmd_serve(args):
    """Run the live asyncio JSON-lines TCP server until interrupted."""
    import asyncio

    from repro.serve import InferenceServer, serve_tcp

    design = _load_design(_resolve_design(args))

    async def _run() -> None:
        server = InferenceServer(
            design,
            replicas=args.replicas,
            seed=args.seed,
            mode=args.mode,
            target_batch=args.target_batch,
            max_batch=args.max_batch,
            max_wait_s=args.max_wait_ms / 1e3,
        )
        async with server:
            tcp = await serve_tcp(server, host=args.host, port=args.port)
            addr = tcp.sockets[0].getsockname()
            print(
                f"serving {design.name} on {addr[0]}:{addr[1]} "
                f"({args.replicas} replica(s), target batch "
                f"{server.target_batch}); one JSON request per line: "
                f'{{"index": <int>}}; Ctrl-C to stop'
            )
            async with tcp:
                await tcp.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return f"{design.name}: server stopped"


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Dataflow CNN-on-FPGA reproduction toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("design", help=_DESIGN_HELP)
        sp.set_defaults(fn=fn)
        return sp

    common = _common_options()

    check = sub.add_parser(
        "check", parents=[common],
        help="static dataflow verification (rate/adapter/buffer/II rules)",
    )
    check.add_argument("--warnings-as-errors", action="store_true",
                       help="exit nonzero on warnings too")
    check.add_argument("--list-rules", action="store_true",
                       help="print the rule catalog and exit")
    check.set_defaults(fn=_cmd_check)

    add("block-design", _cmd_block_design, "render the block design (Fig. 4/5 style)")
    add("report", _cmd_report, "HLS-style synthesis report")
    perf = add("perf", _cmd_perf, "analytical performance summary")
    perf.add_argument("--breakdown", action="store_true",
                      help="per-stage interval table")
    add("resources", _cmd_resources, "Table-I-style utilization")
    sweep = add("sweep", _cmd_sweep, "Figure-6 batch curve (model)")
    sweep.add_argument("--batches", type=int, nargs="+",
                       default=[1, 2, 5, 10, 20, 50])
    add("dse", _cmd_dse, "greedy design-space exploration")
    sim = add("simulate", _cmd_simulate, "cycle-accurate simulation + verification")
    sim.add_argument("--images", type=int, default=2)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--tolerance", type=float, default=1e-4)
    fault = sub.add_parser(
        "faultsim", parents=[common],
        help="fault injection: prove latency-insensitivity / deadlock "
             "agreement (see repro.faults)",
    )
    fault.add_argument(
        "--scenario", default="jitter",
        help="preset scenario (jitter|dma|slowdown|storm|corrupt|shrink) "
             "or scenario JSON path",
    )
    fault.add_argument("--images", type=int, default=2)
    fault.add_argument("--campaign", action="store_true",
                       help="sweep designs x scenarios x seeds instead of "
                            "one run")
    fault.add_argument("--designs", nargs="+",
                       default=list(_CAMPAIGN_DESIGNS),
                       help="campaign designs (default: "
                            + " ".join(_CAMPAIGN_DESIGNS) + ")")
    fault.add_argument("--scenarios", nargs="+",
                       default=["jitter", "dma", "slowdown", "storm",
                                "corrupt", "shrink"],
                       help="campaign scenarios")
    fault.add_argument("--seeds", type=int, nargs="+", default=[0],
                       help="campaign seeds")
    fault.set_defaults(fn=_cmd_faultsim)
    flow = sub.add_parser(
        "flow", parents=[common],
        help="automated design flow: train, verify, report, emit artifacts",
    )
    flow.add_argument("--out", default=None, help="artifact output directory")
    flow.add_argument("--epochs", type=int, default=None)
    flow.add_argument("--scheduler", choices=USER_SCHEDULERS,
                      default="compiled",
                      help="simulation engine of the layerwise verification")
    flow.set_defaults(fn=_cmd_flow)
    profile = sub.add_parser(
        "profile", parents=[common],
        help="native-counter profile: measured II / throughput / bottleneck "
             "vs the Eq. 4 performance model",
    )
    profile.add_argument("--images", type=int, default=3)
    profile.add_argument("--scheduler", choices=USER_SCHEDULERS,
                         default="event",
                         help="simulation engine; 'compiled' runs the fused "
                              "steady-state kernels (exits 1 naming the "
                              "reason if the graph cannot compile)")
    profile.add_argument("--sample-every", type=int, default=None,
                         metavar="N",
                         help="attach the high-resolution tracer backend "
                              "(sample occupancy every N cycles; disables "
                              "bulk cycle-skipping)")
    profile.add_argument("--chrome-trace", metavar="PATH", default=None,
                         help="write a chrome://tracing / Perfetto JSON "
                              "trace to PATH")
    profile.add_argument("--tolerance", type=float, default=None,
                         help="relative II error treated as a mismatch "
                              "(default 0.05)")
    profile.set_defaults(fn=_cmd_profile)
    shrink = sub.add_parser(
        "shrink", parents=[common],
        help="static FIFO depth inference: certify minimal depths, "
             "validate them on the event engine, report BRAM savings "
             "(see repro.analysis.depths)",
    )
    shrink.add_argument("--images", type=int, default=1,
                        help="images per validation run")
    shrink.add_argument("--bisect", action="store_true",
                        help="also binary-search each channel's empirical "
                             "floor under the event engine")
    shrink.add_argument("--apply", metavar="PATH", default=None,
                        help="write the certified DepthPlan JSON to PATH "
                             "(load with repro.analysis.load_depth_plan / "
                             "build_network(depth_plan=...))")
    shrink.add_argument("--probe-limit", type=int, default=None,
                        metavar="N",
                        help="probe at most N tight certificates (the "
                             "report counts the unprobed remainder)")
    shrink.add_argument("--no-validate", action="store_true",
                        help="skip the certified run and depth-1 probes "
                             "(prover + savings only)")
    shrink.set_defaults(fn=_cmd_shrink)
    shard = sub.add_parser(
        "shard", parents=[common],
        help="multi-FPGA sharded co-simulation: cut the verified graph at "
             "the planned boundaries, run each placement as ONE "
             "multi-device simulation, verify digests and plan intervals "
             "(see repro.core.shard)",
    )
    shard.add_argument("--devices", type=int, nargs="+", default=[1, 2, 4],
                       help="device counts to place and co-simulate")
    shard.add_argument("--images", type=int, default=4,
                       help="batch size (>= 2 measures the interval)")
    shard.add_argument("--engines", nargs="+", choices=USER_SCHEDULERS,
                       default=list(USER_SCHEDULERS),
                       help="simulation engines to cross-check")
    shard.add_argument("--link-bandwidth", type=float, default=None,
                       metavar="BYTES_PER_S",
                       help="board-to-board link bandwidth "
                            "(default 1e9 B/s)")
    shard.add_argument("--link-clock", type=float, default=None,
                       metavar="HZ",
                       help="link clock domain (default 100e6 Hz)")
    shard.add_argument("--throttle", nargs="+", default=None,
                       metavar="PERIOD:BURST",
                       help="fault campaign: hold every PERIOD-th wire "
                            "commit for BURST cycles on every link and "
                            "cross-check the analytical degraded interval")
    shard.add_argument("--no-fit", action="store_true",
                       help="drop the per-segment device capacity "
                            "constraint (full-size zoo members overflow "
                            "even several Virtex-7s)")
    shard.set_defaults(fn=_cmd_shard)
    loadtest = sub.add_parser(
        "loadtest", parents=[common],
        help="open-loop serving loadtest: seeded arrivals, batch-aware "
             "admission, replica fleet, digest verification (see "
             "repro.serve)",
    )
    loadtest.add_argument("--requests", type=int, default=32,
                          help="number of requests in the run")
    loadtest.add_argument("--rate", type=float, default=10000.0,
                          help="offered load in requests per *virtual* "
                               "second (board clock)")
    loadtest.add_argument("--dist", choices=["poisson", "uniform"],
                          default="poisson",
                          help="inter-arrival distribution")
    loadtest.add_argument("--replicas", type=int, default=2)
    loadtest.add_argument("--mode", choices=["process", "inline"],
                          default="process",
                          help="replica isolation: one process per "
                               "replica, or in-process (tests/1-core "
                               "hosts)")
    loadtest.add_argument("--max-batch", type=int, default=None,
                          help="admission batch cap (default 2x knee)")
    loadtest.add_argument("--max-wait-us", type=float, default=None,
                          help="oldest-request wait cap in virtual us "
                               "(default: one knee-batch service time)")
    loadtest.add_argument("--fault", default=None,
                          help="chaos mode: arm this scenario (preset, "
                               "e.g. dma-throttle, or JSON path) on "
                               "replica 0 mid-run and cross-check the "
                               "analytical throttled II")
    loadtest.add_argument("--no-probe", action="store_true",
                          help="skip the event-engine Fig. 6 convergence "
                               "probe")
    loadtest.add_argument("--no-verify", action="store_true",
                          help="skip per-request digest verification vs "
                               "single-shot simulation")
    loadtest.set_defaults(fn=_cmd_loadtest)
    serve = sub.add_parser(
        "serve", parents=[common],
        help="live asyncio inference server (JSON-lines over TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8707)
    serve.add_argument("--replicas", type=int, default=2)
    serve.add_argument("--mode", choices=["process", "inline"],
                       default="process")
    serve.add_argument("--target-batch", type=int, default=None,
                       help="admission target (default: convergence knee)")
    serve.add_argument("--max-batch", type=int, default=None)
    serve.add_argument("--max-wait-ms", type=float, default=50.0,
                       help="wall-clock cap on the oldest queued request")
    serve.set_defaults(fn=_cmd_serve)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        out = args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Commands that also decide the exit code return (text, code).
    text, code = out if isinstance(out, tuple) else (out, 0)
    print(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
