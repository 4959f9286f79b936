"""The CLI gates of CI, one row each (not tier-1: ``python -m pytest gates``).

Every row is one ``repro`` invocation that exits nonzero when its verdict
fails — ``check`` on an error-level diagnostic, ``faultsim`` on a digest
that moves under a timing fault, ``profile`` on a PROFILE.II_MISMATCH,
``shrink`` on a certified plan that deadlocks or a tight certificate whose
depth-1 probe does not, ``loadtest`` on a request digest off single-shot,
``shard`` on a sharded digest or interval off the plan. CI runs one suite
per matrix entry (``-k <suite> --basetemp=reports``); each row writes
``<basetemp>/<suite>/<name>.json``, so the ``--basetemp`` trees of two
commits are what a PR diffs for its JSON contract.

The fault, event-profile and validated-shrink suites run the ``-pilot``
downscales of AlexNet/VGG-16 (many interpreted runs per row); the
full-size blocked designs are gated by ``static-check``, ``block-suite``
and ``shard-suite`` (structure, compiled engine, bounded probes).
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cli import main  # noqa: E402  (needs the path set above)

SMALL = ("usps", "cifar10", "tiny")
ZOO = SMALL + ("alexnet-pilot", "vgg16-pilot")
FULL = ("alexnet", "vgg16")

#: (suite, report name, argv); ``{dir}`` is the suite's report directory.
GATES = [
    *(("static-check", f"check-{d}", ["check", "--design", d])
      for d in SMALL + FULL),

    ("fault-suite", "campaign-seed0",
     ["faultsim", "--campaign", "--seeds", "0", "--designs", *ZOO]),
    *(("fault-suite", f"jitter-{d}",
       ["faultsim", "--design", d, "--scenario", "jitter", "--seed", "0"])
      for d in ZOO),

    *(("profile-suite", f"profile-{d}",
       ["profile", "--design", d, "--chrome-trace", f"{{dir}}/trace-{d}.json"])
      for d in ZOO),

    *(("compiled-suite", f"profile-compiled-{d}",
       ["profile", "--design", d, "--scheduler", "compiled"])
      for d in ZOO),

    # The AlexNet pilot's 192-probe sweep is the long pole of the whole file.
    *(("shrink-suite", f"shrink-{d}",
       ["shrink", "--design", d, "--apply", f"{{dir}}/plan-{d}.json"])
      for d in ZOO),
    ("shrink-suite", "shrink-tiny-bisect",
     ["shrink", "--design", "tiny", "--bisect"]),

    *(("block-suite", f"check-{d}", ["check", "--design", d]) for d in FULL),
    *(("block-suite", f"profile-{d}",
       ["profile", "--design", d, "--scheduler", "compiled"])
      for d in FULL),
    # Each AlexNet probe replays a ~1.6M-cycle event run to its deadlock, so
    # the sweep is bounded; VGG-16's replay is too slow for CI and its
    # certificates are emitted prover-only.
    ("block-suite", "shrink-alexnet",
     ["shrink", "--design", "alexnet", "--probe-limit", "5",
      "--apply", "{dir}/plan-alexnet.json"]),
    ("block-suite", "shrink-vgg16",
     ["shrink", "--design", "vgg16", "--no-validate",
      "--apply", "{dir}/plan-vgg16.json"]),

    ("serve-suite", "loadtest-tc2",
     ["loadtest", "--design", "cifar10-tc2", "--requests", "16",
      "--rate", "15000", "--replicas", "2", "--seed", "0"]),
    ("serve-suite", "loadtest-usps-chaos",
     ["loadtest", "--design", "usps-tc1", "--requests", "24",
      "--rate", "300000", "--replicas", "2", "--seed", "1",
      "--fault", "dma-throttle"]),

    ("shard-suite", "shard-tiny",
     ["shard", "--design", "tiny", "--devices", "1", "2", "3",
      "--images", "4", "--throttle", "1:3", "7:5"]),
    *(("shard-suite", f"shard-{d}",
       ["shard", "--design", d, "--devices", "1", "2", "4",
        "--images", "4", "--throttle", "1:3", "7:5"])
      for d in ("usps", "cifar10")),
    # fit=False: the full-size weights overflow even several Virtex-7s,
    # which the plan still reports honestly.
    *(("shard-suite", f"shard-{d}",
       ["shard", "--design", d, "--devices", "1", "2", "4", "--images", "2",
        "--engines", "compiled", "--no-fit"])
      for d in FULL),
]


@pytest.mark.parametrize(
    "suite, name, argv", GATES, ids=[f"{s}/{n}" for s, n, _ in GATES]
)
def test_gate(tmp_path_factory, suite, name, argv):
    out = tmp_path_factory.getbasetemp() / suite
    out.mkdir(exist_ok=True)
    argv = [a.format(dir=out) for a in argv]
    report = out / f"{name}.json"
    assert main(argv + ["--json", str(report)]) == 0
    if argv[0] == "profile" and "compiled" in argv:
        # A silent fallback to the event engine would gate the wrong engine.
        assert json.loads(report.read_text())["scheduler"] == "compiled"
