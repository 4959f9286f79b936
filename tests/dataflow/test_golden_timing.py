"""Golden timing snapshot of the zoo on both interpreted engines.

``event`` and ``lockstep`` share the actor code, so the
scheduler-equivalence suite cannot see an actor whose beats moved: both
engines would move together. This pins what a run of each zoo design
*is* — total cycles, image completions, every process's counters, every
channel's statistics and the output digest — to the values recorded in
``golden_timing.json``. An actor change that only moves arithmetic (when
or how a value is worked out) must leave every number here alone.

After a change that is *meant* to move timing, regenerate the file with
``PYTHONPATH=src python tests/dataflow/test_golden_timing.py`` and say so
in CHANGES.md.
"""

import json
import re
from pathlib import Path

import pytest

from repro.core import cifar10_design, random_weights, tiny_design, usps_design
from repro.core.builder import build_network, seeded_batch
from repro.dataflow import stable_digest

GOLDEN = Path(__file__).with_name("golden_timing.json")
#: design name -> (factory, images); weights and images are seed 0.
CASES = {
    "tiny": (tiny_design, 3),
    "usps": (usps_design, 3),
    "cifar10": (cifar10_design, 4),
}
PROCESS_FIELDS = (
    "fires", "stalled_channel", "stalled_gate", "stalled_timer", "end_cycle",
)
CHANNEL_FIELDS = (
    "total_pushed", "total_popped", "high_water", "full_stall_cycles",
    "empty_stall_cycles", "first_push_cycle", "last_push_cycle",
    "first_pop_cycle", "last_pop_cycle",
)


def snapshot(name: str, scheduler: str) -> dict:
    factory, images = CASES[name]
    design = factory()
    built = build_network(
        design, random_weights(design, 0), seeded_batch(design, 0, images)
    )
    result = built.run(scheduler=scheduler)
    return {
        "cycles": result.cycles,
        "image_completion_cycles": built.image_completion_cycles(),
        "digest": stable_digest(built.outputs()),
        "processes": {
            actor: [[p[f] for f in PROCESS_FIELDS] for p in procs]
            for actor, procs in result.actor_stats.items()
        },
        "channels": {
            channel: [stats[f] for f in CHANNEL_FIELDS]
            for channel, stats in result.channel_stats.items()
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    recorded = json.loads(GOLDEN.read_text())
    assert recorded["process_fields"] == list(PROCESS_FIELDS)
    assert recorded["channel_fields"] == list(CHANNEL_FIELDS)
    return recorded["designs"]


@pytest.mark.parametrize("scheduler", ["event", "lockstep"])
@pytest.mark.parametrize("name", list(CASES))
def test_run_is_the_recorded_one(golden, name, scheduler):
    got, want = snapshot(name, scheduler), golden[name]
    assert got["cycles"] == want["cycles"]
    assert got["image_completion_cycles"] == want["image_completion_cycles"]
    assert got["digest"] == want["digest"]
    # Name by name, so a failure says which process or channel moved.
    for kind in ("processes", "channels"):
        assert got[kind].keys() == want[kind].keys()
        moved = {k: (v, want[kind][k]) for k, v in got[kind].items()
                 if v != want[kind][k]}
        assert not moved, f"{kind} (got, recorded): {moved}"


def test_tc2_batch_of_four_takes_39497_cycles(golden):
    assert golden["cifar10"]["cycles"] == 39_497


def _dump(recorded: dict) -> str:
    """Indented JSON with every innermost list on one line."""
    return re.sub(
        r"\[[^\[\]{}]*\]",
        lambda m: " ".join(m.group().split()).replace("[ ", "[").replace(" ]", "]"),
        json.dumps(recorded, indent=1),
    ) + "\n"


if __name__ == "__main__":
    GOLDEN.write_text(_dump({
        "process_fields": PROCESS_FIELDS,
        "channel_fields": CHANNEL_FIELDS,
        "designs": {name: snapshot(name, "lockstep") for name in CASES},
    }))
    print(f"wrote {GOLDEN}")
