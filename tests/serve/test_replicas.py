"""The replica fleet: warm start, digest fidelity, chaos arming.

Process-mode tests spawn real worker processes — kept to a minimum and
sized small (usps / tiny designs) so the suite stays fast on one core.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core import (
    FCLayerSpec,
    NetworkDesign,
    PoolLayerSpec,
    random_weights,
    tiny_design,
    usps_design,
)
from repro.core.builder import build_network
from repro.core.serialize import design_to_json
from repro.dataflow.digest import stable_digest
from repro.errors import CompilationError, ConfigurationError
from repro.faults import load_scenario
from repro.serve import ReplicaFleet, replicas, request_image, run_replica_batch


def reference_digest(design, seed, index):
    weights = random_weights(design, seed=seed)
    built = build_network(
        design, weights, np.stack([request_image(design, seed, index)])
    )
    built.run(scheduler="compiled")
    return stable_digest(built.outputs()[0])


class TestRequestImages:
    def test_pure_function_of_seed_and_index(self):
        design = tiny_design()
        a = request_image(design, 5, 9)
        b = request_image(design, 5, 9)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, request_image(design, 5, 10))
        assert not np.array_equal(a, request_image(design, 6, 9))

    def test_shape_and_dtype(self):
        design = usps_design()
        img = request_image(design, 0, 0)
        assert img.shape == design.input_shape
        assert img.dtype == np.float32


class TestRunReplicaBatch:
    def test_batched_digest_matches_single_shot(self):
        design = usps_design()
        res = run_replica_batch(design, 3, [4, 5, 6])
        assert res["digests"][1] == reference_digest(design, 3, 5)
        assert res["scheduler"] == "compiled"
        assert len(res["completion_cycles"]) == 3

    def test_scenario_forces_event_engine_and_keeps_values(self):
        design = usps_design()
        clean = run_replica_batch(design, 3, [1, 2, 3])
        faulted = run_replica_batch(
            design, 3, [1, 2, 3], scenario=load_scenario("dma-throttle")
        )
        assert faulted["scheduler"] == "event"
        assert faulted["faulted"] is True
        # Timing-only fault: slower, same values.
        assert faulted["digests"] == clean["digests"]
        assert faulted["measured_interval"] > clean["measured_interval"]

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            run_replica_batch(tiny_design(), 0, [])


class TestInlineFleet:
    def test_submit_and_digest_fidelity(self):
        design = tiny_design()
        with ReplicaFleet(design, 2, seed=11, mode="inline") as fleet:
            res = fleet.submit(1, [0, 1]).result()
        assert res["digests"][0] == reference_digest(design, 11, 0)

    def test_warm_touches_every_replica(self):
        with ReplicaFleet(tiny_design(), 3, mode="inline") as fleet:
            warm = fleet.warm()
        assert len(warm) == 3
        assert all(r["scheduler"] == "compiled" for r in warm)

    def test_arm_disarm_cycle(self):
        design = tiny_design()
        scenario = load_scenario("dma-throttle")
        with ReplicaFleet(design, 2, mode="inline") as fleet:
            fleet.arm(1, scenario)
            assert fleet.armed(1) is scenario and fleet.armed(0) is None
            faulted = fleet.submit(1, [0, 1, 2, 3]).result()
            clean = fleet.submit(0, [0, 1, 2, 3]).result()
            fleet.disarm(1)
            assert fleet.armed(1) is None
        assert faulted["faulted"] and not clean["faulted"]
        assert faulted["digests"] == clean["digests"]

    def test_replica_bounds_checked(self):
        with ReplicaFleet(tiny_design(), 2, mode="inline") as fleet:
            with pytest.raises(ConfigurationError, match="out of range"):
                fleet.submit(2, [0])
        with pytest.raises(ConfigurationError):
            ReplicaFleet(tiny_design(), 0)
        with pytest.raises(ConfigurationError):
            ReplicaFleet(tiny_design(), 1, mode="threads")


class TestProcessFleet:
    def test_workers_are_isolated_and_bit_identical(self):
        design = usps_design()
        with ReplicaFleet(design, 2, seed=3, mode="process") as fleet:
            warm = fleet.warm()
            res0 = fleet.submit(0, [7, 8]).result()
            res1 = fleet.submit(1, [7, 8]).result()
        # Two distinct worker processes...
        assert res0["pid"] != res1["pid"]
        # ...bit-identical results, matching the in-process reference.
        assert res0["digests"] == res1["digests"]
        assert res0["digests"][0] == reference_digest(design, 3, 7)
        # Warm start lowers one plan per worker; the request batch (two
        # images, not warm()'s one) is a new stream geometry, so one more.
        assert all(w["plan_cache"]["misses"] == 1 for w in warm)
        assert res0["plan_cache"]["misses"] == 2


def pool_first_design():
    """``1x8x8 -> pool 2x2/s2 -> fc 16->4``: the compiled engine refuses a
    leading pool whatever the batch."""
    return NetworkDesign("pool-first", (1, 8, 8), [
        PoolLayerSpec(name="pool1", in_fm=1, out_fm=1, kh=2, stride=2),
        FCLayerSpec(name="fc1", in_fm=16, out_fm=4),
    ])


class TestRefusedDesign:
    def test_the_fleet_refuses_before_starting_a_worker(self, monkeypatch):
        started = []
        monkeypatch.setattr(
            replicas, "ProcessPoolExecutor",
            lambda *args, **kwargs: started.append(args),
        )
        for mode in ("process", "inline"):
            with pytest.raises(CompilationError, match="leading pool"):
                ReplicaFleet(pool_first_design(), 1, mode=mode)
        assert started == []

    def test_loadtest_exits_1_with_no_request_sent(
        self, monkeypatch, tmp_path, capsys
    ):
        sent = []
        monkeypatch.setattr(
            ReplicaFleet, "submit", lambda self, *args: sent.append(args)
        )
        path = tmp_path / "pool-first.json"
        path.write_text(design_to_json(pool_first_design()))
        argv = ["loadtest", "--design", str(path), "--requests", "4",
                "--replicas", "1"]
        assert main(argv) == 1
        assert "leading pool" in capsys.readouterr().err
        assert sent == []
