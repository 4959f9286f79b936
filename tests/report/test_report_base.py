"""The unified Report protocol: one envelope for every report object."""

import json

import pytest

from repro.core import random_weights, tiny_design
from repro.faults import faultsim, load_scenario, run_campaign
from repro.report import SCHEMA_VERSION, Report


class TestBase:
    def test_to_dict_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Report().to_dict()

    def test_envelope_merges_payload(self):
        class Mini(Report):
            kind = "mini"

            def to_dict(self):
                return {"x": 1}

        env = Mini().envelope()
        assert env == {"schema_version": SCHEMA_VERSION, "kind": "mini", "x": 1}
        assert json.loads(Mini().to_json()) == env


class TestMigratedReports:
    def test_simulation_result(self, rng):
        import numpy as np

        from repro.core.builder import build_network

        design = tiny_design()
        built = build_network(
            design,
            random_weights(design, seed=0),
            rng.uniform(0, 1, (1,) + design.input_shape).astype(np.float32),
        )
        res = built.run()
        d = json.loads(res.to_json())
        assert d["schema_version"] == SCHEMA_VERSION
        assert d["kind"] == "simulation"
        assert d["actor_stats"] and d["scheduler_stats"]

    def test_analysis_report(self):
        from repro.analysis import check_network

        d = json.loads(check_network(tiny_design()).to_json())
        assert d["schema_version"] == SCHEMA_VERSION
        assert d["kind"] == "analysis"
        # Pre-envelope consumers keep their top-level keys.
        assert d["design"] == "tiny" and d["ok"] and d["rules_run"]

    def test_fault_run_report(self):
        report = faultsim(tiny_design(), load_scenario("jitter"), images=1)
        # Mapping compatibility: old dict-style consumers still work.
        assert report["design"] == "tiny"
        assert "verdict" in report and len(report) > 5
        d = json.loads(report.to_json())
        assert d["schema_version"] == SCHEMA_VERSION
        assert d["kind"] == "faultsim"
        assert "stall_delta" in d
        assert "faultsim tiny/jitter" in report.summary()

    def test_campaign_report(self):
        summary = run_campaign(
            [("tiny", tiny_design())],
            [load_scenario("jitter")],
            seeds=[0],
            images=1,
        )
        assert summary["ok"] and summary["experiments"] == 1
        d = json.loads(summary.to_json())
        assert d["kind"] == "fault-campaign"
        assert d["runs"][0]["kind"] == "faultsim"
        assert d["stall_deltas"]["jitter"]["experiments"] == 1

    def test_profile_report(self):
        from repro.profiling import profile_design

        d = json.loads(profile_design(tiny_design(), images=2).to_json())
        assert d["schema_version"] == SCHEMA_VERSION
        assert d["kind"] == "profile"
