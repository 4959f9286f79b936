"""Unit tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.core import design_to_json, usps_design


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_importing_the_cli_does_not_import_networkx():
    # networkx costs 130-200 ms and ~20 MiB; only `check` / `shrink` use it
    # (inside the functions that need it), so no other CLI call, replica
    # worker or benchmark process should pay for it at import.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, repro.cli, repro.analysis, repro.serve, repro.profiling, "
        "repro.compiled; sys.exit('networkx' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


class TestCommands:
    def test_block_design(self, capsys):
        code, out, _ = run_cli(capsys, "block-design", "usps")
        assert code == 0
        assert "[conv1]" in out and "II=" in out

    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "report", "tiny")
        assert code == 0
        assert "per-core synthesis estimates" in out

    def test_perf(self, capsys):
        code, out, _ = run_cli(capsys, "perf", "usps")
        assert code == 0
        assert "256 cycles" in out and "bottleneck" in out

    def test_resources(self, capsys):
        code, out, _ = run_cli(capsys, "resources", "cifar10")
        assert code == 0
        assert "DSP" in out and "utilization %" in out

    def test_sweep_custom_batches(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "usps", "--batches", "1", "4")
        assert code == 0
        lines = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(lines) == 2

    def test_dse(self, capsys):
        code, out, _ = run_cli(capsys, "dse", "usps")
        assert code == 0
        assert "best interval found" in out

    def test_simulate_verifies(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "tiny", "--images", "2")
        assert code == 0
        assert "verified" in out and "True" in out

    def test_simulate_fails_when_unverified(self, capsys):
        # No float32 simulation matches the reference to within 0.
        code, out, _ = run_cli(capsys, "simulate", "tiny", "--tolerance", "0")
        assert code == 1
        assert "verified" in out and "False" in out

    def test_design_json_input(self, capsys, tmp_path):
        path = tmp_path / "design.json"
        path.write_text(design_to_json(usps_design()))
        code, out, _ = run_cli(capsys, "perf", str(path))
        assert code == 0
        assert "usps-tc1" in out

    def test_unknown_design_fails_cleanly(self, capsys):
        code, out, err = run_cli(capsys, "perf", "resnet50")
        assert code == 1
        assert "unknown design" in err

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_flow_command(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "flow", "--design", "tiny", "--epochs", "2", "--out", str(tmp_path / "f")
        )
        assert code == 0
        assert "flow verdict" in out and "PASSED" in out
        assert (tmp_path / "f" / "design.json").exists()

    def test_flow_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "flow", "--design", "vgg")
        assert code == 1 and "unknown flow preset" in err

    def test_perf_breakdown(self, capsys):
        code, out, _ = run_cli(capsys, "perf", "cifar10", "--breakdown")
        assert code == 0
        assert "per-stage breakdown" in out
        assert "conv1" in out and "dma_in" in out and "<-" in out

    def test_zoo_presets_available(self, capsys):
        code, out, _ = run_cli(capsys, "perf", "alexnet")
        assert code == 0 and "conv1" in out
        code, out, _ = run_cli(capsys, "resources", "vgg16")
        assert code == 0 and "BRAM" in out


class TestPilotAlias:
    """The `-pilot` presets are the only way to ask for a downscale."""

    def test_pilot_preset_spelling_is_quiet(self, capsys):
        code, _, err = run_cli(
            capsys, "profile", "--design", "alexnet-pilot",
            "--scheduler", "compiled",
        )
        assert code == 0
        assert "deprecated" not in err

    def test_alias_and_full_size_reports_are_distinct(self, capsys, tmp_path):
        # The -pilot preset is the downscale, not a silent duplicate of
        # the full-size report: the two JSON artifacts must disagree on
        # the design's full-buffering footprint.
        pilot_json = tmp_path / "pilot.json"
        full_json = tmp_path / "full.json"
        code, _, _ = run_cli(
            capsys, "shrink", "--design", "alexnet-pilot",
            "--no-validate", "--json", str(pilot_json),
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "shrink", "--design", "alexnet",
            "--no-validate", "--json", str(full_json),
        )
        assert code == 0
        pilot = json.loads(pilot_json.read_text())
        full = json.loads(full_json.read_text())
        assert pilot["design"] != full["design"]
        assert pilot["words"]["full"] != full["words"]["full"]


class TestCheck:
    def test_check_preset_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--design", "usps")
        assert code == 0
        assert "PASS:" in out and "0 error(s)" in out

    def test_check_bad_design_fails_with_rule_id(self, capsys, tmp_path):
        from tests.analysis.bad_designs import mismatched_ports_dict

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(mismatched_ports_dict()))
        code, out, _ = run_cli(capsys, "check", "--design", str(path))
        assert code == 1
        assert "ADAPTER.LEGAL" in out and "FAIL:" in out

    def test_check_json_artifact(self, capsys, tmp_path):
        artifact = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "check", "--design", "tiny", "--json", str(artifact)
        )
        assert code == 0
        d = json.loads(artifact.read_text())
        assert d["design"] == "tiny" and d["ok"] is True
        assert d["rules_run"]

    @pytest.mark.parametrize("design", [
        "usps", "cifar10", "tiny", "alexnet", "vgg16", "alexnet-pilot",
        "vgg16-pilot",
    ])
    def test_check_runs_ten_rules_on_every_preset(self, capsys, tmp_path, design):
        artifact = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "check", "--design", design, "--json", str(artifact)
        )
        assert code == 0 and "(10 rules run)" in out
        d = json.loads(artifact.read_text())
        assert {"BUFFER.FULL", "ADAPTER.WIRING", "BUFFER.SKEW"} <= set(d["rules_run"])
        assert not any("skipped" in x["message"] for x in d["diagnostics"])

    def test_check_list_rules(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--list-rules")
        assert code == 0
        assert "RATE.BALANCE" in out and "BUFFER.SKEW" in out

    def test_check_requires_design_or_list(self, capsys):
        code, _, err = run_cli(capsys, "check")
        assert code == 1 and "required" in err

    @pytest.mark.parametrize("flag", ["--no-elaborate", "--elaborate"])
    def test_check_has_one_mode(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--design", "usps", flag])
        assert exc.value.code == 2

    def test_check_not_json_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "check", "--design", str(path))
        assert code == 1 and "not valid JSON" in err
