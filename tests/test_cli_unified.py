"""Unified CLI surface: shared --design/--json/--seed flags and `profile`."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core import random_weights, tiny_design
from repro.core.builder import build_network, seeded_batch
from repro.core.shard import run_shard
from repro.dataflow.simulator import SCHEDULERS, USER_SCHEDULERS
from repro.errors import ConfigurationError
from repro.report import SCHEMA_VERSION


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestUnifiedFlags:
    def test_design_flag_on_check(self, capsys):
        code, out, err = run_cli(capsys, "check", "--design", "tiny")
        assert code == 0
        assert "repro check: tiny" in out
        assert "deprecated" not in err

    def test_positional_design_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "tiny"])
        assert exc.value.code == 2
        assert "unrecognized arguments: tiny" in capsys.readouterr().err

    def test_conflicting_spellings_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "tiny", "--design", "usps"])
        assert exc.value.code == 2

    def test_flow_requires_design(self, capsys):
        code, _, err = run_cli(capsys, "flow")
        assert code == 1
        assert "design is required" in err

    def test_campaign_default_designs_are_distinct_and_simulable(self):
        # Without --designs the sweep used to run every preset *spelling*:
        # usps/usps-tc1 twice, and full-size alexnet/vgg16 for hours.
        from repro.cli import _load_design, build_parser
        from repro.faults.harness import PILOT_WEIGHT_LIMIT

        args = build_parser().parse_args(["faultsim", "--campaign"])
        designs = [_load_design(n) for n in args.designs]
        assert len({d.name for d in designs}) == len(designs) == 5
        assert all(d.weight_count() <= PILOT_WEIGHT_LIMIT for d in designs)

    def test_faultsim_design_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "faultsim", "--design", "tiny", "--images", "1"
        )
        assert code == 0
        assert "fault injection: tiny" in out

    def test_faultsim_json_envelope(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "faultsim", "--design", "tiny", "--images", "1",
            "--json", str(path),
        )
        assert code == 0
        d = json.loads(path.read_text())
        assert d["schema_version"] == SCHEMA_VERSION
        assert d["kind"] == "faultsim"


class TestProfileCommand:
    def test_profile_text(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--design", "tiny")
        assert code == 0
        assert "profile: tiny" in out
        assert "Eq.4" in out
        assert "bottleneck" in out

    def test_profile_json_and_trace(self, capsys, tmp_path):
        jpath = tmp_path / "profile.json"
        tpath = tmp_path / "trace.json"
        code, _, _ = run_cli(
            capsys, "profile", "--design", "tiny", "--images", "2",
            "--json", str(jpath), "--chrome-trace", str(tpath),
        )
        assert code == 0
        d = json.loads(jpath.read_text())
        assert d["kind"] == "profile" and d["cores"]
        trace = json.loads(tpath.read_text())
        assert trace["traceEvents"]

    def test_profile_rejects_lockstep_scheduler(self, capsys):
        # The oracle is not a CLI choice: a clean argparse error.
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--design", "tiny", "--scheduler", "lockstep"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'lockstep'" in err
        assert "Traceback" not in err


class TestEngineRegistry:
    """One registry, one two-value user set; `lockstep` is the oracle."""

    @staticmethod
    def cli_choices(command, flag):
        sub = build_parser()._subparsers._group_actions[0].choices[command]
        (action,) = [a for a in sub._actions if flag in a.option_strings]
        return action.choices

    @staticmethod
    def run_shard_accepts():
        accepted = []
        for engine in SCHEDULERS:
            try:
                run_shard(
                    tiny_design(), devices=(1,), images=1, engines=(engine,)
                )
            except ConfigurationError as exc:
                assert "unknown engine" in str(exc)
            else:
                accepted.append(engine)
        return accepted

    @pytest.mark.parametrize(
        "surface",
        [
            ("cli_choices", "profile", "--scheduler"),
            ("cli_choices", "flow", "--scheduler"),
            ("cli_choices", "shard", "--engines"),
            ("run_shard_accepts",),
        ],
        ids=["profile", "flow", "shard", "run_shard"],
    )
    def test_every_surface_offers_the_user_set(self, surface):
        offered = getattr(self, surface[0])(*surface[1:])
        assert sorted(offered) == sorted(USER_SCHEDULERS)

    def test_oracle_stays_in_the_simulator_registry(self):
        assert set(USER_SCHEDULERS) < set(SCHEDULERS)
        assert "lockstep" in SCHEDULERS
        built = build_network(
            tiny_design(), random_weights(tiny_design(), seed=0),
            seeded_batch(tiny_design(), 0, 1),
        )
        result = built.graph.build_simulator(scheduler="lockstep").run()
        assert result.scheduler_stats["scheduler"] == "lockstep"


class TestCompiledScheduler:
    """`--scheduler compiled` is accepted uniformly across subcommands."""

    def test_profile_compiled_scheduler(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--design", "tiny", "--scheduler", "compiled",
            "--images", "2",
        )
        assert code == 0
        assert "compiled" in out
        assert "bottleneck" in out

    def test_profile_compiled_with_tracer_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "profile", "--design", "tiny", "--scheduler", "compiled",
            "--sample-every", "4",
        )
        assert code == 1
        assert "error: a tracer is attached" in err
        assert out == ""

    def test_flow_compiled_scheduler(self, capsys):
        code, out, _ = run_cli(
            capsys, "flow", "--design", "tiny", "--epochs", "1",
            "--scheduler", "compiled",
        )
        assert code == 0
        assert "verification" in out


class TestShrinkCommand:
    def test_shrink_text_and_exit(self, capsys):
        code, out, _ = run_cli(capsys, "shrink", "--design", "tiny")
        assert code == 0
        assert "depth shrink: tiny" in out
        assert "verdict" in out and "ok" in out
        assert "tight probes" in out

    def test_shrink_json_envelope_and_apply(self, capsys, tmp_path):
        json_path = tmp_path / "shrink.json"
        plan_path = tmp_path / "plan.json"
        code, _, _ = run_cli(
            capsys, "shrink", "--design", "tiny",
            "--json", str(json_path), "--apply", str(plan_path),
        )
        assert code == 0
        d = json.loads(json_path.read_text())
        assert d["schema_version"] == SCHEMA_VERSION and d["kind"] == "shrink"
        assert d["ok"] is True
        assert d["words"]["saved_pct"] >= 30.0
        from repro.analysis import load_depth_plan

        plan = load_depth_plan(str(plan_path))
        assert plan.design_name == "tiny"
        assert plan.tight_channels()

    def test_shrink_no_validate_skips_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "shrink", "--design", "tiny", "--no-validate",
        )
        assert code == 0
        assert "certified run" not in out

    def test_shrink_probe_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "shrink", "--design", "tiny", "--probe-limit", "1",
        )
        assert code == 0
        assert "unprobed" in out

    def test_shrink_bisect_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "shrink", "--design", "tiny", "--bisect",
        )
        assert code == 0
        assert "empirical bisect" in out
        assert "tight" in out

    def test_shrink_requires_design(self, capsys):
        code, _, err = run_cli(capsys, "shrink")
        assert code == 1
        assert "design is required" in err


class TestShardCommand:
    def test_shard_text_verdict(self, capsys):
        code, out, err = run_cli(
            capsys, "shard", "--design", "tiny",
            "--devices", "1", "2", "--images", "2",
        )
        assert code == 0
        assert "shard tiny" in out
        assert "digest match" in out
        assert "deprecated" not in err

    def test_shard_positional_design_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["shard", "tiny", "--devices", "1", "--images", "1"])
        assert exc.value.code == 2

    def test_shard_json_envelope(self, capsys, tmp_path):
        path = tmp_path / "shard.json"
        code, _, _ = run_cli(
            capsys, "shard", "--design", "tiny",
            "--devices", "1", "2", "--images", "2", "--json", str(path),
        )
        assert code == 0
        d = json.loads(path.read_text())
        assert d["schema_version"] == SCHEMA_VERSION
        assert d["kind"] == "shard"
        assert d["ok"] is True

    def test_shard_throttle_campaign(self, capsys):
        code, out, _ = run_cli(
            capsys, "shard", "--design", "tiny",
            "--devices", "2", "--images", "3", "--throttle", "1:3",
        )
        assert code == 0
        assert "throttle p=1 b=3" in out

    def test_shard_bad_throttle_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "shard", "--design", "tiny", "--throttle", "nope",
        )
        assert code == 1
        assert "PERIOD:BURST" in err

    def test_shard_requires_design(self, capsys):
        code, _, err = run_cli(capsys, "shard")
        assert code == 1
        assert "design is required" in err
