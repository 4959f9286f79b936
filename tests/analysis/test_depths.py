"""Unit tests for the static FIFO depth prover (repro.analysis.depths)."""

import json

import numpy as np
import pytest

from repro.analysis import (
    RULES,
    DepthCertificate,
    DepthPlan,
    analyze_graph,
    apply_depth_plan,
    bisect_channel_floor,
    chain_run_ahead,
    infer_depth_plan,
    load_depth_plan,
    probe_tight_certificate,
    run_shrink,
    validate_plan,
)
from repro.analysis.depths import (
    METHOD_BRIDGE,
    METHOD_CHAIN,
    METHOD_PIN,
    METHOD_SKEW,
)
from repro.core import random_weights, tiny_design
from repro.core.builder import build_network
from repro.dataflow import (
    ArraySource,
    DataflowGraph,
    FifoStage,
    Fork,
    Interleaver,
    ListSink,
    ScheduleDemux,
)
from repro.errors import ConfigurationError
from repro.report import SCHEMA_VERSION
from repro.sst.sizing import certified_chain_floors


def build_tiny(memory_system="literal", plan=None, images=1, seed=0):
    d = tiny_design()
    rng = np.random.default_rng(seed)
    batch = rng.uniform(0, 1, (images,) + d.input_shape).astype(np.float32)
    return build_network(
        d, random_weights(d, seed=seed), batch,
        memory_system=memory_system, depth_plan=plan,
    )


@pytest.fixture(scope="module")
def tiny_plan():
    built = build_tiny()
    return infer_depth_plan(built.graph)


class TestCatalog:
    def test_rules_registered(self):
        assert RULES["BUFFER.DEPTH_CERT"].level == "graph"
        assert RULES["BUFFER.DEPTH_UNDERSIZED"].level == "graph"
        assert "2011.07317" in RULES["BUFFER.DEPTH_CERT"].paper_ref
        assert "2105.08937" in RULES["BUFFER.DEPTH_UNDERSIZED"].paper_ref


class TestRecursion:
    def test_full_buffering_budgets_are_tap_caps(self):
        # c_i = d_i + 1 gives every filter its full tap slack.
        assert chain_run_ahead([3, 7], [4, 8], [4, 4, 4]) == [4, 4, 4]

    def test_minimal_assignment_budgets_are_one(self):
        assert chain_run_ahead([3, 7], [3, 7], [1, 1, 1]) == [1, 1, 1]

    def test_undersized_fifo_starves_upstream(self):
        # Shrinking c_0 below d_0 drives R_0 under 1: deadlock.
        assert min(chain_run_ahead([3, 7], [2, 7], [1, 1, 1])) < 1

    def test_slack_is_shared_along_the_chain(self):
        # A deficit downstream propagates to every upstream budget.
        budgets = chain_run_ahead([2, 2, 6], [2, 2, 5], [1, 1, 1, 1])
        assert budgets[-2] < 1 and budgets[0] < 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            chain_run_ahead([3], [3, 7], [1, 1, 1])


class TestInferTiny:
    def test_every_bounded_channel_certified(self, tiny_plan):
        built = build_tiny()
        bounded = {
            n for n, ch in built.graph.channels.items()
            if ch.capacity is not None
        }
        assert set(tiny_plan.certificates) == bounded

    def test_no_heuristic_pins_on_tiny(self, tiny_plan):
        assert tiny_plan.heuristic_channels() == []

    def test_chain_floors_match_sizing_helper(self, tiny_plan):
        built = build_tiny()
        conv = built.graph.design.placements[0]
        floors = certified_chain_floors(
            conv.spec.window, conv.in_shape[2], conv.spec.in_group
        )
        got = [
            tiny_plan.capacity(f"conv1.win0.fifo{i}")
            for i in range(len(floors))
        ]
        assert got == floors

    def test_taps_certified_at_one(self, tiny_plan):
        taps = [
            c for c in tiny_plan.certificates.values()
            if ".tap" in c.channel and c.method == METHOD_CHAIN
        ]
        assert taps and all(c.depth == 1 and not c.tight for c in taps)

    def test_tight_iff_chain_floor_at_least_two(self, tiny_plan):
        for cert in tiny_plan.certificates.values():
            if cert.method == METHOD_CHAIN and ".fifo" in cert.channel:
                assert cert.tight == (cert.depth >= 2)
            else:
                assert not cert.tight

    def test_saves_at_least_thirty_percent(self, tiny_plan):
        assert tiny_plan.saved_pct >= 30.0

    def test_json_round_trip(self, tiny_plan, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(tiny_plan.to_dict()))
        back = load_depth_plan(str(path))
        assert back.certificates == tiny_plan.certificates
        assert back.design_name == tiny_plan.design_name
        assert back.certified_words == tiny_plan.certified_words


class TestApply:
    def test_apply_sets_capacities_and_attaches_plan(self, tiny_plan):
        built = build_tiny()
        apply_depth_plan(built.graph, tiny_plan)
        assert built.graph.depth_plan is tiny_plan
        for name, cert in tiny_plan.certificates.items():
            assert built.graph.channels[name].capacity == cert.depth

    def test_applied_graph_analyzes_clean(self, tiny_plan):
        built = build_tiny(plan=tiny_plan)
        report = analyze_graph(built.graph, built.graph.design)
        assert report.ok
        assert "BUFFER.DEPTH_CERT" in report.rules_run
        assert "BUFFER.DEPTH_UNDERSIZED" in report.rules_run

    def test_wrong_elaboration_rejected(self, tiny_plan):
        built = build_tiny(memory_system="behavioral")
        with pytest.raises(ConfigurationError):
            apply_depth_plan(built.graph, tiny_plan)

    def test_undersized_channel_is_hard_error(self, tiny_plan):
        built = build_tiny(plan=tiny_plan)
        tight = tiny_plan.tight_channels()[0]
        built.graph.channels[tight].capacity = (
            tiny_plan.capacity(tight) - 1
        )
        report = analyze_graph(built.graph, built.graph.design)
        assert not report.ok
        errs = [
            d for d in report.errors if d.rule == "BUFFER.DEPTH_UNDERSIZED"
        ]
        assert len(errs) == 1 and tight in errs[0].location

    def test_deeper_than_certified_stays_clean(self, tiny_plan):
        built = build_tiny(plan=tiny_plan)
        tight = tiny_plan.tight_channels()[0]
        built.graph.channels[tight].capacity = (
            tiny_plan.capacity(tight) + 3
        )
        assert analyze_graph(built.graph, built.graph.design).ok


class TestCertificateModel:
    def test_depth_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            DepthCertificate("c", 0, 4, METHOD_BRIDGE, True, False, "")

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            DepthCertificate("c", 1, 4, "vibes", True, False, "")

    def test_tight_requires_proof(self):
        with pytest.raises(ConfigurationError):
            DepthCertificate("c", 2, 4, METHOD_PIN, False, True, "")


class TestHandBuiltGraphs:
    def test_pure_chain_is_all_bridges(self):
        g = DataflowGraph("chain")
        src = g.add_actor(ArraySource("src", [1, 2]))
        f = g.add_actor(FifoStage("f"))
        snk = g.add_actor(ListSink("snk", count=2))
        g.connect(src, "out", f, "in", capacity=6)
        g.connect(f, "out", snk, "in", capacity=6)
        plan = infer_depth_plan(g)
        assert plan.memory_system == "behavioral"
        for cert in plan.certificates.values():
            assert cert.method == METHOD_BRIDGE and cert.depth == 1

    def test_parallel_edges_are_heuristic_pins(self):
        # Two channels between the same actor pair: not bridges (the
        # sibling closes an undirected cycle) and invisible to the
        # simple-digraph fork detection (out-degree 1).
        g = DataflowGraph("par")
        src = g.add_actor(ArraySource("src", [1, 2, 3, 4]))
        dm = g.add_actor(ScheduleDemux("dm", n_outputs=2))
        il = g.add_actor(Interleaver("il", n_inputs=2))
        snk = g.add_actor(ListSink("snk", count=4))
        g.connect(src, "out", dm, "in", capacity=4)
        g.connect(dm, "out0", il, "in0", capacity=4)
        g.connect(dm, "out1", il, "in1", capacity=4)
        g.connect(il, "out", snk, "in", capacity=4)
        plan = infer_depth_plan(g)
        pins = {
            n for n, c in plan.certificates.items()
            if c.method == METHOD_PIN
        }
        assert pins == {"dm.out0->il.in0", "dm.out1->il.in1"}
        for n in pins:
            cert = plan.certificates[n]
            assert not cert.proven and cert.depth == 4

    def test_heuristic_pins_warn_depth_cert(self):
        g = DataflowGraph("par")
        src = g.add_actor(ArraySource("src", [1, 2]))
        dm = g.add_actor(ScheduleDemux("dm", n_outputs=2))
        il = g.add_actor(Interleaver("il", n_inputs=2))
        snk = g.add_actor(ListSink("snk", count=2))
        g.connect(src, "out", dm, "in", capacity=4)
        g.connect(dm, "out0", il, "in0", capacity=4)
        g.connect(dm, "out1", il, "in1", capacity=4)
        g.connect(il, "out", snk, "in", capacity=4)
        plan = infer_depth_plan(g)
        apply_depth_plan(g, plan)
        report = analyze_graph(g)
        warns = [
            d for d in report.warnings if d.rule == "BUFFER.DEPTH_CERT"
        ]
        assert len(warns) == 2

    def test_fork_join_branches_get_skew_floor(self):
        g = DataflowGraph("diamond")
        src = g.add_actor(ArraySource("src", list(range(4))))
        fork = g.add_actor(Fork("fork", n_outputs=2))
        a = g.add_actor(FifoStage("a"))
        b = g.add_actor(FifoStage("b"))
        join = g.add_actor(Interleaver("join", n_inputs=2))
        snk = g.add_actor(ListSink("snk", count=8))
        g.connect(src, "out", fork, "in", capacity=4)
        g.connect(fork, "out0", a, "in", capacity=4)
        g.connect(fork, "out1", b, "in", capacity=4)
        g.connect(a, "out", join, "in0", capacity=4)
        g.connect(b, "out", join, "in1", capacity=4)
        g.connect(join, "out", snk, "in", capacity=4)
        plan = infer_depth_plan(g)
        branch = plan.certificates["fork.out0->a.in"]
        assert branch.method == METHOD_SKEW and branch.proven
        # Symmetric one-beat branches: deficit floor is 1.
        assert branch.depth == 1

    def test_unbounded_channels_skipped(self):
        g = DataflowGraph("unb")
        src = g.add_actor(ArraySource("src", [1]))
        snk = g.add_actor(ListSink("snk", count=1))
        g.connect(src, "out", snk, "in")
        g.channels["src.out->snk.in"].capacity = None
        plan = infer_depth_plan(g)
        assert plan.certificates == {}


class TestValidation:
    def test_validate_plan_tiny(self, tiny_plan):
        val = validate_plan(tiny_design(), tiny_plan)
        assert val.ok
        assert set(val.runs) == {"event"}
        assert val.runs["event"]["digest"] == val.baseline_digest
        assert {p.channel for p in val.probes} == set(
            tiny_plan.tight_channels()
        )

    def test_probe_rejects_non_tight(self, tiny_plan):
        tap = next(
            n for n, c in tiny_plan.certificates.items() if not c.tight
        )
        with pytest.raises(ConfigurationError):
            probe_tight_certificate(tiny_design(), tiny_plan, tap)

    def test_bisect_floor_matches_tight_certificate(self, tiny_plan):
        tight = tiny_plan.tight_channels()[0]
        floor = bisect_channel_floor(tiny_design(), tiny_plan, tight)
        assert floor == tiny_plan.capacity(tight)

    def test_bisect_depth_one_short_circuits(self, tiny_plan):
        shallow = next(
            n for n, c in tiny_plan.certificates.items() if c.depth == 1
        )
        assert bisect_channel_floor(tiny_design(), tiny_plan, shallow) == 1


class TestRunShrink:
    def test_tiny_report_ok(self):
        report = run_shrink(tiny_design())
        assert report["ok"] and not report["violations"]
        assert report.kind == "shrink"
        env = report.envelope()
        assert env["schema_version"] == SCHEMA_VERSION and env["kind"] == "shrink"
        assert report["words"]["saved_pct"] >= 30.0
        assert report["prover"]["heuristic"] == 0
        assert report["resources"]["saved_words"] > 0
        text = report.format_text()
        assert "depth shrink: tiny" in text and "verdict" in text

    def test_probe_limit_counts_unprobed(self):
        report = run_shrink(tiny_design(), probe_limit=1)
        assert report["ok"]
        assert len(report["validation"]["probes"]) == 1
        tight = report["prover"]["tight"]
        assert report["validation"]["unprobed_tight"] == tight - 1
        assert "unprobed" in report.format_text()

    def test_plan_round_trips_through_report(self):
        report = run_shrink(tiny_design(), validate=False)
        plan = DepthPlan.from_dict(report["plan"])
        built = build_tiny(plan=plan)
        built.run(stall_limit=50_000)
