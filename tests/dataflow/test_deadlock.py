"""Reconvergent-branch enumeration and deadlock/diagnostic pairing."""

import re

import numpy as np
import pytest

from repro.analysis import analyze_graph
from repro.analysis.diagnostics import AnalysisReport, Severity, make
from repro.analysis.graph_rules import _branch_capacity, fork_join_pairs
from repro.core import tiny_design
from repro.dataflow import ArraySource, DataflowGraph, FifoStage, Fork, Interleaver, ListSink
from repro.dataflow.deadlock import (
    match_deadlock_diagnostics,
    names_channel,
    shrink_agreement,
)
from repro.errors import DeadlockError
from repro.faults import preset_scenarios, run_design


def diamond(cap_a=2, cap_b=2):
    """src -> fork -> {a, b} -> join -> sink."""
    g = DataflowGraph("diamond")
    src = g.add_actor(ArraySource("src", list(range(4))))
    fork = g.add_actor(Fork("fork", n_outputs=2))
    a = g.add_actor(FifoStage("a"))
    b = g.add_actor(FifoStage("b"))
    join = g.add_actor(Interleaver("join", n_inputs=2))
    snk = g.add_actor(ListSink("snk", count=8))
    g.connect(src, "out", fork, "in")
    g.connect(fork, "out0", a, "in", capacity=cap_a)
    g.connect(fork, "out1", b, "in", capacity=cap_b)
    g.connect(a, "out", join, "in0", capacity=cap_a)
    g.connect(b, "out", join, "in1", capacity=cap_b)
    g.connect(join, "out", snk, "in")
    return g


def branch_capacities(g, fork="fork", join="join"):
    """``{first interior node: branch capacity}`` of one fork/join pair."""
    branches = next(
        bs for f, j, bs in fork_join_pairs(g) if (f, j) == (fork, join)
    )
    return {b.nodes[1]: _branch_capacity(g, b) for b in branches}


def skew_findings(g):
    return [d for d in analyze_graph(g).diagnostics if d.rule == "BUFFER.SKEW"]


class TestAnalyze:
    def test_diamond_detected(self):
        pairs = list(fork_join_pairs(diamond()))
        assert [(f, j) for f, j, _ in pairs] == [("fork", "join")]
        (_, _, branches), = pairs
        assert sorted(b.nodes for b in branches) == [
            ("fork", "a", "join"), ("fork", "b", "join"),
        ]
        # A FifoStage forwards after one beat; each hop is one channel.
        assert all(b.latency == 1 for b in branches)
        assert all(len(b.hops) == 2 and all(len(h) == 1 for h in b.hops)
                   for b in branches)

    def test_path_capacities_summed(self):
        assert branch_capacities(diamond(cap_a=2, cap_b=8)) == {"a": 4, "b": 16}

    def test_chain_has_no_reconvergence(self):
        g = DataflowGraph("chain")
        src = g.add_actor(ArraySource("src", [1]))
        f = g.add_actor(FifoStage("f"))
        snk = g.add_actor(ListSink("snk", count=1))
        g.connect(src, "out", f, "in")
        g.connect(f, "out", snk, "in")
        assert list(fork_join_pairs(g)) == []

    def test_unbounded_branch_capacity_is_none(self):
        g = diamond(cap_a=2, cap_b=8)
        # Rebind one edge of branch b as an unbounded channel.
        g.channels["b.out->join.in1"].capacity = None
        # unbounded hop -> unbounded branch; the sibling is unaffected
        assert branch_capacities(g) == {"a": 4, "b": None}

    def test_unbounded_branch_absorbs_any_skew(self):
        # Branch a lags by 64 beats; b buffers 4 and is flagged, until one
        # of its hops is unbounded: then it absorbs any skew.
        g = diamond(cap_a=2, cap_b=2)
        g.actors["a"].pipeline_depth = 64
        (finding,) = skew_findings(g)
        assert "[fork -> b -> join] buffers only 4" in finding.message
        g.channels["b.out->join.in1"].capacity = None
        assert skew_findings(g) == []

    def test_all_unbounded_pair(self):
        g = diamond()
        for ch in g.channels.values():
            ch.capacity = None
        assert branch_capacities(g) == {"a": None, "b": None}
        assert skew_findings(g) == []

    def test_usps_network_graph_has_parallel_branches(self, rng):
        from repro.core import random_weights, usps_design
        from repro.core.builder import build_network

        d = usps_design()
        built = build_network(
            d, random_weights(d), rng.uniform(0, 1, (1, 1, 16, 16)).astype(np.float32)
        )
        pairs = fork_join_pairs(built.graph)
        # conv1's 6 output ports reconverge at conv2's core.
        assert any(f == "conv1.core" and j == "conv2.core" for f, j, _ in pairs)


class TestReport:
    """What ``examples/trace_pipeline.py`` prints for its buffering check."""

    def test_balanced_no_warning(self):
        report = analyze_graph(diamond(2, 2))
        assert "BUFFER.SKEW" in report.rules_run
        assert "BUFFER.SKEW" not in report.format_text()

    def test_imbalanced_warns(self):
        # Imbalance is latency skew, not a capacity ratio: 2-vs-16 beats of
        # capacity are fine until one branch lags further than the other
        # buffers.
        g = diamond(2, 16)
        assert "BUFFER.SKEW" not in analyze_graph(g).format_text()
        g.actors["b"].pipeline_depth = 64
        text = analyze_graph(g).format_text()
        assert "ERROR" in text and "[fork -> a -> join] buffers only 4" in text

    def test_mixed_unbounded_warns_for_bounded_sibling(self):
        # An unbounded branch absorbs any skew itself; its bounded sibling
        # is still held to the lag of the unbounded one.
        g = diamond(cap_a=2, cap_b=8)
        g.channels["b.out->join.in1"].capacity = None
        g.actors["b"].pipeline_depth = 64
        (finding,) = skew_findings(g)
        assert "[fork -> a -> join] buffers only 4" in finding.message

    def test_all_unbounded_no_warning(self):
        g = diamond()
        for ch in g.channels.values():
            ch.capacity = None
        assert "BUFFER.SKEW" not in analyze_graph(g).format_text()

    def test_chain_report(self):
        g = DataflowGraph("c")
        src = g.add_actor(ArraySource("src", [1]))
        snk = g.add_actor(ListSink("snk", count=1))
        g.connect(src, "out", snk, "in")
        report = analyze_graph(g)
        assert report.ok and "BUFFER.SKEW" in report.rules_run


class TestMatch:
    """One boundary-checked matcher behind every deadlock/diagnostic pairing."""

    @staticmethod
    def report_naming(channel):
        report = AnalysisReport("synthetic")
        report.add(make(
            "BUFFER.DEPTH_UNDERSIZED", Severity.ERROR, f"channel:{channel}",
            f"{channel} has capacity 1 but its certificate proves more",
        ))
        return report

    def test_names_channel_is_boundary_checked(self):
        (diag,) = self.report_naming("x.fifo14").errors
        assert names_channel(diag, "x.fifo14")
        assert not names_channel(diag, "x.fifo1")
        assert not names_channel(diag, "x.fifo")

    def test_deadlock_pairs_with_the_named_channel_only(self):
        err = DeadlockError(
            7, {"x.f1": "full", "x.f14": "full"},
            {"x.f1": ["push:x.fifo1"], "x.f14": ["push:x.fifo14"]},
        )
        report = self.report_naming("x.fifo14")
        (diag,) = report.errors
        assert match_deadlock_diagnostics(err, report) == [("x.fifo14", diag)]

    def test_fifo14_finding_never_agrees_with_a_fifo1_shrink(self):
        # The deadlock blocks on fifo1, the only error names fifo14: the
        # shrink of fifo1 is neither flagged, blame-matched nor
        # verdict-matched (probe_tight_certificate and faultsim's shrink
        # verdict both read exactly this triple).
        err = DeadlockError(7, {"x.f1": "full"}, {"x.f1": ["push:x.fifo1"]})
        blocked, flagged, matched = shrink_agreement(
            err, self.report_naming("x.fifo14"), ["x.fifo1"]
        )
        assert blocked == ["x.fifo1"]
        assert flagged == [] and matched == []

    def test_agreement_on_the_shrunk_channel(self):
        err = DeadlockError(
            7, {"x.f1": "full"}, {"x.f1": ["push:x.fifo1", "pop:x.fifo0"]}
        )
        report = self.report_naming("x.fifo1")
        blocked, flagged, matched = shrink_agreement(err, report, ["x.fifo1"])
        assert blocked == ["x.fifo0", "x.fifo1"]
        assert flagged == report.errors and matched == ["x.fifo1"]


class TestReportParity:
    """Both engines read one deadlock report off the yielded descriptors."""

    PART = re.compile(
        r"(pop|push):\S+(, (pop|push):\S+)*|gate|timer\(\d+\)"
        r"|running \(no channel beat\)"
    )

    @staticmethod
    def starved_sink(scheduler):
        g = DataflowGraph("starved", default_capacity=2)
        src = g.add_actor(ArraySource("src", [1, 2]))
        snk = g.add_actor(ListSink("snk", count=5))
        g.connect(src, "out", snk, "in")
        with pytest.raises(DeadlockError) as exc:
            g.build_simulator(stall_limit=50, scheduler=scheduler).run()
        return exc.value

    @staticmethod
    def tiny_shrink(scheduler):
        return run_design(
            tiny_design(), seed=0, images=2, scheduler=scheduler,
            scenario=preset_scenarios()["shrink"], memory_system="literal",
            stall_limit=200,
        ).deadlock

    @pytest.mark.parametrize("case", ["starved_sink", "tiny_shrink"])
    def test_same_report_from_both_engines(self, case):
        lock, event = (getattr(self, case)(s) for s in ("lockstep", "event"))
        assert lock.channels and lock.channels == event.channels
        assert lock.blocked and lock.blocked == event.blocked
        # Every entry is rendered from descriptors, one part per process.
        for text in event.blocked.values():
            assert all(self.PART.fullmatch(part) for part in text.split(" | "))

    def test_starved_sink_names_its_channel(self):
        err = self.starved_sink("lockstep")
        assert err.channels == {"snk": ["pop:src.out->snk.in"]}
        assert err.blocked == {"snk": "pop:src.out->snk.in"}

    def test_shrink_lists_daemons_and_each_process(self):
        err = self.tiny_shrink("lockstep")
        # A parked daemon adapter is in `channels` (the wait conditions of
        # every process) but not in `blocked` (live non-daemon actors).
        assert err.channels["fc1.widen0"] == ["pop:pool1.core0.out->fc1.widen0.in0"]
        assert "fc1.widen0" not in err.blocked
        # A conv core is two processes: compute parked on its window
        # inputs, emit on the result-queue gate.
        assert err.blocked["conv1.core"] == (
            "pop:conv1.win0.asm.out->conv1.core.in0 | gate"
        )
        assert err.channels["conv1.core"] == ["pop:conv1.win0.asm.out->conv1.core.in0"]
