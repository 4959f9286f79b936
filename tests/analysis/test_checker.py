"""The static verifier over valid designs: zoo cleanliness, perf agreement
and report plumbing."""

import json

import numpy as np
import pytest

from repro.analysis import (
    DESIGN_RULES,
    RULES,
    AnalysisReport,
    Severity,
    analyze_design,
    analyze_graph,
    check_design_dict,
    check_network,
    make,
)
from repro.analysis.graph_rules import fork_join_pairs
from repro.core import random_weights, usps_design
from repro.core.builder import build_network
from repro.core.models import cifar10_design, tiny_design
from repro.core.perf_model import network_perf
from repro.core.serialize import design_to_dict
from repro.core.zoo import (
    alexnet_blocked_design,
    alexnet_design,
    vgg16_blocked_design,
    vgg16_design,
)
from repro.errors import ConfigurationError
from tests.analysis.bad_designs import under_buffered_tiny

#: What a plain ``check`` runs (the two BUFFER.DEPTH_* rules need a depth plan).
TEN_RULES = DESIGN_RULES + [
    "GRAPH.STRUCTURE", "BUFFER.FULL", "ADAPTER.WIRING", "BUFFER.SKEW",
]

FULL_SIZE = {
    "alexnet": alexnet_design,
    "vgg16": vgg16_design,
    "alexnet-blocked": alexnet_blocked_design,
    "vgg16-blocked": vgg16_blocked_design,
}


def _swap_merge_plan(graph):
    graph.actors["conv3.merge0"].plan = graph.actors["conv2.merge0"].plan


def _shave_split_halo(graph):
    graph.actors["conv1.split0"].shave_h = 1


ZOO = {
    "usps": usps_design,
    "cifar10": cifar10_design,
    "tiny": tiny_design,
    "alexnet": alexnet_design,
    "vgg16": vgg16_design,
}


class TestZooClean:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_zoo_design_passes(self, name):
        report = check_network(ZOO[name]())
        assert report.ok, report.format_text()
        assert not report.warnings, report.format_text()

    @pytest.mark.parametrize("name", ["usps", "tiny"])
    def test_zoo_design_passes_literal_memory(self, name):
        report = check_network(ZOO[name](), memory_system="literal")
        assert report.ok, report.format_text()

    @pytest.mark.parametrize("name", sorted(FULL_SIZE))
    def test_full_size_designs_run_every_rule(self, name):
        # No design is too big for the graph rules: zero weights are never
        # touched, so 62M / 138M parameters elaborate in a fraction of a second.
        report = check_network(FULL_SIZE[name]())
        assert report.ok, report.format_text()
        assert sorted(report.rules_run) == sorted(TEN_RULES)

    @pytest.mark.parametrize("name", ["alexnet-blocked", "vgg16-blocked"])
    def test_full_size_blocked_designs_pass_literal_memory(self, name):
        report = check_network(FULL_SIZE[name](), memory_system="literal")
        assert report.ok, report.format_text()
        assert sorted(report.rules_run) == sorted(TEN_RULES)

    @pytest.mark.parametrize("sabotage, location", [
        (_swap_merge_plan, "layer:conv3"),
        (_shave_split_halo, "layer:conv1"),
    ])
    def test_bad_full_size_graph_is_flagged(self, monkeypatch, sabotage, location):
        import repro.analysis.checker as checker

        def build_sabotaged(*args, **kwargs):
            built = build_network(*args, **kwargs)
            sabotage(built.graph)
            return built

        monkeypatch.setattr(checker, "build_network", build_sabotaged)
        report = check_network(alexnet_blocked_design())
        assert [(d.rule, d.location) for d in report.errors] == [
            ("BUFFER.FULL", location)
        ]


class TestPerfAgreement:
    @staticmethod
    def bottleneck_infos(report):
        return [d for d in report.infos if d.rule == "II.BOTTLENECK"]

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_analyzer_matches_perf_model(self, name):
        design = ZOO[name]()
        perf = network_perf(design)
        (info,) = self.bottleneck_infos(analyze_design(design))
        assert info.location == f"stage:{perf.bottleneck}"
        assert f"{perf.bottleneck!r} paces the pipeline" in info.message
        assert f"{perf.interval} cycles/image" in info.message

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_bottleneck_reported_as_info(self, name):
        report = analyze_design(ZOO[name]())
        assert len(self.bottleneck_infos(report)) == 1
        assert not [d for d in report.errors if d.rule == "II.BOTTLENECK"]

    def test_bottleneck_skipped_under_eq4_error(self):
        from tests.analysis.bad_designs import ii_inconsistent_design

        report = analyze_design(ii_inconsistent_design())
        assert "II.EQ4" in report.error_rules()
        (info,) = self.bottleneck_infos(report)
        assert info.location == "design" and "skipped" in info.message


class TestReportPlumbing:
    def test_json_roundtrip(self):
        report = check_network(tiny_design())
        d = json.loads(report.to_json())
        assert d["design"] == "tiny"
        assert d["ok"] is True
        assert set(d["counts"]) == {"error", "warning", "info"}
        for diag in d["diagnostics"]:
            assert diag["rule"] in RULES
            assert diag["paper_ref"]

    def test_format_text_verdict(self):
        report = check_network(usps_design())
        text = report.format_text()
        assert text.startswith("=== repro check: usps-tc1 ===")
        assert "PASS:" in text

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            make("NOT.A.RULE", Severity.ERROR, "design", "boom")

    def test_merge_combines_rules_and_diags(self):
        a = AnalysisReport("x", rules_run=["RATE.BALANCE"])
        b = AnalysisReport("x", rules_run=["II.EQ4"])
        b.add(make("II.EQ4", Severity.ERROR, "layer:l", "bad"))
        a.merge(b)
        assert a.rules_run == ["RATE.BALANCE", "II.EQ4"]
        assert a.error_rules() == ["II.EQ4"]


class TestDictFrontend:
    def test_valid_dict_gets_full_check(self):
        report = check_design_dict(design_to_dict(usps_design()))
        assert report.ok
        assert "BUFFER.FULL" in report.rules_run

    def test_unparseable_spec_reported_not_raised(self):
        report = check_design_dict({
            "name": "broken",
            "input_shape": [1, 8, 8],
            "layers": [{"kind": "conv", "name": "c", "in_fm": 0, "out_fm": 4}],
        })
        assert not report.ok
        assert report.error_rules() == ["SPEC.VALID"]

    def test_bad_input_shape_reported(self):
        report = check_design_dict({"name": "x", "input_shape": [0, 8],
                                    "layers": []})
        assert not report.ok
        assert report.error_rules() == ["SPEC.VALID"]


class TestGraphOnly:
    def test_builder_graph_clean_without_design(self, rng):
        d = usps_design()
        built = build_network(
            d, random_weights(d),
            rng.uniform(0, 1, (1,) + d.input_shape).astype(np.float32),
        )
        report = analyze_graph(built.graph)
        assert report.ok
        assert "ADAPTER.WIRING" not in report.rules_run  # needs the design

    def test_builder_graph_clean_with_design(self, rng):
        d = cifar10_design()
        built = build_network(
            d, random_weights(d),
            rng.uniform(0, 1, (1,) + d.input_shape).astype(np.float32),
        )
        report = analyze_graph(built.graph, d)
        assert report.ok, report.format_text()
        assert "ADAPTER.WIRING" in report.rules_run


class TestSkewAcrossMemorySystems:
    """BUFFER.SKEW sees one topology whichever memory system elaborated it."""

    @pytest.mark.parametrize("memory_system", ["behavioral", "literal"])
    def test_under_buffered_port_flagged_once(self, memory_system):
        (err,) = under_buffered_tiny(memory_system).errors
        assert err.rule == "BUFFER.SKEW"
        assert err.location == "channel:conv1.core->fc1.widen0"

    @pytest.mark.parametrize("name, pairs", [("tiny", 1), ("usps", 1), ("cifar10", 0)])
    def test_clean_builds_enumerate_the_same_pairs(self, name, pairs):
        d = ZOO[name]()
        for memory_system in ("behavioral", "literal"):
            built = build_network(
                d, random_weights(d),
                np.zeros((1,) + d.input_shape, dtype=np.float32),
                memory_system=memory_system,
            )
            assert len(list(fork_join_pairs(built.graph))) == pairs
            report = analyze_graph(built.graph, d)
            assert not [x for x in report.diagnostics if x.rule == "BUFFER.SKEW"]
