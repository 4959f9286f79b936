"""Cross-validation: static BUFFER.FULL errors vs simulated deadlocks.

Invariant 2 of DESIGN.md section 10: shrinking a literal filter-chain
FIFO below the sizing model's minimum must (a) raise a BUFFER.FULL error
in the static verifier and (b) deadlock the simulator on the *same
channel*. Each side checks the other — a diagnostic with no matching
deadlock means the verifier cries wolf; a deadlock with no matching
diagnostic means the verifier misses real bugs.
"""

import pytest

from repro.analysis import analyze_graph, infer_depth_plan, probe_tight_certificate
from repro.analysis.depths import chain_members
from repro.core import tiny_design
from repro.core.builder import build_network, random_weights, seeded_batch
from repro.core.models import cifar10_design, usps_design
from repro.core.zoo import alexnet_pilot_design, vgg16_pilot_design
from repro.dataflow.deadlock import match_deadlock_diagnostics
from repro.errors import DeadlockError
from repro.faults import (
    FaultScenario,
    FifoShrink,
    faultsim,
    resolve_shrink,
    run_design,
)
from repro.sst.sizing import (
    chain_fifo_capacities,
    chain_run_ahead,
    deadlock_shrink_targets,
    tap_capacity,
)
from repro.sst.window import WindowSpec

SHRINK = FaultScenario("shrink", (FifoShrink(),))


def build_literal(design):
    return build_network(
        design, random_weights(design, seed=0), seeded_batch(design, 0, 1),
        memory_system="literal",
    )


DESIGNS = [
    pytest.param(tiny_design, id="tiny"),
    pytest.param(usps_design, id="usps"),
    pytest.param(cifar10_design, id="cifar10"),
]


class TestSizingTargets:
    def test_targets_require_depth_beyond_tap_slack(self):
        # A 3x3 window over a width-8 row: line FIFOs (depth w - kw + 1)
        # exceed the tap slack; inter-tap FIFOs (depth 1) are excluded.
        # Asserted through the recursion, the only criterion there is.
        spec = WindowSpec(kh=3, kw=3)
        targets = dict(deadlock_shrink_targets(spec, w=8))
        caps = chain_fifo_capacities(spec, w=8)
        depths = [c - 1 for c in caps]
        taps = [tap_capacity(1)] * (len(caps) + 1)
        for i, d in enumerate(depths):
            shrunk = caps[:i] + [1] + caps[i + 1:]
            jams = min(chain_run_ahead(depths, shrunk, taps)) < 1
            assert jams == (d > tap_capacity(1))
            assert (i in targets) == jams
        assert targets and set(targets.values()) == {1}

    def test_tiny_window_has_no_targets(self):
        # 2x2 over width 4: every FIFO depth is within the tap slack, so
        # no capacity-1 shrink provably deadlocks.
        spec = WindowSpec(kh=2, kw=2)
        assert deadlock_shrink_targets(spec, w=4) == []


class TestAgreement:
    @pytest.mark.parametrize("factory", DESIGNS)
    def test_shrink_deadlock_matches_static_error(self, factory):
        design = factory()
        outcome = run_design(
            design, seed=0, images=1, scenario=SHRINK,
            memory_system="literal", stall_limit=5_000,
        )
        # (a) the simulator deadlocks ...
        assert outcome.deadlock is not None, (
            f"capacity-1 shrink of {sorted(outcome.armed.shrunk)} "
            f"did not deadlock {design.name}"
        )
        assert isinstance(outcome.deadlock, DeadlockError)
        shrunk = sorted(outcome.armed.shrunk)
        assert len(shrunk) == 1
        # (b) ... the verifier flags the shrunk channel as an error ...
        report = analyze_graph(outcome.built.graph, design)
        assert not report.ok
        assert any(shrunk[0] in d.message for d in report.errors)
        # (c) ... and both name the same channel.
        matches = match_deadlock_diagnostics(outcome.deadlock, report)
        matched = {name for name, _ in matches}
        assert shrunk[0] in matched, (
            f"deadlock blocked on {outcome.deadlock.blocked_channel_names()} "
            f"but the verifier flagged {shrunk[0]}"
        )

    def test_faultsim_shrink_verdict(self):
        report = faultsim(tiny_design(), SHRINK, seed=0, images=1)
        assert report["memory_system"] == "literal"
        assert report["verdict"] == "deadlock_matches_analysis"
        assert report["ok"] is True
        assert report["matched_channels"] == report["shrunk_channels"]
        assert report["analysis_flagged"]

    def test_resolve_shrink_picks_provable_target(self):
        built = build_literal(tiny_design())
        target = resolve_shrink(SHRINK, built.graph).faults[0].channels
        base, _, index = target.rpartition(".fifo")
        fifos, taps, depths = chain_members(
            built.graph, base, built.graph.actors[f"{base}.asm"]
        )
        # The recursion on the built capacities, with the chosen FIFO at
        # capacity 1, starves some filter.
        caps = [built.graph.channels[n].capacity for n in fifos]
        caps[int(index)] = 1
        tap_caps = [built.graph.channels[n].capacity for n in taps]
        assert min(chain_run_ahead(depths, caps, tap_caps)) < 1

    @pytest.mark.parametrize("factory, expected", [
        (tiny_design, "conv1.win0.fifo2"),
        (usps_design, "conv1.win0.fifo14"),
        (cifar10_design, "conv1.win0.fifo14"),
        (alexnet_pilot_design, "conv1.win0.fifo10"),
        (vgg16_pilot_design, "b1_conv1.win0.fifo2"),
    ], ids=["tiny", "usps", "cifar10", "alexnet-pilot", "vgg16-pilot"])
    def test_auto_shrink_target_is_stable(self, factory, expected):
        built = build_literal(factory())
        assert resolve_shrink(SHRINK, built.graph).faults[0].channels == expected

    def test_clean_literal_run_has_no_buffer_errors(self):
        # Control: without the shrink, the verifier is quiet and the
        # simulator finishes — neither side reports a phantom problem.
        design = tiny_design()
        outcome = run_design(
            design, seed=0, images=1, memory_system="literal",
        )
        assert outcome.finished and outcome.deadlock is None
        report = analyze_graph(outcome.built.graph, design)
        assert not any(d.rule == "BUFFER.FULL" for d in report.errors)


class TestProverAgreement:
    """The PR 3 invariant, now driven by the depth prover.

    ``deadlock_shrink_targets`` hand-picks channels where capacity 1
    provably jams; the prover goes further and certifies the *minimal*
    depth of every channel. Probing a tight certificate at depth-1 must
    reproduce the same three-way agreement: simulator deadlock, static
    BUFFER.DEPTH_UNDERSIZED error, and both naming the same channel.
    """

    @pytest.mark.parametrize("factory", DESIGNS)
    def test_prover_probe_agreement(self, factory):
        design = factory()
        outcome = run_design(
            design, seed=0, images=1, memory_system="literal",
        )
        plan = infer_depth_plan(outcome.built.graph)
        tight = plan.tight_channels()
        assert tight, f"{design.name}: prover found no tight certificates"
        # A spread of targets per design; the CI shrink-suite probes all.
        for channel in tight[:4]:
            probe = probe_tight_certificate(design, plan, channel)
            assert probe.ok, (
                f"{design.name}/{channel}: deadlocked={probe.deadlocked} "
                f"blamed={probe.blamed} (blocked {probe.blocked}) "
                f"flagged={probe.flagged} matched={probe.matched}"
            )

    def test_prover_floors_cover_sizing_targets(self):
        # Every hand-picked deadlock_shrink_targets channel must come out
        # of the prover as a tight certificate: the prover supersedes the
        # PR 3 target list, it does not shrink it.
        design = tiny_design()
        outcome = run_design(
            design, seed=0, images=1, memory_system="literal",
        )
        plan = infer_depth_plan(outcome.built.graph)
        tight = set(plan.tight_channels())
        for p in design.placements:
            spec = p.spec
            if not hasattr(spec, "window"):
                continue
            targets = deadlock_shrink_targets(
                spec.window, p.in_shape[2], spec.in_group
            )
            for port in range(spec.in_ports):
                for i, _cap in targets:
                    assert f"{spec.name}.win{port}.fifo{i}" in tight
