"""Property tests: the depth prover is sound on random designs.

For ANY valid design Hypothesis can dream up, the certified plan must
(1) cover every bounded channel of the literal elaboration with a
certificate, (2) simulate deadlock-free under both the event and the
lockstep engine with the full-buffering output digest (Kahn determinism
makes digest equality a free correctness check), and (3) deadlock on
exactly the certified channel when any tight certificate is probed at
depth-1. This is the PR 3 shrink invariant restated over the whole
design space, with the prover — not hand-picked targets — choosing the
channels.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.analysis import infer_depth_plan, probe_tight_certificate
from repro.core import random_weights
from repro.core.builder import build_network
from repro.dataflow.digest import stable_digest
from tests.strategies import small_designs

_SETTINGS = settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _build(design, plan=None, seed=0):
    weights = random_weights(design, seed=seed)
    rng = np.random.default_rng(seed)
    batch = rng.uniform(0, 1, (1,) + design.input_shape).astype(np.float32)
    return build_network(
        design, weights, batch, memory_system="literal", depth_plan=plan
    )


@given(design=small_designs())
@_SETTINGS
def test_certified_plan_is_deadlock_free_on_both_engines(design):
    built = _build(design)
    plan = infer_depth_plan(built.graph)
    bounded = {
        n for n, ch in built.graph.channels.items()
        if ch.capacity is not None
    }
    assert set(plan.certificates) == bounded
    built.run(stall_limit=50_000)
    baseline_digest = stable_digest(built.outputs())
    for scheduler in ("event", "lockstep"):
        applied = _build(design, plan=plan)
        applied.run(stall_limit=50_000, scheduler=scheduler)
        assert stable_digest(applied.outputs()) == baseline_digest
    assert plan.certified_words <= plan.full_words


@given(design=small_designs())
@_SETTINGS
def test_tight_certificate_probe_deadlocks_on_named_channel(design):
    built = _build(design)
    plan = infer_depth_plan(built.graph)
    tight = plan.tight_channels()
    if not tight:
        return  # nothing to refute: every floor is within the tap slack
    # One probe per example keeps the suite fast; Hypothesis varies the
    # design, the prover varies the channel.
    probe = probe_tight_certificate(design, plan, tight[0])
    assert probe.deadlocked, f"{tight[0]}: depth-1 did not deadlock"
    assert probe.blamed, (
        f"{tight[0]}: deadlock blocked on {probe.blocked} instead"
    )
    assert probe.flagged and probe.matched
