"""Property test: ANY valid design's dataflow elaboration is correct.

Hypothesis generates random small network designs — random kernel sizes,
strides, padding, channel counts, port configurations, activations, pool
modes and layer counts — plus random weights and inputs; for every one of
them the compiled dataflow graph must reproduce the NumPy reference. This
is the strongest statement the repository makes: the methodology's
elaboration is correct by construction, not just on the paper's two
networks.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import design_reference_forward, random_weights
from repro.core.builder import build_network
from tests.strategies import small_designs


class TestRandomDesigns:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(design=small_designs(), seed=st.integers(0, 2**16))
    def test_dataflow_matches_reference(self, design, seed):
        weights = random_weights(design, seed=seed)
        rng = np.random.default_rng(seed)
        batch = rng.uniform(0, 1, (2,) + design.input_shape).astype(np.float32)
        built = build_network(design, weights, batch)
        built.run(scheduler="event")
        got = built.outputs()
        ref = design_reference_forward(design, weights, batch)[-1]
        if ref.shape != got.shape:
            ref = ref.reshape(got.shape)
        assert np.allclose(got, ref, atol=1e-4), design.block_design()

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(design=small_designs(), seed=st.integers(0, 2**16))
    def test_timed_equals_functional(self, design, seed):
        """event = compiled = reference: the values-only run is a
        compiled run, bit-identical to the interpreted one."""
        weights = random_weights(design, seed=seed)
        rng = np.random.default_rng(seed)
        batch = rng.uniform(0, 1, (2,) + design.input_shape).astype(np.float32)
        a = build_network(design, weights, batch)
        a.run(scheduler="event")
        b = build_network(design, weights, batch)
        b.run(scheduler="compiled")
        assert np.array_equal(a.outputs(), b.outputs())
        ref = design_reference_forward(design, weights, batch)[-1]
        assert np.allclose(b.outputs(), ref.reshape(b.outputs().shape), atol=1e-4)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(design=small_designs(), seed=st.integers(0, 2**16))
    def test_three_way_engine_equivalence(self, design, seed):
        """event == lockstep == compiled on ANY valid strict design.

        Compared on the cross-engine contract: stable output digests and
        per-process fire counts. Random designs exercise every fused
        kernel variant (mean/max pooling, multi-port cores, partial FC
        accumulator lanes, padding/stride geometry). The compiled run
        must actually compile — a fallback warning fails the test.
        """
        import warnings

        from repro.compiled import CompiledFallbackWarning
        from repro.dataflow import stable_digest

        weights = random_weights(design, seed=seed)
        rng = np.random.default_rng(seed)
        batch = rng.uniform(0, 1, (2,) + design.input_shape).astype(np.float32)
        outcomes = {}
        for sched in ("event", "lockstep", "compiled"):
            built = build_network(design, weights, batch)
            with warnings.catch_warnings():
                warnings.simplefilter("error", CompiledFallbackWarning)
                res = built.run(scheduler=sched)
            fires = {
                actor: [p["fires"] for p in procs]
                for actor, procs in res.actor_stats.items()
            }
            outcomes[sched] = (stable_digest(built.outputs()), fires)
        ref = outcomes["event"]
        assert outcomes["lockstep"] == ref, design.block_design()
        assert outcomes["compiled"] == ref, design.block_design()
