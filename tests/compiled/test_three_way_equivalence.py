"""Three-way engine equivalence: event == lockstep == compiled.

The compiled engine executes fused vectorized kernels instead of
interpreting actor coroutines, so its *cycle accounting* is the analytic
performance model rather than a discrete-event measurement. The
equivalence contract is therefore:

- output digests: bit-identical across all three engines,
- per-process fire counts: identical (fires count productive beats,
  which are timing-independent),
- measured II and bottleneck attribution in the profiler: identical.

Cycle counts, channel stall statistics and sink timestamps are NOT part
of the contract — the compiled engine synthesizes a modeled envelope.
"""

import warnings

import numpy as np
import pytest

from repro.compiled import CompiledFallbackWarning
from repro.config import DTYPE
from repro.core import ConvLayerSpec, FCLayerSpec, NetworkDesign, random_weights
from repro.core.builder import build_network
from repro.core.models import cifar10_design, tiny_design, usps_design
from repro.dataflow import stable_digest
from tests.compiled.test_kernels_conv import sprinkle

ENGINES = ("event", "lockstep", "compiled")

DESIGNS = {
    "tiny": tiny_design,
    "usps": usps_design,
    "cifar10": cifar10_design,
    # Split/merge actors and halo re-reads on every engine.
    "cifar10-blocked": lambda: cifar10_design(
        name="cifar10-blocked"
    ).with_blocking({"conv1": 14, "conv2": 5}),
}


def run_three_way(design, images, seed, weights=None, batch=None):
    if weights is None:
        weights = random_weights(design, seed=seed)
    if batch is None:
        rng = np.random.default_rng(seed)
        batch = rng.uniform(
            0, 1, (images,) + design.input_shape
        ).astype(np.float32)
    out = {}
    for engine in ENGINES:
        built = build_network(design, weights, batch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CompiledFallbackWarning)
            res = built.run(scheduler=engine)
        fires = {
            actor: [p["fires"] for p in procs]
            for actor, procs in res.actor_stats.items()
        }
        out[engine] = {
            "outputs": built.outputs(),
            "digest": stable_digest(built.outputs()),
            "fires": fires,
        }
    return out


class TestZooDesigns:
    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_digests_and_fires_identical(self, name):
        out = run_three_way(DESIGNS[name](), images=2, seed=5)
        ref = out["event"]
        for engine in ("lockstep", "compiled"):
            assert out[engine]["digest"] == ref["digest"], engine
            assert out[engine]["fires"] == ref["fires"], engine


#: One conv and one FC layer for :class:`TestSpecialValues`.
SPECIAL_DESIGNS = {
    "conv": NetworkDesign(
        "conv-specials",
        input_shape=(3, 8, 8),
        specs=[ConvLayerSpec(name="conv1", in_fm=3, out_fm=4, kh=3)],
    ),
    "fc": NetworkDesign(
        "fc-specials",
        input_shape=(40, 1, 1),
        specs=[FCLayerSpec(name="fc1", in_fm=40, out_fm=40)],
    ),
}


class TestSpecialValues:
    # Seeds on which a digest of raw NaN bits tells the engines apart:
    # the interpreted cores' numpy picks a NaN payload by an element's
    # position in its array, the C cores by their operand order.
    @pytest.mark.parametrize(
        "name,seed", [("conv", 0), ("conv", 1), ("conv", 2), ("fc", 1), ("fc", 12)]
    )
    def test_every_nan_digests_as_one(self, name, seed):
        # ±0.0, ±1e-45, 1e-39, ±inf and both NaN payloads in the batch,
        # the weights and the bias. The engines agree on every bit but a
        # NaN's payload, which is not a computed value.
        design = SPECIAL_DESIGNS[name]
        rng = np.random.default_rng(seed)
        weights = random_weights(design, seed=seed)
        batch = rng.standard_normal((3,) + design.input_shape).astype(DTYPE)
        for arr in [batch] + [a for layer in weights.values()
                              for a in layer.values()]:
            sprinkle(rng, arr, 0.08)
        with np.errstate(invalid="ignore"):
            out = run_three_way(design, 3, seed, weights=weights, batch=batch)
        ref = out["event"]["outputs"]
        assert set(np.signbit(ref[np.isnan(ref)])) == {False, True}
        for engine in ("lockstep", "compiled"):
            got = out[engine]["outputs"]
            assert np.array_equal(np.isnan(got), np.isnan(ref)), engine
            assert out[engine]["digest"] == out["event"]["digest"], engine


class TestProfilerAgreement:
    """`repro profile --scheduler compiled` must be a drop-in."""

    # alexnet/vgg16 profile as their `-pilot` presets (the full-size
    # blocked designs are the compiled-suite gate's), so this covers the
    # five-design zoo on the profiler surface.
    @pytest.mark.parametrize(
        "preset", ["tiny", "usps", "cifar10", "alexnet", "vgg16"]
    )
    def test_profile_compiled_matches_event(self, preset):
        from repro.core.models import (
            cifar10_design as _c,
            tiny_design as _t,
            usps_design as _u,
        )
        from repro.core.zoo import alexnet_pilot_design, vgg16_pilot_design
        from repro.profiling import profile_design

        factory = {
            "tiny": _t, "usps": _u, "cifar10": _c,
            "alexnet": alexnet_pilot_design, "vgg16": vgg16_pilot_design,
        }[preset]
        design = factory()
        reports = {}
        for engine in ("event", "compiled"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", CompiledFallbackWarning)
                reports[engine] = profile_design(
                    design, images=2, seed=0, scheduler=engine
                )
        ref, got = reports["event"], reports["compiled"]
        assert got.ok and ref.ok
        assert got.scheduler == "compiled"
        ref_cores = {c["actor"]: c for c in ref.cores}
        got_cores = {c["actor"]: c for c in got.cores}
        assert set(got_cores) == set(ref_cores)
        for actor, rc in ref_cores.items():
            gc = got_cores[actor]
            assert gc["fires"] == rc["fires"], actor
            assert gc["measured_ii"] == rc["measured_ii"], actor
            assert gc["within_tolerance"] and rc["within_tolerance"]
        assert got.bottleneck.get("measured") == ref.bottleneck.get("measured")
