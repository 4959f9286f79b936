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
from repro.core import FCLayerSpec, NetworkDesign, random_weights
from repro.core.builder import build_network
from repro.core.models import cifar10_design, tiny_design, usps_design
from repro.dataflow import stable_digest

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
            "finished": res.finished,
        }
    return out


class TestZooDesigns:
    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_digests_and_fires_identical(self, name):
        out = run_three_way(DESIGNS[name](), images=2, seed=5)
        ref = out["event"]
        assert ref["finished"]
        for engine in ("lockstep", "compiled"):
            assert out[engine]["digest"] == ref["digest"], engine
            assert out[engine]["fires"] == ref["fires"], engine
            assert out[engine]["finished"]


class TestFCSpecialValues:
    def test_zeros_subnormals_and_one_nan_pattern(self):
        # The compiled FC core is C, the interpreted one numpy: they agree
        # bit for bit on signed zeros and subnormals, and on NaN while
        # every NaN of the run has one bit pattern (where two payloads
        # meet, which one survives is each implementation's own choice;
        # DESIGN.md section 12).
        design = NetworkDesign(
            "fc-specials",
            input_shape=(40, 1, 1),
            specs=[
                FCLayerSpec(name="fc1", in_fm=40, out_fm=9, activation="tanh"),
                FCLayerSpec(name="fc2", in_fm=9, out_fm=5),
            ],
        )
        rng = np.random.default_rng(7)
        specials = np.array([0.0, -0.0, 1e-45, -1e-45, 1e-39], dtype=DTYPE)
        weights = random_weights(design, seed=7)
        batch = rng.standard_normal((3,) + design.input_shape).astype(DTYPE)
        for arr in [batch] + [a for layer in weights.values()
                              for a in layer.values()]:
            hit = rng.random(arr.shape) < 0.25
            arr[hit] = rng.choice(specials, int(hit.sum()))
        weights["fc2"]["weight"][1, 4] = np.nan
        batch[2, 11] = np.nan
        out = run_three_way(design, 3, 7, weights=weights, batch=batch)
        got = out["compiled"]["outputs"].view(np.uint32)
        assert set(got[np.isnan(out["compiled"]["outputs"])]) == {0x7FC00000}
        for engine in ("event", "lockstep"):
            assert out[engine]["digest"] == out["compiled"]["digest"], engine


class TestProfilerAgreement:
    """`repro profile --scheduler compiled` must be a drop-in."""

    # alexnet/vgg16 profile as their deterministic pilot downscales,
    # which is exactly what `repro profile` runs — so this covers the
    # full five-design zoo on the profiler surface.
    @pytest.mark.parametrize(
        "preset", ["tiny", "usps", "cifar10", "alexnet", "vgg16"]
    )
    def test_profile_compiled_matches_event(self, preset):
        from repro.core.models import (
            cifar10_design as _c,
            tiny_design as _t,
            usps_design as _u,
        )
        from repro.core.zoo import alexnet_design, vgg16_design
        from repro.profiling import profile_design

        factory = {
            "tiny": _t, "usps": _u, "cifar10": _c,
            "alexnet": alexnet_design, "vgg16": vgg16_design,
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
