"""The compiled-plan cache: hit/miss accounting, keys, eviction.

Repeated builds of the same design must skip re-lowering (plan hit),
while anything that changes the solved schedule — batch size, a
different design — must miss. The cache holds plans only: a plan miss
runs the static verifier, a hit does not, and a failing design is
verified and refused again on every attempt.
"""

import numpy as np
import pytest

from repro.compiled import (
    CompiledEngine,
    CompiledPlan,
    PlanCache,
    clear_plan_cache,
    design_digest,
    plan_cache_stats,
)
from repro.compiled.plan_cache import GLOBAL_PLAN_CACHE, plan_key
from repro.core import random_weights, tiny_design, usps_design
from repro.core.builder import build_network
from repro.errors import CompilationError
from tests.analysis.bad_designs import ii_inconsistent_design


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def built_tiny(batch=2, seed=7):
    design = tiny_design()
    weights = random_weights(design, seed=seed)
    rng = np.random.default_rng(seed)
    images = rng.uniform(-1, 1, (batch, 1, 8, 8)).astype(np.float32)
    return build_network(design, weights, images)


class TestDesignDigest:
    def test_stable_across_instances(self):
        assert design_digest(tiny_design()) == design_digest(tiny_design())

    def test_distinguishes_designs(self):
        assert design_digest(tiny_design()) != design_digest(usps_design())

    def test_digest_format(self):
        assert design_digest(tiny_design()).startswith("sha256:")

    def test_one_design_object_is_serialised_once(self, monkeypatch):
        import repro.core.serialize as serialize

        calls = []
        real = serialize.design_to_json

        def counting(design, indent=2):
            calls.append(design)
            return real(design, indent)

        monkeypatch.setattr(serialize, "design_to_json", counting)
        built = built_tiny()
        built.run(scheduler="compiled")
        again = build_network(
            built.design, random_weights(built.design, seed=3),
            np.zeros((2, 1, 8, 8), np.float32),
        )
        again.run(scheduler="compiled")
        assert calls == [built.design]
        # A design built separately, equal in content, digests equal.
        assert design_digest(tiny_design()) == design_digest(built.design)
        assert len(calls) == 2

    def test_placements_cannot_change(self):
        design = tiny_design()
        assert isinstance(design.placements, tuple)
        with pytest.raises(AttributeError):
            design.placements.append(design.placements[0])


@pytest.fixture
def verifier_calls(monkeypatch):
    """The names of the designs the compiled engine verifies, in order."""
    import repro.compiled.engine as engine

    calls = []
    real = engine.analyze_design

    def counting(design):
        calls.append(design.name)
        return real(design)

    monkeypatch.setattr(engine, "analyze_design", counting)
    return calls


class TestEngineIntegration:
    def test_second_build_hits(self):
        built_tiny().run(scheduler="compiled")
        first = plan_cache_stats()
        assert first["misses"] == 1 and first["plans"] == 1
        built_tiny().run(scheduler="compiled")
        second = plan_cache_stats()
        assert second["hits"] >= first["hits"] + 1
        assert second["misses"] == first["misses"]
        assert second["plans"] == 1

    def test_different_batch_misses(self):
        built_tiny(batch=2).run(scheduler="compiled")
        built_tiny(batch=3).run(scheduler="compiled")
        stats = plan_cache_stats()
        # Batch size changes the stream geometry -> a second plan.
        assert stats["plans"] == 2
        assert stats["misses"] == 2

    def test_cached_plan_gives_identical_results(self):
        b1 = built_tiny()
        r1 = b1.run(scheduler="compiled")
        b2 = built_tiny()
        r2 = b2.run(scheduler="compiled")
        assert plan_cache_stats()["hits"] >= 1
        assert r1.cycles == r2.cycles
        np.testing.assert_array_equal(b1.outputs(), b2.outputs())

    def test_verifier_runs_on_plan_misses_only(self, verifier_calls):
        built_tiny().run(scheduler="compiled")
        assert verifier_calls == ["tiny"]  # a miss verifies once
        built_tiny().run(scheduler="compiled")
        assert verifier_calls == ["tiny"]  # a hit does not verify
        assert plan_cache_stats() == {"plans": 1, "hits": 1, "misses": 1}

    def test_failing_design_is_verified_on_every_attempt(
        self, verifier_calls
    ):
        # A failing design leaves nothing in the cache: it is verified,
        # and refused the same way, on every attempt.
        design = ii_inconsistent_design()
        refusals = []
        for _ in range(2):
            built = build_network(
                design, random_weights(design, seed=1),
                np.zeros((2, 1, 8, 8), np.float32),
            )
            with pytest.raises(
                CompilationError, match="static verification"
            ) as err:
                CompiledEngine(built.graph.build_simulator())
            refusals.append(str(err.value))
        assert refusals[0] == refusals[1]
        assert verifier_calls == [design.name, design.name]
        assert plan_cache_stats()["plans"] == 0

    def test_weights_do_not_affect_the_plan(self):
        design = tiny_design()
        rng = np.random.default_rng(0)
        images = rng.uniform(-1, 1, (2, 1, 8, 8)).astype(np.float32)
        build_network(design, random_weights(design, seed=1), images).run(
            scheduler="compiled"
        )
        build_network(design, random_weights(design, seed=2), images).run(
            scheduler="compiled"
        )
        assert plan_cache_stats()["plans"] == 1


class TestPlanCacheUnit:
    def _plan(self):
        # Any frozen payload works; the cache never inspects the plan.
        return CompiledPlan(schedule=None, in_ports={}, out_ports={})

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_lru_eviction_order(self):
        cache = PlanCache(maxsize=2)
        k = [plan_key(f"sha256:{i}", 8, 1, 0, 0) for i in range(3)]
        cache.put_plan(k[0], self._plan())
        cache.put_plan(k[1], self._plan())
        assert cache.get_plan(k[0]) is not None  # refresh k0
        cache.put_plan(k[2], self._plan())  # evicts k1, not k0
        assert cache.get_plan(k[1]) is None
        assert cache.get_plan(k[0]) is not None
        assert cache.get_plan(k[2]) is not None

    def test_stats_counters(self):
        cache = PlanCache()
        key = plan_key("sha256:x", 8, 1, 0, 0)
        assert cache.get_plan(key) is None
        cache.put_plan(key, self._plan())
        assert cache.get_plan(key) is not None
        assert cache.stats() == {"plans": 1, "hits": 1, "misses": 1}

    def test_clear_resets_everything(self):
        cache = PlanCache()
        key = plan_key("sha256:x", 8, 1, 0, 0)
        cache.put_plan(key, self._plan())
        assert cache.get_plan(key) is not None
        cache.clear()
        assert cache.stats() == {"plans": 0, "hits": 0, "misses": 0}

    def test_global_cache_is_shared(self):
        built_tiny().run(scheduler="compiled")
        assert GLOBAL_PLAN_CACHE.stats() == plan_cache_stats()
