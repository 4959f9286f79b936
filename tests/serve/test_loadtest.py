"""End-to-end loadtest: determinism, digest fidelity, chaos cross-check.

Runs use the inline fleet (one core, no process spawn) except one
process-mode smoke; designs are usps/tiny to keep event-engine probes
cheap.
"""

import pytest

from repro.core import tiny_design, usps_design
from repro.errors import ConfigurationError
from repro.report import SCHEMA_VERSION
from repro.serve import run_loadtest
from repro.serve.report import ServeReport, latency_stats, percentile


def strip_wall(envelope: dict) -> dict:
    """Everything a loadtest reports except host-side wall timings."""
    out = dict(envelope)
    out.pop("wall")
    out.pop("plan_cache")
    return out


class TestEndToEnd:
    def test_report_shape_and_verdict(self):
        rep = run_loadtest(
            usps_design(), requests=16, rate=200000, seed=2,
            replicas=2, mode="inline",
        )
        assert rep.ok, rep.failures
        env = rep.envelope()
        assert env["kind"] == "serve" and env["schema_version"] == SCHEMA_VERSION
        assert env["digests"]["matched"] == 16
        assert env["latency"]["p50_us"] <= env["latency"]["p99_us"]
        assert env["images_per_sec"] > 0
        assert sum(
            size_count[1] * int(size_count[0])
            for size_count in [
                (k, v) for k, v in env["batch_histogram"].items()
            ]
        ) == 16
        assert "measured_per_image" in env["knee"]
        text = rep.format_text()
        assert "serving loadtest" in text and "batch sizes" in text

    def test_deterministic_replay(self):
        # Satellite contract: same seed -> identical arrival schedule,
        # batch composition, latencies, digests. Everything except host
        # wall time must be bit-identical.
        kwargs = dict(
            requests=20, rate=250000, seed=9, replicas=2, mode="inline",
        )
        a = run_loadtest(usps_design(), **kwargs)
        b = run_loadtest(usps_design(), **kwargs)
        assert strip_wall(a.envelope()) == strip_wall(b.envelope())

    def test_seed_changes_the_run(self):
        kwargs = dict(requests=20, rate=250000, replicas=2, mode="inline",
                      probe=False, verify_digests=False)
        a = run_loadtest(usps_design(), seed=1, **kwargs)
        b = run_loadtest(usps_design(), seed=2, **kwargs)
        assert a.envelope()["latency"] != b.envelope()["latency"]

    def test_digest_verification_covers_every_request(self):
        rep = run_loadtest(
            tiny_design(), requests=10, rate=500000, seed=0,
            replicas=2, mode="inline", probe=False,
        )
        assert rep.digests["checked"] == 10
        assert rep.digests["matched"] == 10
        assert rep.digests["mismatched"] == []

    def test_knee_probe_converges(self):
        rep = run_loadtest(
            usps_design(), requests=8, rate=100000, seed=0,
            replicas=1, mode="inline", verify_digests=False,
        )
        assert rep.ok, rep.failures
        assert abs(rep.knee["rel_err"]) <= 0.05

    def test_rejects_zero_requests(self):
        with pytest.raises(ConfigurationError):
            run_loadtest(tiny_design(), requests=0)


class TestChaos:
    def test_throttle_matches_analytical_model(self):
        rep = run_loadtest(
            usps_design(), requests=24, rate=300000, seed=1,
            replicas=2, mode="inline", fault="dma-throttle", probe=False,
        )
        assert rep.ok, rep.failures
        chaos = rep.chaos
        # period=1 preset: the analytical prediction is seed-exact.
        assert chaos["measured_interval"] == chaos["predicted_interval"]
        assert chaos["rel_err"] == 0.0
        assert chaos["predicted_degradation"] > 1.0
        assert rep.scheduler == "compiled+event"

    def test_chaos_inflates_tail_latency(self):
        # Force every replica-0 batch to be substantial so the faulted
        # service time lands in the tail.
        rep = run_loadtest(
            tiny_design(), requests=40, rate=2_000_000, seed=3,
            replicas=1, mode="inline", fault="dma-throttle", probe=False,
        )
        assert rep.chaos["faulted_batches"] >= 1
        assert rep.chaos["p99_ratio"] > 1.0

    def test_clean_run_has_no_chaos_block(self):
        rep = run_loadtest(
            tiny_design(), requests=6, rate=100000, mode="inline",
            probe=False, verify_digests=False,
        )
        assert rep.chaos is None and rep.envelope()["chaos"] is None


class TestProcessModeSmoke:
    def test_process_fleet_matches_inline(self):
        kwargs = dict(
            requests=10, rate=200000, seed=4, replicas=2, probe=False,
        )
        inline = run_loadtest(usps_design(), mode="inline", **kwargs)
        proc = run_loadtest(usps_design(), mode="process", **kwargs)
        assert proc.ok, proc.failures
        assert strip_wall(proc.envelope())["latency"] == (
            strip_wall(inline.envelope())["latency"]
        )
        assert proc.digests == inline.digests


class TestReportHelpers:
    def test_percentile_nearest_rank(self):
        vals = sorted(range(1, 101))
        assert percentile(vals, 50) == 50
        assert percentile(vals, 99) == 99
        assert percentile(vals, 100) == 100
        assert percentile([7.0], 50) == 7.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_latency_stats_keys(self):
        stats = latency_stats([3.0, 1.0, 2.0])
        assert stats["p50_us"] == 2.0
        assert stats["max_us"] == 3.0
        assert set(stats) == {"p50_us", "p95_us", "p99_us", "mean_us",
                              "max_us"}

    def test_report_is_a_report(self):
        rep = run_loadtest(
            tiny_design(), requests=4, rate=100000, mode="inline",
            probe=False, verify_digests=False,
        )
        assert isinstance(rep, ServeReport)
        assert "serve" in rep.summary()
