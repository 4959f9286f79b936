"""The live asyncio server: concurrent submits, batching, TCP front-end.

No pytest-asyncio in the environment: each test drives its own event
loop with ``asyncio.run``. The inline fleet keeps everything
in-process; batching behaviour is steered with explicit target/wait
knobs rather than timing luck.
"""

import asyncio
import json

import pytest

from repro.core import cifar10_design, tiny_design, usps_design
from repro.errors import ConfigurationError
from repro.serve import InferenceServer, serve_tcp, single_shot_digests
from repro.serve.admission import admission_config


def make_server(design, **kw):
    kw.setdefault("replicas", 2)
    kw.setdefault("mode", "inline")
    kw.setdefault("seed", 4)
    return InferenceServer(design, **kw)


class TestSubmit:
    def test_concurrent_submits_batch_and_match_single_shot(self):
        design = usps_design()

        async def main():
            async with make_server(design, target_batch=4,
                                   max_wait_s=0.25) as server:
                return await asyncio.gather(
                    *(server.submit(i) for i in range(8))
                )

        results = asyncio.run(main())
        refs = single_shot_digests(design, 4, list(range(8)))
        for r in results:
            assert r["digest"] == refs[r["request"]]
        # Admission coalesced: strictly fewer batches than requests.
        assert max(r["batch"] for r in results) >= 4

    def test_lone_request_released_by_deadline(self):
        async def main():
            async with make_server(tiny_design(), target_batch=8,
                                   max_wait_s=0.01) as server:
                return await server.submit(0)

        r = asyncio.run(main())
        assert r["batch"] == 1
        assert r["queue_us"] >= 0.01 * 1e6 * 0.5  # waited for the deadline

    def test_response_carries_timing_fields(self):
        async def main():
            async with make_server(tiny_design(), target_batch=1) as server:
                return await server.submit(3)

        r = asyncio.run(main())
        assert {"request", "digest", "batch", "replica", "scheduler",
                "cycles", "queue_us", "service_us"} <= set(r)
        assert r["scheduler"] == "compiled"
        assert r["cycles"] > 0 and r["service_us"] > 0

    def test_stats_track_served(self):
        async def main():
            async with make_server(tiny_design(), target_batch=2) as server:
                await asyncio.gather(*(server.submit(i) for i in range(4)))
                return server.stats()

        stats = asyncio.run(main())
        assert stats["served"] == 4
        assert stats["queued"] == 0
        assert stats["batches"] >= 1

    def test_submit_before_start_rejected(self):
        server = make_server(tiny_design())

        async def main():
            await server.submit(0)

        with pytest.raises(ConfigurationError, match="not started"):
            asyncio.run(main())

    def test_knob_validation(self):
        with pytest.raises(ConfigurationError):
            make_server(tiny_design(), max_wait_s=0.0)
        with pytest.raises(ConfigurationError):
            make_server(tiny_design(), target_batch=8, max_batch=4)


    @pytest.mark.parametrize("design", [tiny_design, usps_design, cifar10_design])
    @pytest.mark.parametrize("max_batch", [None, 4])
    def test_admission_is_the_loadtests(self, design, max_batch):
        # `repro serve --max-batch 4` used to raise on every preset (knees
        # 55 / 25 / 6) where `repro loadtest --max-batch 4` clamped the target.
        server = make_server(design(), max_batch=max_batch)
        cfg = admission_config(design(), max_batch=max_batch)
        assert (server.target_batch, server.max_batch) == (
            cfg.target_batch, cfg.max_batch
        )
        if max_batch:
            assert server.target_batch == 4


class TestTcp:
    def test_json_lines_round_trip(self):
        design = tiny_design()

        async def main():
            async with make_server(design, target_batch=1) as server:
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(b'{"index": 5, "id": "req-5"}\n')
                writer.write(b'not json\n')
                writer.write(b'{"nope": 1}\n')
                writer.write(b'{"cmd": "stats"}\n')
                await writer.drain()
                lines = [json.loads(await reader.readline())
                         for _ in range(4)]
                writer.close()
                tcp.close()
                await tcp.wait_closed()
                return lines

        ok, bad, missing, stats = asyncio.run(main())
        assert ok["id"] == "req-5" and ok["request"] == 5
        refs = single_shot_digests(design, 4, [5])
        assert ok["digest"] == refs[5]
        assert "bad json" in bad["error"]
        assert "index" in missing["error"]
        assert stats["served"] == 1
