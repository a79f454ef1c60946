"""Daemon-level tests: submit/serve, fairness, saturation, reload, health.

No pytest-asyncio in the container: every test drives its own event loop
with ``asyncio.run`` from a synchronous test function.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.pipeline.batch import TranslationJob
from repro.pipeline.cache import TranslationCache
from repro.pipeline.faults import FaultPlan
from repro.service import (ServiceClient, ServiceClosed, ServiceConfig,
                           ServiceHandle, ServiceSaturated,
                           TranslationService)

CUDA = """
__global__ void scale(float *x, float a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) x[i] = a * x[i];
}
"""


def _jobs(n, tag="d"):
    return [TranslationJob(name=f"svc/{tag}{i}", direction="cuda2ocl",
                           source=CUDA + f"// {tag}{i}\n")
            for i in range(n)]


def _cfg(**kw):
    base = dict(pool_workers=2, warm_pool=False, health_port=None)
    base.update(kw)
    return ServiceConfig(**base)


async def _fetch(host, port, path):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, body = raw.split(b"\r\n\r\n", 1)
    status = int(head.split()[1])
    return status, json.loads(body)


# -- serving ----------------------------------------------------------------

def test_submit_returns_results_in_job_order_and_warms_cache():
    async def main():
        async with TranslationService(_cfg()) as svc:
            jobs = _jobs(4)
            first = await svc.submit(jobs, client="a")
            assert [r.job.name for r in first] == [j.name for j in jobs]
            assert all(r.ok and not r.cached for r in first)
            again = await svc.submit(jobs, client="b")
            assert all(r.ok and r.cached for r in again)     # cache is shared
            snap = svc.stats_snapshot()
            assert snap["service"]["requests_served"] == 2
            assert snap["cache"]["stats"]["hits"] == 4
            assert snap["admission"]["queued_jobs"] == 0     # fully departed
    asyncio.run(main())


def test_concurrent_clients_all_served():
    async def main():
        async with TranslationService(_cfg(max_concurrent_batches=2)) as svc:
            batches = await asyncio.gather(*(
                svc.submit(_jobs(2, tag=f"c{i}"), client=f"client-{i}")
                for i in range(5)))
            assert all(r.ok for batch in batches for r in batch)
    asyncio.run(main())


def test_round_robin_is_fair_across_clients():
    svc = TranslationService(_cfg())        # never started: pure queue math

    class _Req:                             # lighter than a real _Request
        def __init__(self, client):
            self.client = client
            self.jobs = []

    from collections import deque
    for client, count in (("heavy", 3), ("light", 1), ("mid", 2)):
        svc._queues[client] = deque(_Req(client) for _ in range(count))
        svc._rr.append(client)
    order = []
    while True:
        req = svc._next_request()
        if req is None:
            break
        order.append(req.client)
    # interleaved, not heavy-first
    assert order == ["heavy", "light", "mid", "heavy", "mid", "heavy"]
    assert not svc._queues                  # drained queues are pruned


def test_saturation_rejects_with_retry_hint_then_recovers():
    async def main():
        cfg = _cfg(max_concurrent_batches=1, max_queued_requests=1,
                   max_queued_jobs=4)
        async with TranslationService(cfg) as svc:
            slow = asyncio.create_task(svc.submit(
                _jobs(2, tag="slow"), client="a",
                fault_plan=FaultPlan.parse("hang:svc/slow*:2:1.5")))
            await asyncio.sleep(0.2)        # the hang occupies the slot
            with pytest.raises(ServiceSaturated) as exc:
                await svc.submit(_jobs(1, tag="rej"), client="b")
            assert exc.value.retry_after > 0
            assert all(r.ok for r in await slow)
            # capacity freed: the same request is admitted now
            ok = await svc.submit(_jobs(1, tag="rej"), client="b")
            assert ok[0].ok
            assert svc.admission.rejected == 1
    asyncio.run(main())


def test_stop_fails_queued_requests_and_further_submits():
    async def main():
        cfg = _cfg(max_concurrent_batches=1)
        svc = await TranslationService(cfg).start()
        # 2 jobs -> the pooled path, where the injected hang honors its
        # duration (serial hangs are clamped short by design)
        slow = asyncio.create_task(svc.submit(
            _jobs(2, tag="s"), client="a",
            fault_plan=FaultPlan.parse("hang:svc/s*:2:1.5")))
        queued = asyncio.create_task(svc.submit(_jobs(1, tag="q"),
                                                client="b"))
        await asyncio.sleep(0.2)
        await svc.stop()
        assert all(r.ok for r in await slow)    # in-flight was drained
        with pytest.raises(ServiceClosed):
            await queued                        # queued was failed cleanly
        with pytest.raises(ServiceClosed):
            await svc.submit(_jobs(1), client="late")
    asyncio.run(main())


# -- health endpoint --------------------------------------------------------

def test_health_endpoint_serves_all_routes():
    async def main():
        async with TranslationService(_cfg(health_port=0)) as svc:
            await svc.submit(_jobs(2, tag="h"), client="h")
            host, port = svc.health.address
            status, health = await _fetch(host, port, "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert health["open_circuits"] == []
            status, stats = await _fetch(host, port, "/statsz")
            assert status == 200
            assert stats["service"]["requests_served"] == 1
            assert stats["pool"]["workers"] == 2
            assert "cache.hits{tier=mem}" not in stats["metrics"] \
                or stats["metrics"]["cache.hits{tier=mem}"]["kind"] == "counter"
            status, cfg = await _fetch(host, port, "/configz")
            assert status == 200 and cfg["pool_workers"] == 2
            status, err = await _fetch(host, port, "/nope")
            assert status == 404 and "/healthz" in err["paths"]
    asyncio.run(main())


# -- hot config reload ------------------------------------------------------

def test_hot_reload_applies_live_fields_only(tmp_path):
    async def main():
        path = tmp_path / "svc.json"
        path.write_text(json.dumps({"pool_workers": 2, "warm_pool": False,
                                    "max_queued_jobs": 512}))
        cfg = ServiceConfig.from_file(path).merged(health_port=None)
        async with TranslationService(cfg) as svc:
            assert not svc.maybe_reload_config()     # unchanged mtime
            path.write_text(json.dumps({
                "pool_workers": 7,                   # structural: ignored
                "max_queued_jobs": 3,                # live: applied
                "breaker_threshold": 9}))
            assert svc.maybe_reload_config()
            assert svc.config.max_queued_jobs == 3
            assert svc.config.breaker_threshold == 9
            assert svc.config.pool_workers == 2      # start-time only
            assert svc.admission.max_queued_jobs == 3
            assert svc.breaker.threshold == 9
            assert svc.config_reloads == 1
    asyncio.run(main())


def test_hot_reload_survives_a_bad_config_file(tmp_path):
    async def main():
        path = tmp_path / "svc.json"
        path.write_text(json.dumps({"pool_workers": 2, "warm_pool": False}))
        cfg = ServiceConfig.from_file(path).merged(health_port=None)
        async with TranslationService(cfg) as svc:
            path.write_text('{"max_queued_jobz": 1}')     # typo'd knob
            assert not svc.maybe_reload_config()
            assert svc.config.max_queued_jobs == 512      # unchanged
            assert svc.config_reloads == 0
    asyncio.run(main())


# -- cache ------------------------------------------------------------------

def test_service_builds_one_cache_from_config(tmp_path):
    svc = TranslationService(_cfg(cache_capacity=7, cache_dir=str(tmp_path),
                                  disk_limit_bytes=4096))   # never started
    assert type(svc.cache) is TranslationCache
    assert svc.cache.capacity == 7
    assert svc.cache.cache_dir == tmp_path
    assert svc.cache.disk_tier.limit_bytes == 4096


def test_restarted_service_serves_from_the_disk_cache(tmp_path):
    """A new service over the same cache directory answers from the
    first one's artifacts without translating again."""
    cfg = _cfg(cache_dir=str(tmp_path))
    jobs = _jobs(3, tag="r")

    async def main():
        async with TranslationService(cfg) as svc:
            first = await svc.submit(jobs, client="a")
        async with TranslationService(cfg) as svc:
            again = await svc.submit(jobs, client="a")
            return first, again, svc.cache.stats

    first, again, stats = asyncio.run(main())
    assert all(r.ok and not r.cached for r in first)
    assert all(r.ok and r.cached for r in again)
    assert stats.disk_hits == len(jobs)


# -- clients ----------------------------------------------------------------

def test_service_client_honors_retry_after():
    class StubService:
        def __init__(self):
            self.calls = 0

        async def submit(self, jobs, client, fault_plan=None, trace=None):
            self.calls += 1
            if self.calls < 3:
                raise ServiceSaturated("full", retry_after=0.01)
            return ["done"]

    async def main():
        stub = StubService()
        client = ServiceClient(stub, "c", max_attempts=5)
        assert await client.submit([]) == ["done"]
        assert client.retries == 2 and stub.calls == 3

        exhausted = ServiceClient(StubService(), "c", max_attempts=2)
        with pytest.raises(ServiceSaturated):
            await exhausted.submit([])
    asyncio.run(main())


def test_service_handle_blocking_bridge():
    with ServiceHandle(_cfg()) as handle:
        results = handle.submit(_jobs(2, tag="sync"), client="sync")
        assert all(r.ok for r in results)
        stats = handle.stats()
        assert stats["service"]["requests_served"] == 1
        assert handle.health()["status"] == "ok"
        assert handle.health_address() is None       # no endpoint configured
    with pytest.raises(ServiceClosed):
        handle.submit(_jobs(1))                      # closed handle
