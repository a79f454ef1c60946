"""The resident translation daemon: asyncio front-end over ``translate_many``.

Every batch entry point before this PR was a *tool*: spawn a process,
spin up a pool, translate, exit — IPMACC-style (PAPERS.md), with the pool
spin-up and cold caches re-paid per invocation.  The ROADMAP's north star
is a *service*: translation requests arrive continuously from many
clients, and the expensive state (worker processes, the translation
cache) stays resident between them.

:class:`TranslationService` is that daemon:

* **submit** — clients await ``submit(jobs, client=...)``; results are
  exactly ``translate_many``'s :class:`~repro.pipeline.batch.JobResult`
  list, byte-identical to a direct call (the differential suite in
  ``tests/service/`` enforces this);
* **admission control** — a bounded queue (requests *and* jobs) that
  rejects at the door with :class:`ServiceSaturated` and a drain-time
  ``retry_after`` hint instead of queueing unboundedly;
* **fairness** — one FIFO per client, served round-robin, so a client
  replaying the whole corpus cannot starve a client translating one app;
* **resident pool** — batches borrow the
  :class:`~repro.service.pool.ResidentPool` executor through
  ``translate_many(pool=...)``; broken/hung pools are recycled, not fatal;
* **circuit breaker** — the PR 3 failure taxonomy feeds a per-target
  :class:`~repro.service.breaker.CircuitBreaker`; targets that keep
  crashing workers or timing out fail fast while sibling jobs proceed;
* **observability** — the PR 4 metrics registry and span tracer are
  exported live over the :class:`~repro.service.health.HealthServer`
  (``/healthz`` / ``/statsz`` / ``/configz``);
* **hot reload** — admission/breaker/fault-isolation knobs reload from
  the JSON config file between batches without a restart.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..observability import Tracer, activate, get_metrics, get_tracer
from ..pipeline.batch import JobResult, TranslationJob, translate_many
from ..pipeline.cache import TranslationCache
from ..pipeline.faults import FaultPlan
from .admission import AdmissionController, ServiceSaturated
from .breaker import CircuitBreaker
from .config import ServiceConfig
from .health import HealthServer
from .pool import ResidentPool

__all__ = ["TranslationService", "ServiceSaturated", "ServiceClosed"]


class ServiceClosed(Exception):
    """The daemon is stopping/stopped; the request was not served."""


#: sentinel for "build the default cache from the config"
_DEFAULT_CACHE = object()


@dataclass
class _Request:
    """One queued client request."""

    client: str
    jobs: List[TranslationJob]
    future: "asyncio.Future[List[JobResult]]"
    fault_plan: Optional[FaultPlan] = None
    trace: Optional[Tracer] = None
    enqueued: float = field(default_factory=time.monotonic)


class TranslationService:
    """See the module docstring.  Lifecycle::

        service = TranslationService(ServiceConfig(health_port=0))
        await service.start()
        results = await service.submit(jobs, client="bench-0")
        await service.stop()

    or ``async with TranslationService(...) as service: ...``.
    """

    def __init__(self, config: Optional[ServiceConfig] = None,
                 cache: Any = _DEFAULT_CACHE) -> None:
        self.config = config or ServiceConfig()
        if cache is _DEFAULT_CACHE:
            self.cache: Optional[TranslationCache] = TranslationCache(
                capacity=self.config.cache_capacity,
                cache_dir=self.config.cache_dir,
                disk_limit_bytes=self.config.disk_limit_bytes)
        else:
            self.cache = cache          # a TranslationCache, or None
        self.pool = ResidentPool(self.config.resolved_pool_workers())
        self.admission = AdmissionController(self.config.max_queued_jobs,
                                             self.config.max_queued_requests)
        self.breaker = CircuitBreaker(self.config.breaker_threshold,
                                      self.config.breaker_cooldown_s)
        self.health: Optional[HealthServer] = None
        self.config_reloads = 0
        self._queues: Dict[str, Deque[_Request]] = {}
        self._rr: Deque[str] = deque()
        self._inflight: Set[asyncio.Future] = set()
        self._requests_served = 0
        self._closing = False
        self._started = False
        self._t0 = time.monotonic()
        self._config_mtime: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._sem: Optional[asyncio.Semaphore] = None
        self._runner = ThreadPoolExecutor(
            max_workers=self.config.max_concurrent_batches,
            thread_name_prefix="svc-batch")
        self.farm = None
        if self.config.farm_enabled:
            from ..farm.fleet import default_fleet
            from ..farm.service import FarmPlanner
            keys = self.config.farm_devices
            self.farm = FarmPlanner(
                fleet=default_fleet(keys=tuple(keys) if keys else None))
        m = get_metrics()
        self._m_requests_ok = m.counter("service.requests", outcome="ok")
        self._m_requests_err = m.counter("service.requests", outcome="error")
        self._m_fastfail_jobs = m.counter("service.jobs", source="fast_fail")
        self._m_live_jobs = m.counter("service.jobs", source="dispatched")
        self._m_reloads = m.counter("service.config_reloads")
        self._h_request_wall = m.histogram("service.request_wall_s")

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "TranslationService":
        if self._started:
            return self
        self._started = True
        self._t0 = time.monotonic()
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._sem = asyncio.Semaphore(self.config.max_concurrent_batches)
        self._config_mtime = self._stat_config()
        if self.config.warm_pool:
            # spin worker processes up off the request path
            await self._loop.run_in_executor(self._runner, self.pool.warm)
        if self.config.health_port is not None:
            self.health = HealthServer(self, self.config.health_host,
                                       self.config.health_port)
            await self.health.start()
        self._dispatcher = self._loop.create_task(self._dispatch_loop())
        return self

    async def stop(self) -> None:
        """Drain in-flight batches, fail queued requests, release pools."""
        if not self._started or self._closing:
            return
        self._closing = True
        if self._wake is not None:
            self._wake.set()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        # everything still queued was admitted but never dispatched
        for queue in self._queues.values():
            for req in queue:
                if not req.future.done():
                    req.future.set_exception(
                        ServiceClosed("service stopped before dispatch"))
                self.admission.depart(len(req.jobs), 0.0)
        self._queues.clear()
        self._rr.clear()
        if self._inflight:
            await asyncio.gather(*self._inflight, return_exceptions=True)
        if self.health is not None:
            await self.health.stop()
        self._runner.shutdown(wait=True)
        self.pool.shutdown()

    async def __aenter__(self) -> "TranslationService":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # -- the front door ------------------------------------------------------

    async def submit(self, jobs: Sequence[TranslationJob],
                     client: str = "default", *,
                     fault_plan: Optional[FaultPlan] = None,
                     trace: Optional[Tracer] = None) -> List[JobResult]:
        """Translate ``jobs`` for ``client``; results in job order.

        Raises :class:`ServiceSaturated` (with ``retry_after``) when
        admission control rejects the request, :class:`ServiceClosed`
        when the daemon is stopping.
        """
        if not self._started or self._closing:
            raise ServiceClosed("service is not running")
        assert self._loop is not None and self._wake is not None
        jobs = list(jobs)
        self.admission.admit(len(jobs))         # may raise ServiceSaturated
        req = _Request(client=client, jobs=jobs,
                       future=self._loop.create_future(),
                       fault_plan=fault_plan, trace=trace)
        if client not in self._queues:
            self._queues[client] = deque()
            self._rr.append(client)
        self._queues[client].append(req)
        self._wake.set()
        return await req.future

    # -- dispatcher ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._loop is not None and self._wake is not None \
            and self._sem is not None
        while not self._closing:
            await self._wake.wait()
            self._wake.clear()
            while not self._closing:
                req = self._next_request()
                if req is None:
                    break
                try:
                    await self._sem.acquire()
                except asyncio.CancelledError:
                    # stop() raced us while we held a popped request:
                    # its future must still resolve
                    if not req.future.done():
                        req.future.set_exception(
                            ServiceClosed("service stopped before dispatch"))
                    self.admission.depart(len(req.jobs), 0.0)
                    raise
                self.maybe_reload_config()
                fut = self._loop.run_in_executor(
                    self._runner, self._run_batch_sync, req)
                self._inflight.add(fut)
                fut.add_done_callback(
                    lambda f, r=req: self._on_batch_done(f, r))

    def _next_request(self) -> Optional[_Request]:
        """Round-robin over client queues: the served client goes to the
        back of the rotation; empty clients leave it."""
        scanned = 0
        limit = len(self._rr)
        while scanned < limit:
            scanned += 1
            client = self._rr.popleft()
            queue = self._queues.get(client)
            if not queue:
                self._queues.pop(client, None)
                continue
            self._rr.append(client)
            return queue.popleft()
        return None

    def _on_batch_done(self, fut: asyncio.Future, req: _Request) -> None:
        self._inflight.discard(fut)
        assert self._sem is not None
        self._sem.release()
        self._requests_served += 1
        exc = fut.exception() if not fut.cancelled() else None
        if req.future.done():
            pass                        # client went away; nothing to do
        elif fut.cancelled():
            req.future.cancel()
        elif exc is not None:
            self._m_requests_err.inc()
            req.future.set_exception(exc)
        else:
            self._m_requests_ok.inc()
            req.future.set_result(fut.result())

    # -- batch execution (runs on a svc-batch thread) ------------------------

    def _run_batch_sync(self, req: _Request) -> List[JobResult]:
        t0 = time.perf_counter()
        tracer = req.trace if req.trace is not None else get_tracer()
        try:
            with activate(tracer), \
                    tracer.span("service:request", client=req.client,
                                jobs=len(req.jobs)) as span:
                results = self._run_batch_guarded(req, span)
            return results
        finally:
            wall = time.perf_counter() - t0
            self._h_request_wall.observe(wall)
            self.admission.depart(len(req.jobs), wall)

    def _run_batch_guarded(self, req: _Request, span: Any) -> List[JobResult]:
        cfg = self.config
        blocked: Dict[int, JobResult] = {}
        live: List[Tuple[int, TranslationJob]] = []
        for idx, job in enumerate(req.jobs):
            if self.breaker.is_open(job.name):
                blocked[idx] = self.breaker.fail_fast(job)
            else:
                live.append((idx, job))
        results: List[Optional[JobResult]] = [None] * len(req.jobs)
        for idx, res in blocked.items():
            results[idx] = res
        if blocked:
            self._m_fastfail_jobs.inc(len(blocked))
        if live:
            self._m_live_jobs.inc(len(live))
            out = translate_many(
                [job for _, job in live], cache=self.cache,
                parallel=True, pool=self.pool,
                max_workers=self.pool.workers,
                timeout=cfg.job_timeout, retries=cfg.job_retries,
                backoff=cfg.job_backoff, fault_plan=req.fault_plan,
                trace=req.trace)
            for (idx, _), res in zip(live, out):
                results[idx] = res
                # only genuinely dispatched outcomes feed the breaker —
                # a fast-fail must not keep its own circuit open
                self.breaker.record(res.job.name, res.ok, res.error_class)
        span.set(ok=sum(1 for r in results if r and r.ok),
                 fast_failed=len(blocked))
        assert all(r is not None for r in results)
        if self.farm is not None:
            # place the batch's translated jobs onto the simulated fleet;
            # a farm problem must never fail the translation request
            try:
                schedule = self.farm.plan(results)
                if schedule is not None:
                    span.set(farm_jobs=len(schedule.placements),
                             farm_makespan_s=schedule.makespan)
            except Exception as e:   # pragma: no cover - defensive
                get_metrics().counter("farm.plan_errors").inc()
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.event("farm-plan-error", error=str(e))
        return results                  # type: ignore[return-value]

    # -- hot config reload ---------------------------------------------------

    def _stat_config(self) -> Optional[int]:
        path = self.config.config_path
        if not path:
            return None
        try:
            return os.stat(path).st_mtime_ns
        except OSError:
            return None

    def maybe_reload_config(self) -> bool:
        """Reload the config file if its mtime moved; True on a reload."""
        path = self.config.config_path
        if not path:
            return False
        mtime = self._stat_config()
        if mtime is None or mtime == self._config_mtime:
            return False
        self._config_mtime = mtime
        try:
            new = ServiceConfig.from_file(path)
        except (ValueError, OSError) as e:
            get_metrics().counter("service.config_reload_errors").inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event("config-reload-error", error=str(e))
            return False
        self.apply_config(new)
        return True

    def apply_config(self, new: ServiceConfig) -> Dict[str, Any]:
        """Apply the hot-reloadable subset of ``new``; returns the delta.

        Structural knobs (pool width, cache geometry, endpoint address)
        are start-time only and silently keep their running values — see
        :data:`repro.service.config.RELOADABLE`.
        """
        delta = self.config.reload_delta(new)
        if not delta:
            return delta
        self.config = self.config.merged(**delta)
        self.admission.configure(self.config.max_queued_jobs,
                                 self.config.max_queued_requests)
        self.breaker.configure(self.config.breaker_threshold,
                               self.config.breaker_cooldown_s)
        self.config_reloads += 1
        self._m_reloads.inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("config-reload", **{k: str(v)
                                             for k, v in delta.items()})
        return delta

    # -- introspection (feeds the health endpoint) ---------------------------

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._t0

    def queued_requests(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def health_snapshot(self) -> Dict[str, Any]:
        """The ``/healthz`` verdict: cheap, no metrics dump."""
        open_circuits = self.breaker.open_targets()
        degraded = bool(open_circuits) or self._closing
        return {"status": "degraded" if degraded else "ok",
                "uptime_s": round(self.uptime_s, 3),
                "queued_requests": self.queued_requests(),
                "inflight_batches": len(self._inflight),
                "open_circuits": open_circuits,
                "pool": self.pool.snapshot()}

    def stats_snapshot(self) -> Dict[str, Any]:
        """The ``/statsz`` dump: everything the PR 4 observability layer
        knows, plus service-local state."""
        cache_stats: Dict[str, Any] = {}
        if self.cache is not None:
            cache_stats = {"stats": self.cache.stats.as_dict(),
                           "entries": len(self.cache)}
            tier = self.cache.disk_tier
            if tier is not None:
                cache_stats["disk"] = tier.snapshot()
        return {"service": {"uptime_s": round(self.uptime_s, 3),
                            "requests_served": self._requests_served,
                            "queued_requests": self.queued_requests(),
                            "inflight_batches": len(self._inflight),
                            "clients": sorted(self._queues),
                            "config_reloads": self.config_reloads},
                "pool": self.pool.snapshot(),
                "admission": self.admission.snapshot(),
                "breaker": self.breaker.snapshot(),
                "cache": cache_stats,
                "farm": (self.farm.snapshot()
                         if self.farm is not None else None),
                "metrics": get_metrics().snapshot()}
