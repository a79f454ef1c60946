"""The benchmark's workloads: ``corpus``, ``translate`` and ``serve``.

Each runs in one process, with its load coming from one generator and its
inputs from the seed alone; README.md says why each exists.  A workload's
constructor is its set-up and :meth:`measure` runs one timed pass.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import functools
import gc
import math
import multiprocessing
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import oracle
from layers import API_FAMILY, LayerTracer
from stats import Tally, nearest_rank

#: corpus runs are pinned to the top of the tier demotion ladder
#: ``vector -> compiled -> interp``, not left to ``$REPRO_EXEC_TIER``
TOP_TIER = "vector"

#: fewest ops in a timed pass: ten samples beyond the 90th percentile
MIN_OPS = 100

#: a corpus pass makes one sweep per this many seconds asked for (at
#: least one), a fixed amount of work: a process speeds up over its first
#: sweeps, so a count that followed the machine's speed would amplify it
CORPUS_SECONDS_PER_SWEEP = 10.0

#: serve: the one arrival rate, well below what two cores sustain
SERVE_RATE_PER_S = 20.0
SERVE_JOBS_PER_REQUEST = 4
#: a serve pass makes one request per corpus job, each new in one of
#: them, per this many seconds asked for: more requests than the rate
#: fills those seconds with, for a steadier 90th percentile
SERVE_SECONDS_PER_DECK = 3.0
#: share of jobs made new by a nonce comment, so that they miss the cache:
#: one in every request
SERVE_NEW_SHARE = 1 / SERVE_JOBS_PER_REQUEST
#: resident pool width: no more workers than cores, and at most two
SERVE_WORKERS = max(1, min(2, os.cpu_count() or 1))
#: how long closing the service waits for each pool worker to exit
_JOIN_TIMEOUT_S = 30.0


@dataclass
class Measured:
    """One timed pass."""

    tally: Tally
    wall_s: float
    #: per-layer numbers only this workload can measure
    layers: Dict[str, float] = field(default_factory=dict)
    #: modeled-time sums over one sweep (see ``oracle.modeled_sums``)
    modeled: Dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return self.tally.attempted / self.wall_s


def _timed(tally: Tally, what: str, call: Callable[[], Any],
           check: Callable[[Any], str]) -> Tuple[Any, float]:
    """Time ``call()`` as one op, record it with ``check``'s verdict on
    its result, and return ``(result, latency_s)``; ``(None, 0.0)`` when
    the call raised."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception as e:          # a crash fails the op, not the run
        tally.record(time.perf_counter() - start,
                     f"{what}: {type(e).__name__}: {e}")
        return None, 0.0
    latency = time.perf_counter() - start
    problem = check(result)
    tally.record(latency, problem and f"{what}: {problem}")
    return result, latency


def _rounds(items: Sequence[Any], seed: int, seconds: float, tally: Tally,
            op: Callable[[Any], None], rounds: Optional[int] = None
            ) -> float:
    """Closed loop: ``op`` on every item in a seeded order, round after
    round: ``rounds`` of them, or else until ``seconds`` have gone by and
    :data:`MIN_OPS` ops ran.  Only whole rounds run, so every pass runs
    the same mix of ops.  Returns the wall time."""
    rng = random.Random(seed)
    t0 = time.perf_counter()
    done = 0
    while True:
        order = list(items)
        rng.shuffle(order)
        for item in order:
            op(item)
        done += 1
        wall = time.perf_counter() - t0
        if rounds is not None:
            if done == rounds:
                return wall
        elif wall >= seconds and tally.attempted >= MIN_OPS:
            return wall


def _entered(tracer: Optional[LayerTracer]) -> Any:
    return tracer if tracer is not None else contextlib.nullcontext()


def _as_op(tracer: Optional[LayerTracer], name: str,
           fn: Callable[..., Any], *args: Any) -> Callable[[], Any]:
    if tracer is None:
        return functools.partial(fn, *args)
    return functools.partial(tracer.op, name, fn, *args)


class Corpus:
    """Every runnable (app, mode) pair across the four modes, one full
    app run at a time, on ``titan``.  Translated modes pay for their own
    translation (``cache=None``), as a one-shot user does."""

    name = "corpus"

    def __init__(self) -> None:
        from repro.apps.base import all_apps
        from repro.harness import runner
        self._runner = runner
        self.pairs = oracle.corpus_pairs(all_apps())
        self.digests = oracle.load_digests()

    def close(self) -> None:
        pass

    def reference_modeled(self) -> Dict[str, float]:
        """Modeled-time sums of the ``interp`` reference over one sweep."""
        keys = sorted(oracle.pair_key(a, m) for a, m in self.pairs)
        return oracle.modeled_sums(
            [self.digests.get(k, {}).get("breakdown", {}) for k in keys])

    def measure(self, seed: int, seconds: float,
                tracer: Optional[LayerTracer] = None) -> Measured:
        tally = Tally()
        breakdowns: Dict[str, Dict[str, float]] = {}
        sums = {"op_s": 0.0, "sim_s": 0.0, "xfer_bytes": 0}

        def op(pair: Tuple[Any, str]) -> None:
            app, mode = pair
            key = oracle.pair_key(app, mode)
            if tracer is not None:
                tracer.api_family = API_FAMILY[mode]
            result, latency = _timed(
                tally, key,
                _as_op(tracer, mode, oracle.run_pair, self._runner, app,
                       mode, TOP_TIER),
                lambda r: oracle.digest_mismatch(r, self.digests.get(key)))
            if result is not None:
                breakdowns.setdefault(key, result.breakdown)
                sums["op_s"] += latency
                sums["sim_s"] += result.sim_time
                sums["xfer_bytes"] += result.transfer_bytes

        sweeps = max(1, round(seconds / CORPUS_SECONDS_PER_SWEEP))
        with _entered(tracer):
            wall = _rounds(self.pairs, seed, seconds, tally, op, sweeps)
        layers = {"api.xfer.bytes": sums["xfer_bytes"],
                  "host_s_per_modeled_s":
                      sums["op_s"] / sums["sim_s"] if sums["sim_s"] else 0.0}
        modeled = oracle.modeled_sums(
            [breakdowns[k] for k in sorted(breakdowns)])
        return Measured(tally, wall, layers, modeled)


class Translate:
    """Every corpus translation job, in-process and uncached, one at a
    time, as a one-shot user translates."""

    name = "translate"

    def __init__(self) -> None:
        from repro.harness.runner import corpus_jobs
        from repro.translate import api
        self._api = api
        self.jobs = corpus_jobs()
        self.goldens = oracle.load_goldens()

    def close(self) -> None:
        pass

    def reference_modeled(self) -> Dict[str, float]:
        return {}

    def translate(self, job: Any) -> Any:
        # looked up on the module at call time, so a traced pass sees the
        # tracer's wrappers
        if job.direction == "cuda2ocl":
            return self._api.translate_cuda_program(job.source, cache=None)
        return self._api.translate_opencl_program(job.source, job.host_source,
                                                  cache=None)

    def measure(self, seed: int, seconds: float,
                tracer: Optional[LayerTracer] = None) -> Measured:
        tally = Tally()

        def op(job: Any) -> None:
            _timed(tally, f"{job.name} [{job.direction}]",
                   _as_op(tracer, "translate", self.translate, job),
                   lambda r: oracle.golden_mismatch(job.name, job.direction,
                                                    r, self.goldens))

        with _entered(tracer):
            wall = _rounds(self.jobs, seed, seconds, tally, op)
        return Measured(tally, wall)


#: a spinner: the lowest CPU priority there is, so any other runnable
#: thread preempts it at once; it exits when its parent has gone
_SPIN = """
import os
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
print(flush=True)
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


@contextlib.contextmanager
def cores_kept_awake() -> Any:
    """Keep every core busy with an idle-priority spinner.

    Between the requests of an open loop the cores would fall idle, and
    on a virtual machine a core that idles is handed back to the host,
    which takes a varying time to wake it for the next request.  That
    delay measures the host, not the program: it moved ``serve``'s
    median by half from one run to the next.  A spinner under
    ``SCHED_IDLE`` runs only when nothing else can, so it keeps the cores
    without taking time from the service.  Where the policy is missing,
    nothing is started.
    """
    if not hasattr(os, "SCHED_IDLE"):
        yield
        return
    spinners = []
    try:
        for _ in range(os.cpu_count() or 1):
            spinners.append(subprocess.Popen([sys.executable, "-c", _SPIN],
                                             stdout=subprocess.PIPE))
        for proc in spinners:       # each has dropped to idle priority
            proc.stdout.readline()
        yield
    finally:
        for proc in spinners:
            proc.kill()
        for proc in spinners:
            proc.wait()
            proc.stdout.close()


def serve_schedule(jobs: Sequence[Any], seed: int, seconds: float,
                   label: int = 0) -> List[Tuple[float, List[Any]]]:
    """The requests of one ``serve`` pass, as ``(offset_s, jobs)``.

    ``n`` arrivals at :data:`SERVE_RATE_PER_S`, ``n`` a whole number of
    corpus sizes (see :data:`SERVE_SECONDS_PER_DECK`), placed uniformly
    at random over their window: the arrival times of a Poisson process
    with ``n`` events in it, so every pass offers the same load.  A
    request carries :data:`SERVE_JOBS_PER_REQUEST` distinct corpus jobs,
    exactly one of them made new by a nonce comment that changes its
    cache key but not its translation, at a seeded place in the request;
    ``label`` keeps the nonces of two passes in one process apart.  The
    new jobs and the repeated ones are dealt from two seeded shuffles of
    the corpus, so that every job comes up about equally often as either.

    Dealing, rather than drawing each job at random, keeps the mix of a
    few hundred requests from moving the latency percentiles by itself;
    one new job in every request, rather than a random number of them,
    makes every request pay for one translation, so that the median does
    not sit on the step between requests that all hit the cache and
    requests that miss it.
    """
    rng = random.Random(seed)
    # whole decks of new jobs, so every job is new equally often
    n = len(jobs) * max(math.ceil(MIN_OPS / len(jobs)),
                        round(seconds / SERVE_SECONDS_PER_DECK))
    window = n / SERVE_RATE_PER_S
    offsets = sorted(rng.uniform(0.0, window) for _ in range(n))
    decks: Dict[bool, List[Any]] = {True: [], False: []}

    def deal(fresh: bool, batch: List[Any]) -> Any:
        """The top card of ``fresh``'s deck that is not yet in ``batch``;
        a shuffle of the corpus goes under the deck whenever it holds no
        such card."""
        deck = decks[fresh]
        taken = {(j.name, j.direction) for j in batch}
        while True:
            for at in range(len(deck) - 1, -1, -1):
                if (deck[at].name, deck[at].direction) not in taken:
                    return deck.pop(at)
            shuffled = list(jobs)
            rng.shuffle(shuffled)
            deck[:0] = shuffled

    requests = []
    for i, offset in enumerate(offsets):
        batch: List[Any] = []
        new_at = rng.randrange(SERVE_JOBS_PER_REQUEST)
        while len(batch) < SERVE_JOBS_PER_REQUEST:
            k = len(batch)
            job = deal(k == new_at, batch)
            if k == new_at:
                job = dataclasses.replace(
                    job, source=f"{job.source}\n// nonce {seed}.{label}.{i}\n")
            batch.append(job)
        requests.append((offset, batch))
    return requests


class Serve:
    """Open loop against an in-process ``TranslationService``: one
    asyncio generator submits the requests of :func:`serve_schedule`,
    each timed from when it was due.  Set-up starts the service with its
    resident pool and warms the cache with every corpus job once, so the
    repeated jobs read it and the new ones write it."""

    name = "serve"

    def __init__(self) -> None:
        from repro.harness.runner import corpus_jobs
        from repro.observability import Tracer
        from repro.service import (ServiceConfig, ServiceSaturated,
                                   TranslationService)
        self._tracer_cls = Tracer
        self._saturated = ServiceSaturated
        self.jobs = corpus_jobs()
        self.goldens = oracle.load_goldens()
        self._passes = 0
        self._loop = asyncio.new_event_loop()
        self.service = TranslationService(ServiceConfig(
            pool_workers=SERVE_WORKERS, health_port=None))
        self._loop.run_until_complete(self._start())

    async def _start(self) -> None:
        await self.service.start()
        await self.service.submit(self.jobs, client="warmup")

    def close(self) -> None:
        try:
            self._loop.run_until_complete(self.service.stop())
        finally:
            # the pool shuts down without waiting; wait for its workers
            for proc in multiprocessing.active_children():
                proc.join(_JOIN_TIMEOUT_S)
                if proc.is_alive():
                    proc.terminate()
                    proc.join()
            self._loop.close()

    def reference_modeled(self) -> Dict[str, float]:
        return {}

    def measure(self, seed: int, seconds: float,
                tracer: Optional[LayerTracer] = None) -> Measured:
        """One pass.  With ``tracer``, each request carries its own
        ``repro`` tracer, whose ``service:request`` span gives the queue
        wait and the batch time, and the pass statistics of every fresh
        translation go to ``tracer``; the translations themselves run in
        the pool's worker processes, outside any wrapper."""
        self._passes += 1
        requests = serve_schedule(self.jobs, seed, seconds, self._passes)
        cache0 = self.service.cache.stats
        recycles0 = self.service.pool.recycles
        # every pass starts from a collected heap, so that the collector's
        # pauses, which stall every request in flight, come at the same
        # points of the load in every run
        gc.collect()
        with cores_kept_awake():
            outcomes, lags, wall = self._loop.run_until_complete(
                self._drive(requests, tracer))
        tally = Tally()
        waits: List[float] = []
        rest_s = traced_s = 0.0
        for (latency, problem, refused, span), lag in zip(outcomes, lags):
            tally.record(latency, problem, refused)
            if span is not None:
                wait, batch = span.start_ns / 1e9, span.duration_ns / 1e9
                waits.append(wait)
                rest_s += latency - lag - wait - batch
                traced_s += latency
        cache = self.service.cache.stats
        hits = cache.hits - cache0.hits
        lookups = hits + cache.misses - cache0.misses
        layers = {
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "cache.puts": cache.puts - cache0.puts,
            "cache.evictions": cache.evictions - cache0.evictions,
            "service.queue_wait_ms_p99": nearest_rank(waits, 99) * 1e3,
            "service.rejected": sum(1 for o in outcomes if o[2]),
            "service.pool_recycles": self.service.pool.recycles - recycles0,
            "loadgen.lag_ms_p99": nearest_rank(lags, 99) * 1e3,
        }
        if traced_s:
            layers["trace.unattributed_share"] = rest_s / traced_s
        return Measured(tally, wall, layers)

    async def _drive(self, requests: List[Tuple[float, List[Any]]],
                     tracer: Optional[LayerTracer]
                     ) -> Tuple[List[Tuple[float, str, bool, Any]],
                                List[float], float]:
        loop = asyncio.get_running_loop()
        tasks = []
        lags = []
        t0 = time.monotonic()
        for offset, jobs in requests:
            due = t0 + offset
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(time.monotonic() - due)
            tasks.append(loop.create_task(self._request(due, jobs, tracer)))
        outcomes = await asyncio.gather(*tasks)
        return outcomes, lags, time.monotonic() - t0

    async def _request(self, due: float, jobs: List[Any],
                       tracer: Optional[LayerTracer]
                       ) -> Tuple[float, str, bool, Any]:
        """``(latency_s, problem, refused, service:request span)``."""
        trace = self._tracer_cls() if tracer is not None else None
        try:
            results = await self.service.submit(jobs, client="loadgen",
                                                trace=trace)
        except self._saturated as e:
            return time.monotonic() - due, f"refused: {e}", True, None
        except Exception as e:      # a crash fails the request, not the run
            return (time.monotonic() - due,
                    f"request: {type(e).__name__}: {e}", False, None)
        latency = time.monotonic() - due
        problem = ""
        for job, res in zip(jobs, results):
            if not res.ok:
                problem = f"{res.error_type}: {res.error_message}"
            else:
                problem = oracle.golden_mismatch(job.name, job.direction,
                                                 res.result, self.goldens)
            if problem:
                problem = f"{job.name} [{job.direction}]: {problem}"
                break
            if tracer is not None and not res.cached:
                tracer.add_pass_stats(res.result.pass_stats)
        span = None
        if trace is not None:
            span = next((s for s in trace.finished
                         if s.name == "service:request"), None)
        return latency, problem, False, span


WORKLOADS = {w.name: w for w in (Corpus, Translate, Serve)}
