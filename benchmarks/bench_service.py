"""Service load-test bench: corpus replay through the resident daemon.

The service tier exists to amortize what every one-shot ``translate_many``
invocation re-pays: process-pool spin-up and cold caches (ROADMAP item 2).
This bench measures both sides of that trade on the full translation
corpus:

* **cold** — one-shot ``translate_many`` with no cache and a throwaway
  pool, the IPMACC-style tool workflow the service is meant to outgrow;
* **warm** — a resident :class:`~repro.service.ServiceHandle` (persistent
  pool, one cache warmed by one replay round) serving ``CLIENTS``
  concurrent well-behaved clients that replay the corpus in
  ``CHUNK``-job requests for ``ROUNDS`` rounds each, honoring
  ``retry_after`` backpressure on saturation.

Published numbers: cold and warm throughput (jobs/s), warm per-request
p50/p99 latency, and the warm/cold speedup.

CI regression gate::

    PYTHONPATH=src python benchmarks/bench_service.py --smoke

re-measures and fails if warm service throughput is less than
``MIN_SPEEDUP``x cold one-shot throughput, if any replayed job fails or
misses the warmed cache, or if the resident pool had to recycle during a
healthy replay.  Refresh the committed ``benchmarks/BENCH_service.json``
after an intentional change with::

    PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

from repro.harness.runner import corpus_jobs
from repro.pipeline.batch import translate_many
from repro.service import ServiceConfig, ServiceHandle, ServiceSaturated

BASELINE_PATH = Path(__file__).parent / "BENCH_service.json"

#: the acceptance bar (ISSUE 7): a warm resident service must serve the
#: corpus replay at least this many times faster than cold one-shot batches
MIN_SPEEDUP = 5.0

#: concurrent client threads replaying the corpus against the daemon
CLIENTS = 4

#: measured corpus replays per client (after one unmeasured warm round)
ROUNDS = 3

#: jobs per service request — small requests make request latency (and the
#: round-robin fairness between clients) actually mean something
CHUNK = 8

#: cold one-shot runs; the fastest is kept (classic min-of-N timing)
COLD_REPEATS = 3

#: saturation retries allowed per request before the bench gives up
MAX_ATTEMPTS = 16


def _percentile(sorted_vals, q):
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_vals:
        return 0.0
    rank = max(1, -(-len(sorted_vals) * q // 100))       # ceil without math
    return sorted_vals[int(rank) - 1]


def _service_config():
    return ServiceConfig(pool_workers=2, warm_pool=True, health_port=None,
                         max_queued_jobs=2048, max_queued_requests=256,
                         cache_capacity=512)


def measure_cold(jobs):
    """One-shot ``translate_many``: no cache, a fresh pool every call."""
    walls = []
    for _ in range(COLD_REPEATS):
        t0 = time.perf_counter()
        results = translate_many(jobs, cache=None, parallel=True,
                                 max_workers=2)
        walls.append(time.perf_counter() - t0)
        bad = [r.job.name for r in results if not r.ok]
        assert not bad, f"cold corpus run failed: {bad}"
    wall = min(walls)
    return {"wall_s": round(wall, 6),
            "jobs_per_s": round(len(jobs) / wall, 3)}


def measure_warm(jobs):
    """Concurrent corpus replay against a warm resident service."""
    chunks = [jobs[i:i + CHUNK] for i in range(0, len(jobs), CHUNK)]
    latencies = []
    lat_lock = threading.Lock()
    errors = []
    retries = [0]

    def replay(handle, client_id):
        mine = []
        try:
            for _ in range(ROUNDS):
                for chunk in chunks:
                    t0 = time.perf_counter()
                    results = _submit_with_backoff(handle, chunk, client_id,
                                                   retries)
                    mine.append(time.perf_counter() - t0)
                    for r in results:
                        if not r.ok:
                            errors.append(f"{client_id}: {r.job.name} failed")
                        elif not r.cached:
                            errors.append(f"{client_id}: {r.job.name} "
                                          "missed the warmed cache")
        except Exception as e:                           # surface, don't hang
            errors.append(f"{client_id}: {type(e).__name__}: {e}")
        with lat_lock:
            latencies.extend(mine)

    with ServiceHandle(_service_config()) as handle:
        warm0 = time.perf_counter()
        first = handle.submit(jobs, client="warmup")     # populate the cache
        warm_wall = time.perf_counter() - warm0
        assert all(r.ok for r in first), "warmup round failed"

        threads = [threading.Thread(target=replay, args=(handle, f"bench-{i}"),
                                    name=f"bench-{i}")
                   for i in range(CLIENTS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        stats = handle.stats()

    assert not errors, f"warm replay failed: {errors[:5]}"
    total_jobs = CLIENTS * ROUNDS * len(jobs)
    latencies.sort()
    return {"clients": CLIENTS, "rounds": ROUNDS, "chunk_jobs": CHUNK,
            "requests": len(latencies),
            "warmup_wall_s": round(warm_wall, 6),
            "wall_s": round(wall, 6),
            "jobs_per_s": round(total_jobs / wall, 3),
            "p50_ms": round(_percentile(latencies, 50) * 1e3, 3),
            "p99_ms": round(_percentile(latencies, 99) * 1e3, 3),
            "saturation_retries": retries[0],
            "pool_recycles": stats["pool"]["recycles"],
            "cache_hits": stats["cache"]["stats"]["hits"]}


def _submit_with_backoff(handle, chunk, client_id, retries):
    for attempt in range(MAX_ATTEMPTS):
        try:
            return handle.submit(chunk, client=client_id)
        except ServiceSaturated as e:
            if attempt + 1 >= MAX_ATTEMPTS:
                raise
            retries[0] += 1
            time.sleep(e.retry_after)
    raise AssertionError("unreachable")                  # pragma: no cover


def collect():
    jobs = corpus_jobs()
    cold = measure_cold(jobs)
    warm = measure_warm(jobs)
    return {"corpus_jobs": len(jobs), "cold": cold, "warm": warm,
            "speedup": round(warm["jobs_per_s"] / cold["jobs_per_s"], 2)}


def as_baseline(measured):
    return dict({"unit": "jobs/s (corpus replay throughput), ms (latency)",
                 "min_speedup": MIN_SPEEDUP}, **measured)


def _print_table(measured):
    cold, warm = measured["cold"], measured["warm"]
    print(f"  corpus: {measured['corpus_jobs']} jobs | "
          f"{warm['clients']} clients x {warm['rounds']} rounds, "
          f"{warm['chunk_jobs']}-job requests")
    print(f"  {'mode':<14}{'jobs/s':>12}{'p50':>10}{'p99':>10}")
    print(f"  {'cold one-shot':<14}{cold['jobs_per_s']:>12.1f}"
          f"{'-':>10}{'-':>10}")
    print(f"  {'warm service':<14}{warm['jobs_per_s']:>12.1f}"
          f"{warm['p50_ms']:>8.1f}ms{warm['p99_ms']:>8.1f}ms")
    print(f"  speedup: {measured['speedup']:.1f}x "
          f"(gate {MIN_SPEEDUP:.0f}x)")


def _gate(measured):
    """Invariant checks shared by the pytest entry and the smoke gate.
    Returns a list of failure strings (empty = healthy)."""
    failures = []
    warm = measured["warm"]
    if measured["speedup"] < MIN_SPEEDUP:
        failures.append(
            f"warm service only {measured['speedup']:.1f}x cold one-shot "
            f"throughput (gate {MIN_SPEEDUP}x)")
    expect_hits = warm["clients"] * warm["rounds"] * measured["corpus_jobs"]
    if warm["cache_hits"] < expect_hits:
        failures.append(
            f"warm replay missed the cache: {warm['cache_hits']} hits "
            f"< {expect_hits} replayed jobs")
    if warm["pool_recycles"]:
        failures.append(
            f"resident pool recycled {warm['pool_recycles']}x during a "
            "healthy replay")
    return failures


# -- pytest entry ------------------------------------------------------------

def bench_service_replay(benchmark):
    from conftest import regen
    measured = regen(benchmark, collect)
    print()
    _print_table(measured)
    failures = _gate(measured)
    assert not failures, "; ".join(failures)


# -- CLI: baseline writer + smoke gate ---------------------------------------

def _smoke(baseline, measured) -> int:
    failures = _gate(measured)
    base_speedup = baseline.get("speedup")
    if failures:
        print("\nservice smoke gate FAILED:")
        for f in failures:
            print(f"  {f} (baseline had {base_speedup}x)")
        return 1
    print(f"\nservice smoke gate passed ({measured['speedup']:.1f}x >= "
          f"{MIN_SPEEDUP:.0f}x, baseline {base_speedup}x, "
          f"{measured['warm']['requests']} requests, 0 failures)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="compare against the committed baseline instead "
                         "of rewriting it; non-zero exit on regression")
    ap.add_argument("--out", type=Path, default=BASELINE_PATH,
                    help="baseline path (default: benchmarks/BENCH_service.json)")
    args = ap.parse_args(argv)

    measured = collect()
    _print_table(measured)

    if args.smoke:
        if not args.out.exists():
            print(f"no baseline at {args.out}; run without --smoke first")
            return 2
        return _smoke(json.loads(args.out.read_text()), measured)

    args.out.write_text(json.dumps(as_baseline(measured), indent=2) + "\n")
    print(f"baseline written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
