"""The benchmark's own tests: the output oracles, the percentile rule,
failure accounting, the seeded schedule and the metric declarations.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import repo  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from stats import Tally  # noqa: E402

repo.bootstrap()


# -- the percentile rule ------------------------------------------------------

@pytest.mark.parametrize("n,q,reportable", [
    (192, 90, True),        # one corpus sweep: 19 samples beyond p90
    (192, 99, False),       # ... but only 1 beyond p99
    (100, 90, True),        # exactly ten beyond
    (99, 90, False),        # nine beyond
    (1000, 99, True),
    (999, 99, False),
    (0, 50, False),
])
def test_percentile_needs_ten_samples_beyond(n, q, reportable):
    samples = [float(i) for i in range(n)]
    assert (stats.percentile(samples, q) is not None) == reportable
    assert (stats.beyond(n, q) >= stats.MIN_BEYOND) == reportable


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(200, 0, -1)]
    assert stats.percentile(samples, 50) == 100.0
    assert stats.percentile(samples, 90) == 180.0
    assert stats.nearest_rank([], 99) == 0.0


# -- failure accounting -------------------------------------------------------

def test_tally_counts_failures_against_attempts():
    t = Tally()
    for _ in range(7):
        t.record(0.001)
    t.record(0.002, "app:mode: stdout_sha256 differs")
    t.record(0.003, "refused: saturated", refused=True)
    t.record(0.004, "ValueError: boom")
    assert (t.attempted, t.failed, t.wrong) == (10, 3, 2)
    assert t.failed_share == pytest.approx(0.3)
    assert len(t.reasons) == 3
    assert Tally().failed_share == 0.0


def test_failed_ops_miss_every_latency_limit():
    t = Tally()
    for i in range(100):
        t.record(0.001 * (i + 1), "refused" if i < 15 else "", refused=True)
    # fifteen infinite latencies sit beyond the 90th percentile
    assert math.isinf(t.latency_ms(90))
    assert t.latency_ms(50) == pytest.approx(65.0)


# -- corpus oracle ------------------------------------------------------------

def _fake_run(**changes):
    fields = dict(exit_code=0, ok=True, sim_time=1.25e-4, api_calls=12,
                  kernel_launches=2, transfer_ops=3, transfer_bytes=4096,
                  stdout="PASSED\n",
                  breakdown={"kernel": 1e-4, "api": 2.5e-5, "build": 3e-4})
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_digest_survives_json_bit_for_bit():
    ref = json.loads(json.dumps(oracle.digest(_fake_run())))
    assert oracle.digest_mismatch(_fake_run(), ref) == ""
    assert oracle.digest_mismatch(_fake_run(), None) == "no reference digest"


@pytest.mark.parametrize("changes,field", [
    ({"stdout": "FAILED\n"}, "stdout_sha256"),
    ({"exit_code": 1}, "exit_code"),
    ({"sim_time": math.nextafter(1.25e-4, 1.0)}, "sim_time"),
    ({"breakdown": {"kernel": 1e-4, "api": 2.5e-5}}, "breakdown"),
    ({"api_calls": 13}, "api_calls"),
    ({"transfer_bytes": 4097}, "transfer_bytes"),
])
def test_digest_catches_any_drift(changes, field):
    ref = oracle.digest(_fake_run())
    assert oracle.digest_mismatch(_fake_run(**changes), ref).startswith(field)


def test_modeled_sums_are_order_fixed():
    bds = [{"kernel": 0.1, "api": 1e-6}, {"kernel": 0.2, "transfer": 3e-5}]
    assert oracle.modeled_sums(bds) == {"api": 1e-6, "kernel": 0.1 + 0.2,
                                        "transfer": 3e-5}


def test_every_corpus_pair_has_a_reference_digest():
    from repro.apps.base import all_apps
    digests = oracle.load_digests()
    keys = {oracle.pair_key(a, m) for a, m in oracle.corpus_pairs(all_apps())}
    assert keys == set(digests)
    assert {k.rsplit(":", 1)[1] for k in keys} == set(oracle.MODES)


def test_a_vector_tier_run_matches_its_interp_digest():
    from repro.apps.base import get_app
    from repro.harness import runner
    app = get_app("toolkit", "oclVectorAdd")
    digests = oracle.load_digests()
    for mode in ("ocl-native", "ocl2cuda"):
        result = oracle.run_pair(runner, app, mode, "vector")
        assert oracle.digest_mismatch(
            result, digests[oracle.pair_key(app, mode)]) == ""


# -- translation oracle -------------------------------------------------------

def test_goldens_cover_every_corpus_job():
    from repro.harness.runner import corpus_jobs
    goldens = oracle.load_goldens()
    assert {(j.name, j.direction) for j in corpus_jobs()} == set(goldens)


def test_golden_check_accepts_the_translator_and_rejects_drift():
    from repro.harness.runner import corpus_jobs
    from repro.translate.api import translate_opencl_program
    goldens = oracle.load_goldens()
    job = next(j for j in corpus_jobs() if j.direction == "ocl2cuda")
    result = translate_opencl_program(job.source, job.host_source)
    assert oracle.golden_mismatch(job.name, job.direction, result,
                                  goldens) == ""
    drifted = SimpleNamespace(cuda_source=result.cuda_source + " ")
    assert "device_source" in oracle.golden_mismatch(
        job.name, job.direction, drifted, goldens)
    assert oracle.golden_mismatch("nowhere/app", "ocl2cuda", result,
                                  goldens) == "no golden translation"


# -- serve schedule -----------------------------------------------------------

def test_serve_schedule_is_seeded_and_open_loop():
    from repro.harness.runner import corpus_jobs
    from workloads import (SERVE_JOBS_PER_REQUEST, SERVE_NEW_SHARE,
                           SERVE_RATE_PER_S, serve_schedule)
    jobs = corpus_jobs()
    a = serve_schedule(jobs, seed=7, seconds=10)
    assert a == serve_schedule(jobs, seed=7, seconds=10)
    assert a != serve_schedule(jobs, seed=8, seconds=10)
    # whole decks of new jobs, one per 3 s asked for
    assert len(a) == 3 * len(jobs)
    window = len(a) / SERVE_RATE_PER_S
    offsets = [o for o, _ in a]
    assert offsets == sorted(offsets)
    assert 0 <= offsets[0] < offsets[-1] < window
    new: dict = {}
    repeated: dict = {}
    for _, batch in a:
        assert len({(j.name, j.direction) for j in batch}) == \
            SERVE_JOBS_PER_REQUEST
        fresh = [j for j in batch if "// nonce" in j.source]
        assert len(fresh) == 1
        for j in batch:
            seen = new if j in fresh else repeated
            seen[(j.name, j.direction)] = seen.get((j.name, j.direction),
                                                   0) + 1
    assert sum(new.values()) == SERVE_NEW_SHARE * len(a) * \
        SERVE_JOBS_PER_REQUEST
    # every job is new exactly three times; the 837 repeats are dealt from
    # shuffles of 93, every job 9 times, give or take the few pushed to
    # the next shuffle to keep requests distinct
    assert set(new.values()) == {3} and len(new) == len(jobs)
    assert len(repeated) == len(jobs)
    assert max(repeated.values()) - min(repeated.values()) <= 3
    # a second pass in the same process: the same load, other nonces
    b = serve_schedule(jobs, seed=7, seconds=10, label=2)
    assert [o for o, _ in b] == offsets
    assert [j.key() for _, x in a for j in x] != \
        [j.key() for _, x in b for j in x]


def test_serve_schedule_deals_distinct_jobs_from_a_small_corpus():
    # a deck whose last cards are all in the request already must not
    # stall the dealing
    from repro.harness.runner import corpus_jobs
    from workloads import SERVE_JOBS_PER_REQUEST, serve_schedule
    jobs = corpus_jobs()[:SERVE_JOBS_PER_REQUEST + 1]
    for seed in range(20):
        for _, batch in serve_schedule(jobs, seed=seed, seconds=1):
            assert len({(j.name, j.direction) for j in batch}) == \
                SERVE_JOBS_PER_REQUEST


def test_spinners_run_only_inside_the_pass(monkeypatch):
    import os
    import subprocess
    import workloads
    if not hasattr(os, "SCHED_IDLE"):
        pytest.skip("no SCHED_IDLE here")
    started = []
    popen = subprocess.Popen

    def record(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(workloads.subprocess, "Popen", record)
    with workloads.cores_kept_awake():
        assert started and all(p.poll() is None for p in started)
    assert all(p.returncode is not None for p in started)


def test_nonce_jobs_translate_to_their_golden():
    from repro.harness.runner import corpus_jobs
    from repro.translate.api import translate_cuda_program
    goldens = oracle.load_goldens()
    job = next(j for j in corpus_jobs() if j.direction == "cuda2ocl")
    new = dataclasses.replace(job, source=job.source + "\n// nonce 1.1.1.1\n")
    assert new.key() != job.key()
    assert oracle.golden_mismatch(job.name, job.direction,
                                  translate_cuda_program(new.source),
                                  goldens) == ""


# -- declarations ---------------------------------------------------------------

def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == \
        [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == \
        ["corpus", "translate", "serve"]


def test_every_registered_pass_is_declared():
    from repro.harness.runner import corpus_jobs
    from repro.translate.api import (translate_cuda_program,
                                     translate_opencl_program)
    seen = set()
    for job in corpus_jobs():
        result = (translate_cuda_program(job.source)
                  if job.direction == "cuda2ocl"
                  else translate_opencl_program(job.source, job.host_source))
        seen |= {p.name for p in result.pass_stats.passes}
    assert seen == set(run.PASS_NAMES)
