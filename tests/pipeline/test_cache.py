"""Unit tests for the content-addressed translation cache.

A hypothesis property checks the memory tier against an ``OrderedDict``
LRU reference model.  The concurrent storms at the end are seeded (``random.Random(seed)``) so
a failure reproduces: many threads share one cache, as the translation
service's batch threads do.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import get_app
from repro.device.specs import GTX_TITAN, HD7970
from repro.pipeline.cache import (CacheStats, TranslationCache, cache_key,
                                  result_sources)
from repro.translate.api import (translate_cuda_program,
                                 translate_opencl_program)

SRC = "__global__ void k(float* a) { a[threadIdx.x] = 1.0f; }"


# -- keying -----------------------------------------------------------------

def test_key_is_stable_and_content_addressed():
    k1 = cache_key(SRC, "cuda", {"N": "4"}, "GeForce GTX Titan")
    k2 = cache_key(SRC, "cuda", {"N": "4"}, "GeForce GTX Titan")
    assert k1 == k2 and len(k1) == 64


@pytest.mark.parametrize("other", [
    cache_key(SRC + " ", "cuda", {"N": "4"}, "GeForce GTX Titan"),
    cache_key(SRC, "opencl", {"N": "4"}, "GeForce GTX Titan"),
    cache_key(SRC, "cuda", {"N": "8"}, "GeForce GTX Titan"),
    cache_key(SRC, "cuda", None, "GeForce GTX Titan"),
    cache_key(SRC, "cuda", {"N": "4"}, "AMD Radeon HD7970"),
], ids=["source", "dialect", "define-value", "defines-absent", "spec"])
def test_key_sensitive_to_every_component(other):
    assert other != cache_key(SRC, "cuda", {"N": "4"}, "GeForce GTX Titan")


def test_key_ignores_define_ordering():
    a = cache_key(SRC, "cuda", {"A": "1", "B": "2"}, "t")
    b = cache_key(SRC, "cuda", {"B": "2", "A": "1"}, "t")
    assert a == b


# -- LRU + counters ---------------------------------------------------------

def test_lru_eviction_and_counters():
    c = TranslationCache(capacity=2)
    c.put("k1", "r1")
    c.put("k2", "r2")
    assert c.get("k1") == "r1"       # k1 becomes most-recent
    c.put("k3", "r3")                # evicts k2
    assert c.get("k2") is None
    assert c.get("k1") == "r1" and c.get("k3") == "r3"
    assert c.stats.evictions == 1
    assert c.stats.hits == 3 and c.stats.misses == 1
    assert c.stats.puts == 3
    assert 0.0 < c.stats.hit_rate < 1.0


def test_stats_is_a_snapshot():
    """Two reads of ``stats`` give the counts between them."""
    c = TranslationCache(capacity=2)
    before = c.stats
    c.put("k1", "r1")
    assert c.get("k1") == "r1" and c.get("k2") is None
    after = c.stats
    assert (before.puts, before.hits, before.misses) == (0, 0, 0)
    assert (after.puts, after.hits, after.misses) == (1, 1, 1)


MODEL_KEYS = [cache_key(f"__global__ void k{i}(int *p) {{}}", "cuda", None,
                        "spec") for i in range(20)]

OPS = st.lists(st.tuples(st.sampled_from(["put", "get", "inv", "has"]),
                         st.integers(min_value=0,
                                     max_value=len(MODEL_KEYS) - 1)),
               max_size=80)


@pytest.mark.parametrize("capacity", [3, 256], ids=["evicting", "roomy"])
@settings(deadline=None, max_examples=60)
@given(ops=OPS)
def test_matches_lru_reference_model(capacity, ops):
    """Every get/contains/invalidate answer, the LRU order and every
    counter match a plain ``OrderedDict`` LRU, with and without capacity
    pressure."""
    cache = TranslationCache(capacity=capacity)
    model: "OrderedDict[str, str]" = OrderedDict()
    want = CacheStats()
    for n, (op, i) in enumerate(ops):
        k = MODEL_KEYS[i]
        if op == "put":
            cache.put(k, f"v{i}.{n}")
            model[k] = f"v{i}.{n}"
            model.move_to_end(k)
            want.puts += 1
            while len(model) > capacity:
                model.popitem(last=False)
                want.evictions += 1
        elif op == "get":
            expect = model.get(k)
            if expect is None:
                want.misses += 1
            else:
                model.move_to_end(k)
                want.hits += 1
            assert cache.get(k) == expect
        elif op == "inv":
            expect = model.pop(k, None) is not None
            want.invalidations += expect
            assert cache.invalidate(k) is expect
        else:
            assert (k in cache) == (k in model)
    assert list(cache.keys()) == list(model)
    assert cache.stats == want


def test_invalidate_and_clear():
    c = TranslationCache()
    c.put("k", "r")
    assert "k" in c and len(c) == 1
    assert c.invalidate("k") is True
    assert c.invalidate("k") is False
    assert c.get("k") is None
    c.put("k2", "r2")
    c.clear()
    assert len(c) == 0


def test_get_or_translate_runs_thunk_once():
    c = TranslationCache()
    calls = []

    def thunk():
        calls.append(1)
        return "result"

    assert c.get_or_translate("k", thunk) == "result"
    assert c.get_or_translate("k", thunk) == "result"
    assert len(calls) == 1


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        TranslationCache(capacity=0)


# -- disk tier --------------------------------------------------------------

def test_disk_roundtrip_and_promotion(tmp_path):
    app = get_app("rodinia", "bfs")
    prog = translate_cuda_program(app.cuda_source)
    key = cache_key(app.cuda_source, "cuda", None, GTX_TITAN.name)

    c1 = TranslationCache(cache_dir=tmp_path)
    c1.put(key, prog, meta={"name": "bfs"})
    assert c1.stats.disk_writes == 1

    c2 = TranslationCache(cache_dir=tmp_path)   # fresh memory tier
    restored = c2.get(key)
    assert restored is not None
    assert c2.stats.disk_hits == 1
    assert restored.host_source == prog.host_source
    assert restored.device_source == prog.device_source
    # promoted to memory: second get is a pure memory hit
    c2.get(key)
    assert c2.stats.disk_hits == 1 and c2.stats.hits == 2


def test_disk_artifact_is_readable_json_with_sources(tmp_path):
    app = get_app("rodinia", "bfs")
    prog = translate_cuda_program(app.cuda_source)
    key = cache_key(app.cuda_source, "cuda", None, GTX_TITAN.name)
    TranslationCache(cache_dir=tmp_path).put(key, prog, meta={"name": "bfs"})
    (artifact_path,) = tmp_path.glob("*/*.json")
    artifact = json.loads(artifact_path.read_text())
    assert artifact["key"] == key
    assert artifact["meta"]["name"] == "bfs"
    # per-pass timings travel with the artifact (see TranslationCache.put)
    stats = artifact["meta"]["pass_stats"]
    assert stats["pipeline"] == "cuda2ocl-program"
    assert [p["name"] for p in stats["passes"]][:2] == [
        "translatability-check", "parse"]
    assert all(p["wall_s"] >= 0 for p in stats["passes"])
    assert artifact["host_source"] == prog.host_source
    assert artifact["device_source"] == prog.device_source


def test_disk_artifacts_are_byte_identical_across_caches(tmp_path):
    """An artifact is a pure function of key, result and meta: two caches
    over different directories write it at the same relative path with
    the same bytes."""
    app = get_app("rodinia", "bfs")
    prog = translate_cuda_program(app.cuda_source)
    key = cache_key(app.cuda_source, "cuda", None, GTX_TITAN.name)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    TranslationCache(cache_dir=dir_a).put(key, prog, meta={"name": "bfs"})
    TranslationCache(cache_dir=dir_b).put(key, prog, meta={"name": "bfs"})
    (art_a,) = dir_a.glob("*/*.json")
    (art_b,) = dir_b.glob("*/*.json")
    assert art_a.relative_to(dir_a) == art_b.relative_to(dir_b)
    assert art_a.read_bytes() == art_b.read_bytes()


def test_caches_over_one_directory_share_the_disk_tier(tmp_path):
    """Caches over one directory see each other's commits and
    invalidations through the disk tier."""
    c1 = TranslationCache(cache_dir=tmp_path)
    for i, k in enumerate(MODEL_KEYS):
        c1.put(k, f"v{i}")
    c2 = TranslationCache(cache_dir=tmp_path)
    assert all(c2.get(k) == f"v{i}" for i, k in enumerate(MODEL_KEYS))
    assert c2.stats.disk_hits == len(MODEL_KEYS)
    assert c2.invalidate(MODEL_KEYS[0]) is True
    c3 = TranslationCache(cache_dir=tmp_path)
    assert c3.get(MODEL_KEYS[0]) is None
    assert c3.get(MODEL_KEYS[1]) == "v1"


def test_corrupted_artifact_is_a_miss_and_removed(tmp_path):
    c = TranslationCache(cache_dir=tmp_path)
    c.put("deadbeef", "payload")
    (path,) = tmp_path.glob("*/*.json")
    path.write_text("{not json")
    c2 = TranslationCache(cache_dir=tmp_path)
    assert c2.get("deadbeef") is None
    assert not path.exists()


def test_tampered_payload_is_rejected(tmp_path):
    c = TranslationCache(cache_dir=tmp_path)
    app = get_app("rodinia", "bfs")
    prog = translate_cuda_program(app.cuda_source)
    c.put("cafebabe", prog)
    (path,) = tmp_path.glob("*/*.json")
    artifact = json.loads(path.read_text())
    artifact["device_source"] = "tampered"   # payload no longer matches
    path.write_text(json.dumps(artifact))
    c2 = TranslationCache(cache_dir=tmp_path)
    assert c2.get("cafebabe") is None


def test_contains_sees_disk_tier_without_touching_lru_or_stats(tmp_path):
    # __contains__ used to read only the memory tier (unlocked): a key
    # resident on disk looked absent, and probing it perturbed nothing
    # observable — keep it a pure existence check over both tiers
    c1 = TranslationCache(cache_dir=tmp_path)
    c1.put("deadbeef", "payload")

    c2 = TranslationCache(cache_dir=tmp_path)   # cold memory tier
    assert "deadbeef" in c2
    assert "feedface" not in c2
    assert c2.stats.lookups == 0 and c2.stats.hits == 0
    assert len(c2) == 0                          # not promoted to memory


def test_contains_does_not_disturb_lru_order():
    c = TranslationCache(capacity=2)
    c.put("k1", "r1")
    c.put("k2", "r2")
    assert "k1" in c                 # must NOT refresh k1's recency
    c.put("k3", "r3")                # so k1 is still the eviction victim
    assert c.get("k1") is None and c.get("k2") == "r2"


def test_clear_disk_reaps_orphaned_tmp_files(tmp_path):
    # a crash between the .tmp write and the atomic rename leaves debris
    # that clear(disk=True) used to miss
    c = TranslationCache(cache_dir=tmp_path)
    c.put("deadbeef", "payload")
    stray = tmp_path / "de" / "deadbeef.tmp"
    stray.write_text("{half-written", encoding="utf-8")
    assert c.get("deadbeef") == "payload"        # .tmp never shadows .json
    c.clear(disk=True)
    assert not stray.exists()
    assert not list(tmp_path.glob("*/*.json"))
    c2 = TranslationCache(cache_dir=tmp_path)
    assert c2.get("deadbeef") is None


def test_invalidate_removes_disk_artifact(tmp_path):
    c = TranslationCache(cache_dir=tmp_path)
    c.put("k", "r")
    assert list(tmp_path.glob("*/*.json"))
    assert c.invalidate("k") is True
    assert not list(tmp_path.glob("*/*.json"))


# -- api-level integration --------------------------------------------------

def test_translate_cuda_program_uses_cache():
    app = get_app("rodinia", "bfs")
    c = TranslationCache()
    p1 = translate_cuda_program(app.cuda_source, cache=c)
    p2 = translate_cuda_program(app.cuda_source, cache=c)
    assert p2 is p1                      # served from cache
    assert c.stats.hits == 1 and c.stats.misses == 1
    p3 = translate_cuda_program(app.cuda_source)
    assert p3 is not p1
    assert (p3.host_source, p3.device_source) == \
        (p1.host_source, p1.device_source)


def test_translate_opencl_program_uses_cache():
    app = get_app("rodinia", "bfs")
    c = TranslationCache()
    r1 = translate_opencl_program(app.opencl_kernels, app.opencl_host,
                                  cache=c)
    r2 = translate_opencl_program(app.opencl_kernels, app.opencl_host,
                                  cache=c)
    assert r2 is r1
    assert result_sources(r1) == ("", r1.cuda_source)


def test_spec_partitions_cache_entries():
    app = get_app("rodinia", "bfs")
    c = TranslationCache()
    translate_opencl_program(app.opencl_kernels, app.opencl_host,
                             spec=GTX_TITAN, cache=c)
    translate_opencl_program(app.opencl_kernels, app.opencl_host,
                             spec=HD7970, cache=c)
    assert len(c) == 2 and c.stats.misses == 2


def test_stats_as_dict():
    s = CacheStats(hits=3, misses=1)
    d = s.as_dict()
    assert d["hits"] == 3 and d["hit_rate"] == 0.75


# -- disk-tier size bound (the unbounded-growth fix) ------------------------

def _old(path, rank):
    """Pin an artifact's mtime well in the past (rank orders recency)."""
    import os
    t = 1_000_000_000 + rank
    os.utime(path, (t, t))


def _blob(tag, n=800):
    """Seeded *incompressible* payload (zlib squashes repeated chars to
    nothing, which would defeat any size-bound test)."""
    import random
    return random.Random(tag).randbytes(n)


def test_parse_bytes():
    from repro.pipeline.cache import parse_bytes
    assert parse_bytes("123") == 123
    assert parse_bytes("64k") == 64 * 1024
    assert parse_bytes("8M") == 8 * 1024 * 1024
    assert parse_bytes("1g") == 1 << 30
    assert parse_bytes("") is None
    assert parse_bytes("nope") is None
    assert parse_bytes("-5") is None and parse_bytes("0") is None


def test_disk_limit_from_env(tmp_path, monkeypatch):
    from repro.pipeline.cache import DISK_LIMIT_ENV, DiskTier
    monkeypatch.setenv(DISK_LIMIT_ENV, "2k")
    assert DiskTier(tmp_path).limit_bytes == 2048
    monkeypatch.setenv(DISK_LIMIT_ENV, "")
    assert DiskTier(tmp_path).limit_bytes is None
    assert DiskTier(tmp_path, limit_bytes=512).limit_bytes == 512


def test_disk_tier_rejects_nonpositive_limit(tmp_path):
    from repro.pipeline.cache import DiskTier
    with pytest.raises(ValueError):
        DiskTier(tmp_path, limit_bytes=0)


def test_disk_tier_evicts_oldest_when_over_limit(tmp_path):
    c = TranslationCache(cache_dir=tmp_path, disk_limit_bytes=2500)
    c.put("aa1", _blob(1))                    # each artifact ~1.2 KiB
    c.put("bb2", _blob(2))
    _old(c.artifact_path("aa1"), rank=0)      # aa1 is oldest
    _old(c.artifact_path("bb2"), rank=1)
    c.put("cc3", _blob(3))                    # pushes the tier over 2500
    tier = c.disk_tier
    assert not tier.exists("aa1")             # oldest evicted first
    assert tier.exists("bb2") and tier.exists("cc3")
    assert tier.evictions == 1
    assert tier.total_bytes() <= 2500
    assert tier.snapshot()["limit_bytes"] == 2500
    # memory tier is untouched by disk eviction
    assert c.get("aa1") == _blob(1)


def test_disk_eviction_never_drops_the_entry_just_written(tmp_path):
    """A single artifact larger than the whole bound is kept — evicting
    the fresh write would make every oversized entry a guaranteed miss."""
    c = TranslationCache(cache_dir=tmp_path, disk_limit_bytes=64)
    c.put("aa", "x" * 500)
    tier = c.disk_tier
    assert tier.exists("aa")
    assert tier.total_bytes() > 64            # over-bound but resident
    assert tier.evictions == 0


def test_disk_hit_refreshes_recency(tmp_path):
    """Loading an artifact must refresh its mtime so the eviction order
    is LRU, not FIFO: the recently *read* entry survives."""
    seed = TranslationCache(cache_dir=tmp_path, disk_limit_bytes=2500)
    seed.put("aa1", _blob(1))
    seed.put("bb2", _blob(2))
    _old(seed.artifact_path("aa1"), rank=0)
    _old(seed.artifact_path("bb2"), rank=1)

    c = TranslationCache(cache_dir=tmp_path, disk_limit_bytes=2500)
    assert c.get("aa1") == _blob(1)           # disk hit refreshes aa1
    c.put("cc3", _blob(3))                    # now over the bound
    tier = c.disk_tier
    assert tier.exists("aa1")                 # read recently -> survived
    assert not tier.exists("bb2")             # stale -> evicted
    assert tier.evictions == 1


def test_disk_eviction_is_a_clean_miss_for_future_caches(tmp_path):
    c = TranslationCache(capacity=1, cache_dir=tmp_path,
                         disk_limit_bytes=1300)
    for i, key in enumerate(["aa1", "bb2", "cc3", "dd4"]):
        c.put(key, _blob(key))                # ~1.2 KiB each: 1 fits
        _old(c.artifact_path(key), rank=i)
    fresh = TranslationCache(cache_dir=tmp_path, disk_limit_bytes=1300)
    assert fresh.get("aa1") is None           # evicted long ago
    assert fresh.stats.misses == 1 and fresh.stats.disk_hits == 0


def test_disk_evictions_surface_on_metrics():
    from repro.observability import get_metrics
    snap = get_metrics().snapshot()
    # the eviction tests above ran in this process: the labelled
    # eviction counter family exists and counted them
    disk_evict = snap.get("cache.evict{tier=disk}")
    assert disk_evict is not None and disk_evict["value"] > 0


# -- concurrent storms ------------------------------------------------------

def _storm(worker, n_threads):
    """Run ``worker(t)`` on ``n_threads`` threads (more than the cores)
    with a short switch interval, so threads interleave inside the
    cache's critical sections; every thread must finish."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)


def _commit_storm(cache, seed, n_threads=4, n_keys=40):
    """``n_threads`` threads each commit ``n_keys`` entries in their own
    keyspace while hammering random gets/invalidate-recommit cycles across
    everyone's; every value read must be the committed one.  Returns every
    committed key."""
    spaces = [[cache_key(f"t{t}-src{i}", "cuda", None, "s")
               for i in range(n_keys)] for t in range(n_threads)]
    all_keys = [k for space in spaces for k in space]
    errors = []
    start = threading.Barrier(n_threads)

    def worker(t: int) -> None:
        rng = random.Random(seed * 1000 + t)
        mine = list(spaces[t])
        rng.shuffle(mine)
        try:
            start.wait()
            for i, k in enumerate(mine):
                cache.put(k, f"val:{k}")
                for _ in range(3):          # interleaved cross-traffic
                    probe = rng.choice(all_keys)
                    got = cache.get(probe)
                    if got is not None and got != f"val:{probe}":
                        errors.append(f"wrong value for {probe}: {got}")
                if i % 7 == 0:              # invalidate+recommit my own
                    victim = rng.choice(spaces[t])
                    cache.invalidate(victim)
                    cache.put(victim, f"val:{victim}")
        except Exception as e:              # pragma: no cover
            errors.append(repr(e))

    _storm(worker, n_threads)
    assert not errors
    return all_keys


@pytest.mark.parametrize("seed", [0, 1337, 20260809])
def test_concurrent_storm_never_loses_committed_entries(seed):
    """After a commit storm every committed entry is present with its
    exact value."""
    cache = TranslationCache(capacity=2048)
    all_keys = _commit_storm(cache, seed)
    for k in all_keys:                      # nothing committed was lost
        assert cache.get(k) == f"val:{k}"
    assert cache.stats.evictions == 0       # capacity was never pressure
    assert len(cache) == len(all_keys)


@pytest.mark.parametrize("seed", [0, 1337, 20260809])
def test_concurrent_storm_commits_reach_the_disk_tier(tmp_path, seed):
    """The same storm over a disk-backed cache, as the service builds one
    with a cache directory: every put is written through, no ``.tmp``
    debris is left, and a fresh cache over the directory loads every
    committed entry."""
    cache = TranslationCache(capacity=2048, cache_dir=tmp_path)
    all_keys = _commit_storm(cache, seed)
    assert cache.stats.disk_writes == cache.stats.puts
    assert not list(tmp_path.glob("*/*.tmp"))
    fresh = TranslationCache(cache_dir=tmp_path)
    for k in all_keys:
        assert fresh.get(k) == f"val:{k}"
    assert fresh.stats.disk_hits == len(all_keys)


@pytest.mark.parametrize("seed", [7, 4242])
def test_concurrent_disk_bound_never_exceeded(tmp_path, seed):
    """Concurrent writers against a small disk tier: the tier ends the
    storm within its byte bound, evictions surface on the counters, and
    every surviving artifact still loads cleanly."""
    limit = 16 * 1024
    cache = TranslationCache(capacity=8, cache_dir=tmp_path,
                             disk_limit_bytes=limit)
    n_threads, n_keys = 4, 30
    payload = "x" * 600                     # artifact ends up ~1 KiB
    spaces = [[cache_key(f"d{t}-{i}", "cuda", None, "s")
               for i in range(n_keys)] for t in range(n_threads)]
    errors = []
    start = threading.Barrier(n_threads)

    def worker(t: int) -> None:
        rng = random.Random(seed * 77 + t)
        try:
            start.wait()
            for k in spaces[t]:
                cache.put(k, payload + k)
                probe = rng.choice(spaces[t])
                got = cache.get(probe)
                if got is not None and got != payload + probe:
                    errors.append(f"wrong value for {probe}")
        except Exception as e:              # pragma: no cover
            errors.append(repr(e))

    _storm(worker, n_threads)
    assert not errors

    tier = cache.disk_tier
    on_disk = sum(p.stat().st_size for p in tmp_path.glob("*/*.json"))
    assert on_disk <= limit                 # the bound held
    assert tier.total_bytes() == on_disk    # accounting is exact
    assert tier.evictions > 0               # and the churn was visible
    assert tier.snapshot()["evictions"] == tier.evictions

    # survivors are readable by a fresh cache over the same directory
    fresh = TranslationCache(cache_dir=tmp_path)
    survivors = [p.stem for p in tmp_path.glob("*/*.json")]
    assert survivors
    for key in survivors:
        got = fresh.get(key)
        assert got is not None and got.endswith(key)
