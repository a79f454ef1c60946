"""Content-addressed translation cache (in-memory LRU + optional disk tier).

The paper's framework translates a program once and reuses the result for
every subsequent run; this module gives the reproduction the same property.
Entries are keyed by ``sha256`` over the *content* that determines the
translation output — source text, dialect, preprocessor defines, and the
device spec the translatability check ran against — so a cache hit is
byte-for-byte equivalent to re-running the frontend (the golden and
differential test layers enforce this).

Two tiers:

* an in-memory LRU (:class:`TranslationCache`) holding the full result
  objects (:class:`~repro.translate.api.TranslatedCudaProgram` /
  :class:`~repro.translate.ocl2cuda.kernel.Ocl2CudaResult`), shared by the
  harness runners and the figure benchmarks within one process;
* an optional on-disk tier (:class:`DiskTier`, ``cache_dir=``): one JSON
  artifact per entry carrying human-readable metadata, the translated
  ``host_source`` / ``device_source`` texts, and a compressed payload from
  which the full result object is restored.  Artifacts whose payload does
  not reproduce the recorded sources are discarded (stale-artifact
  protection).  The tier is *size-bounded*: when ``disk_limit_bytes`` (or
  ``$REPRO_CACHE_DISK_LIMIT``) is set, least-recently-used artifacts are
  evicted after each write until the directory fits the bound
  (``cache.evict{tier=disk}`` counts them).

Concurrency: :class:`TranslationCache` serializes every operation on one
lock.  The batch pipeline, the harness runners and the translation
service's concurrent clients all share it; the seeded storms in
``tests/pipeline/test_cache.py`` hold that no committed entry is lost and
the disk bound holds under concurrent writers.

Simulated time is *not* affected by the cache: the
:class:`~repro.device.perf.SimClock` build charge models the paper's
machine and is applied identically on hits and misses.  The cache saves
real wall-clock only.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..observability import get_metrics, get_tracer

__all__ = ["cache_key", "result_sources", "CacheStats", "DiskTier",
           "TranslationCache", "kernel_code_cache", "DISK_LIMIT_ENV",
           "parse_bytes"]

#: on-disk artifact format version; bump to invalidate old artifacts
ARTIFACT_VERSION = 1

#: env knob bounding every disk tier that is not given an explicit
#: ``disk_limit_bytes``; accepts plain bytes or k/m/g suffixes ("64m")
DISK_LIMIT_ENV = "REPRO_CACHE_DISK_LIMIT"

_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_bytes(text: str) -> Optional[int]:
    """``"65536"`` / ``"64k"`` / ``"8m"`` / ``"1g"`` → bytes (None when
    empty or malformed; sizes must be positive)."""
    text = text.strip().lower()
    if not text:
        return None
    factor = _SUFFIXES.get(text[-1], 1)
    if factor != 1:
        text = text[:-1]
    try:
        value = int(text) * factor
    except ValueError:
        return None
    return value if value > 0 else None


def _disk_limit_from_env() -> Optional[int]:
    return parse_bytes(os.environ.get(DISK_LIMIT_ENV, ""))


def cache_key(source: str, dialect: str,
              defines: Optional[Dict[str, str]] = None,
              spec_name: str = "") -> str:
    """Content hash identifying one translation job.

    ``sha256(source, dialect, defines, spec_name)``: every input that can
    change the translator's output (or its accept/reject decision) is part
    of the key, and nothing else is.
    """
    payload = json.dumps(
        [source, dialect, sorted((defines or {}).items()), spec_name],
        ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def result_sources(result: Any) -> Tuple[str, str]:
    """``(host_source, device_source)`` of any translation result object.

    ``TranslatedCudaProgram`` carries both; ``Ocl2CudaResult`` has no host
    half (the OpenCL host program is untouched in that direction, §3.2).
    """
    if hasattr(result, "host_source") and hasattr(result, "device_source"):
        return result.host_source, result.device_source
    if hasattr(result, "cuda_source"):
        return "", result.cuda_source
    return "", ""


@dataclass
class CacheStats:
    """Hit/miss/eviction counters; rendered by ``render_cache_stats``."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0
    invalidations: int = 0
    disk_hits: int = 0
    disk_writes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "puts": self.puts,
                "invalidations": self.invalidations,
                "disk_hits": self.disk_hits, "disk_writes": self.disk_writes,
                "hit_rate": round(self.hit_rate, 4)}


class DiskTier:
    """The on-disk artifact store behind a :class:`TranslationCache`.

    Owns its own lock (lock order is always cache → tier, never back), the
    artifact encode/decode/verify logic, and the size bound: when
    ``limit_bytes`` is set, every store evicts least-recently-used
    artifacts (by mtime; loads refresh it) until the tier fits.  A single
    artifact larger than the whole bound is kept — evicting the entry just
    written would turn the cache into a miss machine.
    """

    def __init__(self, cache_dir: "str | Path",
                 limit_bytes: Optional[int] = None) -> None:
        self.dir = Path(cache_dir)
        self.limit_bytes = limit_bytes if limit_bytes is not None \
            else _disk_limit_from_env()
        if self.limit_bytes is not None and self.limit_bytes < 1:
            raise ValueError("disk limit must be >= 1 byte")
        self.evictions = 0
        self._lock = threading.RLock()
        self._bytes: Optional[int] = None      # lazy; exact after any scan
        m = get_metrics()
        self._m_evict = m.counter("cache.evict", tier="disk")
        self._m_bytes = m.gauge("cache.disk_bytes")

    # -- paths / accounting -------------------------------------------------

    def path(self, key: str) -> Path:
        return self.dir / key[:2] / f"{key}.json"

    def exists(self, key: str) -> bool:
        return self.path(key).exists()

    def total_bytes(self) -> int:
        """Bytes held by artifacts (exact; scans on first use)."""
        with self._lock:
            if self._bytes is None:
                self._scan()
            return self._bytes          # type: ignore[return-value]

    def _scan(self) -> List[Tuple[int, int, Path]]:
        """``[(mtime_ns, size, path)]`` over every artifact; refreshes the
        byte total as a side effect."""
        entries: List[Tuple[int, int, Path]] = []
        total = 0
        if self.dir.exists():
            for p in self.dir.glob("*/*.json"):
                try:
                    st = p.stat()
                except OSError:
                    continue
                entries.append((st.st_mtime_ns, st.st_size, p))
                total += st.st_size
        self._bytes = total
        self._m_bytes.set(total)
        return entries

    def _account(self, delta: int) -> None:
        if self._bytes is not None:
            self._bytes += delta
            self._m_bytes.set(self._bytes)

    # -- store / load -------------------------------------------------------

    def store(self, key: str, result: Any, meta: Dict[str, Any]) -> None:
        path = self.path(key)
        stats = getattr(result, "pass_stats", None)
        if stats is not None and "pass_stats" not in meta:
            # per-pass timing travels with the artifact so cold-cache reports
            # can still show where the original translation spent its time
            meta = dict(meta)
            meta["pass_stats"] = stats.as_dict()
        host_src, device_src = result_sources(result)
        artifact = {
            "version": ARTIFACT_VERSION,
            "key": key,
            "meta": meta,
            "host_source": host_src,
            "device_source": device_src,
            "payload": base64.b64encode(
                zlib.compress(pickle.dumps(result))).decode("ascii"),
        }
        text = json.dumps(artifact, indent=1)
        with self._lock:
            old = 0
            try:
                old = path.stat().st_size
            except OSError:
                pass
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(text, encoding="utf-8")
            tmp.replace(path)
            self._account(path.stat().st_size - old)
            if self.limit_bytes is not None \
                    and self.total_bytes() > self.limit_bytes:
                self._evict_to_limit(protect=path)

    def _evict_to_limit(self, protect: Path) -> None:
        """Drop oldest-mtime artifacts (never ``protect``) until the tier
        fits ``limit_bytes``.  Called under the tier lock."""
        entries = self._scan()          # exact sizes + refreshed total
        entries.sort(key=lambda e: (e[0], str(e[2])))
        for _, size, p in entries:
            if self._bytes <= self.limit_bytes:     # type: ignore[operator]
                break
            if p == protect:
                continue
            try:
                p.unlink()
            except OSError:
                continue
            self._account(-size)
            self.evictions += 1
            self._m_evict.inc()

    def load(self, key: str) -> Optional[Any]:
        path = self.path(key)
        if not path.exists():
            return None
        with get_tracer().span("cache:disk-load") as span:
            with self._lock:
                return self._load_artifact(key, path, span)

    def _load_artifact(self, key: str, path: Path, span: Any) -> Optional[Any]:
        try:
            artifact = json.loads(path.read_text(encoding="utf-8"))
            if artifact.get("version") != ARTIFACT_VERSION \
                    or artifact.get("key") != key:
                raise ValueError("artifact version/key mismatch")
            result = pickle.loads(
                zlib.decompress(base64.b64decode(artifact["payload"])))
            # stale-artifact protection: the payload must reproduce the
            # recorded sources exactly, or the entry is untrustworthy
            host_src, device_src = result_sources(result)
            if (host_src, device_src) != (artifact["host_source"],
                                          artifact["device_source"]):
                raise ValueError("artifact payload/source mismatch")
            try:
                os.utime(path)          # refresh LRU recency for eviction
            except OSError:
                pass
            return result
        except Exception as e:
            # corrupted or stale: behave as a miss and drop the artifact
            span.set(discarded=type(e).__name__)
            self.remove(key)
            return None

    # -- removal ------------------------------------------------------------

    def remove(self, key: str) -> bool:
        path = self.path(key)
        with self._lock:
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                return False
            self._account(-size)
            return True

    def clear(self) -> None:
        """Drop every artifact, reaping orphaned ``.tmp`` debris left by
        writes interrupted mid-flight."""
        with self._lock:
            if self.dir.exists():
                for pattern in ("*/*.json", "*/*.tmp"):
                    for p in self.dir.glob(pattern):
                        p.unlink()
            self._bytes = 0
            self._m_bytes.set(0)

    def snapshot(self) -> Dict[str, Any]:
        return {"dir": str(self.dir), "bytes": self.total_bytes(),
                "limit_bytes": self.limit_bytes, "evictions": self.evictions}


class TranslationCache:
    """Content-addressed LRU cache for translation results.

    Thread-safe: the process-pool batch path only touches it from the
    parent process, but the harness may be driven from worker threads and
    the service's batch threads share one instance.
    """

    def __init__(self, capacity: int = 256,
                 cache_dir: "str | Path | None" = None,
                 disk_limit_bytes: Optional[int] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._disk = DiskTier(cache_dir, disk_limit_bytes) \
            if cache_dir is not None else None
        self._stats = CacheStats()
        self._lock = threading.RLock()
        self._mem: "OrderedDict[str, Any]" = OrderedDict()
        # process-wide metrics, bound once so the hot path never
        # re-resolves instrument names (every cache instance feeds the
        # same aggregate series, one per tier/outcome)
        m = get_metrics()
        self._m_hits_mem = m.counter("cache.hits", tier="mem")
        self._m_hits_disk = m.counter("cache.hits", tier="disk")
        self._m_misses = m.counter("cache.misses")
        self._m_puts = m.counter("cache.puts")
        self._m_evictions = m.counter("cache.evictions")
        self._m_evict_mem = m.counter("cache.evict", tier="mem")
        self._m_invalidations = m.counter("cache.invalidations")
        self._m_disk_writes = m.counter("cache.disk_writes")

    @property
    def cache_dir(self) -> Optional[Path]:
        return self._disk.dir if self._disk is not None else None

    @property
    def disk_tier(self) -> Optional[DiskTier]:
        return self._disk

    @property
    def stats(self) -> CacheStats:
        """A snapshot of the counters: later traffic does not move it, so
        two reads give the counts between them."""
        with self._lock:
            return replace(self._stats)

    # -- lookup / store -----------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The cached result for ``key``, or None.  Checks the in-memory
        tier first, then the disk tier (promoting disk hits to memory)."""
        with get_tracer().span("cache:get") as span:
            with self._lock:
                if key in self._mem:
                    self._mem.move_to_end(key)
                    self._stats.hits += 1
                    self._m_hits_mem.inc()
                    span.set(outcome="hit", tier="mem")
                    return self._mem[key]
                result = self._disk.load(key) if self._disk is not None \
                    else None
                if result is not None:
                    self._stats.hits += 1
                    self._stats.disk_hits += 1
                    self._m_hits_disk.inc()
                    self._mem_store(key, result)
                    span.set(outcome="hit", tier="disk")
                    return result
                self._stats.misses += 1
                self._m_misses.inc()
                span.set(outcome="miss")
                return None

    def put(self, key: str, result: Any,
            meta: Optional[Dict[str, Any]] = None) -> None:
        """Store ``result`` under ``key``; persists an artifact when a
        disk tier is configured."""
        with get_tracer().span("cache:put",
                               disk=self._disk is not None):
            with self._lock:
                self._stats.puts += 1
                self._m_puts.inc()
                self._mem_store(key, result)
                if self._disk is not None:
                    self._disk.store(key, result, meta or {})
                    self._stats.disk_writes += 1
                    self._m_disk_writes.inc()

    def get_or_translate(self, key: str, translate: Callable[[], Any],
                         meta: Optional[Dict[str, Any]] = None) -> Any:
        """``get(key)``, running ``translate()`` and caching on a miss."""
        hit = self.get(key)
        if hit is not None:
            return hit
        result = translate()
        self.put(key, result, meta)
        return result

    # -- invalidation -------------------------------------------------------

    def invalidate(self, key: str) -> bool:
        """Drop one entry from both tiers; True if anything was removed."""
        with self._lock:
            removed = self._mem.pop(key, None) is not None
            if self._disk is not None and self._disk.remove(key):
                removed = True
            if removed:
                self._stats.invalidations += 1
                self._m_invalidations.inc()
            return removed

    def clear(self, disk: bool = False) -> None:
        """Empty the in-memory tier (and the disk tier when ``disk``).

        Clearing the disk tier also reaps orphaned ``.tmp`` files left
        behind by writes interrupted mid-flight.
        """
        with self._lock:
            self._mem.clear()
            if disk and self._disk is not None:
                self._disk.clear()

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._mem)

    def __contains__(self, key: str) -> bool:
        """True when ``key`` is resident in either tier.

        Pure existence check: neither the LRU order nor the hit/miss
        counters move, and the disk artifact is not loaded (a corrupt
        artifact still counts as present until a ``get`` discards it).
        """
        with self._lock:
            if key in self._mem:
                return True
            return self._disk is not None and self._disk.exists(key)

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._mem))

    def __repr__(self) -> str:  # pragma: no cover
        disk = f" dir={self.cache_dir}" if self._disk else ""
        return (f"<TranslationCache {len(self._mem)}/{self.capacity}{disk} "
                f"hits={self._stats.hits} misses={self._stats.misses}>")

    # -- in-memory LRU ------------------------------------------------------

    def _mem_store(self, key: str, result: Any) -> None:
        self._mem[key] = result
        self._mem.move_to_end(key)
        while len(self._mem) > self.capacity:
            self._mem.popitem(last=False)
            self._stats.evictions += 1
            self._m_evictions.inc()
            self._m_evict_mem.inc()

    # -- disk tier ----------------------------------------------------------

    def artifact_path(self, key: str) -> Optional[Path]:
        """Where ``key``'s disk artifact lives (None without a disk tier).

        The file need not exist; used by introspection and by the
        fault-injection layer to target artifacts.
        """
        return self._disk.path(key) if self._disk is not None else None


# ---------------------------------------------------------------------------
# kernel-codegen cache (device-engine compile tier)
# ---------------------------------------------------------------------------

#: process-wide cache for generated kernel code, created on first use
_KERNEL_CODE_CACHE: Optional[TranslationCache] = None


def kernel_code_cache() -> TranslationCache:
    """The content-addressed cache for compile-tier kernel codegen.

    Same two-tier :class:`TranslationCache` machinery as translation
    results — entries are :class:`~repro.clike.compile.CompiledSource`
    objects keyed by ``sha256`` of the printed kernel source plus the
    codegen version.  The disk tier is enabled when
    ``$REPRO_KERNEL_CACHE_DIR`` is set, so warm corpus runs skip codegen
    entirely (`engine.compile.cache_hit`).
    """
    global _KERNEL_CODE_CACHE
    if _KERNEL_CODE_CACHE is None:
        cache_dir = os.environ.get("REPRO_KERNEL_CACHE_DIR") or None
        _KERNEL_CODE_CACHE = TranslationCache(capacity=128,
                                              cache_dir=cache_dir)
    return _KERNEL_CODE_CACHE


def reset_kernel_code_cache() -> None:
    """Drop the process-wide kernel-codegen cache (tests)."""
    global _KERNEL_CODE_CACHE
    _KERNEL_CODE_CACHE = None
