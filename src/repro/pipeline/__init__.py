"""Translation pipeline: content-addressed caching + parallel batching.

The scale layer over :mod:`repro.translate`: translate once, reuse
everywhere (:class:`TranslationCache`), and fan whole-corpus translation
out over worker processes (:func:`translate_many`) with full fault
isolation — per-job failure capture, wall-clock timeouts, and bounded
retries (:mod:`repro.pipeline.batch`), provable via deterministic fault
injection (:class:`FaultPlan`).  Cached, uncached, serial, parallel, and
retried paths are bit-for-bit identical — see
``tests/translate/test_golden_corpus.py``,
``tests/integration/test_cache_equivalence.py``, and
``tests/pipeline/test_faults.py``.
"""

from .batch import BatchStats, JobResult, TranslationJob, translate_many
from .cache import (CacheStats, DiskTier, TranslationCache, cache_key,
                    result_sources)
from .faults import FaultAction, FaultPlan

__all__ = ["TranslationCache", "DiskTier", "CacheStats", "cache_key",
           "result_sources",
           "TranslationJob", "JobResult", "BatchStats", "translate_many",
           "FaultAction", "FaultPlan"]
