"""Service configuration: one frozen dataclass, hot-reloadable from JSON.

The daemon never restarts to pick up an ops change: a
:class:`ServiceConfig` is immutable, and the service swaps the whole
object atomically (``TranslationService.apply_config``).  When the config
came from a file, the dispatcher polls its mtime between batches and
reloads on change — the knobs that govern live behavior (admission
bounds, breaker thresholds, per-job fault-isolation policy) take effect
for the *next* request without dropping anything in flight.  Structural
knobs (pool width, cache geometry, health endpoint address) are applied
at start and require a restart; ``RELOADABLE`` names the live subset.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

__all__ = ["ServiceConfig", "CONFIG_ENV", "RELOADABLE"]

#: env var naming a JSON config file (picked up by ``ServiceConfig.from_env``)
CONFIG_ENV = "REPRO_SERVICE_CONFIG"

#: fields the daemon applies live on hot reload; everything else is
#: start-time only
RELOADABLE = frozenset({
    "max_queued_jobs", "max_queued_requests",
    "breaker_threshold", "breaker_cooldown_s",
    "job_timeout", "job_retries", "job_backoff",
})


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of the translation service, with serving-grade defaults."""

    # worker pool
    pool_workers: int = 0               # 0 = min(cpu, 8), at least 2
    warm_pool: bool = True              # spin workers up at start()
    # concurrency + admission control
    max_concurrent_batches: int = 2     # batches translated at once
    max_queued_jobs: int = 512          # total jobs admitted but not done
    max_queued_requests: int = 64       # requests admitted but not done
    # per-job fault isolation (forwarded to translate_many)
    job_timeout: Optional[float] = None
    job_retries: int = 1
    job_backoff: float = 0.05
    # circuit breaker
    breaker_threshold: int = 2          # infra failures before opening
    breaker_cooldown_s: float = 30.0    # open duration before a probe
    # shared cache
    cache_capacity: int = 512
    cache_dir: Optional[str] = None
    disk_limit_bytes: Optional[int] = None
    # health/stats endpoint (asyncio HTTP on localhost)
    health_host: str = "127.0.0.1"
    health_port: Optional[int] = None   # None = no endpoint; 0 = ephemeral
    # device farm (repro.farm): schedule translated batches onto the
    # simulated fleet and export farm.* metrics.  Structural (start-time)
    farm_enabled: bool = False
    farm_devices: Optional[tuple] = None  # fleet-key subset; None = all
    # hot reload
    config_path: Optional[str] = None   # JSON file polled for changes

    def resolved_pool_workers(self) -> int:
        if self.pool_workers > 0:
            return self.pool_workers
        return max(2, min(os.cpu_count() or 1, 8))

    # -- construction -------------------------------------------------------

    @classmethod
    def field_names(cls) -> frozenset:
        return frozenset(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  config_path: Optional[str] = None) -> "ServiceConfig":
        unknown = set(data) - cls.field_names()
        if unknown:
            raise ValueError(f"unknown service config keys: "
                             f"{sorted(unknown)}")
        if config_path is not None:
            data = dict(data, config_path=config_path)
        return cls(**data)

    @classmethod
    def from_file(cls, path: "str | Path") -> "ServiceConfig":
        """Load a JSON config; unknown keys are a hard error (a typo'd
        knob silently doing nothing is worse than a crash at load)."""
        path = Path(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"service config {path} must be a JSON object")
        return cls.from_dict(data, config_path=str(path))

    @classmethod
    def from_env(cls) -> "ServiceConfig":
        """``$REPRO_SERVICE_CONFIG`` when set, else defaults."""
        path = os.environ.get(CONFIG_ENV, "").strip()
        return cls.from_file(path) if path else cls()

    # -- reload / introspection ---------------------------------------------

    def merged(self, **overrides: Any) -> "ServiceConfig":
        return dataclasses.replace(self, **overrides)

    def reload_delta(self, new: "ServiceConfig") -> Dict[str, Any]:
        """``{field: new_value}`` over the hot-reloadable fields that
        actually changed."""
        return {f: getattr(new, f) for f in sorted(RELOADABLE)
                if getattr(new, f) != getattr(self, f)}

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)
