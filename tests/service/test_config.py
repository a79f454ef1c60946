"""Unit tests for :mod:`repro.service.config`."""

from __future__ import annotations

import json

import pytest

from repro.service.config import CONFIG_ENV, RELOADABLE, ServiceConfig


def test_defaults_are_serving_grade():
    cfg = ServiceConfig()
    assert cfg.resolved_pool_workers() >= 2
    assert cfg.max_queued_jobs > 0 and cfg.max_queued_requests > 0
    assert cfg.health_port is None          # no endpoint unless asked


def test_resolved_pool_workers_override():
    assert ServiceConfig(pool_workers=5).resolved_pool_workers() == 5


@pytest.mark.parametrize("key", ["max_queued_jobz", "cache_shards"])
def test_from_dict_rejects_unknown_keys(key):
    with pytest.raises(ValueError, match="unknown service config keys"):
        ServiceConfig.from_dict({key: 3})


def test_from_file_roundtrip_and_config_path(tmp_path):
    path = tmp_path / "svc.json"
    path.write_text(json.dumps({"pool_workers": 3, "breaker_threshold": 7}))
    cfg = ServiceConfig.from_file(path)
    assert cfg.pool_workers == 3 and cfg.breaker_threshold == 7
    assert cfg.config_path == str(path)     # remembered for hot reload


def test_from_file_rejects_non_object(tmp_path):
    path = tmp_path / "svc.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        ServiceConfig.from_file(path)


def test_from_env(tmp_path, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)
    assert ServiceConfig.from_env() == ServiceConfig()
    path = tmp_path / "svc.json"
    path.write_text(json.dumps({"cache_capacity": 2}))
    monkeypatch.setenv(CONFIG_ENV, str(path))
    assert ServiceConfig.from_env().cache_capacity == 2


def test_reload_delta_covers_only_live_fields():
    old = ServiceConfig()
    new = old.merged(max_queued_jobs=9, pool_workers=99,  # structural!
                     breaker_cooldown_s=1.0)
    delta = old.reload_delta(new)
    assert delta == {"max_queued_jobs": 9, "breaker_cooldown_s": 1.0}
    assert set(delta) <= RELOADABLE
    assert old.reload_delta(old) == {}


def test_merged_is_a_new_frozen_object():
    cfg = ServiceConfig()
    other = cfg.merged(job_retries=4)
    assert other.job_retries == 4 and cfg.job_retries == 1
    with pytest.raises(Exception):          # dataclasses.FrozenInstanceError
        cfg.job_retries = 2                 # type: ignore[misc]


def test_as_dict_round_trips():
    cfg = ServiceConfig(pool_workers=2, health_port=0)
    assert ServiceConfig.from_dict(cfg.as_dict()) == cfg
