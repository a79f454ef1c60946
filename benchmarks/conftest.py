"""Shared helpers for the benchmark harness.

Each ``bench_*`` module regenerates one of the paper's tables or figures:
the workload generators are the application corpus, the measured quantity
is *simulated* execution time (the paper's normalized comparisons), and
pytest-benchmark wall-clock numbers additionally report how fast the
framework itself (translator + simulator) runs.

Run with::

    pytest benchmarks/ --benchmark-only -s

``--exec-tier interp|compiled|vector`` pins the device engine's
execution tier for the whole benchmark session (default: leave the
ambient choice — ``$REPRO_EXEC_TIER`` or the engine default — untouched).
Simulated times are tier-invariant, so figure output is identical either
way; only the wall-clock numbers move.
"""

from __future__ import annotations

import pytest

from repro.device.engine import EXEC_TIERS, exec_tier_override


def pytest_addoption(parser):
    parser.addoption(
        "--exec-tier", default=None, choices=EXEC_TIERS,
        help="device-engine execution tier for all benchmarks "
             "(default: ambient $REPRO_EXEC_TIER / engine default)")


@pytest.fixture(autouse=True, scope="session")
def _exec_tier(request):
    tier = request.config.getoption("--exec-tier")
    with exec_tier_override(tier):
        yield tier


def regen(benchmark, fn):
    """Run a figure/table regeneration exactly once under the benchmark
    fixture (the workloads are deterministic; repetition adds nothing)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
