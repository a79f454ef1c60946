"""Shared pytest configuration and corpus-enumeration helpers.

The corpus fixture lists used to be duplicated per test module (the
compile-differential suite and the execution smoke each grew their own
``all_apps()`` filters and runners); they live here once now, and the
debugger suite (``tests/debug/``) parametrizes over the same helpers so
every suite agrees on what "the corpus" is.

Import them as ``from tests.conftest import corpus_exec_cases`` — the
test tree is a package and pytest runs from the repo root.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden", action="store_true", default=False,
        help="regenerate the checked-in golden snapshots (translation "
             "goldens under tests/translate/golden/, debugger transcripts "
             "under tests/debug/golden/, the vector-tier table under "
             "tests/device/golden/) instead of comparing against them")


# ---------------------------------------------------------------------------
# corpus enumeration (shared by device/apps/debug suites)
# ---------------------------------------------------------------------------


def find_app(suite, name):
    """Look up one corpus app by (suite, name) or raise LookupError."""
    from repro.apps.base import all_apps
    for app in all_apps():
        if app.suite == suite and app.name == name:
            return app
    raise LookupError(f"{suite}/{name} not in corpus")


def opencl_apps():
    """Every app with a native OpenCL version."""
    from repro.apps.base import all_apps
    return [a for a in all_apps() if a.has_opencl]


def cuda_apps():
    """Natively runnable CUDA apps that also translate (Fig. 7a bars 1-2)."""
    from repro.apps.base import all_apps
    return [a for a in all_apps()
            if a.has_cuda and a.cuda_runs_natively
            and a.fail_category is None]


def cuda_failing_runnable_apps():
    """Untranslatable-but-runnable CUDA apps (Fig. 7a's third bar)."""
    from repro.apps.base import all_apps
    return [a for a in all_apps()
            if a.has_cuda and a.cuda_runs_natively
            and a.fail_category is not None]


def corpus_exec_cases():
    """``pytest.param(app, mode)`` per natively runnable (app, framework).

    The canonical sweep list: ids are ``suite/name-mode`` so failures read
    the same across the differential, pure-observer, and smoke suites.
    """
    import pytest
    from repro.apps.base import all_apps
    cases = []
    for app in all_apps():
        if app.has_opencl:
            cases.append(pytest.param(app, "ocl",
                                      id=f"{app.suite}/{app.name}-ocl"))
        if app.has_cuda and app.cuda_runs_natively:
            cases.append(pytest.param(app, "cuda",
                                      id=f"{app.suite}/{app.name}-cuda"))
    return cases


def corpus_translated_cases():
    """``pytest.param(app, mode)`` per translated run: the untouched OpenCL
    host program over the OpenCL->CUDA wrapper library (``ocl2cuda``) and
    the statically rewritten CUDA host program (``cuda2ocl``)."""
    import pytest
    from repro.apps.base import all_apps
    cases = []
    for app in all_apps():
        if app.has_opencl:
            cases.append(pytest.param(app, "ocl2cuda",
                                      id=f"{app.suite}/{app.name}-ocl2cuda"))
        if app.has_cuda and app.cuda_runs_natively and app.cuda_translatable:
            cases.append(pytest.param(app, "cuda2ocl",
                                      id=f"{app.suite}/{app.name}-cuda2ocl"))
    return cases


#: corpus runs (``suite/app:mode``, perfbench's mode names) whose host
#: ``main`` still tree-walks under the generated tiers, with the reason
#: recorded in ``RunResult.extra["host_fallback"]``
EXPECTED_HOST_FALLBACKS = {}

#: corpus runs (``suite/app:mode``) whose kernel modules fail codegen as a
#: whole under a generated tier, as ``{kernel: reason}``: those kernels
#: drop to the interpreter with ``module codegen failed: ...`` recorded
EXPECTED_MODULE_FAILURES = {}

_RUN_MODE = {"ocl": "ocl-native", "cuda": "cuda-native",
             "ocl2cuda": "ocl2cuda", "cuda2ocl": "cuda2ocl"}


def run_key(app, mode):
    """``suite/app:mode`` of one corpus run, in perfbench's mode names."""
    return f"{app.suite}/{app.name}:{_RUN_MODE[mode]}"


def expected_host_fallback(app, mode):
    """The pinned fallback reason of one corpus run, or None."""
    return EXPECTED_HOST_FALLBACKS.get(run_key(app, mode))


def run_app(app, mode, tier=None, device="titan"):
    """Run one corpus app under ``mode``: natively ("ocl"/"cuda") or
    translated ("ocl2cuda"/"cuda2ocl")."""
    from repro.harness import (run_cuda_app, run_cuda_translated,
                               run_opencl_app, run_opencl_translated)
    if mode == "ocl":
        return run_opencl_app(app.name, app.opencl_host, app.opencl_kernels,
                              device=device, exec_tier=tier)
    if mode == "ocl2cuda":
        return run_opencl_translated(app.name, app.opencl_host,
                                     app.opencl_kernels, device=device,
                                     exec_tier=tier)
    if mode == "cuda2ocl":
        return run_cuda_translated(app.name, app.cuda_source,
                                   device=device, exec_tier=tier)
    return run_cuda_app(app.name, app.cuda_source,
                        device=device, exec_tier=tier)


@pytest.fixture(scope="session")
def shared_run():
    """``shared_run(app, mode, tier=None, device="titan")`` ->
    ``(RunResult, kernel: span names)`` of one traced :func:`run_app`,
    made once per test session.

    Runs are deterministic, so the suites that compare against the same
    reference (the execution smoke, the pure-observer suite and the
    differential suites all check against the ``interp`` run) reuse it
    instead of simulating it again.  The run under test is still made
    fresh by each test.  ``tier=None`` means the ambient tier.  Treat the
    result as read-only.
    """
    from repro.device.engine import resolve_exec_tier
    from repro.observability import Tracer, activate
    runs = {}

    def run(app, mode, tier=None, device="titan"):
        key = (app.suite, app.name, mode, resolve_exec_tier(tier), device)
        hit = runs.get(key)
        if hit is None:
            tracer = Tracer()
            with activate(tracer):
                result = run_app(app, mode, tier, device)
            hit = runs[key] = (
                result, [s.name for s in tracer.finished
                         if s.name.startswith("kernel:")])
        return hit

    return run
