"""Execution smoke of the whole corpus: every application must PASS its own
verification on the native framework it was written for.

(The translated runs are exercised by the integration tests and regenerated
in full by the benchmark harness.)
"""

import pytest

from tests.conftest import (cuda_apps, cuda_failing_runnable_apps,
                            opencl_apps)


@pytest.mark.parametrize("app", opencl_apps(),
                         ids=lambda a: f"{a.suite}-{a.name}")
def test_opencl_native(app, shared_run):
    r, _ = shared_run(app, "ocl")
    assert r.ok, f"{app.name}: {r.stdout[:200]}"
    assert r.sim_time > 0


@pytest.mark.parametrize("app", cuda_apps(),
                         ids=lambda a: f"{a.suite}-{a.name}")
def test_cuda_native(app, shared_run):
    r, _ = shared_run(app, "cuda")
    assert r.ok, f"{app.name}: {r.stdout[:200]}"
    assert r.sim_time > 0


@pytest.mark.parametrize("app", cuda_failing_runnable_apps(),
                         ids=lambda a: f"{a.suite}-{a.name}")
def test_untranslatable_cuda_still_runs_natively(app, shared_run):
    """kmeans/leukocyte/hybridsort/nn/mummergpu/heartwall use features
    OpenCL cannot express — but they are perfectly valid CUDA."""
    r, _ = shared_run(app, "cuda")
    assert r.ok, f"{app.name}: {r.stdout[:200]}"
