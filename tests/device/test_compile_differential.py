"""Differential harness: compiled-tier execution vs the interpreter.

The compile tier (``repro.clike.compile``) only earns its keep if it is
*indistinguishable* from the tree-walking interpreter on everything the
reproduction measures: program output, modeled (simulated) time and its
per-category breakdown, and the kernel-level trace shape.  This suite runs
every corpus application under both tiers and asserts byte-identity —
IPMACC/cf4ocl-style generated-code equivalence checking (PAPERS.md).

Modeled time must match bit-for-bit (``==`` on floats, not approx): the
compiled tier changes how Python executes the kernel, never what the
simulated device is charged for.
"""

import pytest

from repro.observability import Tracer, activate
from tests.conftest import (corpus_exec_cases, corpus_translated_cases,
                            expected_host_fallback, find_app,
                            run_app as _run)


def _assert_identical(interp, compiled):
    # stdout carries the self-verification verdict and any printed buffers:
    # byte-identical output means byte-identical result buffers.
    assert compiled.stdout == interp.stdout
    assert compiled.ok == interp.ok
    assert compiled.exit_code == interp.exit_code
    # modeled time is bit-for-bit, not approximately, equal
    assert compiled.sim_time == interp.sim_time
    assert compiled.breakdown == interp.breakdown
    assert compiled.api_calls == interp.api_calls
    assert compiled.kernel_launches == interp.kernel_launches


# ---------------------------------------------------------------------------
# the differential sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app,mode", corpus_exec_cases())
def test_corpus_app_byte_identical(app, mode, shared_run):
    """One interpreter reference run per app, compared against both
    generated-code tiers (scalar ``compiled`` and warp-batched
    ``vector``)."""
    interp, _ = shared_run(app, mode, "interp")
    compiled = _run(app, mode, "compiled")
    _assert_identical(interp, compiled)
    vector = _run(app, mode, "vector")
    _assert_identical(interp, vector)
    assert vector.extra.get("host_fallback") == expected_host_fallback(
        app, mode)


@pytest.mark.parametrize("app,mode", corpus_translated_cases())
def test_translated_app_byte_identical(app, mode, shared_run):
    """The wrapper-backed ``ocl2cuda`` runs and the rewritten ``cuda2ocl``
    host programs: lowered host code and generated kernels against the
    interpreter."""
    interp, _ = shared_run(app, mode, "interp")
    vector = _run(app, mode, "vector")
    _assert_identical(interp, vector)
    assert vector.extra.get("host_fallback") == expected_host_fallback(
        app, mode)


# ---------------------------------------------------------------------------
# trace-shape equivalence: same kernel: span structure under both tiers
# ---------------------------------------------------------------------------

# A barrier-heavy app with several distinct kernels keeps this meaningful
# without re-tracing the whole corpus.
_TRACED = [("npb", "FT", "ocl"), ("rodinia", "gaussian", "ocl"),
           ("rodinia", "gaussian", "cuda")]


@pytest.mark.parametrize("suite,name,mode", _TRACED,
                         ids=[f"{s}/{n}-{m}" for s, n, m in _TRACED])
def test_kernel_span_counts_match(suite, name, mode):
    app = find_app(suite, name)
    spans = {}
    for tier in ("interp", "compiled", "vector"):
        tracer = Tracer()
        with activate(tracer):
            res = _run(app, mode, tier)
        assert res.ok, res.stdout
        spans[tier] = [s.name for s in tracer.finished
                       if s.name.startswith("kernel:")]
    assert spans["compiled"], "expected kernel: spans under tracing"
    # identical launch sequence: same kernels, same order, same count
    assert spans["compiled"] == spans["interp"]
    assert spans["vector"] == spans["interp"]


# ---------------------------------------------------------------------------
# demotion-chain coverage on real corpus kernels, one per fallback edge
# ---------------------------------------------------------------------------


def _load_vector_module(suite, name, mode):
    from repro.clike import parse
    from repro.device.engine import Device, load_module
    from repro.device.specs import GTX_TITAN
    app = find_app(suite, name)
    src = app.cuda_source if mode == "cuda" else app.opencl_kernels
    dialect = "cuda" if mode == "cuda" else "opencl"
    return load_module(Device(GTX_TITAN), parse(src, dialect), dialect,
                       exec_tier="vector")


def test_corpus_kernels_fully_vectorized():
    """Top rung: FT's and gaussian's kernels run warp-batched."""
    mod = _load_vector_module("npb", "FT", "ocl")
    assert {"cffts1", "cffts2", "cffts3"} <= set(mod.vector_entries)
    assert mod.vector_fallbacks == {}
    mod = _load_vector_module("rodinia", "gaussian", "ocl")
    assert {"fan1", "fan2"} <= set(mod.vector_entries)
    assert mod.vector_fallbacks == {}


def test_corpus_kernel_demotes_vector_to_compiled():
    """Middle edge: srad's divergent-update kernels are outside the
    vector subset but still scalar-compile."""
    mod = _load_vector_module("rodinia", "srad", "ocl")
    assert "srad1" in mod.vector_fallbacks
    assert "srad2" in mod.vector_fallbacks
    assert "srad1" in mod.compiled_entries  # one rung down, not two
    assert mod.compile_fallbacks == {}


def test_corpus_kernel_demotes_through_both_edges(shared_run):
    """Bottom edge: the templated toolkit kernel falls past the scalar
    tier too, recorded as a chained reason, and runs via the
    interpreter."""
    mod = _load_vector_module("toolkit", "template", "cuda")
    assert "templ_kernel" in mod.vector_fallbacks
    assert mod.vector_fallbacks["templ_kernel"].startswith("scalar fallback:")
    assert "templ_kernel" not in mod.compiled_entries
    app = find_app("toolkit", "template")
    interp, _ = shared_run(app, "cuda", "interp")
    vector = _run(app, "cuda", "vector")
    _assert_identical(interp, vector)
