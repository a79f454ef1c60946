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

The same runs pin the tier ladder: no corpus module may fail codegen as a
whole (``EXPECTED_MODULE_FAILURES``), and the tier each kernel launches
on under ``vector``, with the reason it left the tier above, must match
``golden/vector_tiers.json``.  Regenerate that table intentionally with::

    pytest tests/device/test_compile_differential.py --regen-golden
"""

import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.device import engine
from repro.observability import Tracer, activate
from tests.conftest import (EXPECTED_MODULE_FAILURES, corpus_exec_cases,
                            corpus_translated_cases, expected_host_fallback,
                            find_app, run_app as _run, run_key)

#: ``suite/app:mode`` -> ``{kernel: tier under vector}``
_TIERS_PATH = Path(__file__).parent / "golden" / "vector_tiers.json"


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


@contextmanager
def _loaded_modules():
    """Every module the block binds generated code for."""
    mods = []
    bind = engine._compile_module

    def capture(mod):
        bind(mod)
        mods.append(mod)

    engine._compile_module = capture
    try:
        yield mods
    finally:
        engine._compile_module = bind


def _module_failures(mods):
    return {k: why for m in mods for k, why in m.compile_fallbacks.items()
            if why.startswith("module codegen failed")}


def _tier(mod, kernel):
    if kernel in mod.vector_entries:
        return "vector"
    if kernel in mod.compiled_entries:
        return f"compiled: {mod.vector_fallbacks[kernel]}"
    return f"interp: {mod.compile_fallbacks[kernel]}"


def _check_modules(request, app, mode, mods):
    """Pin the modules a ``vector`` run loaded: whole-module codegen
    failures on both generated tiers (the same units bound again under
    ``compiled``), and each kernel's tier against the committed table."""
    key = run_key(app, mode)
    want = EXPECTED_MODULE_FAILURES.get(key, {})
    assert _module_failures(mods) == want
    again = [engine.load_module(m.device, m.unit, m.dialect,
                                exec_tier="compiled") for m in mods]
    assert _module_failures(again) == want
    tiers = {k: _tier(m, k) for m in mods for k in m.kernels}
    table = (json.loads(_TIERS_PATH.read_text())
             if _TIERS_PATH.exists() else {})
    if request.config.getoption("--regen-golden"):
        table[key] = tiers
        _TIERS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True)
                               + "\n")
    else:
        assert tiers == table.get(key), (
            f"{key}: kernel tiers changed; if intentional, rerun with "
            "--regen-golden")


# ---------------------------------------------------------------------------
# the differential sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app,mode", corpus_exec_cases())
def test_corpus_app_byte_identical(app, mode, shared_run, request):
    """One interpreter reference run per app, compared against both
    generated-code tiers (scalar ``compiled`` and warp-batched
    ``vector``)."""
    interp, _ = shared_run(app, mode, "interp")
    compiled = _run(app, mode, "compiled")
    _assert_identical(interp, compiled)
    with _loaded_modules() as mods:
        vector = _run(app, mode, "vector")
    _assert_identical(interp, vector)
    assert vector.extra.get("host_fallback") == expected_host_fallback(
        app, mode)
    _check_modules(request, app, mode, mods)


@pytest.mark.parametrize("app,mode", corpus_translated_cases())
def test_translated_app_byte_identical(app, mode, shared_run, request):
    """The wrapper-backed ``ocl2cuda`` runs and the rewritten ``cuda2ocl``
    host programs: lowered host code and generated kernels against the
    interpreter."""
    interp, _ = shared_run(app, mode, "interp")
    with _loaded_modules() as mods:
        vector = _run(app, mode, "vector")
    _assert_identical(interp, vector)
    assert vector.extra.get("host_fallback") == expected_host_fallback(
        app, mode)
    _check_modules(request, app, mode, mods)


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
    """Middle edge: IS's histogram kernel calls an atomic builtin, which
    is outside the vector subset, but still scalar-compiles."""
    mod = _load_vector_module("npb", "IS", "ocl")
    assert "histo" in mod.vector_fallbacks
    assert "atomic_add" in mod.vector_fallbacks["histo"]
    assert "histo" not in mod.vector_entries
    assert "histo" in mod.compiled_entries  # one rung down, not two
    assert mod.compile_fallbacks == {}


@pytest.mark.parametrize("mode", ["ocl", "cuda"])
def test_hazard_demotes_kernel_at_run_time(mode, shared_run):
    """srad2 updates ``img`` in place from its neighbours, so a warp's
    lanes read what a lower lane of the same warp wrote: it vectorizes
    statically, the guard catches the reordering on its first launch,
    re-runs that launch on the scalar tier and demotes the kernel, and
    the run still equals the interpreter's."""
    mod = _load_vector_module("rodinia", "srad", mode)
    assert {"srad1", "srad2"} <= set(mod.vector_entries)
    app = find_app("rodinia", "srad")
    interp, _ = shared_run(app, mode, "interp")
    with _loaded_modules() as mods:
        vector = _run(app, mode, "vector")
    _assert_identical(interp, vector)
    (mod,) = mods
    assert "srad1" in mod.vector_entries
    assert "srad2" not in mod.vector_entries
    assert "srad2" in mod.compiled_entries
    assert mod.vector_fallbacks["srad2"] == \
        "srad2: cross-lane hazard on 'img'"


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
