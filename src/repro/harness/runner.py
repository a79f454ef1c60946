"""Application runners: native and translated execution with simulated time.

Four execution modes mirror the paper's evaluation bars:

* :func:`run_opencl_app` — the original OpenCL program on the native
  framework (Figs. 7/8 "original OpenCL");
* :func:`run_opencl_translated` — the same untouched host program linked
  against the OpenCL→CUDA wrapper library (Fig. 7 "translated CUDA");
* :func:`run_cuda_app` — the original ``.cu`` program on the CUDA
  framework (Fig. 8 "original CUDA"); Titan only (the HD7970 does not
  support CUDA);
* :func:`run_cuda_translated` — the statically translated host program
  plus the CUDA→OpenCL wrapper runtime, on *any* OpenCL device — including
  the HD7970 (Fig. 8 portability bars).

Reported time excludes the 'build' category, matching the paper's
methodology ("the build time of OpenCL should be excluded", §6.2).

Applications are *self-verifying*: they print ``PASSED`` or ``FAILED``
like the NVIDIA samples do, and ``RunResult.ok`` reflects that.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..clike import parse
from ..clike.hostlib import HostEnv, _ExitSignal
from ..clike.interp import Interp
from ..cuda.runtime import CudaRuntime
from ..device.engine import Device, exec_tier_override, resolve_exec_tier
from ..device.perf import SimClock
from ..device.specs import DeviceSpec, get_device_spec
from ..errors import CudaApiError, ReproError
from ..observability import Tracer, get_metrics, get_tracer
from ..ocl.api import OpenCLFramework
from ..pipeline.cache import TranslationCache
from ..runtime.values import PTR_TABLE
from ..translate.api import translate_cuda_program
from ..translate.cuda2ocl.wrappers import Cuda2OclRuntime
from ..translate.ocl2cuda.wrappers import Ocl2CudaFramework

__all__ = ["RunResult", "run_opencl_app", "run_opencl_translated",
           "run_cuda_app", "run_cuda_translated",
           "SHARED_TRANSLATION_CACHE", "shared_translation_cache",
           "corpus_jobs", "translate_corpus"]

#: env-constant name under which the kernel source is handed to OpenCL
#: host programs (stands in for reading kernel.cl from disk)
KERNEL_SOURCE_CONST = "KERNEL_SOURCE"

#: device throughput scale-down applied by the runners: corpus workloads
#: are ~SIM_SCALE times smaller than the paper's real inputs, so rates are
#: divided by the same factor (see DeviceSpec.scaled) — normalized results
#: are invariant
SIM_SCALE = 400.0

#: process-wide translation cache shared by the translated runners and the
#: figure benchmarks: repeated runs of the same app skip the frontend.
#: Set REPRO_TRANSLATION_CACHE_DIR to add an on-disk tier that persists
#: across processes.  Simulated time is unaffected (the SimClock build
#: charge is applied on hits and misses alike); only real wall-clock drops.
SHARED_TRANSLATION_CACHE = TranslationCache(
    capacity=512,
    cache_dir=os.environ.get("REPRO_TRANSLATION_CACHE_DIR") or None)

#: sentinel: runner ``cache=`` default meaning "use the shared cache";
#: pass ``None`` for a cold, cache-free run or a TranslationCache instance
#: for an isolated one
_SHARED = "shared"

CacheArg = Union[TranslationCache, None, str]


def shared_translation_cache() -> TranslationCache:
    """The process-wide cache used by the runners by default."""
    return SHARED_TRANSLATION_CACHE


def _resolve_cache(cache: CacheArg) -> Optional[TranslationCache]:
    if cache == _SHARED:
        return SHARED_TRANSLATION_CACHE
    if cache is None or isinstance(cache, TranslationCache):
        return cache
    raise TypeError(f"cache= must be a TranslationCache, None, or "
                    f"{_SHARED!r}; got {cache!r}")


@dataclass
class RunResult:
    """Outcome of one application run."""

    name: str
    mode: str                  # 'ocl-native' | 'ocl->cuda' | 'cuda-native' | 'cuda->ocl'
    device: str
    ok: bool
    exit_code: Optional[int]
    stdout: str
    sim_time: float            # seconds, excluding device-code build
    breakdown: Dict[str, float] = field(default_factory=dict)
    api_calls: int = 0
    kernel_launches: int = 0
    transfer_ops: int = 0
    transfer_bytes: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover
        status = "ok" if self.ok else "FAIL"
        return (f"<RunResult {self.name} {self.mode}@{self.device} "
                f"{status} {self.sim_time * 1e3:.3f} ms>")


def _resolve_device(device: "str | DeviceSpec") -> DeviceSpec:
    if isinstance(device, str):
        return get_device_spec(device).scaled(SIM_SCALE)
    return device


def _finish(name: str, mode: str, spec: DeviceSpec, env: HostEnv,
            clock: SimClock, exit_code: Optional[int],
            extra: Optional[Dict[str, Any]] = None) -> RunResult:
    out = env.printed()
    ok = (exit_code == 0) and ("FAILED" not in out)
    build = clock.by_category.get("build", 0.0)
    get_metrics().counter("harness.runs", mode=mode,
                          outcome="ok" if ok else "failed").inc()
    return RunResult(
        name=name, mode=mode, device=spec.name, ok=ok,
        exit_code=exit_code, stdout=out,
        sim_time=clock.elapsed - build,
        breakdown=dict(clock.by_category),
        api_calls=clock.api_call_count,
        kernel_launches=clock.kernel_launches,
        transfer_ops=clock.transfer_ops,
        transfer_bytes=clock.transfer_bytes,
        extra=extra or {},
    )


def _lower_host(interp: Interp, dialect: str) -> Optional[str]:
    """Swap the host program's tree-walk for generated code bound to this
    run's file scope (``interp.lowered``).  Returns why ``main`` must
    tree-walk instead, or None.  Never raises: as with a kernel module,
    any codegen or binding failure demotes the program to the
    interpreter, so falling back costs time, never correctness."""
    # lazy: runs that never leave the interp tier skip loading codegen
    from ..clike.compile import bind_host, compile_host_unit
    with get_tracer().span("compile:host", dialect=dialect) as span:
        try:
            cs = compile_host_unit(interp.unit, dialect)
            reason = cs.fallbacks.get("main", "no main() to lower")
            if "main" in cs.kernel_names:
                interp.lowered = bind_host(interp, cs)
                reason = None
        except Exception as e:
            reason = f"{type(e).__name__}: {e}"
        outcome = "lowered" if reason is None else "fallback"
        span.set(outcome=outcome, reason=reason or "")
        get_metrics().counter(f"harness.host.{outcome}").inc()
    return reason


def _run_host(unit, env: HostEnv, dialect: str,
              attach=None) -> Tuple[Optional[int], Dict[str, Any]]:
    """Run ``main``: tree-walked under the ``interp`` tier, lowered to
    generated code under every other tier unless codegen falls back.
    Returns the exit code and the run's ``RunResult.extra`` entries:
    ``host_fallback`` says why a generated tier tree-walked."""
    interp = Interp(unit, env, dialect)
    interp.init_globals()
    if attach is not None:
        attach(interp)
    extra: Dict[str, Any] = {}
    if resolve_exec_tier() != "interp":
        reason = _lower_host(interp, dialect)
        if reason is not None:
            extra["host_fallback"] = reason
    try:
        ret = interp.call("main", [])
    except _ExitSignal as e:
        return e.code, extra
    return (int(ret) if ret is not None else 0), extra


def corpus_jobs(apps: Optional[Sequence[Any]] = None) -> List[Any]:
    """One :class:`~repro.pipeline.batch.TranslationJob` per applicable
    (app, direction) over the corpus — the job list behind every Table-3
    analysis and figure run, shared with ``scripts/check_determinism.py``.
    """
    from ..apps.base import all_apps
    from ..pipeline.batch import TranslationJob
    selected = list(apps) if apps is not None else list(all_apps())
    jobs = [TranslationJob(name=f"{a.suite}/{a.name}", direction="cuda2ocl",
                           source=a.cuda_source)
            for a in selected if a.cuda_translatable]
    jobs += [TranslationJob(name=f"{a.suite}/{a.name}", direction="ocl2cuda",
                            source=a.opencl_kernels,
                            host_source=a.opencl_host or "")
             for a in selected if a.has_opencl]
    return jobs


def translate_corpus(apps: Optional[Sequence[Any]] = None, *,
                     cache: CacheArg = _SHARED, parallel: bool = True,
                     timeout: Optional[float] = None,
                     retries: Optional[int] = None,
                     fault_plan: Any = None,
                     trace: Optional[Tracer] = None) -> List[Any]:
    """Fan the whole corpus through the fault-isolated batch pipeline.

    Serves results from the shared translation cache by default; pass the
    fault-isolation knobs through to
    :func:`~repro.pipeline.batch.translate_many`.  Render the outcome with
    ``repro.harness.report.render_batch_stats``; ``trace=`` records the
    sweep into a :class:`~repro.observability.Tracer` (or set
    ``REPRO_TRACE=1`` to trace ambiently).
    """
    from ..pipeline.batch import translate_many
    return translate_many(corpus_jobs(apps), cache=_resolve_cache(cache),
                          parallel=parallel, timeout=timeout,
                          retries=retries, fault_plan=fault_plan,
                          trace=trace)


def run_opencl_app(name: str, host_source: str, kernel_source: str,
                   device: "str | DeviceSpec" = "titan",
                   exec_tier: Optional[str] = None) -> RunResult:
    """Original OpenCL program on the native simulated OpenCL framework."""
    spec = _resolve_device(device)
    with exec_tier_override(exec_tier), \
            get_tracer().span(f"run:ocl-native:{name}", device=spec.name):
        PTR_TABLE.reset()
        env = HostEnv()
        fw = OpenCLFramework([Device(spec)])
        fw.install(env)
        env.define_constant(KERNEL_SOURCE_CONST,
                            env.intern_string(kernel_source))
        unit = parse(host_source, "host")
        code, extra = _run_host(unit, env, "host")
        return _finish(name, "ocl-native", spec, env, fw.clock, code, extra)


def run_opencl_translated(name: str, host_source: str, kernel_source: str,
                          device: "str | DeviceSpec" = "titan",
                          cache: CacheArg = _SHARED,
                          exec_tier: Optional[str] = None) -> RunResult:
    """The untouched OpenCL host program over the OpenCL→CUDA wrapper
    library (Fig. 2); requires a CUDA-capable device."""
    spec = _resolve_device(device)
    if not spec.supports_cuda:
        raise CudaApiError(38, f"{spec.name} does not support CUDA")
    with exec_tier_override(exec_tier), \
            get_tracer().span(f"run:ocl->cuda:{name}", device=spec.name):
        PTR_TABLE.reset()
        env = HostEnv()
        fw = Ocl2CudaFramework(Device(spec), cache=_resolve_cache(cache))
        fw.install(env)
        env.define_constant(KERNEL_SOURCE_CONST,
                            env.intern_string(kernel_source))
        unit = parse(host_source, "host")
        code, extra = _run_host(unit, env, "host")
        extra["cuda_source"] = fw.last_cuda_source
        return _finish(name, "ocl->cuda", spec, env, fw.clock, code, extra)


def run_cuda_app(name: str, cu_source: str,
                 device: "str | DeviceSpec" = "titan",
                 exec_tier: Optional[str] = None) -> RunResult:
    """Original CUDA program on the native simulated CUDA framework."""
    spec = _resolve_device(device)
    if not spec.supports_cuda:
        raise CudaApiError(38, f"{spec.name} does not support CUDA")
    with exec_tier_override(exec_tier), \
            get_tracer().span(f"run:cuda-native:{name}", device=spec.name):
        PTR_TABLE.reset()
        env = HostEnv()
        rt = CudaRuntime(device=Device(spec))
        unit = parse(cu_source, "cuda")
        rt.load_unit(unit)

        def attach(interp: Interp) -> None:
            rt.attach(interp, env)

        code, extra = _run_host(unit, env, "cuda", attach)
        return _finish(name, "cuda-native", spec, env, rt.clock, code, extra)


def run_cuda_translated(name: str, cu_source: str,
                        device: "str | DeviceSpec" = "titan",
                        cache: CacheArg = _SHARED,
                        exec_tier: Optional[str] = None) -> RunResult:
    """The CUDA program translated to OpenCL (static host rewriting +
    wrapper runtime), on any OpenCL device (Fig. 3)."""
    spec = _resolve_device(device)
    with exec_tier_override(exec_tier), \
            get_tracer().span(f"run:cuda->ocl:{name}", device=spec.name):
        PTR_TABLE.reset()
        prog = translate_cuda_program(cu_source, cache=_resolve_cache(cache))
        env = HostEnv()
        rt = Cuda2OclRuntime(prog.device, device=Device(spec))
        rt.install(env)
        unit = parse(prog.host_source, "host")
        code, extra = _run_host(unit, env, "host")
        extra.update({
            "opencl_source": prog.device_source,
            "host_source": prog.host_source,
            "launches_translated": prog.launches_translated,
            "symbol_copies_translated": prog.symbol_copies_translated,
        })
        return _finish(name, "cuda->ocl", spec, env, rt.clock, code, extra)
