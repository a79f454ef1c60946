"""Public entry points of the translation framework.

* :func:`translate_opencl_program` — OpenCL→CUDA: kernel source becomes
  CUDA source (Fig. 2); the host program is *untouched* and runs against
  the :class:`~repro.translate.ocl2cuda.wrappers.Ocl2CudaFramework` wrapper
  library.
* :func:`translate_cuda_program` — CUDA→OpenCL: the mixed ``.cu`` source is
  split into an OpenCL kernel file and a host file with the three special
  constructs statically rewritten (Fig. 3); the result runs against the
  :class:`~repro.translate.cuda2ocl.wrappers.Cuda2OclRuntime` wrapper
  library on any OpenCL device.

Both run the Table-3 translatability analysis as the first pass of their
pipeline, so analyzer findings land in the same diagnostic stream as the
translator's own located errors, and both raise
:class:`~repro.errors.TranslationNotSupported` with a Table-3 category
(and a located diagnostic) when the program uses model-specific features.
The returned result objects carry a ``pass_stats``
:class:`~repro.translate.passes.PipelineStats` covering every pass that
ran — the harness renders these next to the cache statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..clike import ast as A
from ..device.specs import GTX_TITAN, DeviceSpec
from ..errors import TranslationNotSupported
from ..observability import get_tracer
from ..pipeline.cache import TranslationCache, cache_key
from .analyzer import _analyze_cuda, analyze_opencl_source
from .cuda2ocl.host import (Cuda2OclHostResult, find_runtime_init_symbols,
                            translate_host_unit)
from .cuda2ocl.kernel import Cuda2OclDeviceResult, translate_device_unit
from .ocl2cuda.kernel import Ocl2CudaResult, translate_kernel_unit
from .passes import Pass, PassContext, PassManager, PipelineStats

__all__ = ["TranslatedCudaProgram", "translate_cuda_program",
           "translate_opencl_program", "CudaTranslatabilityCheckPass",
           "OclTranslatabilityCheckPass"]


@dataclass
class TranslatedCudaProgram:
    """Result of a full CUDA→OpenCL program translation."""

    host_source: str
    device_source: str
    host_unit: A.TranslationUnit
    device: Cuda2OclDeviceResult
    host: Cuda2OclHostResult
    #: per-pass instrumentation across the whole pipeline (the check,
    #: which also parses, then device and host)
    pass_stats: Optional[PipelineStats] = None

    @property
    def launches_translated(self) -> int:
        return self.host.launches_translated

    @property
    def symbol_copies_translated(self) -> int:
        return self.host.symbol_copies_translated


class CudaTranslatabilityCheckPass(Pass):
    """Run the Table-3 analysis (§3.7); every finding becomes a located,
    category-tagged diagnostic in the shared stream, and the first one
    aborts the pipeline.  This is the frontend too: the analysis parses
    the source with the build defines, and a translatable program's unit
    is left in ``ctx.unit`` for the rewrites."""

    name = "translatability-check"
    paper = "§3.7, Table 3"

    def run(self, ctx: PassContext) -> None:
        spec: DeviceSpec = ctx.state["spec"]
        findings, ctx.unit = _analyze_cuda(ctx.source, spec, ctx.defines)
        diags = [f.to_diagnostic(self.name) for f in findings]
        ctx.diagnostics.extend(diags)
        if findings:
            f = findings[0]
            raise TranslationNotSupported(f.category, f.feature, f.detail,
                                          diagnostic=diags[0])


class OclTranslatabilityCheckPass(Pass):
    """OpenCL→CUDA direction of the Table-3 analysis (§3.7)."""

    name = "translatability-check"
    paper = "§3.7, Table 3"

    def run(self, ctx: PassContext) -> None:
        spec: DeviceSpec = ctx.state["spec"]
        findings = analyze_opencl_source(ctx.state.get("host_source", ""),
                                         ctx.source, spec)
        diags = [f.to_diagnostic(self.name) for f in findings]
        ctx.diagnostics.extend(diags)
        if findings:
            f = findings[0]
            raise TranslationNotSupported(f.category, f.feature, f.detail,
                                          diagnostic=diags[0])


def _concat_stats(pipeline: str,
                  *runs: Optional[PipelineStats]) -> PipelineStats:
    """Stitch sub-pipeline stats into one ordered record."""
    out = PipelineStats(pipeline)
    for run in runs:
        if run is not None:
            out.passes.extend(run.passes)
    return out


def translate_cuda_program(source: str,
                           defines: Optional[Dict[str, str]] = None,
                           spec: DeviceSpec = GTX_TITAN,
                           cache: Optional[TranslationCache] = None
                           ) -> TranslatedCudaProgram:
    """Translate one CUDA ``.cu`` program to OpenCL (Fig. 3 pipeline).

    With ``cache=``, a prior translation of the same (source, defines,
    spec) is returned as-is — the result object is immutable by contract,
    and the cached sources are byte-identical to a fresh run.
    """
    with get_tracer().span("translate:cuda2ocl", spec=spec.name) as span:
        key = None
        if cache is not None:
            key = cache_key(source, "cuda", defines, spec.name)
            hit = cache.get(key)
            if hit is not None:
                span.set(cached=True)
                return hit
        prog = _translate_cuda_fresh(source, defines, spec)
        if cache is not None and key is not None:
            cache.put(key, prog, meta={"direction": "cuda2ocl",
                                       "spec": spec.name})
        span.set(cached=False)
    return prog


def _translate_cuda_fresh(source: str, defines: Optional[Dict[str, str]],
                          spec: DeviceSpec) -> TranslatedCudaProgram:
    ctx = PassContext(source=source, dialect="cuda", defines=defines)
    ctx.state["spec"] = spec
    frontend = PassManager("cuda2ocl-frontend",
                           [CudaTranslatabilityCheckPass()])
    frontend_stats = frontend.run(ctx)
    unit = ctx.unit
    runtime_syms = find_runtime_init_symbols(unit)
    device = translate_device_unit(unit, runtime_syms)
    host = translate_host_unit(unit, device)
    prog = TranslatedCudaProgram(
        host_source=host.host_source,
        device_source=device.opencl_source,
        host_unit=host.unit,
        device=device,
        host=host,
        pass_stats=_concat_stats("cuda2ocl-program", frontend_stats,
                                 device.pass_stats, host.pass_stats),
    )
    return prog


def translate_opencl_program(kernel_source: str, host_source: str = "",
                             defines: Optional[Dict[str, str]] = None,
                             spec: DeviceSpec = GTX_TITAN,
                             cache: Optional[TranslationCache] = None
                             ) -> Ocl2CudaResult:
    """Translate OpenCL kernels to CUDA (Fig. 2 pipeline).

    Host code needs no translation in this direction (§3.2) — pass it for
    the translatability check only.  ``cache=`` behaves exactly as in
    :func:`translate_cuda_program`; the host source participates in the
    key because it feeds the translatability check.
    """
    with get_tracer().span("translate:ocl2cuda", spec=spec.name) as span:
        key = None
        if cache is not None:
            key = cache_key(kernel_source + "\x00" + host_source, "opencl",
                            defines, spec.name)
            hit = cache.get(key)
            if hit is not None:
                span.set(cached=True)
                return hit
        ctx = PassContext(source=kernel_source, dialect="opencl",
                          defines=defines)
        ctx.state["spec"] = spec
        ctx.state["host_source"] = host_source
        frontend = PassManager("ocl2cuda-frontend",
                               [OclTranslatabilityCheckPass()])
        frontend_stats = frontend.run(ctx)
        result = translate_kernel_unit(kernel_source, defines=defines)
        result.pass_stats = _concat_stats("ocl2cuda-program", frontend_stats,
                                          result.pass_stats)
        if cache is not None and key is not None:
            cache.put(key, result, meta={"direction": "ocl2cuda",
                                         "spec": spec.name})
        span.set(cached=False)
    return result
