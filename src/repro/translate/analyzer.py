"""Translatability analysis (paper §3.7 and Table 3).

``analyze_cuda_source`` decides whether a CUDA program can be translated to
OpenCL, returning categorized findings; ``analyze_opencl_source`` does the
(much shorter) check for the opposite direction.  The analysis has two
layers, like real CUDA→OpenCL tools:

1. a **lexical prescan** over the raw source that catches features our
   frontend doesn't even parse (C++ classes, Thrust includes, inline PTX,
   OpenGL interop) — tools bail out early on these too;
2. a **parse-level scan** for semantic features: hardware intrinsics
   (``__shfl``, ``__ballot``, ``clock``, ``assert``; and ``atomicInc``/
   ``atomicDec``, whose wrap-around semantics OpenCL cannot express, §3.7),
   ``cudaMemGetInfo`` and other unwrappable host APIs, device-side
   ``printf``, pointers inside kernel-argument structures (heartwall),
   function-pointer parameters, and 1D-texture binds whose constant size
   exceeds the OpenCL image limit (kmeans/leukocyte/hybridsort, §5).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..clike import ast as A
from ..clike import parse
from ..clike import types as T
from ..clike.parser import _const_eval
from ..device.specs import GTX_TITAN, DeviceSpec
from ..errors import FrontendError, TranslationNotSupported
from .builtins_map import (CUDA_UNTRANSLATABLE_BUILTINS,
                           CUDA_UNTRANSLATABLE_HOST_APIS,
                           OCL_UNTRANSLATABLE_FUNCS)
from .categories import (CAT_LANG, CAT_LIBS, CAT_NO_FUNC, CAT_OPENGL,
                         CAT_PTX, CAT_UVA)
from .diagnostics import SEV_ERROR, Diagnostic, SourceSpan, line_col_at

__all__ = ["Finding", "analyze_cuda_source", "analyze_opencl_source",
           "check_cuda_translatable", "check_opencl_translatable"]


@dataclass(frozen=True)
class Finding:
    category: str
    feature: str
    detail: str = ""
    #: 1-based source position of the offending construct (0 = unknown)
    line: int = 0
    col: int = 0

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col)

    def to_diagnostic(self, pass_name: str = "analyze") -> Diagnostic:
        """The finding as a located, category-tagged diagnostic."""
        return Diagnostic(
            SEV_ERROR, self.feature, category=self.category, span=self.span,
            pass_name=pass_name, detail=self.detail)

    def raise_(self) -> None:
        raise TranslationNotSupported(self.category, self.feature,
                                      self.detail,
                                      diagnostic=self.to_diagnostic())


# ---------------------------------------------------------------------------
# lexical prescan
# ---------------------------------------------------------------------------

_INCLUDE_RE = re.compile(r'#\s*include\s*[<"]([^">]+)[">]')

_LIB_HEADERS = ("thrust/", "cufft", "curand", "cublas", "npp", "cusparse",
                "cudnn")
_GL_HEADERS = ("GL/", "gl.h", "glut", "glew", "cuda_gl_interop")

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_LEXICAL_MARKERS: List[Tuple[str, str, str]] = [
    # (identifier, category, feature)
    ("class", CAT_LANG, "C++ classes in device code"),
    ("new", CAT_LANG, "C++ new/delete in device code"),
    ("delete", CAT_LANG, "C++ new/delete in device code"),
    ("virtual", CAT_LANG, "C++ virtual functions"),
    ("namespace", CAT_LANG, "C++ namespaces"),
    ("operator", CAT_LANG, "C++ operator overloading"),
    ("asm", CAT_PTX, "inline PTX assembly"),
    ("cuModuleLoad", CAT_PTX, "driver-API PTX module loading"),
    ("cuModuleLoadData", CAT_PTX, "driver-API PTX module loading"),
    ("cuLaunchKernel", CAT_PTX, "driver-API kernel launch"),
    ("cuModuleGetFunction", CAT_PTX, "driver-API PTX module loading"),
    ("cudaGLSetGLDevice", CAT_OPENGL, "OpenGL interop"),
    ("cudaGraphicsGLRegisterBuffer", CAT_OPENGL, "OpenGL interop"),
    ("cudaGraphicsGLRegisterImage", CAT_OPENGL, "OpenGL interop"),
    ("cudaGraphicsMapResources", CAT_OPENGL, "OpenGL interop"),
    ("glutInit", CAT_OPENGL, "OpenGL interop"),
    ("glBindBuffer", CAT_OPENGL, "OpenGL interop"),
    ("glDrawArrays", CAT_OPENGL, "OpenGL interop"),
    ("cudaHostGetDevicePointer", CAT_UVA, "unified virtual address space"),
    ("cudaHostRegister", CAT_UVA, "zero-copy host memory"),
    ("cudaDeviceEnablePeerAccess", CAT_UVA, "peer-to-peer access"),
    ("cudaMemcpyPeer", CAT_UVA, "peer-to-peer copies"),
    ("cudaMemcpyDefault", CAT_UVA, "unified-virtual-address copies"),
    ("cudaHostAllocMapped", CAT_UVA, "mapped (zero-copy) host memory"),
    ("thrust", CAT_LIBS, "Thrust library"),
    ("cufftExecC2C", CAT_LIBS, "cuFFT library"),
    ("cufftPlan1d", CAT_LIBS, "cuFFT library"),
    ("curandGenerate", CAT_LIBS, "cuRAND library"),
    ("cublasSgemm", CAT_LIBS, "cuBLAS library"),
]


def _lexical_findings(source: str) -> List[Finding]:
    found: List[Finding] = []
    for m in _INCLUDE_RE.finditer(source):
        header = m.group(1)
        line, col = line_col_at(source, m.start())
        if any(h in header for h in _LIB_HEADERS):
            found.append(Finding(CAT_LIBS, f"#include <{header}>",
                                 line=line, col=col))
        elif any(h in header for h in _GL_HEADERS):
            found.append(Finding(CAT_OPENGL, f"#include <{header}>",
                                 line=line, col=col))
    word_pos: Dict[str, int] = {}
    for m in _WORD_RE.finditer(source):
        word_pos.setdefault(m.group(0), m.start())
    for word, cat, feature in _LEXICAL_MARKERS:
        if word in word_pos:
            line, col = line_col_at(source, word_pos[word])
            found.append(Finding(cat, feature, f"token {word!r}",
                                 line=line, col=col))
    return found


# ---------------------------------------------------------------------------
# parse-level scan (CUDA)
# ---------------------------------------------------------------------------

_BUILTIN_CATEGORY: Dict[str, str] = {
    name: CAT_NO_FUNC for name in CUDA_UNTRANSLATABLE_BUILTINS
}
_BUILTIN_CATEGORY["printf"] = CAT_LANG  # device printf (simplePrintf)

_HOST_API_CATEGORY: Dict[str, str] = {
    name: (CAT_UVA if "Peer" in name or "HostGet" in name
           or "Pointer" in name else CAT_NO_FUNC)
    for name in CUDA_UNTRANSLATABLE_HOST_APIS
}


def _device_functions(unit: A.TranslationUnit) -> List[A.FunctionDecl]:
    return [f for f in unit.functions()
            if f.body is not None
            and (f.is_kernel or "__device__" in f.qualifiers
                 or f.template_params)]


def _parse_findings(unit: A.TranslationUnit,
                    spec: DeviceSpec) -> List[Finding]:
    found: List[Finding] = []
    device_fns = _device_functions(unit)
    device_names = {f.name for f in device_fns}
    host_fns = [f for f in unit.functions()
                if f.body is not None and f.name not in device_names]

    # texture element sizes for the bind-size check
    tex_elem: Dict[str, int] = {}
    for d in unit.decls:
        if isinstance(d, A.VarDecl) and isinstance(d.type, T.TextureType):
            tex_elem[d.name] = d.type.base.size or 4

    for fn in device_fns:
        for node in A.walk(fn.body):
            if isinstance(node, A.Call):
                name = node.callee_name
                cat = _BUILTIN_CATEGORY.get(name or "")
                if cat is not None:
                    line, col = A.best_loc(node)
                    found.append(Finding(
                        cat, name or "?", f"in device function {fn.name!r}",
                        line=line, col=col))
            elif isinstance(node, A.Ident) and node.name == "warpSize":
                line, col = A.best_loc(node)
                found.append(Finding(CAT_NO_FUNC, "warpSize",
                                     f"in device function {fn.name!r}",
                                     line=line, col=col))
        # function pointers / structs holding pointers as kernel args
        if fn.is_kernel:
            for p in fn.params:
                pt = p.type
                line, col = A.best_loc(p)
                if line == 0:
                    line, col = A.best_loc(fn)
                if isinstance(pt, T.PointerType) \
                        and isinstance(pt.pointee, T.FunctionType):
                    found.append(Finding(CAT_LANG, "function pointers",
                                         f"kernel {fn.name!r}",
                                         line=line, col=col))
                if isinstance(pt, T.StructType) and _has_pointer_field(pt):
                    found.append(Finding(
                        CAT_LANG, "pointers inside kernel argument structure",
                        f"kernel {fn.name!r} parameter {p.name!r} "
                        "(the heartwall failure, §6.3)",
                        line=line, col=col))
                if isinstance(pt, T.PointerType) \
                        and isinstance(pt.pointee, T.StructType) \
                        and _has_pointer_field(pt.pointee):
                    found.append(Finding(
                        CAT_LANG, "pointers inside kernel argument structure",
                        f"kernel {fn.name!r} parameter {p.name!r}",
                        line=line, col=col))

    max_texels = spec.max_image2d[0]
    for fn in host_fns:
        for node in A.walk(fn.body):
            if not isinstance(node, A.Call):
                continue
            name = node.callee_name
            cat = _HOST_API_CATEGORY.get(name or "")
            line, col = A.best_loc(node)
            if cat is not None:
                found.append(Finding(cat, name or "?",
                                     f"in host function {fn.name!r}",
                                     line=line, col=col))
            if name == "cudaBindTexture" and len(node.args) >= 4:
                size = _const_eval(node.args[-1])
                texname = node.args[1].name \
                    if isinstance(node.args[1], A.Ident) else None
                elem = tex_elem.get(texname or "", 4)
                if size is not None and size // elem > max_texels:
                    found.append(Finding(
                        CAT_LANG,
                        "1D texture larger than the OpenCL image limit",
                        f"{size // elem} texels > {max_texels} (§5)",
                        line=line, col=col))
    return found


def _has_pointer_field(st: T.StructType) -> bool:
    return any(isinstance(ft, T.PointerType) for ft in st.fields.values())


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def analyze_cuda_source(source: str,
                        spec: DeviceSpec = GTX_TITAN) -> List[Finding]:
    """All reasons ``source`` cannot be translated CUDA→OpenCL
    (empty list = translatable)."""
    return _analyze_cuda(source, spec)[0]


def _analyze_cuda(source: str, spec: DeviceSpec,
                  defines: Optional[Dict[str, str]] = None
                  ) -> Tuple[List[Finding], Optional[A.TranslationUnit]]:
    """The findings, and the unit the parse-level scan read (``None``
    when the prescan found a blocker or the source did not parse)."""
    findings = _lexical_findings(source)
    unit = None
    if not findings:
        try:
            unit = parse(source, "cuda", defines=defines)
        except FrontendError as e:
            findings.append(Finding(
                CAT_LANG, "unparseable C++ construct", str(e),
                line=e.line, col=e.col))
        else:
            findings.extend(_parse_findings(unit, spec))
    # deduplicate, preserving order
    seen: Set[Tuple[str, str]] = set()
    out: List[Finding] = []
    for f in findings:
        key = (f.category, f.feature)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out, unit


def check_cuda_translatable(source: str,
                            spec: DeviceSpec = GTX_TITAN) -> None:
    """Raise :class:`TranslationNotSupported` on the first blocker."""
    findings = analyze_cuda_source(source, spec)
    if findings:
        findings[0].raise_()


def analyze_opencl_source(host_source: str, kernel_source: str,
                          spec: DeviceSpec = GTX_TITAN) -> List[Finding]:
    """OpenCL→CUDA direction: far fewer blockers exist (§3.7)."""
    findings: List[Finding] = []
    word_pos: Dict[str, int] = {}
    for m in _WORD_RE.finditer(host_source):
        word_pos.setdefault(m.group(0), m.start())
    for name in sorted(OCL_UNTRANSLATABLE_FUNCS & set(word_pos)):
        feature = ("device fission (clCreateSubDevices)"
                   if name == "clCreateSubDevices" else name)
        line, col = line_col_at(host_source, word_pos[name])
        findings.append(Finding(CAT_NO_FUNC, feature,
                                "no CUDA counterpart (§3.7)",
                                line=line, col=col))
    for name in ("clSVMAlloc", "clEnqueueSVMMap"):
        if name in word_pos:
            line, col = line_col_at(host_source, word_pos[name])
            findings.append(Finding(
                CAT_NO_FUNC, name,
                "OpenCL 2.0 SVM; the translator targets OpenCL 1.2",
                line=line, col=col))
    kword_pos: Dict[str, int] = {}
    for m in _WORD_RE.finditer(kernel_source):
        kword_pos.setdefault(m.group(0), m.start())
    for name in ("pipe", "work_group_barrier"):
        if name in kword_pos:
            line, col = line_col_at(kernel_source, kword_pos[name])
            findings.append(Finding(CAT_LANG, "OpenCL 2.0 kernel feature",
                                    "the translator targets OpenCL 1.2",
                                    line=line, col=col))
            break
    return findings


def check_opencl_translatable(host_source: str, kernel_source: str,
                              spec: DeviceSpec = GTX_TITAN) -> None:
    findings = analyze_opencl_source(host_source, kernel_source, spec)
    if findings:
        findings[0].raise_()
