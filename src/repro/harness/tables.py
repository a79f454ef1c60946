"""Regeneration of the paper's tables (1, 2 and 3).

Table 1 is *probed*, not hard-coded: each O/X cell comes from actually
attempting the allocation against the simulated frameworks.  Table 3 is the
analyzer's categorization of the 81-sample CUDA Toolkit corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..apps.base import App, apps_in_suite
from ..clike import parse
from ..device.engine import Device, load_module
from ..device.specs import GTX_TITAN, HD7970, DeviceSpec
from ..errors import ReproError
from ..translate.analyzer import analyze_cuda_source
from ..translate.categories import ALL_CATEGORIES

__all__ = ["table1", "table2", "table3", "Table1", "Table3"]

#: the paper's Table 1 (O = available, X = not available)
PAPER_TABLE1 = {
    ("local", "static"): ("O", "O"),
    ("local", "dynamic"): ("O", "O"),
    ("constant", "static"): ("O", "O"),
    ("constant", "dynamic"): ("O", "X"),
    ("global", "static"): ("X", "O"),
    ("global", "dynamic"): ("O", "O"),
}

#: the paper's Table 3 failure counts
PAPER_TABLE3_COUNTS = {
    "No corresponding functions": 6,
    "Unsupported libraries": 5,
    "Unsupported language extensions": 19,
    "OpenGL binding": 15,
    "Use of PTX": 7,
    "Use of unified virtual address space": 4,
}


@dataclass
class Table1:
    """Device memory allocation availability: (memory, mode) -> (ocl, cuda)."""

    cells: Dict[Tuple[str, str], Tuple[str, str]] = field(default_factory=dict)

    def matches_paper(self) -> bool:
        return self.cells == PAPER_TABLE1


def _probe(fn) -> str:
    try:
        fn()
        return "O"
    except ReproError:
        return "X"


def table1() -> Table1:
    """Probe both frameworks for every allocation scheme of paper Table 1."""
    from ..cuda.runtime import CudaRuntime

    def ocl_compiles(src: str):
        load_module(Device(GTX_TITAN), parse(src, "opencl"), "opencl")

    def cuda_compiles(src: str):
        load_module(Device(GTX_TITAN), parse(src, "cuda"), "cuda")

    t = Table1()

    # local / shared memory
    t.cells[("local", "static")] = (
        _probe(lambda: ocl_compiles(
            "__kernel void k(__global int* g) { __local int s[8]; g[0]=s[0]; }")),
        _probe(lambda: cuda_compiles(
            "__global__ void k(int* g) { __shared__ int s[8]; g[0]=s[0]; }")),
    )
    # dynamic local: OpenCL via clSetKernelArg(size, NULL); CUDA via the
    # third launch-config parameter — both expressible
    t.cells[("local", "dynamic")] = (
        _probe(lambda: ocl_compiles(
            "__kernel void k(__local int* s, __global int* g) { g[0]=s[0]; }")),
        _probe(lambda: cuda_compiles(
            "__global__ void k(int* g) { extern __shared__ int s[]; g[0]=s[0]; }")),
    )
    # constant memory
    t.cells[("constant", "static")] = (
        _probe(lambda: ocl_compiles(
            "__constant int c[2] = {1, 2};\n"
            "__kernel void k(__global int* g) { g[0] = c[0]; }")),
        _probe(lambda: cuda_compiles(
            "__constant__ int c[2] = {1, 2};\n"
            "__global__ void k(int* g) { g[0] = c[0]; }")),
    )
    # dynamic constant: OpenCL passes a __constant pointer argument sized at
    # run time; CUDA has no API to allocate constant memory dynamically
    def cuda_dynamic_constant():
        table = CudaRuntime().api_table()
        if not any(name in table for name in
                   ("cudaConstantAlloc", "cudaMallocConstant")):
            raise ReproError("no CUDA API allocates constant memory at run time")
    t.cells[("constant", "dynamic")] = (
        _probe(lambda: ocl_compiles(
            "__kernel void k(__constant int* c, __global int* g) { g[0]=c[0]; }")),
        _probe(cuda_dynamic_constant),
    )
    # global memory
    t.cells[("global", "static")] = (
        _probe(lambda: ocl_compiles(
            "__global int g_state[4];\n"
            "__kernel void k(__global int* g) { g[0] = g_state[0]; }")),
        _probe(lambda: cuda_compiles(
            "__device__ int g_state[4];\n"
            "__global__ void k(int* g) { g[0] = g_state[0]; }")),
    )
    def ocl_dynamic_global():
        from ..ocl.api import OpenCLFramework
        fw = OpenCLFramework()
        from ..ocl.objects import CLContext, CLBuffer
        ctx = CLContext(list(fw.cl_devices))
        CLBuffer(ctx, 0, 64)
    def cuda_dynamic_global():
        Device(GTX_TITAN).alloc_global(64)
    t.cells[("global", "dynamic")] = (
        _probe(ocl_dynamic_global),
        _probe(cuda_dynamic_global),
    )
    return t


def table2() -> Dict[str, str]:
    """System configuration (paper Table 2), from the device specs."""
    return {
        "CPU": "Intel Xeon E5-2650 x2 (simulated host)",
        "RAM": "128GB DDR3 1333Mhz (simulated host)",
        "GPUs used": f"{GTX_TITAN.name}; {HD7970.name}",
        "NVIDIA CUDA Toolkit": "7.0 (simulated; CC 3.5 semantics)",
        "AMD APP SDK": "2.7 (simulated)",
        "Host compiler": "repro.clike interpreter",
        "Titan CUs/clock": f"{GTX_TITAN.compute_units} SMs @ "
                           f"{GTX_TITAN.clock_hz/1e6:.0f} MHz",
        "HD7970 CUs/clock": f"{HD7970.compute_units} CUs @ "
                            f"{HD7970.clock_hz/1e6:.0f} MHz",
    }


@dataclass
class Table3:
    """Failure categorization of the CUDA Toolkit corpus."""

    by_category: Dict[str, List[str]] = field(default_factory=dict)
    translated: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        return {cat: len(apps) for cat, apps in self.by_category.items()}

    def matches_paper_counts(self) -> bool:
        return self.counts == {k: v for k, v in PAPER_TABLE3_COUNTS.items()}


def table3() -> Table3:
    """Run the translatability analyzer over all 81 Toolkit CUDA samples."""
    t = Table3()
    for cat in ALL_CATEGORIES:
        t.by_category[cat] = []
    for app in apps_in_suite("toolkit"):
        if not app.has_cuda:
            continue
        findings = analyze_cuda_source(app.cuda_source)
        if not findings:
            t.translated.append(app.name)
            if app.fail_category is not None:
                t.mismatches.append(
                    f"{app.name}: expected {app.fail_category}, analyzer "
                    "found nothing")
            continue
        cat = findings[0].category
        t.by_category[cat].append(app.name)
        if app.fail_category != cat:
            t.mismatches.append(
                f"{app.name}: expected {app.fail_category}, got {cat}")
    return t
