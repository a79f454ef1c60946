"""Kernel execution engine: devices, modules, and NDRange/grid scheduling.

A :class:`Device` owns the memory pools; :func:`load_module` turns a parsed
translation unit into a :class:`DeviceModule` (our analogue of a PTX module:
file-scope ``__constant__``/``__device__`` variables are allocated and
initialized, kernels become launchable :class:`KernelObject` s).

:func:`launch_kernel` runs a grid of work-groups.  Work-items of a group are
Python generators advanced in barrier-delimited phases, which gives correct
OpenCL/CUDA *relaxed* semantics: writes before a barrier are visible after
it, and barrier divergence is detected and reported.  The first few groups
are traced at memory-access granularity to feed the bank-conflict and
coalescing models; the counts are scaled to the full grid.
"""

from __future__ import annotations

import copy
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, \
    Tuple

from ..clike import ast as A
from ..clike import types as T
from ..clike.dialect import get_dialect
from ..clike.interp import WARP_OP_KINDS, ExecEnv, Interp, Stack
from ..clike.sema import annotate_unit
from ..errors import DeviceError, InterpError
from ..observability import get_metrics, get_tracer
from ..runtime.memory import Memory
from ..runtime.values import Ptr, Vec, coerce
from .banks import warp_transactions
from .builtins import BARRIER_NAMES, make_builtins
from .occupancy import KNOWN_COMPILERS, Occupancy, calc_occupancy, \
    estimate_registers
from .perf import KernelTime, PerfCounters, kernel_time
from .sched import GeneratorProgram, WarpScheduler, warp_windows
from .specs import DeviceSpec, GTX_TITAN

__all__ = ["Device", "DeviceModule", "KernelObject", "LocalArg",
           "load_module", "launch_kernel", "LaunchResult",
           "EXEC_TIERS", "exec_tier_override", "resolve_exec_tier",
           "LaunchProfile", "launch_profiling",
           "KernelDebugDriver", "debug_driver"]

#: number of leading work-groups traced for bank-conflict / coalescing
_SAMPLE_GROUPS = 2
#: simulated global memory pool size (the *reported* capacity comes from the
#: spec; allocating 6 GB of real RAM per device would be absurd)
_GLOBAL_POOL = 96 * 1024 * 1024
_PRIVATE_BYTES_PER_WI = 8 * 1024
_DRAM_SEGMENT = 128

# address-space singletons hoisted out of the per-access hot path
_SP_GLOBAL = T.AddressSpace.GLOBAL
_SP_LOCAL = T.AddressSpace.LOCAL
_SP_CONSTANT = T.AddressSpace.CONSTANT

# ---------------------------------------------------------------------------
# execution tiers
# ---------------------------------------------------------------------------

#: tiers: ``interp`` walks the AST per work-item (reference semantics);
#: ``compiled`` lowers kernels to generated Python at module load;
#: ``vector`` additionally executes eligible kernels one numpy-batched
#: warp per step.  Every non-interp tier demotes per kernel down the
#: ladder ``vector -> compiled -> interp`` when codegen does not cover a
#: construct (DESIGN.md §9 and §11).  Every ``--exec-tier`` flag takes
#: its choices from this tuple.
EXEC_TIERS = ("interp", "compiled", "vector")
_EXEC_TIER_OVERRIDE: Optional[str] = None


def resolve_exec_tier(explicit: Optional[str] = None) -> str:
    """The effective execution tier: explicit arg > process override
    (:func:`exec_tier_override`) > ``$REPRO_EXEC_TIER`` > ``interp``."""
    tier = (explicit or _EXEC_TIER_OVERRIDE
            or os.environ.get("REPRO_EXEC_TIER") or "interp")
    tier = tier.strip().lower()
    if tier not in EXEC_TIERS:
        raise DeviceError(f"bad execution tier {tier!r} "
                          f"(EXEC_TIERS: {', '.join(EXEC_TIERS)})")
    return tier


@contextmanager
def exec_tier_override(tier: Optional[str]) -> Iterator[None]:
    """Force a tier for modules loaded inside the block (tests/benches);
    ``None`` leaves the current selection in force."""
    global _EXEC_TIER_OVERRIDE
    prev = _EXEC_TIER_OVERRIDE
    _EXEC_TIER_OVERRIDE = tier or prev
    try:
        yield
    finally:
        _EXEC_TIER_OVERRIDE = prev


class Device:
    """A simulated accelerator instance."""

    def __init__(self, spec: DeviceSpec = GTX_TITAN) -> None:
        self.spec = spec
        self.global_mem = Memory(f"{spec.name}/global", _GLOBAL_POOL,
                                 T.AddressSpace.GLOBAL)
        self.constant_mem = Memory(f"{spec.name}/constant", spec.constant_mem,
                                   T.AddressSpace.CONSTANT)

    def alloc_global(self, size: int) -> Ptr:
        off = self.global_mem.alloc(size, 256)
        return Ptr(self.global_mem, off, T.VOID)

    def free_global(self, ptr: Ptr) -> None:
        self.global_mem.free(ptr.off)

    def mem_info(self) -> Tuple[int, int]:
        """(free, total) global memory — scaled to the spec's capacity so
        ``cudaMemGetInfo`` reports realistic numbers."""
        assert self.global_mem.allocator is not None
        used = self.global_mem.allocator.used_bytes()
        total = self.spec.global_mem
        return total - used, total

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Device {self.spec.name}>"


@dataclass
class KernelObject:
    """A launchable kernel within a loaded module."""

    name: str
    fn: A.FunctionDecl
    module: "DeviceModule"

    @property
    def num_args(self) -> int:
        return len(self.fn.params)

    def static_shared_bytes(self) -> int:
        """Bytes of statically declared __shared__/__local arrays."""
        total = 0
        if self.fn.body is not None:
            for node in A.walk(self.fn.body):
                if (isinstance(node, A.VarDecl)
                        and node.space == T.AddressSpace.LOCAL
                        and "extern" not in node.quals
                        and node.type.size is not None):
                    total += node.type.size
        return total


class DeviceModule:
    """A loaded device-code module ("PTX image")."""

    def __init__(self, device: Device, unit: A.TranslationUnit,
                 dialect: str) -> None:
        self.device = device
        self.unit = unit
        self.dialect = dialect
        self.kernels: Dict[str, KernelObject] = {}
        #: file-scope __constant__/__device__ symbols -> device pointers
        self.symbols: Dict[str, Ptr] = {}
        #: opaque file-scope objects (CUDA texture references)
        self.globals_values: Dict[str, Any] = {}
        #: execution tier for this module's launches (see resolve_exec_tier)
        self.exec_tier: str = "interp"
        #: kernel name -> generated-code generator function (compile tier)
        self.compiled_entries: Dict[str, Any] = {}
        #: generated Python source (debugging/introspection; None until
        #: codegen has run)
        self.compiled_source: Optional[str] = None
        #: kernel name -> reason it fell back to the interpreter
        self.compile_fallbacks: Dict[str, str] = {}
        #: kernel name -> warp-batched generator function (vector tier)
        self.vector_entries: Dict[str, Any] = {}
        #: kernel name -> reason it demoted to the scalar compiled form
        self.vector_fallbacks: Dict[str, str] = {}
        #: kernel name -> reason the debugger demoted it to the
        #: interpreter tier.  Scoped per *kernel*, like
        #: ``compile_fallbacks``/``vector_fallbacks``: attaching the
        #: debugger to one kernel never changes how its siblings run.
        self.debug_demotions: Dict[str, str] = {}

    def get_kernel(self, name: str) -> KernelObject:
        try:
            return self.kernels[name]
        except KeyError:
            raise DeviceError(f"no kernel {name!r} in module "
                              f"(have {sorted(self.kernels)})")

    def symbol(self, name: str) -> Ptr:
        try:
            return self.symbols[name]
        except KeyError:
            raise DeviceError(f"no device symbol {name!r}")


def load_module(device: Device, unit: A.TranslationUnit,
                dialect: str, exec_tier: Optional[str] = None) -> DeviceModule:
    """Allocate module-level state and register kernels (cuModuleLoad).

    ``exec_tier`` overrides the process-wide tier selection (see
    :func:`resolve_exec_tier`) for this module only.
    """
    annotate_unit(unit, dialect)
    unit._sema_done = True  # type: ignore[attr-defined]
    mod = DeviceModule(device, unit, dialect)

    # allocate + initialize file-scope variables
    init_interp = Interp(unit, ExecEnv(stack_size=4096), dialect,
                         annotate=False)
    for d in unit.decls:
        if isinstance(d, A.VarDecl):
            if isinstance(d.type, T.TextureType):
                from ..cuda.textures import TextureRef
                ref = TextureRef(name=d.name, ttype=d.type)
                mod.globals_values[d.name] = ref
                continue
            if dialect == "cuda" and d.space is None:
                # plain host globals in a .cu file belong to the host side
                continue
            if dialect == "opencl" and d.space == T.AddressSpace.GLOBAL:
                # OpenCL 1.2 §6.5: program-scope variables must live in
                # __constant — static global allocation is impossible
                # (paper Table 1 / §4.3)
                raise DeviceError(
                    f"program-scope variable {d.name!r} in the global "
                    "address space is not allowed in OpenCL 1.2")
            space = d.space or T.AddressSpace.CONSTANT
            mem = (device.constant_mem if space == T.AddressSpace.CONSTANT
                   else device.global_mem)
            size = d.type.size or 8
            off = mem.alloc(size, max(d.type.align, 16))
            ptr = Ptr(mem, off, d.type)
            mod.symbols[d.name] = ptr
            if d.init is not None:
                init_interp._store_init(ptr, d.init)
            else:
                mem.write_bytes(off, b"\0" * size)
    for fn in unit.functions():
        if fn.is_kernel and fn.body is not None:
            mod.kernels[fn.name] = KernelObject(fn.name, fn, mod)
    mod.exec_tier = resolve_exec_tier(exec_tier)
    if mod.exec_tier != "interp":
        _compile_module(mod)
    return mod


def _compile_module(mod: DeviceModule) -> None:
    """Lower the module's kernels to generated Python (compile tier).

    Codegen output is content-addressed by the printed kernel source, so
    warm runs skip codegen entirely; kernels using constructs codegen does
    not cover are recorded in ``compile_fallbacks`` and keep running
    through the interpreter.  Never raises: a codegen failure demotes the
    whole module to the interpreter.
    """
    from ..clike.compile import CODEGEN_VERSION, bind_unit, compile_unit
    from ..clike.printer import print_unit
    from ..clike.vectorize import bind_vector_unit
    from ..pipeline.cache import cache_key, kernel_code_cache
    metrics = get_metrics()
    with get_tracer().span(f"compile:{mod.dialect}",
                           kernels=len(mod.kernels)) as span:
        try:
            src = print_unit(mod.unit, mod.dialect)
            key = cache_key(src, mod.dialect,
                            {"codegen": str(CODEGEN_VERSION)},
                            "kernel-codegen")
            cache = kernel_code_cache()
            cs = cache.get(key)
            if cs is not None and cs.codegen_version == CODEGEN_VERSION:
                metrics.counter("engine.compile.cache_hit").inc()
                span.set(outcome="cache_hit")
            else:
                cs = compile_unit(mod.unit, mod.dialect)
                metrics.counter("engine.compile.cache_miss").inc()
                span.set(outcome="cache_miss")
                cache.put(key, cs, meta={"dialect": mod.dialect,
                                         "kind": "kernel-codegen"})
            mod.compiled_source = cs.source
            mod.compile_fallbacks = dict(cs.fallbacks)
            mod.compiled_entries = bind_unit(mod.unit, cs, mod.symbols,
                                             mod.globals_values)
            mod.vector_fallbacks = dict(cs.vector_fallbacks)
            mod.vector_entries = bind_vector_unit(mod.unit, cs, mod.symbols,
                                                  mod.globals_values)
        except Exception as e:  # pragma: no cover - defensive demotion
            mod.compile_fallbacks = {k: f"module codegen failed: {e}"
                                     for k in mod.kernels}
            mod.compiled_entries = {}
            mod.vector_entries = {}
            span.set(outcome="error", error=str(e))
        if mod.compile_fallbacks:
            metrics.counter("engine.compile.fallback").inc(
                len(mod.compile_fallbacks))
        if mod.vector_entries:
            metrics.counter("engine.vector.kernels").inc(
                len(mod.vector_entries))
        if mod.vector_fallbacks:
            metrics.counter("engine.vector.fallback").inc(
                len(mod.vector_fallbacks))
        span.set(covered=len(mod.compiled_entries),
                 fallbacks=len(mod.compile_fallbacks),
                 vector_covered=len(mod.vector_entries))


# ---------------------------------------------------------------------------
# launch profiling (feeds repro.farm cross-device cost estimation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaunchProfile:
    """Device-independent record of one kernel launch.

    Everything the analytical perf model needs to re-cost the launch on a
    *different* :class:`DeviceSpec`: the raw event counters, the launch
    geometry, and register estimates precomputed for every known compiler
    (register allocation is a property of (kernel, compiler), not of the
    device the profile was captured on).  The transaction counters embed
    the profiling device's warp geometry — held fixed when re-costing, a
    documented approximation (DESIGN.md §12).
    """

    kernel: str
    framework: str
    counters: PerfCounters
    threads_per_block: int
    shared_per_block: int
    #: compiler name -> estimated registers per thread
    regs_by_compiler: Dict[str, int]


#: when non-None, every launch appends a LaunchProfile here
_PROFILE_SINK: Optional[List[LaunchProfile]] = None


@contextmanager
def launch_profiling(sink: List[LaunchProfile]) -> Iterator[None]:
    """Capture a :class:`LaunchProfile` per kernel launch into ``sink``.

    Purely observational — modeled times, counters and stdout of the
    profiled run are unchanged.  Not reentrant; the innermost sink wins.
    """
    global _PROFILE_SINK
    prev = _PROFILE_SINK
    _PROFILE_SINK = sink
    try:
        yield
    finally:
        _PROFILE_SINK = prev


class KernelDebugDriver:
    """Engine attachment point for the interactive debugger.

    :mod:`repro.debug` subclasses this and installs an instance through
    :func:`debug_driver`.  For every group of every launch whose kernel
    the driver :meth:`wants`, the engine (a) demotes *that kernel only*
    to the interpreter tier (recorded in
    :attr:`DeviceModule.debug_demotions`), (b) builds work-item
    environments through :meth:`make_env` (built-in interception) and
    lane programs through :meth:`wrap_program` (live-frame access), and
    (c) hands the warp scheduler to :meth:`drive` instead of calling
    ``sched.run()``.  The base class is a transparent no-op driver.
    """

    def wants(self, module: "DeviceModule", kernel_name: str) -> bool:
        return False

    def make_env(self, launch: "_LaunchEnv", stack: Stack,
                 group: Tuple[int, int, int],
                 lid: Tuple[int, int, int]) -> "WorkItemEnv":
        return WorkItemEnv(launch, stack, group, lid)

    def wrap_program(self, prog: GeneratorProgram, interp: Interp,
                     env: "WorkItemEnv") -> GeneratorProgram:
        return prog

    def drive(self, launch: "_LaunchEnv", sched: WarpScheduler) -> None:
        sched.run()


#: when non-None, launches consult the driver's ``wants()`` per kernel
_DEBUG_DRIVER: Optional[KernelDebugDriver] = None


@contextmanager
def debug_driver(driver: KernelDebugDriver) -> Iterator[None]:
    """Attach a :class:`KernelDebugDriver` for the dynamic extent of the
    block.  Not reentrant; the innermost driver wins."""
    global _DEBUG_DRIVER
    prev = _DEBUG_DRIVER
    _DEBUG_DRIVER = driver
    try:
        yield
    finally:
        _DEBUG_DRIVER = prev


@dataclass(frozen=True)
class LocalArg:
    """Marker for a dynamically-sized local/shared argument
    (``clSetKernelArg(k, i, size, NULL)``)."""

    size: int


@dataclass
class LaunchResult:
    counters: PerfCounters
    time: KernelTime
    occupancy: Occupancy
    stdout: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# launch environment
# ---------------------------------------------------------------------------

class _LaunchEnv:
    """State shared by all work-items of one launch."""

    def __init__(self, device: Device, kernel: KernelObject,
                 framework: str, grid: Tuple[int, int, int],
                 block: Tuple[int, int, int]) -> None:
        self.device = device
        self._gmem = device.global_mem   # hot-path alias (access_site)
        self.kernel = kernel
        self.framework = framework
        self.grid = grid
        self.block = block
        self.work_dim = 3 if block[2] > 1 or grid[2] > 1 else (
            2 if block[1] > 1 or grid[1] > 1 else 1)
        self.counters = PerfCounters()
        self.stdout: List[str] = []
        self.local_mem: Optional[Memory] = None
        self.private_mem: Optional[Memory] = None
        #: offsets in constant-space ranges inside the global pool (OpenCL
        #: buffers bound to __constant parameters)
        self.constant_ranges: List[Tuple[int, int]] = []
        self.tracing = False
        # per-group static-shared allocations: name -> Ptr
        self.local_static: Dict[str, Ptr] = {}
        self.local_bump = 0
        #: offset of the CUDA dynamic-shared region in local_mem
        self.dynamic_base = 0
        self.dyn_shared_bytes = 0
        # group-local traces: wi linear id -> site id -> list[(addr, size)]
        self.local_traces: List[Dict[int, List[Tuple[int, int]]]] = []
        self.global_traces: List[Dict[int, List[Tuple[int, int]]]] = []
        self._clock = 0
        #: the attached KernelDebugDriver when this launch's kernel is
        #: being debugged (set per group by _run_group), else None
        self.debug_driver: Optional[KernelDebugDriver] = None

    def in_constant_range(self, ptr: Ptr) -> bool:
        return self.in_constant_off(ptr.mem, ptr.off)

    def in_constant_off(self, mem: Memory, off: int) -> bool:
        if mem is not self._gmem:
            return False
        for lo, hi in self.constant_ranges:
            if lo <= off < hi:
                return True
        return False


class WorkItemEnv(ExecEnv):
    """Per-work-item execution environment."""

    __slots__ = ("launch", "lid", "gid", "group", "linear_lid", "_builtins",
                 "stack", "_str_cache", "_str_top")

    def __init__(self, launch: _LaunchEnv, stack: Stack,
                 group: Tuple[int, int, int],
                 lid: Tuple[int, int, int]) -> None:
        # do not call super().__init__: stack is a shared-slice stack
        self.stack = stack
        self.launch = launch
        self.group = group
        self.lid = lid
        block = launch.block
        self.gid = (group[0] * block[0] + lid[0],
                    group[1] * block[1] + lid[1],
                    group[2] * block[2] + lid[2])
        self.linear_lid = (lid[2] * block[1] + lid[1]) * block[0] + lid[0]
        # built lazily on first lookup: most compiled-tier work-items never
        # call a builtin, and the table is ~100 closures per work-item
        self._builtins: Optional[Dict[str, Callable[..., Any]]] = None

    # -- ids ------------------------------------------------------------------

    def global_id(self, d: int) -> int:
        return self.gid[d]

    def local_id(self, d: int) -> int:
        return self.lid[d]

    def group_id(self, d: int) -> int:
        return self.group[d]

    def global_size(self, d: int) -> int:
        return self.launch.grid[d] * self.launch.block[d]

    def local_size(self, d: int) -> int:
        return self.launch.block[d]

    def num_groups(self, d: int) -> int:
        return self.launch.grid[d]

    # -- ExecEnv hooks -----------------------------------------------------------

    def builtin(self, name: str) -> Optional[Callable[..., Any]]:
        table = self._builtins
        if table is None:
            table = self._builtins = make_builtins(
                self, self.launch.kernel.module.dialect)
        return table.get(name)

    def special_var(self, name: str) -> Any:
        if self.launch.kernel.module.dialect == "cuda":
            u3 = T.vector("uint", 3)
            if name == "threadIdx":
                return Vec(u3, list(self.lid))
            if name == "blockIdx":
                return Vec(u3, list(self.group))
            if name == "blockDim":
                return Vec(u3, list(self.launch.block))
            if name == "gridDim":
                return Vec(u3, list(self.launch.grid))
            if name == "warpSize":
                return self.launch.device.spec.warp_size
        raise KeyError(name)

    _CLK_CONSTANTS = {
        "CLK_LOCAL_MEM_FENCE": 1, "CLK_GLOBAL_MEM_FENCE": 2,
        "CLK_NORMALIZED_COORDS_FALSE": 0x00,
        "CLK_NORMALIZED_COORDS_TRUE": 0x01,
        "CLK_ADDRESS_NONE": 0x00, "CLK_ADDRESS_CLAMP_TO_EDGE": 0x02,
        "CLK_ADDRESS_CLAMP": 0x04, "CLK_ADDRESS_REPEAT": 0x06,
        "CLK_FILTER_NEAREST": 0x10, "CLK_FILTER_LINEAR": 0x20,
    }

    def constant(self, name: str) -> Any:
        if name in self._CLK_CONSTANTS:
            return self._CLK_CONSTANTS[name]
        if name in ("CUDART_INF_F", "INFINITY", "HUGE_VALF"):
            return float("inf")
        if name == "NAN":
            return float("nan")
        if name in ("M_PI", "M_PI_F", "CUDART_PI_F"):
            import math
            return math.pi
        if name in ("FLT_MAX", "MAXFLOAT"):
            return 3.4028234663852886e38
        if name == "FLT_MIN":
            return 1.1754943508222875e-38
        if name == "FLT_EPSILON":
            return 1.1920929e-07
        if name == "INT_MAX":
            return 2**31 - 1
        if name == "NULL":
            return 0
        raise KeyError(name)

    def is_barrier(self, name: str) -> bool:
        return name in BARRIER_NAMES[self.launch.kernel.module.dialect]

    # -- shared (local) memory -----------------------------------------------------

    def local_static_slot(self, name: str, ctype: T.Type) -> Ptr:
        """Group-wide slot for a static __shared__/__local declaration."""
        launch = self.launch
        ptr = launch.local_static.get(name)
        if ptr is None:
            assert launch.local_mem is not None
            size = ctype.size or 4
            align = max(ctype.align, 4)
            off = -(-launch.local_bump // align) * align
            if off + size > launch.local_mem.size:
                raise DeviceError(
                    f"shared memory overflow: {off + size} bytes "
                    f"> {launch.local_mem.size}")
            launch.local_bump = off + size
            ptr = Ptr(launch.local_mem, off, ctype)
            launch.local_static[name] = ptr
        return ptr

    def dynamic_shared_slot(self, elem: T.Type) -> Ptr:
        """CUDA ``extern __shared__ x[]`` — the pre-reserved dynamic region."""
        launch = self.launch
        assert launch.local_mem is not None
        return Ptr(launch.local_mem, launch.dynamic_base,
                   T.ArrayType(elem, None))

    # -- instrumentation ----------------------------------------------------------

    def on_load(self, ptr: Ptr, nbytes: int, node: Optional[A.Node]) -> None:
        self._on_access(ptr, nbytes, node, load=True)

    def on_store(self, ptr: Ptr, nbytes: int, node: Optional[A.Node]) -> None:
        self._on_access(ptr, nbytes, node, load=False)

    def _on_access(self, ptr: Ptr, nbytes: int, node: Optional[A.Node],
                   load: bool) -> None:
        self.access_site(ptr.mem, ptr.off, nbytes,
                         id(node) if node is not None else 0, load)

    def access_site(self, mem: Memory, off: int, nbytes: int, site: int,
                    load: bool) -> None:
        """Account one memory access at ``site`` (an opaque int identifying
        the syntactic access point: ``id(node)`` for the interpreter, a
        codegen-assigned literal for the compile tier — both unique per
        site, which is all the trace-pairing in ``_account_traces`` needs).
        """
        launch = self.launch
        space = mem.space
        c = launch.counters
        if space is _SP_GLOBAL:
            if mem is launch._gmem:          # in_constant_off, inlined
                for lo, hi in launch.constant_ranges:
                    if lo <= off < hi:
                        c.constant_read_bytes += nbytes
                        return
            if load:
                c.global_load_bytes += nbytes
            else:
                c.global_store_bytes += nbytes
            if launch.tracing:
                launch.global_traces[self.linear_lid].setdefault(
                    site, []).append((off, nbytes))
        elif space is _SP_LOCAL:
            c.local_accesses += 1
            c.local_bytes += nbytes
            if launch.tracing:
                launch.local_traces[self.linear_lid].setdefault(
                    site, []).append((off, nbytes))
        elif space is _SP_CONSTANT:
            c.constant_read_bytes += nbytes
        # private/host: free

    def count_op(self, kind: str, n: int = 1) -> None:
        c = self.launch.counters
        if kind == "flop":
            c.flops += n
        elif kind == "sfu":
            c.sfu_ops += n
        else:
            c.iops += n

    def count_atomic(self) -> None:
        self.launch.counters.atomics += 1

    def count_image_read(self, img: Any) -> None:
        # texture fetches stream through the texture cache at DRAM-order
        # bandwidth; charging them as global reads keeps texture-heavy
        # kernels comparable to their buffer-based twins
        fmt = getattr(img, "fmt", None)
        if fmt is not None:
            nbytes = fmt.pixel_bytes
        else:
            # linear-memory texture reference: one element per fetch
            elem = getattr(img, "elem_type", None)
            nbytes = getattr(elem, "size", None) or 4
        self.launch.counters.global_load_bytes += nbytes

    def count_image_write(self, img: Any) -> None:
        nbytes = getattr(getattr(img, "fmt", None), "pixel_bytes", 16)
        self.launch.counters.global_store_bytes += nbytes

    def clock(self) -> int:
        self.launch._clock += 32
        return self.launch._clock

    # -- warp primitives -------------------------------------------------------
    # True per-lane semantics: the work-item suspends on a WarpOp token and
    # the warp scheduler (repro.device.sched) resolves the rendezvous with
    # every lane of the warp stopped at the same call site.

    def warp_op_kind(self, name: str) -> Optional[str]:
        if self.launch.kernel.module.dialect == "cuda":
            return WARP_OP_KINDS.get(name)
        return None


# ---------------------------------------------------------------------------
# launch
# ---------------------------------------------------------------------------

def launch_kernel(device: Device, kernel: KernelObject,
                  grid: Sequence[int], block: Sequence[int],
                  args: Sequence[Any], dynamic_shared: int = 0,
                  framework: Optional[str] = None) -> LaunchResult:
    """Execute ``kernel`` over a grid of work-groups.

    ``grid`` counts work-GROUPS per dimension (the CUDA convention; OpenCL's
    global size is divided by the local size by the caller — the NDRange vs
    grid difference of §3.1).  ``args`` match the kernel parameters;
    :class:`LocalArg` entries allocate dynamic local memory per group.

    Each launch is one ``kernel:`` span (real wall time of the simulated
    execution) carrying the launch geometry and the simulated kernel time
    as attributes, so corpus traces attribute device-engine cost per
    kernel next to the translator's ``pass:`` spans.
    """
    with get_tracer().span(f"kernel:{kernel.name}",
                           device=device.spec.name,
                           grid=list(grid), block=list(block)) as span:
        result = _launch_kernel_impl(device, kernel, grid, block, args,
                                     dynamic_shared, framework)
        span.set(work_items=result.counters.work_items,
                 sim_time_s=result.time.total)
    get_metrics().counter("kernel.launches").inc()
    return result


def _launch_kernel_impl(device: Device, kernel: KernelObject,
                        grid: Sequence[int], block: Sequence[int],
                        args: Sequence[Any], dynamic_shared: int = 0,
                        framework: Optional[str] = None) -> LaunchResult:
    framework = framework or kernel.module.dialect
    spec = device.spec
    grid3 = _pad3(grid)
    block3 = _pad3(block)
    threads_per_block = block3[0] * block3[1] * block3[2]
    if threads_per_block <= 0 or any(g <= 0 for g in grid3):
        raise DeviceError(f"bad launch configuration grid={grid3} block={block3}")
    if threads_per_block > spec.max_workgroup_size:
        raise DeviceError(
            f"work-group size {threads_per_block} exceeds device maximum "
            f"{spec.max_workgroup_size}")

    launch = _LaunchEnv(device, kernel, framework, grid3, block3)
    launch.dyn_shared_bytes = dynamic_shared

    static_shared = kernel.static_shared_bytes()
    dyn_local_args = sum(a.size for a in args if isinstance(a, LocalArg))
    shared_per_block = static_shared + dynamic_shared + dyn_local_args
    if shared_per_block > spec.shared_per_cu:
        raise DeviceError(
            f"shared memory request {shared_per_block} exceeds "
            f"{spec.shared_per_cu} per CU")

    local_pool = max(1024, shared_per_block + 256)
    launch.local_mem = Memory("local", local_pool, T.AddressSpace.LOCAL)
    launch.private_mem = Memory(
        "private", _PRIVATE_BYTES_PER_WI * threads_per_block,
        T.AddressSpace.PRIVATE)

    # constant ranges for __constant pointer params over global buffers
    for p, a in zip(kernel.fn.params, args):
        if (isinstance(a, Ptr) and isinstance(p.type, T.PointerType)
                and p.type.space == T.AddressSpace.CONSTANT
                and a.mem is device.global_mem):
            size = device.global_mem.allocator.allocated_size(a.off)
            launch.constant_ranges.append(
                (a.off, a.off + (size or 65536)))

    total_groups = grid3[0] * grid3[1] * grid3[2]
    launch.counters.work_items = total_groups * threads_per_block

    mode_bits = spec.bank_mode(framework)
    sampled = 0
    group_index = 0
    for gz in range(grid3[2]):
        for gy in range(grid3[1]):
            for gx in range(grid3[0]):
                launch.tracing = group_index < _SAMPLE_GROUPS
                if launch.tracing:
                    launch.local_traces = [dict() for _ in range(threads_per_block)]
                    launch.global_traces = [dict() for _ in range(threads_per_block)]
                    sampled += 1
                _run_group(launch, (gx, gy, gz), args)
                if launch.tracing:
                    _account_traces(launch, threads_per_block, mode_bits)
                group_index += 1

    # scale sampled transaction counts to the full grid
    if sampled and total_groups > sampled:
        scale = total_groups / sampled
        launch.counters.local_transactions = int(
            launch.counters.local_transactions * scale)
        launch.counters.global_transactions = int(
            launch.counters.global_transactions * scale)

    compiler = "nvcc" if framework == "cuda" else spec.opencl_compiler
    regs = estimate_registers(kernel.fn, compiler)
    occ = calc_occupancy(spec, threads_per_block, regs, shared_per_block)
    kt = kernel_time(launch.counters, spec, occ)
    if _PROFILE_SINK is not None:
        _PROFILE_SINK.append(LaunchProfile(
            kernel=kernel.name,
            framework=framework,
            counters=copy.copy(launch.counters),
            threads_per_block=threads_per_block,
            shared_per_block=shared_per_block,
            regs_by_compiler={c: estimate_registers(kernel.fn, c)
                              for c in KNOWN_COMPILERS}))
    return LaunchResult(launch.counters, kt, occ, launch.stdout)


def _pad3(v: Sequence[int]) -> Tuple[int, int, int]:
    vals = [int(x) for x in v] + [1, 1, 1]
    return (max(vals[0], 1), max(vals[1], 1), max(vals[2], 1))


def _run_group(launch: _LaunchEnv, group: Tuple[int, int, int],
               args: Sequence[Any]) -> None:
    """Run all work-items of one group in barrier-delimited phases."""
    kernel = launch.kernel
    block = launch.block
    threads = block[0] * block[1] * block[2]
    launch.local_static.clear()
    launch.local_bump = 0
    assert launch.local_mem is not None and launch.private_mem is not None
    launch.local_mem.buf[:] = 0

    # pre-allocate dynamic local args (one region per LocalArg, shared by
    # the whole group) so every work-item gets the same pointers; then
    # reserve the CUDA dynamic-shared region; statics allocate lazily after.
    dyn_ptrs: Dict[int, Ptr] = {}
    bump = 0
    for i, (p, a) in enumerate(zip(kernel.fn.params, args)):
        if isinstance(a, LocalArg):
            elem = (p.type.pointee if isinstance(p.type, T.PointerType)
                    else T.CHAR)
            off = -(-bump // 16) * 16
            dyn_ptrs[i] = Ptr(launch.local_mem, off, elem)
            bump = off + a.size
    launch.dynamic_base = -(-bump // 16) * 16
    bump = launch.dynamic_base + launch.dyn_shared_bytes
    if bump > launch.local_mem.size:
        raise DeviceError("dynamic local memory exceeds pool")
    launch.local_bump = bump

    mod = kernel.module
    drv = _DEBUG_DRIVER
    debug = drv is not None and drv.wants(mod, kernel.fn.name)
    launch.debug_driver = drv if debug else None
    entry = mod.compiled_entries.get(kernel.fn.name)
    ventry = (mod.vector_entries.get(kernel.fn.name)
              if mod.exec_tier == "vector" else None)
    if debug and (entry is not None or ventry is not None):
        # demote only the debugged kernel to the interpreter; sibling
        # kernels in the same module keep their selected tier
        if kernel.fn.name not in mod.debug_demotions:
            mod.debug_demotions[kernel.fn.name] = (
                f"debugger attached: demoted from tier {mod.exec_tier!r} "
                "to interp")
            get_metrics().counter("debug.demotions",
                                  kernel=kernel.fn.name).inc()
        entry = ventry = None

    if ventry is not None:
        # warp-vectorized tier: one program per warp, all lanes per step
        from ..clike.vectorize import WarpEnv
        bound = _bind_args(
            kernel.fn, [dyn_ptrs.get(i, a) for i, a in enumerate(args)], None)
        programs = [
            GeneratorProgram(ventry(WarpEnv(launch, group, lo, hi), *bound),
                             range(lo, hi))
            for lo, hi in warp_windows(threads,
                                       launch.device.spec.warp_size)]
        _drive_group(launch, programs)
        return

    programs = []
    for lz in range(block[2]):
        for ly in range(block[1]):
            for lx in range(block[0]):
                linear = (lz * block[1] + ly) * block[0] + lx
                stack = Stack(launch.private_mem)
                stack.sp = linear * _PRIVATE_BYTES_PER_WI
                stack_limit = stack.sp + _PRIVATE_BYTES_PER_WI
                env = (drv.make_env(launch, stack, group, (lx, ly, lz))
                       if debug else
                       WorkItemEnv(launch, stack, group, (lx, ly, lz)))
                wi_args = [dyn_ptrs.get(i, a) for i, a in enumerate(args)]
                wi_args = _bind_args(kernel.fn, wi_args, env)
                if entry is not None:
                    gen = entry(env, *wi_args)
                    programs.append(GeneratorProgram(gen, (linear,)))
                else:
                    interp = Interp(mod.unit, env, mod.dialect,
                                    annotate=False)
                    interp.global_slots = mod.symbols
                    interp.global_values = mod.globals_values
                    gen = interp.call_gen(kernel.fn, wi_args)
                    prog = GeneratorProgram(gen, (linear,))
                    if debug:
                        prog = drv.wrap_program(prog, interp, env)
                    programs.append(prog)
    _drive_group(launch, programs)


def _bind_args(fn: A.FunctionDecl, args: Sequence[Any],
               env: WorkItemEnv) -> List[Any]:
    if len(args) != len(fn.params):
        raise DeviceError(
            f"kernel {fn.name} expects {len(fn.params)} args, got {len(args)}")
    bound: List[Any] = []
    for p, a in zip(fn.params, args):
        t = p.type
        if isinstance(t, T.PointerType) and isinstance(a, Ptr):
            bound.append(a.retype(t.pointee))
        elif isinstance(t, (T.ImageType, T.SamplerType, T.TextureType,
                            T.OpaqueType)):
            bound.append(a)
        elif isinstance(t, T.PointerType) and a == 0:
            bound.append(0)
        else:
            bound.append(coerce(a, t))
    return bound


def _drive_group(launch: _LaunchEnv, programs: List[Any]) -> None:
    """Drive one group's lane programs through the warp scheduler."""
    sched = WarpScheduler(programs, launch.device.spec.warp_size,
                          kernel_name=launch.kernel.name,
                          kernel_node=launch.kernel.fn)
    drv = launch.debug_driver
    if drv is not None:
        drv.drive(launch, sched)
        epochs = sched.barrier_epochs
    else:
        epochs = sched.run()
    launch.counters.barriers += epochs * sched.num_warps


def _account_traces(launch: _LaunchEnv, threads: int, mode_bits: int) -> None:
    """Convert per-work-item access traces into warp transaction counts."""
    warp = launch.device.spec.warp_size
    banks = launch.device.spec.shared_banks
    c = launch.counters
    for w0, hi in warp_windows(threads, warp):
        # shared memory: bank conflicts
        lane_traces = launch.local_traces[w0:hi]
        sites = set()
        for t in lane_traces:
            sites.update(t)
        for site in sites:
            seqs = [t.get(site, ()) for t in lane_traces]
            lens = set(map(len, seqs))
            if len(lens) == 1:
                # every lane has the same depth (the common case):
                # zip sweeps the steps without per-step length checks
                for accesses in zip(*seqs):
                    c.local_transactions += warp_transactions(
                        accesses, mode_bits, banks)
                continue
            for k in range(max(lens)):
                accesses = [s[k] for s in seqs if len(s) > k]
                c.local_transactions += warp_transactions(
                    accesses, mode_bits, banks)
        # global memory: 128-byte segment coalescing
        lane_traces = launch.global_traces[w0:hi]
        gsites = set()
        for t in lane_traces:
            gsites.update(t)
        for site in gsites:
            seqs = [t.get(site, ()) for t in lane_traces]
            lens = set(map(len, seqs))
            if len(lens) == 1:
                for step in zip(*seqs):
                    segs = set()
                    for addr, size in step:
                        segs.add(addr // _DRAM_SEGMENT)
                        segs.add((addr + (size - 1 if size > 1 else 0))
                                 // _DRAM_SEGMENT)
                    c.global_transactions += len(segs)
                continue
            for k in range(max(lens)):
                segs = set()
                for s in seqs:
                    if len(s) > k:
                        addr, size = s[k]
                        segs.add(addr // _DRAM_SEGMENT)
                        segs.add((addr + (size - 1 if size > 1 else 0))
                                 // _DRAM_SEGMENT)
                c.global_transactions += len(segs)
