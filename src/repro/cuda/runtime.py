"""CUDA runtime API (cuda*) for interpreted ``.cu`` host code.

:class:`CudaRuntime` installs the cuda* entry points, the ``dim3``
constructor and the ``<<<...>>>`` launch hook into a
:class:`~repro.clike.hostlib.HostEnv`, and injects the module's
``__constant__``/``__device__`` symbols and texture references into the host
interpreter — giving host code the shared-symbol visibility
(``cudaMemcpyToSymbol``, texture attribute assignment) that the paper
identifies as CUDA-specific and statically translates away for OpenCL
(§4.2, §4.3, §5).

:class:`CudaCore` holds what it shares with the CUDA→OpenCL wrapper
runtime (:class:`~repro.translate.cuda2ocl.wrappers.Cuda2OclRuntime`):
the entry points whose bodies do not depend on the model underneath
(host memory, errors, events, streams, device selection), the last error
and the env the runtime is installed into.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..clike import ast as A
from ..clike import types as T
from ..clike.dialect import CUDA
from ..clike.hostlib import HostEnv, api_entries, api_entry
from ..clike.interp import Interp
from ..device.engine import Device, DeviceModule, launch_kernel
from ..device.images import DeviceImage
from ..device.perf import SimClock
from ..errors import CudaApiError
from ..runtime.values import Ptr, StructRef, Vec
from .driver import CudaDriver
from .enums import CUDA_CONSTANTS, cuda_err_name
from .textures import TextureRef, format_from_desc, texture_format

__all__ = ["CudaCore", "CudaRuntime", "dim3_tuple"]

_K = CUDA_CONSTANTS
_PROP_TYPE = CUDA.typedefs["cudaDeviceProp"]
_CHANNEL_DESC_TYPE = CUDA.typedefs["cudaChannelFormatDesc"]
_UINT3 = T.vector("uint", 3)


def dim3_tuple(value: Any) -> Tuple[int, int, int]:
    """Convert a launch-config value (int, dim3 struct, uint3 vector) to a
    3-tuple."""
    if isinstance(value, (int, float)):
        return (int(value), 1, 1)
    if isinstance(value, Vec):
        v = [int(x) for x in value.vals] + [1, 1]
        return (max(v[0], 1), max(v[1], 1), max(v[2], 1))
    if isinstance(value, StructRef):
        return (max(int(value.get("x")), 1), max(int(value.get("y")), 1),
                max(int(value.get("z")), 1))
    raise CudaApiError(_K["cudaErrorInvalidConfiguration"],
                       f"bad dim3 value {value!r}")


def _dim3(*vals: Any) -> Vec:
    v = [int(x) for x in vals] + [1, 1, 1]
    return Vec(_UINT3, v[:3])


def _store_handle(out: Ptr, handle: Any) -> None:
    """Write an opaque handle through a ``T**`` out-parameter."""
    Ptr(out.mem, out.off, T.PointerType(T.VOID)).store(handle)


def _succeed(rt: "CudaCore", handle: Any) -> int:
    """The body of the entries that only succeed: the simulated device has
    no asynchronous work to wait for and no per-handle state to free."""
    return _K["cudaSuccess"]


class _CudaEvent:
    __slots__ = ("time",)

    def __init__(self) -> None:
        self.time = 0.0


class CudaCore:
    """What both CUDA runtimes do alike.

    A subclass adds the entry points that differ between the models, the
    ``_entry(body, args)`` hook every :func:`~repro.clike.hostlib.api_entry`
    call goes through, and ``cudaMemcpy``, which ``cudaMemcpyAsync`` calls.
    """

    clock: SimClock

    def __init__(self) -> None:
        self.last_error = _K["cudaSuccess"]
        #: the host env :meth:`install` registered the entry points into
        self.env: Optional[HostEnv] = None

    def api_table(self) -> Dict[str, Callable[..., Any]]:
        """The cuda*/cu* entry points by name."""
        return api_entries(self)

    def install(self, env: HostEnv) -> None:
        """Register the API table and the CUDA constants into a host env."""
        self.env = env
        env.register_many(self.api_table())
        env.define_constants(CUDA_CONSTANTS)

    # -- host memory -------------------------------------------------------

    @api_entry
    def cudaMallocHost(self, ptr_out, size):
        _store_handle(ptr_out, self.env.malloc(int(size)))
        return _K["cudaSuccess"]

    @api_entry
    def cudaFreeHost(self, ptr):
        self.env.builtin("free")(ptr)
        return _K["cudaSuccess"]

    @api_entry
    def cudaMemcpyAsync(self, dst, src, count, kind=None, stream=0):
        return self.cudaMemcpy(dst, src, count, kind)

    # -- errors & device selection -----------------------------------------

    @api_entry
    def cudaGetLastError(self):
        err, self.last_error = self.last_error, _K["cudaSuccess"]
        return err

    @api_entry
    def cudaGetErrorString(self, err):
        return self.env.intern_string(cuda_err_name(int(err)))

    @api_entry
    def cudaGetDevice(self, dev_out):
        dev_out.mem.write_scalar(dev_out.off, T.INT, 0)
        return _K["cudaSuccess"]

    # -- events, streams & channel descriptors ------------------------------

    @api_entry
    def cudaEventCreate(self, ev_out):
        _store_handle(ev_out, _CudaEvent())
        return _K["cudaSuccess"]

    @api_entry
    def cudaEventRecord(self, ev, stream=0):
        ev.time = self.clock.elapsed
        return _K["cudaSuccess"]

    @api_entry
    def cudaEventElapsedTime(self, ms_out, start, end):
        ms_out.mem.write_scalar(ms_out.off, T.FLOAT,
                                (end.time - start.time) * 1e3)
        return _K["cudaSuccess"]

    @api_entry
    def cudaStreamCreate(self, s_out):
        _store_handle(s_out, object())
        return _K["cudaSuccess"]

    @api_entry
    def cudaCreateChannelDesc(self, x, y, z, w, f):
        st = _CHANNEL_DESC_TYPE
        off = self.env.stack.alloc(st.size, st.align)
        ref = StructRef(self.env.stack.mem, off, st)
        for name, val in zip("xyzw", (x, y, z, w)):
            ref.set(name, int(val))
        ref.set("f", int(f))
        return ref

    cudaSetDevice = cudaEventSynchronize = cudaEventDestroy = \
        cudaStreamDestroy = cudaFreeArray = api_entry(_succeed)

    # -- driver API (deviceQueryDrv-style programs) ------------------------

    @api_entry
    def cuInit(self, flags):
        return _K["CUDA_SUCCESS"]

    @api_entry
    def cuDeviceGet(self, dev_out, ordinal):
        dev_out.mem.write_scalar(dev_out.off, T.INT, 0)
        return _K["CUDA_SUCCESS"]

    @api_entry
    def cuDeviceComputeCapability(self, major_out, minor_out, dev):
        major_out.mem.write_scalar(major_out.off, T.INT, 3)
        minor_out.mem.write_scalar(minor_out.off, T.INT, 5)
        return _K["CUDA_SUCCESS"]


class CudaRuntime(CudaCore):
    """The CUDA runtime API over a driver context."""

    def __init__(self, driver: Optional[CudaDriver] = None,
                 device: Optional[Device] = None,
                 clock: Optional[SimClock] = None) -> None:
        super().__init__()
        self.driver = driver or CudaDriver(device=device, clock=clock)
        self.module: Optional[DeviceModule] = None

    @property
    def clock(self) -> SimClock:
        return self.driver.clock

    @property
    def device(self) -> Device:
        return self.driver.device

    def _entry(self, body: Callable[..., Any], args: Tuple[Any, ...]) -> Any:
        self.clock.charge_api(self.device.spec)
        try:
            return body(self, *args)
        except CudaApiError as e:
            self.last_error = e.code
            raise

    # -- program setup ---------------------------------------------------------

    def load_unit(self, unit: A.TranslationUnit) -> DeviceModule:
        """Register the app's own translation unit as its device module
        (static compilation: no run-time build cost, unlike OpenCL)."""
        from ..device.engine import load_module
        self.module = load_module(self.device, unit, "cuda")
        return self.module

    def attach(self, interp: Interp, env: HostEnv) -> None:
        """Wire the runtime into a host interpreter: API table, constants,
        device symbols, texture references, launch hook."""
        self.install(env)
        if self.module is not None:
            interp.global_slots.update(self.module.symbols)
            interp.global_values.update(self.module.globals_values)

    def api_table(self) -> Dict[str, Callable[..., Any]]:
        """The cuda*/cu* entry points, the ``<<<...>>>`` launch hook and
        the ``dim3`` constructor, by name."""
        table = super().api_table()
        table["__cuda_launch__"] = self.launch
        table["dim3"] = _dim3
        return table

    # -- memory -------------------------------------------------------

    @api_entry
    def cudaMalloc(self, devptr_out, size):
        _store_handle(devptr_out, self.device.alloc_global(int(size)))
        return _K["cudaSuccess"]

    @api_entry
    def cudaFree(self, ptr):
        if isinstance(ptr, Ptr):
            self.device.free_global(ptr)
        return _K["cudaSuccess"]

    @api_entry
    def cudaHostAlloc(self, ptr_out, size, flags):
        _store_handle(ptr_out, self.env.malloc(int(size)))
        return _K["cudaSuccess"]

    @api_entry
    def cudaMemcpy(self, dst, src, count, kind):
        count = int(count)
        kind = int(kind)
        data = src.mem.view(src.off, count).copy()
        dst.mem.view(dst.off, count)[:] = data
        if kind in (_K["cudaMemcpyHostToDevice"],
                    _K["cudaMemcpyDeviceToHost"]):
            self.clock.charge_transfer(count, self.device.spec)
        elif kind == _K["cudaMemcpyDeviceToDevice"]:
            self.clock.charge(count / self.device.spec.dram_bw, "transfer")
        return _K["cudaSuccess"]

    @api_entry
    def cudaMemcpyToSymbol(self, symbol, src, count, offset=0,
                           kind=_K["cudaMemcpyHostToDevice"]):
        dptr = self._resolve_symbol(symbol)
        count = int(count)
        data = src.mem.view(src.off, count).copy()
        dptr.mem.view(dptr.off + int(offset), count)[:] = data
        self.clock.charge_transfer(count, self.device.spec)
        return _K["cudaSuccess"]

    @api_entry
    def cudaMemcpyFromSymbol(self, dst, symbol, count, offset=0,
                             kind=_K["cudaMemcpyDeviceToHost"]):
        sptr = self._resolve_symbol(symbol)
        count = int(count)
        data = sptr.mem.view(sptr.off + int(offset), count).copy()
        dst.mem.view(dst.off, count)[:] = data
        self.clock.charge_transfer(count, self.device.spec)
        return _K["cudaSuccess"]

    @api_entry
    def cudaMemset(self, ptr, value, count):
        ptr.mem.view(ptr.off, int(count))[:] = int(value) & 0xFF
        return _K["cudaSuccess"]

    @api_entry
    def cudaMemGetInfo(self, free_out, total_out):
        free, total = self.device.mem_info()
        if isinstance(free_out, Ptr):
            free_out.mem.write_scalar(free_out.off, T.SIZE_T, free)
        if isinstance(total_out, Ptr):
            total_out.mem.write_scalar(total_out.off, T.SIZE_T, total)
        return _K["cudaSuccess"]

    # -- device management -----------------------------------------------

    @api_entry
    def cudaGetDeviceCount(self, count_out):
        count_out.mem.write_scalar(count_out.off, T.INT, 1)
        return _K["cudaSuccess"]

    @api_entry
    def cudaGetDeviceProperties(self, prop_out, dev):
        spec = self.device.spec
        ref = StructRef(prop_out.mem, prop_out.off, _PROP_TYPE)
        name_off = prop_out.off + _PROP_TYPE.field_offset("name")
        prop_out.mem.write_cstring(name_off, spec.name)
        ref.set("totalGlobalMem", spec.global_mem)
        ref.set("sharedMemPerBlock", spec.shared_per_cu)
        ref.set("regsPerBlock", spec.regs_per_cu)
        ref.set("warpSize", spec.warp_size)
        ref.set("maxThreadsPerBlock", spec.max_workgroup_size)
        for i in range(3):
            base = prop_out.off + _PROP_TYPE.field_offset("maxThreadsDim")
            prop_out.mem.write_scalar(base + 4 * i, T.INT,
                                      spec.max_workgroup_size)
            base = prop_out.off + _PROP_TYPE.field_offset("maxGridSize")
            prop_out.mem.write_scalar(base + 4 * i, T.INT, 65535)
        ref.set("clockRate", int(spec.clock_hz / 1e3))
        ref.set("totalConstMem", spec.constant_mem)
        ref.set("major", 3)
        ref.set("minor", 5)
        ref.set("multiProcessorCount", spec.compute_units)
        ref.set("memoryClockRate", 3004000)
        ref.set("memoryBusWidth", 384)
        ref.set("l2CacheSize", 1536 * 1024)
        ref.set("maxThreadsPerMultiProcessor", spec.max_threads_per_cu)
        return _K["cudaSuccess"]

    @api_entry
    def cudaDeviceSynchronize(self):
        return _K["cudaSuccess"]

    cudaThreadSynchronize = cudaDeviceSynchronize
    cudaStreamSynchronize = api_entry(_succeed)

    @api_entry
    def cudaPeekAtLastError(self):
        return self.last_error

    # -- textures & arrays ------------------------------------------------------

    @api_entry
    def cudaBindTexture(self, offset_out, texref, devptr, *rest):
        # forms: (off, tex, ptr, size) or (off, tex, ptr, desc, size)
        size = int(rest[-1]) if rest else 0
        if not isinstance(texref, TextureRef):
            raise CudaApiError(_K["cudaErrorInvalidTexture"],
                               "not a texture reference")
        texref.bind_linear(devptr, size,
                           self.device.spec.cuda_max_tex1d_linear)
        if isinstance(offset_out, Ptr):
            offset_out.mem.write_scalar(offset_out.off, T.SIZE_T, 0)
        return _K["cudaSuccess"]

    @api_entry
    def cudaBindTexture2D(self, offset_out, texref, devptr, *rest):
        # (off, tex, ptr, [desc,] width, height, pitch): copy the linear
        # data into an image for 2D sampling
        nums = [r for r in rest if isinstance(r, (int, float))]
        if len(nums) < 3:
            raise CudaApiError(_K["cudaErrorInvalidValue"],
                               "cudaBindTexture2D needs width/height/pitch")
        w, h = int(nums[-3]), int(nums[-2])
        img = DeviceImage(2, (w, h), texture_format(texref.elem_type))
        img.upload(devptr.mem.read_bytes(devptr.off, img.nbytes))
        texref.bind_image(img)
        if isinstance(offset_out, Ptr):
            offset_out.mem.write_scalar(offset_out.off, T.SIZE_T, 0)
        return _K["cudaSuccess"]

    @api_entry
    def cudaBindTextureToArray(self, texref, array, *rest):
        texref.bind_image(array)
        return _K["cudaSuccess"]

    @api_entry
    def cudaUnbindTexture(self, texref):
        texref.unbind()
        return _K["cudaSuccess"]

    @api_entry
    def cudaMallocArray(self, arr_out, desc, width, height=0, flags=0):
        fmt = format_from_desc(desc)
        h = int(height)
        _store_handle(arr_out, DeviceImage(
            2 if h > 0 else 1, (int(width), h) if h > 0 else (int(width),),
            fmt))
        return _K["cudaSuccess"]

    @api_entry
    def cudaMemcpyToArray(self, array, woff, hoff, src, count, kind):
        array.upload(src.mem.read_bytes(src.off, int(count)))
        self.clock.charge_transfer(int(count), self.device.spec)
        return _K["cudaSuccess"]

    @api_entry
    def cudaMemcpy2DToArray(self, array, woff, hoff, src, pitch, width,
                            height, kind):
        n = int(width) * int(height)
        array.upload(src.mem.read_bytes(src.off, n))
        self.clock.charge_transfer(n, self.device.spec)
        return _K["cudaSuccess"]

    # -- driver API entry points (deviceQueryDrv-style programs) ---------

    @api_entry
    def cuDeviceGetCount(self, count_out):
        count_out.mem.write_scalar(count_out.off, T.INT, 1)
        return _K["CUDA_SUCCESS"]

    @api_entry
    def cuDeviceGetName(self, name_out, maxlen, dev):
        name_out.mem.write_cstring(name_out.off, self.device.spec.name)
        return _K["CUDA_SUCCESS"]

    @api_entry
    def cuDeviceGetAttribute(self, val_out, attrib, dev):
        val_out.mem.write_scalar(val_out.off, T.INT,
                                 self.driver.cuDeviceGetAttribute(int(attrib)))
        return _K["CUDA_SUCCESS"]

    @api_entry
    def cuDeviceTotalMem(self, bytes_out, dev):
        bytes_out.mem.write_scalar(bytes_out.off, T.SIZE_T,
                                   self.device.spec.global_mem)
        return _K["CUDA_SUCCESS"]

    # -- launch ------------------------------------------------------------------------

    def launch(self, name: str, grid: Any, block: Any, shmem: int,
               stream: Any, args: Sequence[Any]):
        """The ``<<<grid, block, shmem, stream>>>`` launch hook (uncharged:
        the launch itself is charged)."""
        if self.module is None:
            raise CudaApiError(_K["cudaErrorMissingConfiguration"],
                               "no device module loaded")
        kobj = self.module.get_kernel(name)
        g = dim3_tuple(grid)
        b = dim3_tuple(block)
        result = launch_kernel(self.device, kobj, g, b, list(args),
                               dynamic_shared=int(shmem), framework="cuda")
        self.clock.charge_kernel(result.time)
        self.driver.last_launch = result
        return _K["cudaSuccess"]

    # -- helpers ----------------------------------------------------------------------

    def _resolve_symbol(self, symbol: Any) -> Ptr:
        if isinstance(symbol, Ptr) and symbol.mem.space in (
                T.AddressSpace.CONSTANT, T.AddressSpace.GLOBAL):
            return symbol
        # string name lookup ("symbol" form of the API)
        name = None
        if isinstance(symbol, Ptr):
            name = symbol.mem.read_cstring(symbol.off)
        elif isinstance(symbol, str):
            name = symbol
        if name and self.module is not None and name in self.module.symbols:
            return self.module.symbols[name]
        raise CudaApiError(_K["cudaErrorInvalidSymbol"], repr(symbol))
