"""The OpenCL 1.2 host API (cl* entry points) over the simulated device.

:class:`OpenCLFramework` defines each cl* entry point as a method marked
with :func:`~repro.clike.hostlib.api_entry`; :meth:`OpenCLFramework.install`
registers them into a :class:`~repro.clike.hostlib.HostEnv`, so interpreted
host C programs call these exactly like a real ICD.  Every entry point
charges the simulated clock with the device's API overhead; transfers and
kernel launches charge their modeled costs (this is what makes
wrapper-overhead measurable, §6.3).

``clBuildProgram`` compiles OpenCL C source *at run time* through the
:mod:`repro.clike` frontend — the online-compilation semantics of Fig. 2
that the OpenCL→CUDA wrapper library later overrides.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..clike import parse
from ..clike import types as T
from ..clike.hostlib import HostEnv, api_entries, api_entry
from ..device.engine import Device, LocalArg, launch_kernel, load_module
from ..device.images import ChannelFormat, Sampler
from ..device.perf import SimClock
from ..device.specs import GTX_TITAN
from ..errors import FrontendError, OclError
from ..runtime.values import Ptr, StructRef, Vec
from .enums import CL_CONSTANTS, err_name
from .objects import (ArgValue, CLBuffer, CLCommandQueue, CLContext, CLDevice,
                      CLEvent, CLImage, CLKernel, CLPlatform, CLProgram,
                      CLSampler)

__all__ = ["OpenCLFramework"]

_C = CL_CONSTANTS

_ORDER_BY_VALUE = {
    _C["CL_R"]: "R", _C["CL_A"]: "R", _C["CL_RG"]: "RG",
    _C["CL_RGB"]: "RGB", _C["CL_RGBA"]: "RGBA", _C["CL_BGRA"]: "BGRA",
    _C["CL_INTENSITY"]: "INTENSITY", _C["CL_LUMINANCE"]: "LUMINANCE",
}
_DTYPE_BY_VALUE = {
    _C["CL_FLOAT"]: "FLOAT", _C["CL_HALF_FLOAT"]: "HALF_FLOAT",
    _C["CL_SIGNED_INT8"]: "SIGNED_INT8", _C["CL_SIGNED_INT16"]: "SIGNED_INT16",
    _C["CL_SIGNED_INT32"]: "SIGNED_INT32",
    _C["CL_UNSIGNED_INT8"]: "UNSIGNED_INT8",
    _C["CL_UNSIGNED_INT16"]: "UNSIGNED_INT16",
    _C["CL_UNSIGNED_INT32"]: "UNSIGNED_INT32",
    _C["CL_UNORM_INT8"]: "UNORM_INT8", _C["CL_UNORM_INT16"]: "UNORM_INT16",
    _C["CL_SNORM_INT8"]: "SNORM_INT8",
}
_ADDRESS_BY_VALUE = {
    _C["CL_ADDRESS_NONE"]: "none",
    _C["CL_ADDRESS_CLAMP_TO_EDGE"]: "clamp_to_edge",
    _C["CL_ADDRESS_CLAMP"]: "clamp",
    _C["CL_ADDRESS_REPEAT"]: "repeat",
}


def _out(ptr: Any, st: T.ScalarType, value: Any) -> None:
    """Write a scalar through an optional out-pointer."""
    if isinstance(ptr, Ptr):
        ptr.mem.write_scalar(ptr.off, st, value)


def _out_string(ptr: Any, size: int, s: str, size_ret: Any) -> None:
    if isinstance(ptr, Ptr):
        data = s[:max(0, size - 1)] if size else s
        ptr.mem.write_cstring(ptr.off, data)
    _out(size_ret, T.SIZE_T, len(s) + 1)


def _read_size_array(ptr: Any, n: int) -> List[int]:
    if not isinstance(ptr, Ptr):
        return []
    return [int(ptr.mem.read_scalar(ptr.off + 8 * i, T.SIZE_T))
            for i in range(n)]


def _release(fw: "OpenCLFramework", obj: Any) -> int:
    if obj:
        obj.release()
    return _C["CL_SUCCESS"]


def _retain(fw: "OpenCLFramework", obj: Any) -> int:
    if obj:
        obj.retain()
    return _C["CL_SUCCESS"]


class OpenCLFramework:
    """One simulated OpenCL platform with its cl* API table."""

    def __init__(self, devices: Optional[Sequence[Device]] = None,
                 clock: Optional[SimClock] = None) -> None:
        self.clock = clock or SimClock()
        devices = list(devices) if devices else [Device(GTX_TITAN)]
        self.cl_devices = [CLDevice(d) for d in devices]
        self.platform = CLPlatform(self.cl_devices)
        #: hook the OpenCL->CUDA wrapper library replaces (Fig. 2): given
        #: (program, device) return the module to load
        self.build_hook: Optional[Callable[[CLProgram, CLDevice], Any]] = None

    # -- plumbing ----------------------------------------------------------------

    @property
    def spec(self):
        return self.cl_devices[0].spec

    def _entry(self, body: Callable[..., Any], args: Tuple[Any, ...]) -> Any:
        self.clock.charge_api(self.spec)
        return body(self, *args)

    def api_table(self) -> Dict[str, Callable[..., Any]]:
        """The cl* entry points by name."""
        return api_entries(self)

    def install(self, env: HostEnv) -> None:
        """Register the cl* API and CL_* constants into a host env."""
        env.register_many(self.api_table())
        env.define_constants(CL_CONSTANTS)

    # -- platform & device discovery ---------------------------------------

    @api_entry
    def clGetPlatformIDs(self, num_entries, platforms, num_platforms):
        if isinstance(platforms, Ptr):
            Ptr(platforms.mem, platforms.off,
                T.PointerType(T.VOID)).store(self.platform)
        _out(num_platforms, T.UINT, 1)
        return _C["CL_SUCCESS"]

    @api_entry
    def clGetPlatformInfo(self, platform, param, size, value, size_ret):
        p = platform or self.platform
        info = {_C["CL_PLATFORM_NAME"]: p.name,
                _C["CL_PLATFORM_VENDOR"]: p.vendor,
                _C["CL_PLATFORM_VERSION"]: p.version,
                _C["CL_PLATFORM_PROFILE"]: p.profile,
                _C["CL_PLATFORM_EXTENSIONS"]: ""}
        s = info.get(int(param))
        if s is None:
            return _C["CL_INVALID_VALUE"]
        _out_string(value, int(size), s, size_ret)
        return _C["CL_SUCCESS"]

    @api_entry
    def clGetDeviceIDs(self, platform, dev_type, num_entries, devices,
                       num_devs):
        plat = platform or self.platform
        matched = [d for d in plat.devices
                   if int(dev_type) & (_C["CL_DEVICE_TYPE_GPU"]
                                       | _C["CL_DEVICE_TYPE_DEFAULT"]
                                       | _C["CL_DEVICE_TYPE_ALL"])]
        if not matched:
            _out(num_devs, T.UINT, 0)
            return _C["CL_DEVICE_NOT_FOUND"]
        if isinstance(devices, Ptr):
            n = min(len(matched), int(num_entries) or len(matched))
            for i in range(n):
                Ptr(devices.mem, devices.off + 8 * i,
                    T.PointerType(T.VOID)).store(matched[i])
        _out(num_devs, T.UINT, len(matched))
        return _C["CL_SUCCESS"]

    @api_entry
    def clGetDeviceInfo(self, device, param, size, value, size_ret):
        return self._device_info(device, int(param), int(size), value,
                                 size_ret)

    @api_entry
    def clCreateSubDevices(self, device, props, num_entries, out_devices,
                           num_ret):
        # partition equally: this feature has no CUDA counterpart (§3.7)
        spec = device.spec
        n = max(2, spec.compute_units // max(1, spec.compute_units // 2))
        sub_spec = dataclasses.replace(
            spec, compute_units=spec.compute_units // n)
        subs = [CLDevice(Device(sub_spec)) for _ in range(n)]
        if isinstance(out_devices, Ptr):
            for i, s in enumerate(subs[:int(num_entries) or len(subs)]):
                Ptr(out_devices.mem, out_devices.off + 8 * i,
                    T.PointerType(T.VOID)).store(s)
        _out(num_ret, T.UINT, len(subs))
        return _C["CL_SUCCESS"]

    # -- context & queue -----------------------------------------------

    @api_entry
    def clCreateContext(self, props, num_devices, devices, cb, user_data,
                        err):
        devs = self._read_device_list(devices, int(num_devices))
        ctx = CLContext(devs)
        _out(err, T.INT, _C["CL_SUCCESS"])
        return ctx

    @api_entry
    def clCreateContextFromType(self, props, dev_type, cb, user_data, err):
        ctx = CLContext(list(self.cl_devices))
        _out(err, T.INT, _C["CL_SUCCESS"])
        return ctx

    @api_entry
    def clCreateCommandQueue(self, context, device, properties, err):
        q = CLCommandQueue(context, device, int(properties), self.clock)
        _out(err, T.INT, _C["CL_SUCCESS"])
        return q

    # -- program build (Fig. 2 pipeline) ----------------------------------

    @api_entry
    def clCreateProgramWithSource(self, context, count, strings, lengths,
                                  err):
        srcs: List[str] = []
        if isinstance(strings, Ptr):
            for i in range(int(count)):
                sp = Ptr(strings.mem, strings.off + 8 * i,
                         T.PointerType(T.CHAR)).load()
                if isinstance(sp, Ptr):
                    srcs.append(sp.mem.read_cstring(sp.off))
                elif isinstance(sp, str):
                    srcs.append(sp)
        elif isinstance(strings, str):
            srcs.append(strings)
        prog = CLProgram(context, "\n".join(srcs))
        _out(err, T.INT, _C["CL_SUCCESS"])
        return prog

    @api_entry
    def clBuildProgram(self, program, num_devices, devices, options, cb,
                       user):
        opts = ""
        if isinstance(options, Ptr):
            opts = options.mem.read_cstring(options.off)
        elif isinstance(options, str):
            opts = options
        program.build_options = opts
        devs = (self._read_device_list(devices, int(num_devices))
                if num_devices else program.context.devices)
        defines = _parse_build_defines(opts)
        try:
            for d in devs:
                if self.build_hook is not None:
                    program.modules[d.id] = self.build_hook(program, d)
                else:
                    unit = parse(program.source, "opencl",
                                 defines=defines)
                    program.modules[d.id] = load_module(
                        d.device, unit, "opencl")
        except FrontendError as e:
            program.build_log = str(e)
            return _C["CL_BUILD_PROGRAM_FAILURE"]
        program.built = True
        program.build_log = "build succeeded"
        # online compilation is not free: charge a build cost
        self.clock.charge(200e-6 + 2e-9 * len(program.source), "build")
        return _C["CL_SUCCESS"]

    @api_entry
    def clGetProgramBuildInfo(self, program, device, param, size, value,
                              size_ret):
        if int(param) == _C["CL_PROGRAM_BUILD_LOG"]:
            _out_string(value, int(size), program.build_log, size_ret)
        elif int(param) == _C["CL_PROGRAM_BUILD_STATUS"]:
            _out(value, T.INT,
                 _C["CL_BUILD_SUCCESS"] if program.built
                 else _C["CL_BUILD_ERROR"])
        return _C["CL_SUCCESS"]

    @api_entry
    def clCreateKernel(self, program, name, err):
        kname = (name.mem.read_cstring(name.off)
                 if isinstance(name, Ptr) else str(name))
        if not program.built:
            _out(err, T.INT, _C["CL_INVALID_PROGRAM_EXECUTABLE"])
            raise OclError(_C["CL_INVALID_PROGRAM_EXECUTABLE"],
                           "program not built")
        try:
            k = CLKernel(program, kname)
        except Exception:
            _out(err, T.INT, _C["CL_INVALID_KERNEL_NAME"])
            raise OclError(_C["CL_INVALID_KERNEL_NAME"], kname)
        _out(err, T.INT, _C["CL_SUCCESS"])
        return k

    # -- memory objects ------------------------------------------------------

    @api_entry
    def clCreateBuffer(self, context, flags, size, host_ptr, err):
        size = int(size)
        if size <= 0:
            _out(err, T.INT, _C["CL_INVALID_BUFFER_SIZE"])
            raise OclError(_C["CL_INVALID_BUFFER_SIZE"], str(size))
        buf = CLBuffer(context, int(flags), size)
        if (int(flags) & _C["CL_MEM_COPY_HOST_PTR"]) \
                and isinstance(host_ptr, Ptr):
            data = host_ptr.mem.view(host_ptr.off, size).copy()
            for d in context.devices:
                p = buf.ptr_on(d)
                p.mem.view(p.off, size)[:] = data
                self.clock.charge_transfer(size, d.spec)
        _out(err, T.INT, _C["CL_SUCCESS"])
        return buf

    @api_entry
    def clCreateImage2D(self, context, flags, fmt_ptr, width, height,
                        row_pitch, host_ptr, err):
        fmt = self._read_format(fmt_ptr)
        img = self._make_image(context, int(flags), 2,
                               (int(width), int(height)), fmt)
        return self._fill_image(img, host_ptr, err)

    @api_entry
    def clCreateImage3D(self, context, flags, fmt_ptr, w, h, d,
                        rp, sp, host_ptr, err):
        fmt = self._read_format(fmt_ptr)
        img = self._make_image(context, int(flags), 3,
                               (int(w), int(h), int(d)), fmt)
        return self._fill_image(img, host_ptr, err)

    @api_entry
    def clCreateImage(self, context, flags, fmt_ptr, desc_ptr, host_ptr,
                      err):
        fmt = self._read_format(fmt_ptr)
        desc = StructRef(desc_ptr.mem, desc_ptr.off,
                         _IMAGE_DESC_TYPE)
        itype = int(desc.get("image_type"))
        w = int(desc.get("image_width"))
        h = int(desc.get("image_height")) or 1
        dep = int(desc.get("image_depth")) or 1
        if itype == _C["CL_MEM_OBJECT_IMAGE1D"] \
                or itype == _C["CL_MEM_OBJECT_IMAGE1D_BUFFER"]:
            maxw = self.spec.max_image2d[0]
            if w > maxw:
                _out(err, T.INT, _C["CL_INVALID_IMAGE_SIZE"])
                raise OclError(
                    _C["CL_INVALID_IMAGE_SIZE"],
                    f"1D image width {w} exceeds device limit {maxw} "
                    "(the OpenCL-side texture-size mismatch of §5)")
            img = self._make_image(
                context, int(flags), 1, (w,), fmt,
                buffer_backed=itype == _C["CL_MEM_OBJECT_IMAGE1D_BUFFER"])
        elif itype == _C["CL_MEM_OBJECT_IMAGE3D"]:
            img = self._make_image(context, int(flags), 3, (w, h, dep), fmt)
        else:
            img = self._make_image(context, int(flags), 2, (w, h), fmt)
        return self._fill_image(img, host_ptr, err)

    @api_entry
    def clCreateSampler(self, context, normalized, addressing, filtering,
                        err):
        s = Sampler(
            normalized=bool(int(normalized)),
            addressing=_ADDRESS_BY_VALUE.get(int(addressing),
                                             "clamp_to_edge"),
            filtering="linear" if int(filtering) == _C["CL_FILTER_LINEAR"]
            else "nearest")
        _out(err, T.INT, _C["CL_SUCCESS"])
        return CLSampler(s)

    # -- kernel args & launch -------------------------------------------------

    @api_entry
    def clSetKernelArg(self, kernel, index, size, value):
        return self._set_kernel_arg(kernel, int(index), int(size), value)

    @api_entry
    def clEnqueueNDRangeKernel(self, queue, kernel, work_dim, gwo, gws, lws,
                               num_wait=0, wait_list=0, event=0):
        return self._enqueue_ndrange(queue, kernel, int(work_dim),
                                     gwo, gws, lws, event)

    @api_entry
    def clEnqueueTask(self, queue, kernel, num_wait=0, wait_list=0,
                      event=0):
        return self._launch(queue, kernel, (1, 1, 1), (1, 1, 1), event)

    # -- transfers ------------------------------------------------------------

    @api_entry
    def clEnqueueWriteBuffer(self, queue, buf, blocking, offset, size, ptr,
                             num_wait=0, wait_list=0, event=0):
        size = int(size)
        dptr = buf.ptr_on(queue.device)
        data = ptr.mem.view(ptr.off, size).copy()
        dptr.mem.view(dptr.off + int(offset), size)[:] = data
        self.clock.charge_transfer(size, queue.device.spec)
        self._mk_event(event)
        return _C["CL_SUCCESS"]

    @api_entry
    def clEnqueueReadBuffer(self, queue, buf, blocking, offset, size, ptr,
                            num_wait=0, wait_list=0, event=0):
        size = int(size)
        dptr = buf.ptr_on(queue.device)
        data = dptr.mem.view(dptr.off + int(offset), size).copy()
        ptr.mem.view(ptr.off, size)[:] = data
        self.clock.charge_transfer(size, queue.device.spec)
        self._mk_event(event)
        return _C["CL_SUCCESS"]

    @api_entry
    def clEnqueueCopyBuffer(self, queue, src, dst, soff, doff, size,
                            num_wait=0, wait_list=0, event=0):
        size = int(size)
        sp = src.ptr_on(queue.device)
        dp = dst.ptr_on(queue.device)
        data = sp.mem.view(sp.off + int(soff), size).copy()
        dp.mem.view(dp.off + int(doff), size)[:] = data
        self.clock.charge(size / queue.device.spec.dram_bw, "transfer")
        self._mk_event(event)
        return _C["CL_SUCCESS"]

    @api_entry
    def clEnqueueWriteImage(self, queue, img, blocking, origin, region,
                            row_pitch, slice_pitch, ptr,
                            num_wait=0, wait_list=0, event=0):
        img.image.upload(ptr.mem.read_bytes(ptr.off, img.size))
        self.clock.charge_transfer(img.size, queue.device.spec)
        self._mk_event(event)
        return _C["CL_SUCCESS"]

    @api_entry
    def clEnqueueReadImage(self, queue, img, blocking, origin, region,
                           row_pitch, slice_pitch, ptr,
                           num_wait=0, wait_list=0, event=0):
        data = img.image.download()
        ptr.mem.write_bytes(ptr.off, data)
        self.clock.charge_transfer(len(data), queue.device.spec)
        self._mk_event(event)
        return _C["CL_SUCCESS"]

    # -- sync & teardown ------------------------------------------------------

    @api_entry
    def clFinish(self, queue):
        return _C["CL_SUCCESS"]

    @api_entry
    def clFlush(self, queue):
        return _C["CL_SUCCESS"]

    @api_entry
    def clWaitForEvents(self, num, events):
        return _C["CL_SUCCESS"]

    @api_entry
    def clGetEventProfilingInfo(self, event, param, size, value, size_ret):
        key = {_C["CL_PROFILING_COMMAND_QUEUED"]: "queued",
               _C["CL_PROFILING_COMMAND_SUBMIT"]: "submit",
               _C["CL_PROFILING_COMMAND_START"]: "start",
               _C["CL_PROFILING_COMMAND_END"]: "end"}.get(int(param))
        if key is None:
            return _C["CL_INVALID_VALUE"]
        _out(value, T.ULONG, int(event.times[key] * 1e9))
        return _C["CL_SUCCESS"]

    @api_entry
    def clGetKernelWorkGroupInfo(self, kernel, device, param, size, value,
                                 size_ret):
        if int(param) == _C["CL_KERNEL_WORK_GROUP_SIZE"]:
            _out(value, T.SIZE_T, device.spec.max_workgroup_size)
        elif int(param) == _C["CL_KERNEL_LOCAL_MEM_SIZE"]:
            kobj = kernel.kobj_for(device)
            _out(value, T.ULONG, kobj.static_shared_bytes())
        elif int(param) == _C["CL_KERNEL_PREFERRED_WORK_GROUP_SIZE_MULTIPLE"]:
            _out(value, T.SIZE_T, device.spec.warp_size)
        return _C["CL_SUCCESS"]

    clReleaseMemObject = clReleaseKernel = clReleaseProgram = \
        clReleaseCommandQueue = clReleaseContext = clReleaseEvent = \
        clReleaseSampler = clReleaseDevice = api_entry(_release)
    clRetainMemObject = clRetainKernel = clRetainProgram = \
        clRetainCommandQueue = clRetainContext = clRetainEvent = \
        api_entry(_retain)

    # -- internals -----------------------------------------------------------------

    def _read_device_list(self, devices: Any, n: int) -> List[CLDevice]:
        if isinstance(devices, CLDevice):
            return [devices]
        if isinstance(devices, Ptr):
            out = []
            for i in range(max(n, 1)):
                d = Ptr(devices.mem, devices.off + 8 * i,
                        T.PointerType(T.VOID)).load()
                if isinstance(d, CLDevice):
                    out.append(d)
            if out:
                return out
        return list(self.cl_devices)

    def _make_image(self, context: CLContext, flags: int, dims: int,
                    shape: Tuple[int, ...], fmt: ChannelFormat,
                    buffer_backed: bool = False) -> CLImage:
        """Image object factory; the OpenCL->CUDA wrapper library overrides
        this to back images with CUDA memory (CLImage, Fig. 6)."""
        return CLImage(context, flags, dims, shape, fmt, buffer_backed)

    def _fill_image(self, img: CLImage, host_ptr: Any, err: Any) -> CLImage:
        """Finish an image-creating call: upload the initial contents, if
        any, and report success."""
        if isinstance(host_ptr, Ptr):
            img.image.upload(host_ptr.mem.read_bytes(host_ptr.off, img.size))
            self.clock.charge_transfer(img.size, self.spec)
        _out(err, T.INT, _C["CL_SUCCESS"])
        return img

    def _read_format(self, fmt_ptr: Any) -> ChannelFormat:
        if isinstance(fmt_ptr, StructRef):
            ref = fmt_ptr
        elif isinstance(fmt_ptr, Ptr):
            ref = StructRef(fmt_ptr.mem, fmt_ptr.off, _IMAGE_FORMAT_TYPE)
        else:
            raise OclError(_C["CL_INVALID_IMAGE_FORMAT_DESCRIPTOR"],
                           "bad format pointer")
        order = _ORDER_BY_VALUE.get(int(ref.get("image_channel_order")))
        dtype = _DTYPE_BY_VALUE.get(int(ref.get("image_channel_data_type")))
        if order is None or dtype is None:
            raise OclError(_C["CL_INVALID_IMAGE_FORMAT_DESCRIPTOR"],
                           f"order={order} dtype={dtype}")
        return ChannelFormat(order, dtype)

    def _set_kernel_arg(self, kernel: CLKernel, index: int, size: int,
                        value: Any) -> int:
        if index >= len(kernel.fn.params):
            raise OclError(_C["CL_INVALID_ARG_INDEX"],
                           f"{index} >= {len(kernel.fn.params)}")
        p = kernel.fn.params[index]
        pt = p.type
        # dynamic local memory: size with NULL value (paper §4.1)
        if isinstance(pt, T.PointerType) and pt.space == T.AddressSpace.LOCAL:
            kernel.args[index] = ArgValue(LocalArg(size))
            return _C["CL_SUCCESS"]
        if not isinstance(value, Ptr):
            # direct handle (wrapper convenience)
            kernel.args[index] = ArgValue(value)
            return _C["CL_SUCCESS"]
        if isinstance(pt, T.PointerType):
            handle = Ptr(value.mem, value.off, T.PointerType(T.VOID)).load()
            kernel.args[index] = ArgValue(handle)
            return _C["CL_SUCCESS"]
        if isinstance(pt, (T.ImageType, T.SamplerType)):
            handle = Ptr(value.mem, value.off, T.PointerType(T.VOID)).load()
            kernel.args[index] = ArgValue(handle)
            return _C["CL_SUCCESS"]
        if isinstance(pt, (T.ScalarType, T.VectorType, T.StructType)):
            kernel.args[index] = ArgValue(Ptr(value.mem, value.off, pt).load())
            return _C["CL_SUCCESS"]
        raise OclError(_C["CL_INVALID_ARG_VALUE"], f"param type {pt}")

    def _enqueue_ndrange(self, queue: CLCommandQueue, kernel: CLKernel,
                         work_dim: int, gwo: Any, gws_ptr: Any, lws_ptr: Any,
                         event: Any) -> int:
        gws = _read_size_array(gws_ptr, work_dim)
        if not gws:
            raise OclError(_C["CL_INVALID_WORK_DIMENSION"], "missing gws")
        gws += [1] * (3 - len(gws))
        lws = _read_size_array(lws_ptr, work_dim)
        if not lws:
            lws = self._default_lws(gws, queue.device)
        lws += [1] * (3 - len(lws))
        grid = []
        for g, l in zip(gws, lws):
            if l <= 0 or g % l != 0:
                raise OclError(
                    _C["CL_INVALID_WORK_GROUP_SIZE"],
                    f"global size {g} not divisible by local size {l}")
            grid.append(g // l)
        return self._launch(queue, kernel, tuple(grid), tuple(lws), event)

    def _default_lws(self, gws: List[int], device: CLDevice) -> List[int]:
        cap = min(64, device.spec.max_workgroup_size)
        l0 = 1
        for cand in (256, 128, 64, 32, 16, 8, 4, 2):
            if cand <= cap and gws[0] % cand == 0:
                l0 = cand
                break
        return [l0, 1, 1]

    def _launch(self, queue: CLCommandQueue, kernel: CLKernel,
                grid: Tuple[int, ...], block: Tuple[int, ...],
                event: Any) -> int:
        device = queue.device
        kobj = kernel.kobj_for(device)
        args: List[Any] = []
        for a in kernel.bound_args():
            if isinstance(a, CLBuffer):
                args.append(a.ptr_on(device))
            elif isinstance(a, CLImage):
                args.append(a.image)
            elif isinstance(a, CLSampler):
                args.append(a.sampler)
            else:
                args.append(a)
        start = self.clock.elapsed
        result = launch_kernel(device.device, kobj, grid, block, args,
                               framework="opencl")
        self.clock.charge_kernel(result.time)
        if isinstance(event, Ptr):
            ev = CLEvent(queued=start, start=start,
                         end=start + result.time.total)
            Ptr(event.mem, event.off, T.PointerType(T.VOID)).store(ev)
        self.last_launch = result
        return _C["CL_SUCCESS"]

    def _mk_event(self, event: Any) -> None:
        if isinstance(event, Ptr):
            ev = CLEvent(queued=self.clock.elapsed, start=self.clock.elapsed,
                         end=self.clock.elapsed)
            Ptr(event.mem, event.off, T.PointerType(T.VOID)).store(ev)

    def _device_info(self, device: CLDevice, param: int, size: int,
                     value: Any, size_ret: Any) -> int:
        spec = device.spec
        strings = {
            _C["CL_DEVICE_NAME"]: spec.name,
            _C["CL_DEVICE_VENDOR"]: spec.vendor,
            _C["CL_DEVICE_VERSION"]: "OpenCL 1.2 repro",
            _C["CL_DRIVER_VERSION"]: "repro-1.0",
            _C["CL_DEVICE_PROFILE"]: "FULL_PROFILE",
            _C["CL_DEVICE_EXTENSIONS"]:
                "cl_khr_fp64 cl_khr_global_int32_base_atomics",
            _C["CL_DEVICE_OPENCL_C_VERSION"]: "OpenCL C 1.2",
        }
        if param in strings:
            _out_string(value, size, strings[param], size_ret)
            return _C["CL_SUCCESS"]
        free_mem, total_mem = device.device.mem_info()
        scalars: Dict[int, Tuple[T.ScalarType, int]] = {
            _C["CL_DEVICE_TYPE"]: (T.ULONG, _C["CL_DEVICE_TYPE_GPU"]),
            _C["CL_DEVICE_VENDOR_ID"]: (T.UINT, 0x10DE),
            _C["CL_DEVICE_MAX_COMPUTE_UNITS"]: (T.UINT, spec.compute_units),
            _C["CL_DEVICE_MAX_WORK_ITEM_DIMENSIONS"]: (T.UINT, 3),
            _C["CL_DEVICE_MAX_WORK_GROUP_SIZE"]:
                (T.SIZE_T, spec.max_workgroup_size),
            _C["CL_DEVICE_MAX_CLOCK_FREQUENCY"]:
                (T.UINT, int(spec.clock_hz / 1e6)),
            _C["CL_DEVICE_ADDRESS_BITS"]: (T.UINT, 64),
            _C["CL_DEVICE_MAX_MEM_ALLOC_SIZE"]:
                (T.ULONG, spec.global_mem // 4),
            _C["CL_DEVICE_GLOBAL_MEM_SIZE"]: (T.ULONG, spec.global_mem),
            _C["CL_DEVICE_GLOBAL_MEM_CACHE_SIZE"]: (T.ULONG, 1 << 20),
            _C["CL_DEVICE_MAX_CONSTANT_BUFFER_SIZE"]:
                (T.ULONG, spec.constant_mem),
            _C["CL_DEVICE_MAX_CONSTANT_ARGS"]: (T.UINT, 8),
            _C["CL_DEVICE_LOCAL_MEM_TYPE"]: (T.UINT, _C["CL_LOCAL"]),
            _C["CL_DEVICE_LOCAL_MEM_SIZE"]: (T.ULONG, spec.shared_per_cu),
            _C["CL_DEVICE_IMAGE_SUPPORT"]: (T.UINT, 1),
            _C["CL_DEVICE_IMAGE2D_MAX_WIDTH"]:
                (T.SIZE_T, spec.max_image2d[0]),
            _C["CL_DEVICE_IMAGE2D_MAX_HEIGHT"]:
                (T.SIZE_T, spec.max_image2d[1]),
            _C["CL_DEVICE_IMAGE3D_MAX_WIDTH"]: (T.SIZE_T, 2048),
            _C["CL_DEVICE_IMAGE3D_MAX_HEIGHT"]: (T.SIZE_T, 2048),
            _C["CL_DEVICE_IMAGE3D_MAX_DEPTH"]: (T.SIZE_T, 2048),
            _C["CL_DEVICE_MAX_READ_IMAGE_ARGS"]: (T.UINT, 128),
            _C["CL_DEVICE_MAX_WRITE_IMAGE_ARGS"]: (T.UINT, 8),
            _C["CL_DEVICE_MAX_SAMPLERS"]: (T.UINT, 16),
            _C["CL_DEVICE_MAX_PARAMETER_SIZE"]: (T.SIZE_T, 4096),
            _C["CL_DEVICE_ERROR_CORRECTION_SUPPORT"]: (T.UINT, 0),
            _C["CL_DEVICE_PROFILING_TIMER_RESOLUTION"]: (T.SIZE_T, 1000),
            _C["CL_DEVICE_ENDIAN_LITTLE"]: (T.UINT, 1),
            _C["CL_DEVICE_AVAILABLE"]: (T.UINT, 1),
            _C["CL_DEVICE_COMPILER_AVAILABLE"]: (T.UINT, 1),
            _C["CL_DEVICE_PREFERRED_VECTOR_WIDTH_FLOAT"]: (T.UINT, 4),
            _C["CL_DEVICE_PARTITION_MAX_SUB_DEVICES"]:
                (T.UINT, spec.compute_units),
        }
        if param in scalars:
            st, v = scalars[param]
            _out(value, st, v)
            _out(size_ret, T.SIZE_T, st.size)
            return _C["CL_SUCCESS"]
        if param == _C["CL_DEVICE_MAX_WORK_ITEM_SIZES"]:
            if isinstance(value, Ptr):
                for i, v in enumerate([spec.max_workgroup_size] * 3):
                    value.mem.write_scalar(value.off + 8 * i, T.SIZE_T, v)
            _out(size_ret, T.SIZE_T, 24)
            return _C["CL_SUCCESS"]
        if param == _C["CL_DEVICE_PLATFORM"]:
            if isinstance(value, Ptr):
                Ptr(value.mem, value.off,
                    T.PointerType(T.VOID)).store(device.platform)
            return _C["CL_SUCCESS"]
        return _C["CL_INVALID_VALUE"]


def _parse_build_defines(options: str) -> Dict[str, str]:
    """Extract -DNAME[=value] build options (clBuildProgram options)."""
    defines: Dict[str, str] = {}
    for tok in options.split():
        if tok.startswith("-D"):
            body = tok[2:]
            if "=" in body:
                name, val = body.split("=", 1)
                defines[name] = val
            else:
                defines[body] = "1"
    return defines


from ..clike.dialect import _OCL_HOST_TYPES  # noqa: E402

_IMAGE_FORMAT_TYPE = _OCL_HOST_TYPES["cl_image_format"]
_IMAGE_DESC_TYPE = _OCL_HOST_TYPES["cl_image_desc"]
