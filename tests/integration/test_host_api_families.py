"""The four host-API families: the names each registers and what each
entry charges.

Native OpenCL, native CUDA and the two wrapper libraries (paper §3.2,
Figs. 2-3) each install a name→callable table into a host env.  These
tests pin the names a fresh ``HostEnv`` receives from each family and the
simulated API-call count of a handful of entries, measured inside small
host programs, so that a change to how the tables are built cannot move
either.
"""

from __future__ import annotations

from typing import List

from repro.apps.base import get_app
from repro.clike import parse
from repro.clike.hostlib import HostEnv
from repro.clike.interp import Interp
from repro.cuda.runtime import CudaRuntime
from repro.harness import run_cuda_translated
from repro.ocl.api import OpenCLFramework
from repro.translate.api import translate_cuda_program
from repro.translate.cuda2ocl.wrappers import Cuda2OclRuntime
from repro.translate.ocl2cuda.wrappers import Ocl2CudaFramework

OPENCL_NAMES = [
    "clBuildProgram", "clCreateBuffer", "clCreateCommandQueue",
    "clCreateContext", "clCreateContextFromType", "clCreateImage",
    "clCreateImage2D", "clCreateImage3D", "clCreateKernel",
    "clCreateProgramWithSource", "clCreateSampler", "clCreateSubDevices",
    "clEnqueueCopyBuffer", "clEnqueueNDRangeKernel", "clEnqueueReadBuffer",
    "clEnqueueReadImage", "clEnqueueTask", "clEnqueueWriteBuffer",
    "clEnqueueWriteImage", "clFinish", "clFlush", "clGetDeviceIDs",
    "clGetDeviceInfo", "clGetEventProfilingInfo", "clGetKernelWorkGroupInfo",
    "clGetPlatformIDs", "clGetPlatformInfo", "clGetProgramBuildInfo",
    "clReleaseCommandQueue", "clReleaseContext", "clReleaseDevice",
    "clReleaseEvent", "clReleaseKernel", "clReleaseMemObject",
    "clReleaseProgram", "clReleaseSampler", "clRetainCommandQueue",
    "clRetainContext", "clRetainEvent", "clRetainKernel",
    "clRetainMemObject", "clRetainProgram", "clSetKernelArg",
    "clWaitForEvents",
]

#: the cuda*/cu* entry points both CUDA runtimes register
CUDA_SHARED_NAMES = [
    "cuDeviceComputeCapability", "cuDeviceGet", "cuDeviceGetAttribute",
    "cuDeviceGetCount", "cuDeviceGetName", "cuDeviceTotalMem", "cuInit",
    "cudaBindTexture", "cudaBindTexture2D", "cudaBindTextureToArray",
    "cudaCreateChannelDesc", "cudaDeviceSynchronize", "cudaEventCreate",
    "cudaEventDestroy", "cudaEventElapsedTime", "cudaEventRecord",
    "cudaEventSynchronize", "cudaFree", "cudaFreeArray", "cudaFreeHost",
    "cudaGetDevice", "cudaGetDeviceCount", "cudaGetDeviceProperties",
    "cudaGetErrorString", "cudaGetLastError", "cudaMalloc",
    "cudaMallocArray", "cudaMallocHost", "cudaMemGetInfo", "cudaMemcpy",
    "cudaMemcpyAsync", "cudaMemcpyToArray", "cudaMemset", "cudaSetDevice",
    "cudaStreamCreate", "cudaStreamDestroy", "cudaStreamSynchronize",
    "cudaThreadSynchronize", "cudaUnbindTexture",
]

CUDA_NATIVE_ONLY_NAMES = [
    "__cuda_launch__", "cudaHostAlloc", "cudaMemcpy2DToArray",
    "cudaMemcpyFromSymbol", "cudaMemcpyToSymbol", "cudaPeekAtLastError",
    "dim3",
]

CUDA2OCL_GLUE_NAMES = ["__c2o_set_dims", "__c2o_tex_image",
                       "__c2o_tex_sampler"]

#: a translatable CUDA program with one kernel and no device symbols
TINY_CU = ("__global__ void k(int* o) { o[threadIdx.x] = 1; }\n"
           "int main(void) { return 0; }\n")


def _registered(family) -> List[str]:
    libc = set(HostEnv()._builtins)
    env = HostEnv()
    family.install(env)
    return sorted(set(env._builtins) - libc)


def test_opencl_native_names():
    assert _registered(OpenCLFramework()) == OPENCL_NAMES


def test_opencl_to_cuda_wrapper_names():
    assert _registered(Ocl2CudaFramework()) == OPENCL_NAMES


def test_cuda_native_names():
    assert _registered(CudaRuntime()) == sorted(
        CUDA_SHARED_NAMES + CUDA_NATIVE_ONLY_NAMES)


def test_cuda_to_opencl_wrapper_names():
    rt = Cuda2OclRuntime(translate_cuda_program(TINY_CU).device)
    assert _registered(rt) == sorted(
        OPENCL_NAMES + CUDA_SHARED_NAMES + CUDA2OCL_GLUE_NAMES)


# -- charges, measured between mark() probes inside host programs --------------

def _run_marked(unit, env: HostEnv, dialect: str, clock, attach=None):
    """Run ``main`` with a ``mark()`` builtin that records the clock's API
    call count; return the count between consecutive marks."""
    marks: List[int] = []
    interp = Interp(unit, env, dialect)
    interp.init_globals()
    if attach is not None:
        attach(interp)
    env.register("mark", lambda: marks.append(clock.api_call_count))
    assert interp.call("main", []) == 0
    return [b - a for a, b in zip(marks, marks[1:])]


def _cuda_native_deltas(body: str) -> List[int]:
    env = HostEnv()
    rt = CudaRuntime()
    unit = parse("int main(void) {\n" + body + "\n  return 0;\n}\n", "cuda")
    rt.load_unit(unit)
    return _run_marked(unit, env, "cuda", rt.clock,
                       lambda interp: rt.attach(interp, env))


def _cuda2ocl_deltas(body: str) -> List[int]:
    prog = translate_cuda_program(
        "__global__ void k(int* o) { o[threadIdx.x] = 1; }\n"
        "int main(void) {\n" + body + "\n  return 0;\n}\n")
    env = HostEnv()
    rt = Cuda2OclRuntime(prog.device)
    rt.install(env)
    return _run_marked(parse(prog.host_source, "host"), env, "host",
                       rt.clock)


def _opencl_deltas(fw: OpenCLFramework, body: str) -> List[int]:
    env = HostEnv()
    fw.install(env)
    unit = parse("int main(void) {\n" + body + "\n  return 0;\n}\n", "host")
    return _run_marked(unit, env, "host", fw.clock)


def test_cuda_native_charges():
    deltas = _cuda_native_deltas("""
  int* d; int h[4]; int v;
  cudaMalloc((void**)&d, 16);
  mark();
  cudaMemcpyAsync(d, h, 16, cudaMemcpyHostToDevice, 0);
  mark();
  cuDeviceGetAttribute(&v, CU_DEVICE_ATTRIBUTE_MAX_THREADS_PER_BLOCK, 0);
  mark();
  cudaGetLastError();
  mark();
  cudaFree(d);
  mark();""")
    # cudaMemcpyAsync charges itself and the cudaMemcpy it calls;
    # cuDeviceGetAttribute charges itself and the driver query
    assert deltas == [2, 2, 1, 1]


def test_cuda_to_opencl_wrapper_charges():
    deltas = _cuda2ocl_deltas("""
  int* d; int v;
  mark();
  cudaMalloc((void**)&d, 64);
  mark();
  cudaMalloc((void**)&d, 64);
  mark();
  cuDeviceGetAttribute(&v, CU_DEVICE_ATTRIBUTE_MAX_THREADS_PER_BLOCK, 0);
  mark();
  cuDeviceGetAttribute(&v, CU_DEVICE_ATTRIBUTE_COMPUTE_CAPABILITY_MAJOR, 0);
  mark();
  cudaMemcpyAsync(d, d, 64, cudaMemcpyDeviceToDevice, 0);
  mark();""")
    # the first call builds the device code lazily (clBuildProgram and
    # one kernel) before its own charge and its clCreateBuffer; a
    # queryable attribute costs three clGetDeviceInfo calls, a
    # synthesized one none; cudaMemcpyAsync -> cudaMemcpy ->
    # clEnqueueCopyBuffer
    assert deltas == [4, 2, 4, 1, 3]


def test_opencl_native_and_wrapper_charges():
    body = """
  cl_platform_id p; cl_device_id dev; cl_uint n; cl_uint cus;
  mark();
  clGetPlatformIDs(1, &p, &n);
  mark();
  clGetDeviceIDs(p, CL_DEVICE_TYPE_GPU, 1, &dev, &n);
  mark();
  clGetDeviceInfo(dev, CL_DEVICE_MAX_COMPUTE_UNITS, 4, &cus, NULL);
  mark();
  clReleaseDevice(dev);
  mark();"""
    assert _opencl_deltas(OpenCLFramework(), body) == [1, 1, 1, 1]
    # the OpenCL->CUDA wrapper answers a device-info query with one extra
    # driver call
    assert _opencl_deltas(Ocl2CudaFramework(), body) == [1, 1, 2, 1]


def test_cuda_to_opencl_run_builds_one_opencl_table(monkeypatch):
    """The CUDA->OpenCL runtime calls the OpenCL framework it wraps
    directly, so a run builds the cl* table once: for the host env."""
    built = []
    api_table = OpenCLFramework.api_table

    def counting_api_table(fw, *args):
        built.append(fw)
        return api_table(fw, *args)

    monkeypatch.setattr(OpenCLFramework, "api_table", counting_api_table)
    app = get_app("toolkit", "vectorAdd")
    result = run_cuda_translated(app.name, app.cuda_source, cache=None)
    assert result.ok
    assert len(built) == 1
