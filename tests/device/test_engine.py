"""Tests for the kernel execution engine, both dialects."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.clike import parse
from repro.clike import types as T
from repro.device import (Device, GTX_TITAN, HD7970, LocalArg, launch_kernel,
                          load_module)
from repro.device.engine import exec_tier_override, resolve_exec_tier
from repro.errors import DeviceError
from repro.observability import Tracer, activate, get_metrics
from repro.runtime.values import Ptr

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture
def dev():
    return Device(GTX_TITAN)


def make_kernel(dev, src, dialect, name=None):
    unit = parse(src, dialect)
    mod = load_module(dev, unit, dialect)
    if name is None:
        name = next(iter(mod.kernels))
    return mod.get_kernel(name), mod


def upload(dev, arr):
    p = dev.alloc_global(arr.nbytes)
    dev.global_mem.view(p.off, arr.nbytes)[:] = arr.view(np.uint8).reshape(-1)
    return p


def download(dev, p, ctype, n):
    return dev.global_mem.typed_view(p.off, ctype, n).copy()


class TestOpenCLKernels:
    def test_vector_add(self, dev):
        k, _ = make_kernel(dev, """
        __kernel void vadd(__global const float* a, __global const float* b,
                           __global float* c, int n) {
          int i = get_global_id(0);
          if (i < n) c[i] = a[i] + b[i];
        }""", "opencl")
        n = 128
        a = np.random.default_rng(0).random(n, np.float32)
        b = np.random.default_rng(1).random(n, np.float32)
        pa, pb = upload(dev, a), upload(dev, b)
        pc = dev.alloc_global(4 * n)
        launch_kernel(dev, k, [2], [64],
                      [pa.retype(T.FLOAT), pb.retype(T.FLOAT),
                       pc.retype(T.FLOAT), n])
        assert np.allclose(download(dev, pc, T.FLOAT, n), a + b)

    def test_2d_kernel(self, dev):
        k, _ = make_kernel(dev, """
        __kernel void t2d(__global int* out, int w) {
          int x = get_global_id(0);
          int y = get_global_id(1);
          out[y * w + x] = x * 100 + y;
        }""", "opencl")
        w, h = 8, 4
        po = dev.alloc_global(4 * w * h)
        launch_kernel(dev, k, [2, 2], [4, 2],
                      [po.retype(T.INT), w])
        out = download(dev, po, T.INT, w * h).reshape(h, w)
        for y in range(h):
            for x in range(w):
                assert out[y, x] == x * 100 + y

    def test_barrier_reduction(self, dev):
        k, _ = make_kernel(dev, """
        __kernel void red(__global const float* in, __global float* out,
                          __local float* tmp) {
          int lid = get_local_id(0);
          tmp[lid] = in[get_global_id(0)];
          barrier(CLK_LOCAL_MEM_FENCE);
          for (int s = get_local_size(0) / 2; s > 0; s >>= 1) {
            if (lid < s) tmp[lid] += tmp[lid + s];
            barrier(CLK_LOCAL_MEM_FENCE);
          }
          if (lid == 0) out[get_group_id(0)] = tmp[0];
        }""", "opencl")
        a = np.arange(256, dtype=np.float32)
        pa = upload(dev, a)
        po = dev.alloc_global(4 * 4)
        res = launch_kernel(dev, k, [4], [64],
                            [pa.retype(T.FLOAT), po.retype(T.FLOAT),
                             LocalArg(64 * 4)])
        assert np.allclose(download(dev, po, T.FLOAT, 4),
                           a.reshape(4, 64).sum(axis=1))
        assert res.counters.barriers > 0

    def test_static_local_array(self, dev):
        k, _ = make_kernel(dev, """
        __kernel void rot(__global int* data) {
          __local int tmp[64];
          int lid = get_local_id(0);
          tmp[lid] = data[get_global_id(0)];
          barrier(CLK_LOCAL_MEM_FENCE);
          data[get_global_id(0)] = tmp[(lid + 1) % 64];
        }""", "opencl")
        a = np.arange(64, dtype=np.int32)
        pa = upload(dev, a)
        launch_kernel(dev, k, [1], [64], [pa.retype(T.INT)])
        out = download(dev, pa, T.INT, 64)
        assert np.array_equal(out, np.roll(a, -1))

    def test_constant_global_table(self, dev):
        k, _ = make_kernel(dev, """
        __constant int weights[4] = {1, 10, 100, 1000};
        __kernel void wsum(__global int* out) {
          int i = get_global_id(0);
          out[i] = weights[i % 4] * (i + 1);
        }""", "opencl")
        po = dev.alloc_global(4 * 8)
        res = launch_kernel(dev, k, [1], [8], [po.retype(T.INT)])
        out = download(dev, po, T.INT, 8)
        assert list(out[:4]) == [1, 20, 300, 4000]
        assert res.counters.constant_read_bytes > 0

    def test_atomics(self, dev):
        k, _ = make_kernel(dev, """
        __kernel void count(__global int* histo, __global const int* vals) {
          atomic_add(&histo[vals[get_global_id(0)] % 4], 1);
        }""", "opencl")
        vals = np.arange(64, dtype=np.int32)
        pv = upload(dev, vals)
        ph = dev.alloc_global(16)
        dev.global_mem.view(ph.off, 16)[:] = 0
        res = launch_kernel(dev, k, [2], [32],
                            [ph.retype(T.INT), pv.retype(T.INT)])
        assert list(download(dev, ph, T.INT, 4)) == [16] * 4
        assert res.counters.atomics == 64

    def test_vector_types_in_kernel(self, dev):
        k, _ = make_kernel(dev, """
        __kernel void scale(__global float4* v) {
          int i = get_global_id(0);
          float4 x = v[i];
          x.lo = x.hi;
          v[i] = x * 2.0f;
        }""", "opencl")
        data = np.arange(16, dtype=np.float32)
        p = upload(dev, data)
        launch_kernel(dev, k, [1], [4], [p.retype(T.vector("float", 4))])
        out = download(dev, p, T.FLOAT, 16).reshape(4, 4)
        for r in range(4):
            hi = data.reshape(4, 4)[r, 2:]
            assert np.allclose(out[r, :2], hi * 2)
            assert np.allclose(out[r, 2:], hi * 2)

    def test_barrier_divergence_detected(self, dev):
        k, _ = make_kernel(dev, """
        __kernel void bad(__global int* x) {
          if (get_local_id(0) < 16) barrier(CLK_LOCAL_MEM_FENCE);
          x[get_global_id(0)] = 1;
        }""", "opencl")
        p = dev.alloc_global(4 * 32)
        with pytest.raises(DeviceError, match="divergence"):
            launch_kernel(dev, k, [1], [32], [p.retype(T.INT)])

    def test_workgroup_too_large(self, dev):
        k, _ = make_kernel(dev, "__kernel void k(__global int* x) {}", "opencl")
        p = dev.alloc_global(16)
        with pytest.raises(DeviceError, match="exceeds"):
            launch_kernel(dev, k, [1], [2048], [p.retype(T.INT)])


class TestCudaKernels:
    def test_thread_indexing(self, dev):
        k, _ = make_kernel(dev, """
        __global__ void idx(int* out) {
          int tid = blockIdx.x * blockDim.x + threadIdx.x;
          out[tid] = tid * 3;
        }""", "cuda")
        p = dev.alloc_global(4 * 64)
        launch_kernel(dev, k, [2], [32], [p.retype(T.INT)], framework="cuda")
        assert list(download(dev, p, T.INT, 64)) == [i * 3 for i in range(64)]

    def test_static_and_dynamic_shared(self, dev):
        k, _ = make_kernel(dev, """
        __global__ void mix(int* out) {
          __shared__ int stat[32];
          extern __shared__ int dyn[];
          int t = threadIdx.x;
          stat[t] = t;
          dyn[t] = t * 10;
          __syncthreads();
          out[blockIdx.x * blockDim.x + t] = stat[(t + 1) % 32] + dyn[(t + 2) % 32];
        }""", "cuda")
        p = dev.alloc_global(4 * 64)
        launch_kernel(dev, k, [2], [32], [p.retype(T.INT)],
                      dynamic_shared=32 * 4, framework="cuda")
        out = download(dev, p, T.INT, 64)
        for b in range(2):
            for t in range(32):
                assert out[b * 32 + t] == (t + 1) % 32 + ((t + 2) % 32) * 10

    def test_constant_symbol(self, dev):
        k, mod = make_kernel(dev, """
        __constant__ float coef[4] = {0.5f, 1.5f, 2.5f, 3.5f};
        __global__ void apply(float* out) {
          int t = threadIdx.x;
          out[t] = coef[t % 4] * 2.0f;
        }""", "cuda")
        assert "coef" in mod.symbols
        p = dev.alloc_global(4 * 8)
        launch_kernel(dev, k, [1], [8], [p.retype(T.FLOAT)], framework="cuda")
        assert np.allclose(download(dev, p, T.FLOAT, 8),
                           [1, 3, 5, 7, 1, 3, 5, 7])

    def test_device_symbol_writable(self, dev):
        k, mod = make_kernel(dev, """
        __device__ int acc[8];
        __global__ void bump(void) {
          atomicAdd(&acc[threadIdx.x % 8], 1);
        }""", "cuda")
        sym = mod.symbol("acc")
        launch_kernel(dev, k, [1], [32], [], framework="cuda")
        vals = [sym.mem.read_scalar(sym.off + 4 * i, T.INT) for i in range(8)]
        assert vals == [4] * 8

    def test_cuda_atomic_inc_wraps(self, dev):
        k, _ = make_kernel(dev, """
        __global__ void inc(unsigned int* c) {
          atomicInc(c, 9);
        }""", "cuda")
        p = dev.alloc_global(4)
        dev.global_mem.view(p.off, 4)[:] = 0
        launch_kernel(dev, k, [1], [25], [p.retype(T.UINT)], framework="cuda")
        # 25 increments wrapping above 9: 25 mod 10 = 5
        assert download(dev, p, T.UINT, 1)[0] == 5

    def test_template_function_call(self, dev):
        k, _ = make_kernel(dev, """
        template <typename T>
        __device__ T square(T x) { return x * x; }
        __global__ void sq(int* out) {
          out[threadIdx.x] = square<int>(threadIdx.x);
        }""", "cuda", name="sq")
        p = dev.alloc_global(4 * 16)
        launch_kernel(dev, k, [1], [16], [p.retype(T.INT)], framework="cuda")
        assert list(download(dev, p, T.INT, 16)) == [i * i for i in range(16)]

    def test_grid_dim_vars(self, dev):
        k, _ = make_kernel(dev, """
        __global__ void info(int* out) {
          if (threadIdx.x == 0 && blockIdx.x == 0) {
            out[0] = gridDim.x; out[1] = blockDim.x; out[2] = warpSize;
          }
        }""", "cuda")
        p = dev.alloc_global(12)
        launch_kernel(dev, k, [3], [64], [p.retype(T.INT)], framework="cuda")
        assert list(download(dev, p, T.INT, 3)) == [3, 64, 32]


class TestPerfCounters:
    def test_flops_counted(self, dev):
        k, _ = make_kernel(dev, """
        __kernel void f(__global float* x) {
          int i = get_global_id(0);
          x[i] = x[i] * 2.0f + 1.0f;
        }""", "opencl")
        p = dev.alloc_global(4 * 64)
        res = launch_kernel(dev, k, [1], [64], [p.retype(T.FLOAT)])
        assert res.counters.flops >= 2 * 64
        assert res.counters.global_load_bytes == 4 * 64
        assert res.counters.global_store_bytes == 4 * 64

    def test_bank_conflict_mode_difference(self, dev):
        """The same double-using kernel must show ~2x the local transactions
        under the OpenCL (32-bit) mode vs the CUDA (64-bit) mode — the FT
        mechanism from §6.2."""
        src_ocl = """
        __kernel void dbl(__global double* g, __local double* tmp) {
          int lid = get_local_id(0);
          tmp[lid] = g[get_global_id(0)];
          barrier(CLK_LOCAL_MEM_FENCE);
          g[get_global_id(0)] = tmp[lid] * 2.0;
        }"""
        src_cuda = """
        __global__ void dbl(double* g) {
          extern __shared__ double tmp[];
          int lid = threadIdx.x;
          tmp[lid] = g[blockIdx.x * blockDim.x + lid];
          __syncthreads();
          g[blockIdx.x * blockDim.x + lid] = tmp[lid] * 2.0;
        }"""
        ko, _ = make_kernel(dev, src_ocl, "opencl")
        kc, _ = make_kernel(dev, src_cuda, "cuda")
        p = dev.alloc_global(8 * 64)
        r_ocl = launch_kernel(dev, ko, [2], [32],
                              [p.retype(T.DOUBLE), LocalArg(32 * 8)])
        r_cuda = launch_kernel(dev, kc, [2], [32], [p.retype(T.DOUBLE)],
                               dynamic_shared=32 * 8, framework="cuda")
        assert r_ocl.counters.local_transactions == \
            2 * r_cuda.counters.local_transactions

    def test_coalesced_vs_strided_global(self, dev):
        coal, _ = make_kernel(dev, """
        __kernel void c(__global float* x) {
          x[get_global_id(0)] = 1.0f;
        }""", "opencl")
        strided, _ = make_kernel(dev, """
        __kernel void s(__global float* x) {
          x[get_global_id(0) * 33] = 1.0f;
        }""", "opencl")
        p = dev.alloc_global(4 * 64 * 33 + 64)
        r1 = launch_kernel(dev, coal, [1], [64], [p.retype(T.FLOAT)])
        r2 = launch_kernel(dev, strided, [1], [64], [p.retype(T.FLOAT)])
        assert r2.counters.global_transactions > 4 * r1.counters.global_transactions

    def test_occupancy_in_result(self, dev):
        k, _ = make_kernel(dev, "__kernel void k(__global int* x) { x[0]=1; }",
                           "opencl")
        p = dev.alloc_global(16)
        res = launch_kernel(dev, k, [4], [128], [p.retype(T.INT)])
        assert 0.0 < res.occupancy.occupancy <= 1.0
        assert res.time.total > 0

    def test_sampled_scaling(self, dev):
        """Transactions are sampled on 2 groups and scaled; a 8-group launch
        must report ~4x the transactions of a 2-group launch."""
        src = """
        __kernel void w(__global float* x, __local float* t) {
          t[get_local_id(0)] = x[get_global_id(0)];
          barrier(CLK_LOCAL_MEM_FENCE);
          x[get_global_id(0)] = t[get_local_id(0)];
        }"""
        k, _ = make_kernel(dev, src, "opencl")
        p = dev.alloc_global(4 * 32 * 8)
        r2 = launch_kernel(dev, k, [2], [32],
                           [p.retype(T.FLOAT), LocalArg(32 * 4)])
        r8 = launch_kernel(dev, k, [8], [32],
                           [p.retype(T.FLOAT), LocalArg(32 * 4)])
        assert r8.counters.local_transactions == 4 * r2.counters.local_transactions


class TestHD7970:
    def test_wavefront_and_limits(self):
        dev = Device(HD7970)
        assert dev.spec.warp_size == 64
        assert not dev.spec.supports_cuda
        k, _ = make_kernel(dev, """
        __kernel void vadd(__global float* a) {
          a[get_global_id(0)] *= 2.0f;
        }""", "opencl")
        a = np.ones(128, dtype=np.float32)
        p = upload(dev, a)
        res = launch_kernel(dev, k, [2], [64], [p.retype(T.FLOAT)])
        assert np.allclose(download(dev, p, T.FLOAT, 128), 2.0)
        assert res.time.total > 0

    def test_workgroup_cap_256(self):
        dev = Device(HD7970)
        k, _ = make_kernel(dev, "__kernel void k(__global int* x) {}", "opencl")
        p = dev.alloc_global(16)
        with pytest.raises(DeviceError):
            launch_kernel(dev, k, [1], [512], [p.retype(T.INT)])


class TestExecTiers:
    def test_override_none_keeps_current_tier(self):
        with exec_tier_override("compiled"):
            with exec_tier_override(None):
                assert resolve_exec_tier() == "compiled"
            with exec_tier_override("vector"):
                assert resolve_exec_tier() == "vector"
            assert resolve_exec_tier() == "compiled"

    def test_benchmarks_take_every_tier(self):
        """``pytest benchmarks --exec-tier`` takes its choices from
        ``EXEC_TIERS``, so the figure benches can be pinned to the top
        tier."""
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "benchmarks", "--exec-tier",
             "vector", "--collect-only", "-q", "-p", "no:cacheprovider"],
            cwd=REPO, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr


_SAXPY = """
__kernel void saxpy(__global float* y, __global const float* x, float a) {
  int i = get_global_id(0);
  y[i] = a * x[i] + y[i];
}"""


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty kernel-module memo for one test; the process-wide one
    comes back afterwards, untouched by what the test loaded."""
    from collections import OrderedDict

    from repro.clike import compile as cc
    monkeypatch.setattr(cc, "_MEMO", OrderedDict())


#: appended to one section's generated code: raises when it is bound
_BOOM = "\nraise RuntimeError('{} section boom')"


def _saxpy_on(dev, tier):
    unit = parse(_SAXPY, "opencl")
    mod = load_module(dev, unit, "opencl", exec_tier=tier)
    x = upload(dev, np.arange(64, dtype=np.float32))
    y = upload(dev, np.ones(64, dtype=np.float32))
    launch_kernel(dev, mod.get_kernel("saxpy"), [1], [64],
                  [y.retype(T.FLOAT), x.retype(T.FLOAT), 2.0])
    return mod, download(dev, y, T.FLOAT, 64)


class TestModuleCodegen:
    def test_warp_section_error_demotes_only_the_vector_tier(
            self, dev, fresh_memo, monkeypatch):
        from repro.clike.vectorize import _VecFnCodegen
        emit = _VecFnCodegen.emit
        monkeypatch.setattr(_VecFnCodegen, "emit",
                            lambda self: emit(self) + _BOOM.format("warp"))
        mod, y = _saxpy_on(dev, "vector")
        assert set(mod.compiled_entries) == {"saxpy"}
        assert mod.vector_entries == {}
        assert "warp section boom" in mod.vector_fallbacks["saxpy"]
        assert mod.compile_fallbacks == {}
        assert np.array_equal(y, 2.0 * np.arange(64) + 1.0)

    def test_scalar_section_error_demotes_the_whole_module(
            self, dev, fresh_memo, monkeypatch):
        from repro.clike.compile import _FnCodegen
        emit = _FnCodegen.emit

        def poisoned(self):
            code, callees = emit(self)
            return code + _BOOM.format("scalar"), callees

        monkeypatch.setattr(_FnCodegen, "emit", poisoned)
        mod, y = _saxpy_on(dev, "vector")
        assert mod.compiled_entries == {} and mod.vector_entries == {}
        assert mod.compile_fallbacks == {
            "saxpy": "module codegen failed: scalar section boom"}
        assert np.array_equal(y, 2.0 * np.arange(64) + 1.0)

    def test_memo_keeps_the_most_recent_modules_under_threads(
            self, fresh_memo):
        """Threads loading more distinct modules than the memo holds each
        get their own module's artifact, and the memo stops at its
        bound."""
        import sys
        import threading

        from repro.clike import compile as cc
        from repro.clike.sema import annotate_unit
        n = cc._MEMO_SIZE + 32
        got = {}

        def load(ids):
            for i in ids:
                unit = parse(f"__kernel void k{i}(__global int* x) "
                             f"{{ x[0] = {i}; }}", "opencl")
                annotate_unit(unit, "opencl")
                got[i] = cc.compile_module(unit, "opencl")[0].kernel_names

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=load, args=(range(t, n, 4),))
                       for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {i: [f"k{i}"] for i in range(n)}
        assert len(cc._MEMO) == cc._MEMO_SIZE

    def test_kernel_loads_stay_out_of_the_translation_cache(
            self, fresh_memo):
        """Generated kernel code is reused through the codegen memo
        alone: it counts its own hits and misses, and no ``cache.*``
        counter moves and no ``cache:`` span opens on a kernel load."""
        from repro.harness import run_opencl_app
        from tests.conftest import find_app
        app = find_app("toolkit", "oclVectorAdd")
        m = get_metrics()
        hits = m.counter("engine.compile.cache_hit")
        misses = m.counter("engine.compile.cache_miss")

        def cache_counters():
            return {k: v for k, v in m.snapshot().items()
                    if k.startswith("cache.")}

        before = cache_counters()
        tracer = Tracer()
        with activate(tracer):
            h0, m0 = hits.value, misses.value
            first = run_opencl_app(app.name, app.opencl_host,
                                   app.opencl_kernels, exec_tier="compiled")
            assert (hits.value - h0, misses.value - m0) == (0, 1)
            h0, m0 = hits.value, misses.value
            second = run_opencl_app(app.name, app.opencl_host,
                                    app.opencl_kernels, exec_tier="compiled")
            assert (hits.value - h0, misses.value - m0) == (1, 0)
        assert first.ok and second.stdout == first.stdout
        assert cache_counters() == before
        assert not [s.name for s in tracer.finished
                    if s.name.startswith("cache:")]
