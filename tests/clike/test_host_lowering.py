"""Host programs lowered through the compile emitter vs the tree-walker.

Under every execution tier except ``interp`` the runners lower a host
program's ``main`` and its callees with ``compile_host_unit`` and run the
generated code in place of ``Interp``'s tree-walk.  The contract is the
interpreter's: byte-identical stdout, exit code and modeled time.  Seeded
host snippets exercise the statement mix host programs use; targeted
cases cover what the kernel emitter never needed (opaque handles, CUDA
``<<<>>>`` launches, host globals, names redeclared with another type,
texture attribute stores); the corpus pin says which host programs still
tree-walk and why.
"""

import random

import pytest

from repro.clike import parse
from repro.clike.compile import compile_host_unit
from repro.clike.sema import annotate_unit
from repro.harness import (run_cuda_app, run_cuda_translated,
                           run_opencl_app)
from repro.observability import Tracer, activate, get_metrics
from tests.conftest import EXPECTED_HOST_FALLBACKS, find_app


def _host_run(src, tier):
    return run_opencl_app("snippet", src, "", exec_tier=tier)


def _same(src, runner=_host_run):
    """Run ``src`` tree-walked and lowered; both must agree byte for byte
    and the lowered run must not have fallen back."""
    ref = runner(src, "interp")
    low = runner(src, "compiled")
    assert "host_fallback" not in low.extra, low.extra["host_fallback"]
    assert low.stdout == ref.stdout
    assert low.exit_code == ref.exit_code
    assert low.sim_time == ref.sim_time
    assert low.breakdown == ref.breakdown
    assert low.api_calls == ref.api_calls
    return ref


# ---------------------------------------------------------------------------
# seeded host snippets
# ---------------------------------------------------------------------------

_HELPERS = """
int mix(int a, float f) {
  int r = a * 7919 + (int)(f * 3.0f);
  if (r < 0) r = -r;
  return r % 1000;
}

void bye(int code) {
  printf("bye %d\\n", code);
  exit(code);
}
"""


def _gen_statements(rng, depth=0):
    stmts = []
    for _ in range(rng.randint(4, 8)):
        kind = rng.randint(0, 13 if depth == 0 else 6)
        c = rng.randint(1, 9)
        if kind == 0:
            op = rng.choice(["+", "-", "*", "/", "%", "&", "|", "^"])
            stmts.append(f"a = (a {op} {c}) + b;")
        elif kind == 1:
            op = rng.choice(["+", "-", "*", "/"])
            stmts.append(f"f = f {op} {c}.25f;")
        elif kind == 2:
            stmts.append(f"d = d * 0.5 + f - {c};")
        elif kind == 3:
            stmts.append(f"a = a * 2654435 + {c}; b = (b << {c % 5}) "
                         f"^ (a >> {c % 3 + 1});")
        elif kind == 4:
            op = rng.choice(["+=", "-=", "*=", "^=", "|=", "<<="])
            rhs = c % 4 if op == "<<=" else c
            stmts.append(f"b {op} {rhs}; f /= 2.0f; u += (unsigned)a;")
        elif kind == 5:
            stmts.append(f"b = a > b ? a - b : b - a + {c};")
        elif kind == 6:
            stmts.append(f"s = (short)(a * {c}); ch = (char)(b + s);")
        elif kind == 7:
            stmts.append(f"for (int i = 0; i < N; i++) arr[i] = "
                         f"rand() % {10 * c};")
        elif kind == 8:
            stmts.append(f"for (int i = 0; i < N; i++) {{ a += arr[i] * "
                         f"(i & 3); if (arr[i] > {5 * c}) continue; "
                         f"fa[i] = fa[i] * 0.5f + arr[i]; }}")
        elif kind == 9:
            stmts.append(f"while (a > 100) {{ a = a / 2; if (a % 7 == "
                         f"{c % 7}) break; }}")
        elif kind == 10:
            stmts.append("switch (a & 3) { case 0: f += 1.0f; break; "
                         "case 1: a++; default: a--; }")
        elif kind == 11:
            inner = " ".join(_gen_statements(rng, depth + 1))
            stmts.append(f"if (b % {c + 1} == 0) {{ {inner} }} else "
                         f"{{ a = mix(a, f); }}")
        elif kind == 12:
            stmts.append(f"memcpy(arr2, arr, N * sizeof(int)); "
                         f"p = arr2 + {c % 4}; *p += 3; p[1] = *p * 2; "
                         f"srand(a & 1023);")
        else:
            stmts.append(f"if (a % 97 == {c}) bye(a & 7);")
        if rng.random() < 0.3:
            stmts.append('printf("%d %d %.3f %g %x %c %u %ld %hd %5.2e '
                         '%s %%\\n", a, b, f, d, b & 255, 65 + (a & 7), u, '
                         '(long)a, s, d, a & 1 ? "odd" : "even");')
    return stmts


def gen_host_program(seed):
    rng = random.Random(seed)
    body = "\n  ".join(_gen_statements(rng))
    return f"""
{_HELPERS}
int main(void) {{
  int N = 16;
  int a = {rng.randint(1, 500)}; int b = {rng.randint(1, 500)};
  float f = 1.5f; double d = 0.25; unsigned int u = 7u;
  short s = 0; char ch = 0;
  int *arr = (int*)malloc(N * sizeof(int));
  int *arr2 = (int*)calloc(N, sizeof(int));
  float *fa = (float*)malloc(N * sizeof(float));
  int *p = arr2;
  srand({seed});
  for (int i = 0; i < N; i++) {{ arr[i] = rand() % 50; fa[i] = 0.0f; }}
  {body}
  printf("end %d %d %f %f %u %d %d %d %d\\n", a, b, f, d, u, s, ch,
         arr2[3], (int)fa[5]);
  free(arr); free(arr2); free(fa);
  return a & 3;
}}
"""


@pytest.mark.parametrize("seed", range(16))
def test_generated_host_program_identical(seed):
    _same(gen_host_program(seed))


# ---------------------------------------------------------------------------
# targeted host constructs
# ---------------------------------------------------------------------------

def test_printf_conversions():
    _same(r"""
int main(void) {
  int i = -42; unsigned int u = 3000000000u; float f = 3.14159f;
  double d = -2.5e-3; long l = 1234567890123;
  printf("[%d] [%5d] [%-5d] [%05d] [%+d] [%i]\n", i, i, i, 42, 42, i);
  printf("[%u] [%x] [%X] [%o] [%#x] [%lu] [%ld] [%lld]\n",
         u, 255, 255, 8, 255, u, l, l);
  printf("[%f] [%.2f] [%10.3f] [%-10.1f] [%e] [%E] [%g] [%G]\n",
         f, f, d, f, d, d, f, d);
  printf("[%c] [%s] [%10s] [%-6s] [%%] [%p]\n", 'Z', "host", "pad", "lf",
         (void*)0);
  puts("done");
  return 0;
}
""")


def test_rand_and_srand():
    _same(r"""
int main(void) {
  int s = 0;
  for (int i = 0; i < 5; i++) s += rand() % 1000;
  srand(12345);
  printf("%d %d %d\n", s, rand(), rand() % 7);
  srand(12345);
  printf("%d %f\n", rand(), rand() / (float)RAND_MAX);
  return 0;
}
""")


def test_malloc_memcpy_free():
    _same(r"""
int main(void) {
  int n = 32;
  float *a = (float*)malloc(n * sizeof(float));
  float *b = (float*)calloc(n, sizeof(float));
  for (int i = 0; i < n; i++) a[i] = i * 0.5f;
  memcpy(b, a, n * sizeof(float));
  memset(a, 0, 8 * sizeof(float));
  a = (float*)realloc(a, 2 * n * sizeof(float));
  printf("%f %f %f %d\n", a[3], a[9], b[31], memcmp(a, b, 4) != 0);
  free(a); free(b);
  return 0;
}
""")


def test_exit_from_nested_callee():
    ref = _same(r"""
void deeper(int v) {
  if (v > 2) { printf("exit at %d\n", v); exit(v + 1); }
  printf("ok %d\n", v);
}
void outer(int v) { for (int i = 0; i <= v; i++) deeper(i); }
int main(void) {
  outer(5);
  printf("unreachable\n");
  return 0;
}
""")
    assert ref.exit_code == 4
    assert "unreachable" not in ref.stdout


def test_host_globals_and_static_arrays():
    _same(r"""
int counter = 3;
float table[4] = {1.0f, 2.0f, 3.0f, 4.0f};
int bump(int by) { counter += by; return counter; }
int main(void) {
  bump(2); bump(counter);
  table[counter & 3] += 0.5f;
  printf("%d %f %f\n", counter, table[2], table[counter & 3]);
  return 0;
}
""")


def test_structs_and_arrows():
    _same(r"""
struct Particle { float x; float v; int id; };
void step(struct Particle *p, float dt) { p->x += p->v * dt; p->id++; }
int main(void) {
  struct Particle ps[3];
  for (int i = 0; i < 3; i++) {
    ps[i].x = i; ps[i].v = 0.5f * i; ps[i].id = 10 * i;
  }
  struct Particle *q = &ps[1];
  step(q, 2.0f);
  step(&ps[2], 1.0f);
  struct Particle one = ps[2];
  one.id += 5;
  printf("%f %f %d %d %d %d\n", ps[1].x, q->x, q->id, ps[2].id, one.id,
         (int)sizeof(struct Particle));
  return 0;
}
""")


def test_vector_members_in_memory():
    """Component stores into an address-taken ``float4`` (the memory
    vector-element helpers) and into a register copy."""
    _same(r"""
__global__ void unused(float* o) { o[0] = 1.0f; }
int main(void) {
  float4 v;
  float4 *pv = &v;
  v.x = 5.0f; v.y = 2.0f; v.z = 1.5f; v.w = 0.25f;
  v.y += 2.0f;
  v.w *= v.z;
  float4 w = v;
  w.x = w.y * 2.0f;
  printf("%f %f %f %f %f\n", v.x, v.y, (*pv).z, v.w, w.x);
  return 0;
}
""", lambda src, tier: run_cuda_app("vec", src, exec_tier=tier))


def test_redeclared_register_names():
    # one name, three declared types: every executed declaration rebinds
    # the name and sets the coercion type of later assignments
    _same(r"""
int main(void) {
  for (int k = 0; k < 3; k++) printf("k=%d\n", k);
  float k = 2.5f;
  k = k * 3;
  printf("%f\n", k);
  for (int k = 0; k < 2; k++) k = k;
  k = 7.75;
  printf("%f\n", (float)k);
  return 0;
}
""")


def test_redeclared_memory_names():
    _same(r"""
void scale(double *p) { *p = *p * 2.0; }
int main(void) {
  double dv = 1.5;
  double *pd = &dv;
  scale(&dv);
  for (int i = 0; i < 2; i++) {
    float dv = 2.25f + i;
    float *pf = &dv;
    *pf += 1;
    printf("%f\n", dv);
  }
  printf("%f %f\n", dv, *pd);
  return 0;
}
""")


_OCL_KERNEL = """
__kernel void scale(__global float* v, float s, int n) {
  int i = get_global_id(0);
  if (i < n) v[i] = v[i] * s;
}
"""

_OCL_HOST = r"""
cl_mem make(cl_context ctx, int n) {
  cl_int err;
  return clCreateBuffer(ctx, CL_MEM_READ_WRITE, n * sizeof(float), NULL,
                        &err);
}
int main(void) {
  int n = 64;
  float h[64];
  for (int i = 0; i < n; i++) h[i] = i;
  cl_platform_id platform;
  cl_device_id device;
  cl_int err;
  clGetPlatformIDs(1, &platform, NULL);
  clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU, 1, &device, NULL);
  cl_context ctx = clCreateContext(NULL, 1, &device, NULL, NULL, &err);
  cl_command_queue q = clCreateCommandQueue(ctx, device, 0, &err);
  cl_mem bufs[2];
  bufs[0] = make(ctx, n);
  bufs[1] = bufs[0];
  cl_mem d = bufs[1];
  clEnqueueWriteBuffer(q, d, CL_TRUE, 0, n * sizeof(float), h, 0, NULL,
                       NULL);
  const char* src = KERNEL_SOURCE;
  cl_program prog = clCreateProgramWithSource(ctx, 1, &src, NULL, &err);
  clBuildProgram(prog, 1, &device, NULL, NULL, NULL);
  cl_kernel k = clCreateKernel(prog, "scale", &err);
  float s = 3.0f;
  clSetKernelArg(k, 0, sizeof(cl_mem), &d);
  clSetKernelArg(k, 1, sizeof(float), &s);
  clSetKernelArg(k, 2, sizeof(int), &n);
  size_t gws[1] = {64};
  size_t lws[1] = {32};
  clEnqueueNDRangeKernel(q, k, 1, NULL, gws, lws, 0, NULL, NULL);
  clEnqueueReadBuffer(q, d, CL_TRUE, 0, n * sizeof(float), h, 0, NULL,
                      NULL);
  printf("%f %f %d\n", h[1], h[63], bufs[0] == bufs[1]);
  clReleaseMemObject(d);
  return 0;
}
"""


def test_opaque_handles():
    """cl_* handles stored in arrays, compared, returned from a callee and
    passed to the API uncoerced."""
    ref = _same(_OCL_HOST, lambda src, tier: run_opencl_app(
        "handles", src, _OCL_KERNEL, exec_tier=tier))
    assert ref.stdout == "3.000000 189.000000 1\n"


_CU_LAUNCH = r"""
__global__ void fill(float* out, float v, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) out[i] = out[i] + v + i;
}
int tick(int v) { printf("tick %d\n", v); return v; }
int main(void) {
  int n = 64;
  float h[64];
  float* d;
  cudaMalloc((void**)&d, n * sizeof(float));
  cudaMemset(d, 0, n * sizeof(float));
  fill<<<2, 32>>>(d, 1.0f, n);
  dim3 grid(2, 1);
  dim3 block(32);
  fill<<<grid, block>>>(d, 2.0f, n);
  fill<<<dim3(4), dim3(16), 0, 0>>>(d, 0.5f, n);
  fill<<<tick(1), tick(64), tick(0)>>>(d, (float)tick(3), tick(64));
  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);
  printf("%f %f\n", h[0], h[63]);
  cudaFree(d);
  return 0;
}
"""


def test_cuda_launches():
    """<<<>>> with int and dim3 configs, shared bytes and a stream;
    operands evaluate in the interpreter's order."""
    ref = _same(_CU_LAUNCH, lambda src, tier: run_cuda_app(
        "launch", src, exec_tier=tier))
    assert ref.kernel_launches == 4
    assert ref.stdout.startswith("tick 1\ntick 64\ntick 0\ntick 3\ntick 64\n")


_CU_TEXTURE = r"""
texture<float, 1, cudaReadModeElementType> tex;
__global__ void fetch(float* out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) out[i] = tex1Dfetch(tex, i) * 2.0f;
}
int main(void) {
  int n = 32;
  float h[32];
  for (int i = 0; i < n; i++) h[i] = i;
  float* src;
  float* dst;
  cudaMalloc((void**)&src, n * sizeof(float));
  cudaMalloc((void**)&dst, n * sizeof(float));
  cudaMemcpy(src, h, n * sizeof(float), cudaMemcpyHostToDevice);
  tex.filterMode = cudaFilterModePoint;
  tex.normalized = 0;
  tex.addressMode[0] = cudaAddressModeClamp;
  printf("%d %d\n", tex.normalized, tex.addressMode[0]);
  cudaBindTexture(0, tex, src, n * sizeof(float));
  fetch<<<1, 32>>>(dst, n);
  cudaMemcpy(h, dst, n * sizeof(float), cudaMemcpyDeviceToHost);
  printf("%f %f\n", h[1], h[31]);
  return 0;
}
"""


@pytest.mark.parametrize("runner", [run_cuda_app, run_cuda_translated],
                         ids=["cuda-native", "cuda2ocl"])
def test_texture_attribute_stores(runner):
    """Native CUDA stores into the file-scope texture reference; the
    translated host stores into the wrapper runtime's texture binding,
    an environment constant."""
    ref = _same(_CU_TEXTURE, lambda src, tier: runner(
        "texture", src, exec_tier=tier))
    assert ref.stdout.endswith("2.000000 62.000000\n")


# ---------------------------------------------------------------------------
# constants resolve per run, fallback is recorded
# ---------------------------------------------------------------------------

def test_constants_resolve_per_run():
    """Two OpenCL apps back to back in one process: each host program's
    ``KERNEL_SOURCE`` (an environment constant) must be its own, so each
    lowered run equals its tree-walked run."""
    apps = [find_app("toolkit", "oclVectorAdd"),
            find_app("rodinia", "gaussian")]
    lowered = [run_opencl_app(a.name, a.opencl_host, a.opencl_kernels,
                              exec_tier="vector") for a in apps]
    for app, low in zip(apps, lowered):
        ref = run_opencl_app(app.name, app.opencl_host, app.opencl_kernels,
                             exec_tier="interp")
        assert low.ok, low.stdout
        assert low.stdout == ref.stdout
        assert low.sim_time == ref.sim_time
        assert "host_fallback" not in low.extra


_TEMPLATE = r"""
template <typename T> T twice(T v) { return v + v; }
int main(void) { printf("%d %f\n", twice(21), twice(1.25f)); return 0; }
"""


def _template_run(tier):
    return run_cuda_app("template", _TEMPLATE, exec_tier=tier)


def test_fallback_is_recorded():
    """A construct codegen does not cover (a template function) tree-walks
    ``main``, with the reason on the result, on the ``compile:host`` span
    and in ``harness.host.fallback``."""
    metrics = get_metrics()
    before = metrics.counter("harness.host.fallback").value
    tracer = Tracer()
    with activate(tracer):
        res = _template_run("vector")
    assert res.stdout == _template_run("interp").stdout == "42 2.500000\n"
    reason = res.extra["host_fallback"]
    assert reason == "calls fallback function 'twice'"
    assert metrics.counter("harness.host.fallback").value == before + 1
    span, = [s for s in tracer.finished if s.name == "compile:host"]
    assert span.attrs["outcome"] == "fallback"
    assert span.attrs["reason"] == reason


def _nested_continue_program(depth):
    loops = "".join(f"for (int i{k} = 0; i{k} < 2; i{k}++) {{ "
                    f"if (i{k} == 1) continue; " for k in range(depth))
    return f"""
int main(void) {{
  int n = 0;
  int hits[2];
  hits[0] = 0;
  {loops}n++; hits[0] += 2; {"}" * depth}
  printf("%d %d\\n", n, hits[0]);
  return 0;
}}
"""


@pytest.mark.parametrize("tier", ["compiled", "vector"])
def test_codegen_error_falls_back(tier):
    """Nested loops that use ``continue`` inside a stack frame nest the
    generated code deeper than CPython allows, so binding it raises
    ``SyntaxError``: ``main`` tree-walks with the error as its reason
    and the run still matches the interpreter's."""
    src = _nested_continue_program(12)
    ref = _host_run(src, "interp")
    tracer = Tracer()
    with activate(tracer):
        res = _host_run(src, tier)
    reason = res.extra["host_fallback"]
    assert reason.startswith("SyntaxError: "), reason
    span, = [s for s in tracer.finished if s.name == "compile:host"]
    assert (span.attrs["outcome"], span.attrs["reason"]) == (
        "fallback", reason)
    assert res.stdout == ref.stdout == "1 2\n"
    assert res.exit_code == ref.exit_code == 0
    assert res.sim_time == ref.sim_time


def test_interp_tier_tree_walks():
    metrics = get_metrics()
    before = (metrics.counter("harness.host.lowered").value,
              metrics.counter("harness.host.fallback").value)
    tracer = Tracer()
    with activate(tracer):
        res = _template_run("interp")
    assert "host_fallback" not in res.extra
    assert not [s for s in tracer.finished if s.name == "compile:host"]
    assert (metrics.counter("harness.host.lowered").value,
            metrics.counter("harness.host.fallback").value) == before


# ---------------------------------------------------------------------------
# corpus coverage pin
# ---------------------------------------------------------------------------

def _corpus_host_programs():
    """``suite/app:mode -> (host source, dialect)`` for every corpus run."""
    from repro.apps.base import all_apps
    from repro.translate.api import translate_cuda_program
    out = {}
    for app in all_apps():
        key = f"{app.suite}/{app.name}"
        if app.has_opencl:
            out[f"{key}:ocl-native"] = out[f"{key}:ocl2cuda"] = (
                app.opencl_host, "host")
        if app.has_cuda and app.cuda_runs_natively:
            out[f"{key}:cuda-native"] = (app.cuda_source, "cuda")
            if app.cuda_translatable:
                out[f"{key}:cuda2ocl"] = (
                    translate_cuda_program(app.cuda_source).host_source,
                    "host")
    return out


def test_corpus_host_fallbacks_pinned():
    programs = _corpus_host_programs()
    assert len(programs) == 192
    fallbacks = {}
    for key, (src, dialect) in programs.items():
        unit = parse(src, dialect)
        annotate_unit(unit, dialect)
        cs = compile_host_unit(unit, dialect)
        if "main" not in cs.kernel_names:
            fallbacks[key] = cs.fallbacks.get("main", "no main()")
    assert fallbacks == EXPECTED_HOST_FALLBACKS
