"""Seeded property tests: generated kernels, interp ≡ compiled ≡ vector.

Each seed deterministically generates a small OpenCL kernel from a pool of
statement templates covering the constructs the compile tier must lower
faithfully: barriers with local memory, divergent branches, loops, and
integer/float arithmetic (including C division/modulo and shift-width
wrapping).  The kernel runs under the execution tiers on fresh devices and
the suite asserts byte-identical output buffers, identical performance
counters, and bit-for-bit identical modeled kernel time.  Typed seeds run
the same checks with the working local of every integer type, and the
named constants are pinned on every tier.

A second group checks the ``compiled`` tier's contract: unsupported
constructs fall back to the interpreter per kernel, with the demotion
recorded and the run still correct.
"""

import random

import numpy as np
import pytest

from repro.clike import parse
from repro.clike import types as T
from repro.clike.stdlib import NAMED_CONSTANTS
from repro.device.engine import (Device, LocalArg, launch_kernel, load_module)
from repro.device.specs import GTX_TITAN
from repro.observability import get_metrics

BLOCK = 32
GROUPS = 4
N = BLOCK * GROUPS

# ---------------------------------------------------------------------------
# kernel generator
# ---------------------------------------------------------------------------


def _gen_statements(rng: random.Random, depth: int = 0):
    """A few random statements over the fixed locals f (float), v (int)."""
    stmts = []
    for _ in range(rng.randint(3, 6)):
        # barriers (kind 5) only in uniform top-level control flow: a
        # barrier inside a divergent branch is UB in both models and the
        # engine rejects it
        kind = rng.randint(0, 5 if depth == 0 else 4)
        if kind == 0:                                   # float arithmetic
            c = rng.uniform(0.25, 2.0)
            op = rng.choice(["+", "-", "*"])
            stmts.append(f"f = f {op} {c:.4f}f;")
        elif kind == 1:                                 # int arithmetic
            c = rng.randint(1, 9)
            op = rng.choice(["+", "-", "*", "&", "|", "^", "%", "/"])
            stmts.append(f"v = (v {op} {c}) + lid;")
        elif kind == 2:                                 # shifts
            s = rng.randint(0, 4)
            stmts.append(f"v = (v << {s}) ^ (v >> {s + 1});")
        elif kind == 3:                                 # divergent branch
            m = rng.randint(2, 5)
            r = rng.randrange(m)
            a = _gen_statements(rng, depth + 1) if depth == 0 else ["f += 1.0f;"]
            b = _gen_statements(rng, depth + 1) if depth == 0 else ["v -= 2;"]
            stmts.append("if (gid % {} == {}) {{ {} }} else {{ {} }}".format(
                m, r, " ".join(a), " ".join(b)))
        elif kind == 4:                                 # loop
            k = rng.randint(1, 4)
            stmts.append(
                f"for (int i = 0; i < {k}; i++) f = f * 0.5f + (float)(v + i);")
        else:                                           # local mem + barriers
            s = rng.randint(1, BLOCK - 1)
            stmts.append(
                f"tmp[lid] = f; barrier(CLK_LOCAL_MEM_FENCE); "
                f"f += tmp[(lid + {s}) % {BLOCK}]; "
                f"barrier(CLK_LOCAL_MEM_FENCE);")
    return stmts


def gen_kernel(seed: int) -> str:
    rng = random.Random(seed)
    body = "\n  ".join(_gen_statements(rng))
    return f"""
__kernel void prop(__global const float* fin, __global float* fout,
                   __global const int* iin, __global int* iout,
                   __local float* tmp, int n) {{
  int gid = get_global_id(0);
  int lid = get_local_id(0);
  if (gid >= n) return;
  float f = fin[gid];
  int v = iin[gid];
  {body}
  fout[gid] = f;
  iout[gid] = v + (int)f;
}}
"""


# ---------------------------------------------------------------------------
# dual-tier launch helper
# ---------------------------------------------------------------------------


def _upload(dev, arr):
    p = dev.alloc_global(arr.nbytes)
    dev.global_mem.view(p.off, arr.nbytes)[:] = arr.view(np.uint8).reshape(-1)
    return p


def _run_tier(src: str, tier: str):
    """Fresh device, fixed inputs, one launch; returns everything that must
    match across tiers plus the module (for tier introspection)."""
    dev = Device(GTX_TITAN)
    unit = parse(src, "opencl")
    mod = load_module(dev, unit, "opencl", exec_tier=tier)
    k = mod.get_kernel("prop")

    rng = np.random.default_rng(42)
    fin = rng.random(N, np.float32)
    iin = rng.integers(-1000, 1000, N).astype(np.int32)
    pf_in, pi_in = _upload(dev, fin), _upload(dev, iin)
    pf_out = dev.alloc_global(4 * N)
    pi_out = dev.alloc_global(4 * N)

    res = launch_kernel(dev, k, [GROUPS], [BLOCK],
                        [pf_in.retype(T.FLOAT), pf_out.retype(T.FLOAT),
                         pi_in.retype(T.INT), pi_out.retype(T.INT),
                         LocalArg(4 * BLOCK), N])
    fout = bytes(dev.global_mem.view(pf_out.off, 4 * N))
    iout = bytes(dev.global_mem.view(pi_out.off, 4 * N))
    return fout, iout, res, mod


@pytest.mark.parametrize("seed", range(12))
def test_generated_kernel_identical(seed):
    src = gen_kernel(seed)
    f1, i1, r1, m1 = _run_tier(src, "interp")
    f2, i2, r2, m2 = _run_tier(src, "compiled")
    # the compiled tier really compiled — no silent demotion
    assert m2.compile_fallbacks == {}, m2.compile_fallbacks
    assert "prop" in m2.compiled_entries
    assert m1.compiled_entries == {}
    # byte-identical buffers, identical counters, bit-identical modeled time
    assert f2 == f1
    assert i2 == i1
    assert r2.counters == r1.counters
    assert r2.time.total == r1.time.total
    assert r2.time == r1.time


@pytest.mark.parametrize("seed", range(12))
def test_generated_kernel_identical_vector(seed):
    """The warp-vectorized tier over the same seeds: the generator only
    emits uniformly-branching bodies with divergent *data* masks, so every
    seed must vectorize (no silent demotion) and stay byte-identical."""
    src = gen_kernel(seed)
    f1, i1, r1, m1 = _run_tier(src, "interp")
    f3, i3, r3, m3 = _run_tier(src, "vector")
    assert m3.vector_fallbacks == {}, m3.vector_fallbacks
    assert "prop" in m3.vector_entries
    assert f3 == f1
    assert i3 == i1
    assert r3.counters == r1.counters
    assert r3.time.total == r1.time.total
    assert r3.time == r1.time
    assert r3.occupancy == r1.occupancy


# ---------------------------------------------------------------------------
# typed seeds: the working local over every integer type
# ---------------------------------------------------------------------------

#: working-local type -> the rung its kernels run on under ``vector``: the
#: warp emitter holds integer lanes in int64, so unsigned 64-bit registers
#: stay on the scalar compiled tier
TYPED_RUNGS = {"char": "vector", "uchar": "vector", "short": "vector",
               "ushort": "vector", "int": "vector", "uint": "vector",
               "long": "vector", "ulong": "compiled", "size_t": "compiled"}

_WRAP_CONSTANTS = (255, 65535, 2147483647, 4294967295)


def _gen_typed_statements(rng: random.Random, ty: str):
    """Random statements over the varying local w and the uniform local u
    (both of type ``ty``) and the float f."""
    stmts = []
    for _ in range(rng.randint(4, 7)):
        kind = rng.randint(0, 6)
        c = rng.choice(_WRAP_CONSTANTS)
        if kind == 0:                                   # wrap-around
            op = rng.choice(["+", "-", "*", "^", "&", "|"])
            stmts.append(f"w = w {op} ({ty}){c};")
        elif kind == 1:                                 # / and %
            op = rng.choice(["/", "%"])
            stmts.append(f"w {op}= ({ty}){rng.randint(1, 9)};")
        elif kind == 2:                                 # shifts
            s = rng.randint(0, 7)
            stmts.append(f"w = (w << {s}) ^ (w >> {s + 1});")
        elif kind == 3:                                 # compares with gid
            stmts.append(f"if (w > ({ty})gid) w = w - ({ty})gid; "
                         f"else w = w + ({ty}){c};")
        elif kind == 4:
            stmts.append(f"w = (w < ({ty})gid) ? w * ({ty})3 : "
                         f"w / ({ty})2;")
        elif kind == 5:                                 # int <-> float
            stmts.append(f"f = f * 0.5f + (float)w; "
                         f"w = ({ty})(f * 0.25f) + w;")
        else:                                           # uniform compound
            op = rng.choice(["+", "*", "<<", "%", "^"])
            k = rng.randint(0, 5) if op == "<<" else rng.choice((c, 3))
            stmts.append(f"u {op}= ({ty}){k}; w = w + u;")
    return stmts


def gen_typed_kernel(ty: str, seed: int) -> str:
    rng = random.Random(f"{ty}/{seed}")
    body = "\n  ".join(_gen_typed_statements(rng, ty))
    return f"""
__kernel void typed(__global const int* iin, __global int* iout,
                    __global long* lout, __global float* fout, int n) {{
  int gid = get_global_id(0);
  if (gid >= n) return;
  {ty} w = ({ty})iin[gid];
  {ty} u = ({ty})n;
  float f = (float)(iin[gid] % 7) * 0.5f;
  {body}
  iout[gid] = (int)w;
  lout[gid] = (long)w;
  fout[gid] = f;
}}
"""


def _run_typed(src: str, tier: str):
    dev = Device(GTX_TITAN)
    mod = load_module(dev, parse(src, "opencl"), "opencl", exec_tier=tier)
    iin = np.random.default_rng(7).integers(-1000, 1000, N).astype(np.int32)
    p_in = _upload(dev, iin)
    outs = [(dev.alloc_global(sz * N), t, sz)
            for t, sz in ((T.INT, 4), (T.LONG, 8), (T.FLOAT, 4))]
    res = launch_kernel(dev, mod.get_kernel("typed"), [GROUPS], [BLOCK],
                        [p_in.retype(T.INT)]
                        + [p.retype(t) for p, t, _ in outs] + [N])
    data = b"".join(bytes(dev.global_mem.view(p.off, sz * N))
                    for p, _, sz in outs)
    return data, res, mod


@pytest.mark.parametrize("ty,seed", [(ty, s) for ty in TYPED_RUNGS
                                     for s in (0, 1)])
def test_typed_kernel_identical_all_tiers(ty, seed):
    """Integer wrap-around, C division and shifts, compares with ``gid``
    and int <-> float conversions through a working local of each integer
    type: byte-identical buffers, counters and modeled time on all three
    tiers, each kernel on its pinned rung."""
    src = gen_typed_kernel(ty, seed)
    d1, r1, _ = _run_typed(src, "interp")
    d2, r2, m2 = _run_typed(src, "compiled")
    d3, r3, m3 = _run_typed(src, "vector")
    assert "typed" in m2.compiled_entries, m2.compile_fallbacks
    if TYPED_RUNGS[ty] == "vector":
        assert "typed" in m3.vector_entries, m3.vector_fallbacks
    else:
        assert "typed" in m3.compiled_entries
        assert "register type" in m3.vector_fallbacks["typed"]
    assert d2 == d1
    assert d3 == d1
    assert r2.counters == r1.counters
    assert r3.counters == r1.counters
    assert r2.time == r1.time
    assert r3.time == r1.time


_DIV_INT64_MIN = """
__kernel void divmin(__global long* q, __global long* r,
                     __global double* d, int n) {
  int gid = get_global_id(0);
  if (gid < n) {
    long w = (long)(gid >> 1) - 9223372036854775807L - 1L;
    long m = (gid & 1) ? -1L : 3L;
    q[gid] = w / m;
    r[gid] = w % m;
    d[gid] = (double)(w / m);
  }
}
"""


def _run_divmin(tier):
    dev = Device(GTX_TITAN)
    mod = load_module(dev, parse(_DIV_INT64_MIN, "opencl"), "opencl",
                      exec_tier=tier)
    outs = [dev.alloc_global(8 * N) for _ in range(3)]
    res = launch_kernel(dev, mod.get_kernel("divmin"), [GROUPS], [BLOCK],
                        [outs[0].retype(T.LONG), outs[1].retype(T.LONG),
                         outs[2].retype(T.DOUBLE), N])
    data = [dev.global_mem.typed_view(p.off, t, N).copy()
            for p, t in zip(outs, (T.LONG, T.LONG, T.DOUBLE))]
    return data, res, mod


def test_int64_min_division_identical_all_tiers():
    """C division and modulo at INT64_MIN truncate toward zero on every
    tier, by 3 and by -1, whose exact quotient 2**63 leaves int64; the
    kernel stays on the vector rung."""
    (q, r, d), r1, _ = _run_divmin("interp")
    assert (q[0], r[0]) == (-3074457345618258602, -2)
    assert (q[1], r[1], d[1]) == (-2**63, 0, 2.0**63)
    for tier in ("compiled", "vector"):
        data, res, mod = _run_divmin(tier)
        if tier == "vector":
            assert "divmin" in mod.vector_entries, mod.vector_fallbacks
        for got, want in zip(data, (q, r, d)):
            assert got.tobytes() == want.tobytes(), tier
        assert res.counters == r1.counters
        assert res.time == r1.time


# ---------------------------------------------------------------------------
# compiled-tier fallback on unsupported constructs
# ---------------------------------------------------------------------------

_SHADOW = """
__kernel void shadow(__global int* out, int n) {
  int gid = get_global_id(0);
  if (gid < n) { int n = 7; out[gid] = n + gid; }
}
"""


def _launch_shadow(tier):
    dev = Device(GTX_TITAN)
    mod = load_module(dev, parse(_SHADOW, "opencl"), "opencl", exec_tier=tier)
    p = dev.alloc_global(4 * N)
    launch_kernel(dev, mod.get_kernel("shadow"), [GROUPS], [BLOCK],
                  [p.retype(T.INT), N])
    return dev.global_mem.typed_view(p.off, T.INT, N).copy(), mod


def test_compiled_tier_also_falls_back():
    """The ``compiled`` tier demotes an unsupported kernel, with a reason,
    instead of failing, and the kernel still runs correctly through the
    interpreter."""
    before = get_metrics().counter("engine.compile.fallback").value
    got, mod = _launch_shadow("compiled")
    got_interp, _ = _launch_shadow("interp")
    assert "shadow" in mod.compile_fallbacks
    assert "shadows parameter" in mod.compile_fallbacks["shadow"]
    assert "shadow" not in mod.compiled_entries
    assert np.array_equal(got, got_interp)
    assert np.array_equal(got, np.arange(7, 7 + N, dtype=np.int32))
    assert get_metrics().counter("engine.compile.fallback").value > before


# ---------------------------------------------------------------------------
# vector-tier demotion chain: vector -> compiled -> interp
# ---------------------------------------------------------------------------

_BUILTIN_CALL = """
__kernel void root(__global float* out, int n) {
  int gid = get_global_id(0);
  if (gid >= n) return;
  out[gid] = sqrt((float)gid);
}
"""


def test_vector_demotes_to_scalar_compiled():
    """A per-lane builtin call is outside the vector subset: the kernel
    demotes one rung (to generated scalar code), not two, and the
    demotion is recorded with a reason."""
    dev = Device(GTX_TITAN)
    mod = load_module(dev, parse(_BUILTIN_CALL, "opencl"), "opencl",
                      exec_tier="vector")
    assert "root" in mod.vector_fallbacks
    assert "root" not in mod.vector_entries
    # middle rung still holds: the scalar compiled form runs it
    assert "root" in mod.compiled_entries
    assert mod.compile_fallbacks == {}
    p = dev.alloc_global(4 * N)
    launch_kernel(dev, mod.get_kernel("root"), [GROUPS], [BLOCK],
                  [p.retype(T.FLOAT), N])
    out = dev.global_mem.typed_view(p.off, T.FLOAT, N).copy()
    assert np.allclose(out, np.sqrt(np.arange(N, dtype=np.float32)))


def test_vector_chains_to_interp_on_scalar_fallback():
    """A kernel the *scalar* pass already demoted records the chained
    reason in the vector tier and still executes via the interpreter."""
    dev = Device(GTX_TITAN)
    mod = load_module(dev, parse(_SHADOW, "opencl"), "opencl",
                      exec_tier="vector")
    assert "shadow" in mod.vector_fallbacks
    assert mod.vector_fallbacks["shadow"].startswith("scalar fallback:")
    assert "shadows parameter" in mod.vector_fallbacks["shadow"]
    assert "shadow" not in mod.vector_entries
    assert "shadow" not in mod.compiled_entries
    p = dev.alloc_global(4 * N)
    launch_kernel(dev, mod.get_kernel("shadow"), [GROUPS], [BLOCK],
                  [p.retype(T.INT), N])
    got = dev.global_mem.typed_view(p.off, T.INT, N).copy()
    assert np.array_equal(got, np.arange(7, 7 + N, dtype=np.int32))


def test_vector_demotion_counted():
    before = get_metrics().counter("engine.vector.fallback").value
    load_module(Device(GTX_TITAN), parse(_BUILTIN_CALL, "opencl"), "opencl",
                exec_tier="vector")
    assert get_metrics().counter("engine.vector.fallback").value > before


# ---------------------------------------------------------------------------
# known divergence from C, held equal across tiers (DESIGN.md §14)
# ---------------------------------------------------------------------------

_BLOCK_SCOPE_KERNEL = """
__kernel void scope(__global int* out, int n) {
  int gid = get_global_id(0);
  if (gid >= n) return;
  int x = 1;
  { float x = 2.5f; }
  out[gid] = x;
}
"""

_BLOCK_SCOPE_HOST = r"""
int main(void) {
  int x = 1;
  { float x = 2.5f; }
  printf("%d\n", x);
  return 0;
}
"""


@pytest.mark.parametrize("tier", ["interp", "compiled", "vector"])
def test_block_scope_divergence_kernel(tier):
    """The reference interpreter binds one variable per name per function
    frame, so the inner ``float x`` rebinds the outer ``x``: C stores 1,
    every tier stores 2 (the compiled tier through its retyped-name
    path, not by falling back)."""
    dev = Device(GTX_TITAN)
    mod = load_module(dev, parse(_BLOCK_SCOPE_KERNEL, "opencl"), "opencl",
                      exec_tier=tier)
    if tier != "interp":
        assert "scope" in mod.compiled_entries
    p = dev.alloc_global(4 * N)
    launch_kernel(dev, mod.get_kernel("scope"), [GROUPS], [BLOCK],
                  [p.retype(T.INT), N])
    got = dev.global_mem.typed_view(p.off, T.INT, N)
    assert (got == 2).all()


@pytest.mark.parametrize("tier", ["interp", "compiled", "vector"])
def test_block_scope_divergence_host(tier):
    """The same divergence in a host program: tree-walked and lowered
    host code both print ``2`` where C prints ``1``."""
    from repro.harness import run_opencl_app
    res = run_opencl_app("scope", _BLOCK_SCOPE_HOST, "", exec_tier=tier)
    assert "host_fallback" not in res.extra
    assert res.stdout == "2\n"


@pytest.mark.parametrize("tier", ["jit", "auto"])
def test_bad_tier_rejected(tier):
    from repro.device.engine import EXEC_TIERS
    from repro.errors import DeviceError
    dev = Device(GTX_TITAN)
    with pytest.raises(DeviceError, match="bad execution tier") as err:
        load_module(dev, parse(_SHADOW, "opencl"), "opencl",
                    exec_tier=tier)
    assert all(t in str(err.value) for t in EXEC_TIERS)


# ---------------------------------------------------------------------------
# builtin binding: the interpreter builds the whole table per work-item,
# generated code binds only the names it calls
# ---------------------------------------------------------------------------

_OCL_FAMILIES = r"""
__kernel void fam(__global float* fout, __global int* iout,
                  __global int* counter, __global const float* vin,
                  __global float* vout, __read_only image2d_t img) {
  int gid = get_global_id(0);
  float x = (float)gid + 0.5f;
  float s = sqrt(x) + native_exp(x * 0.01f);
  int old = atomic_add(&counter[0], 3) + atom_inc(&counter[1]);
  float4 px = read_imagef(img, CLK_NORMALIZED_COORDS_FALSE |
                          CLK_ADDRESS_CLAMP_TO_EDGE | CLK_FILTER_NEAREST,
                          (int2)(gid % 5, 0));
  float4 v = vload4(gid, vin);
  vstore4(v * 2.0f, gid, vout);
  if (gid % 16 == 0) printf("wi %d s=%f px=%f\n", gid, s, px.y);
  fout[gid] = s + px.x;
  iout[gid] = old;
}
"""

_CUDA_FAMILIES = r"""
texture<float, 1, cudaReadModeElementType> tex;

__global__ void fam(float* fout, unsigned int* iout, unsigned int* counter,
                    int* clk) {
  int gid = blockIdx.x * blockDim.x + threadIdx.x;
  float x = (float)gid + 0.5f;
  float s = sqrt(x) + expf(x * 0.01f);
  unsigned int old = atomicAdd(&counter[0], 3u);
  unsigned int wrap = atomicInc(&counter[1], 5u);
  float t = tex1Dfetch(tex, gid % 8);
  int c = (int)clock();
  if (gid % 16 == 0) printf("wi %d s=%f t=%f\n", gid, s, t);
  fout[gid] = s + t;
  iout[gid] = old * 8u + wrap;
  clk[gid] = c;
}
"""

#: the builtins each work-item of ``fam`` calls through generated code;
#: work-items with ``gid % 16 == 0`` also call printf
_FAMILY_CALLS = {
    "opencl": {"sqrt", "native_exp", "atomic_add", "atom_inc",
               "read_imagef", "vload4", "vstore4"},
    "cuda": {"sqrt", "expf", "atomicAdd", "atomicInc", "tex1Dfetch",
             "clock"},
}


def _run_families(dialect, tier):
    """One launch of ``fam`` on a fresh device.  Returns the output bytes,
    the LaunchResult, the work-item environments, the number of whole
    builtin tables built and the module."""
    import repro.device.engine as engine

    envs, tables = [], []
    make_builtins = engine.make_builtins

    class Recording(engine.WorkItemEnv):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            envs.append(self)

    def counting(env, d):
        tables.append(env)
        return make_builtins(env, d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "WorkItemEnv", Recording)
        mp.setattr(engine, "make_builtins", counting)
        out, res, mod = _launch_families(dialect, tier)
    return out, res, envs, len(tables), mod


def _launch_families(dialect, tier):
    from repro.device.images import ChannelFormat, DeviceImage
    dev = Device(GTX_TITAN)
    src = _OCL_FAMILIES if dialect == "opencl" else _CUDA_FAMILIES
    mod = load_module(dev, parse(src, dialect), dialect, exec_tier=tier)
    out_f, out_i = dev.alloc_global(4 * N), dev.alloc_global(4 * N)
    counter = dev.alloc_global(8)
    dev.global_mem.view(counter.off, 8)[:] = 0
    if dialect == "opencl":
        vin = _upload(dev, np.arange(4 * N, dtype=np.float32) * 0.25)
        vout = dev.alloc_global(16 * N)
        img = DeviceImage(2, (5, 1), ChannelFormat("RGBA", "FLOAT"))
        img.data[...] = np.arange(20, dtype=np.float32).reshape(1, 5, 4)
        args = [out_f.retype(T.FLOAT), out_i.retype(T.INT),
                counter.retype(T.INT), vin.retype(T.FLOAT),
                vout.retype(T.FLOAT), img]
        extra = (vout, 16 * N)
    else:
        texels = _upload(dev, np.arange(8, dtype=np.float32) * 1.5)
        mod.globals_values["tex"].bind_linear(texels, 32, 1 << 27)
        clk = dev.alloc_global(4 * N)
        args = [out_f.retype(T.FLOAT), out_i.retype(T.UINT),
                counter.retype(T.UINT), clk.retype(T.INT)]
        extra = (clk, 4 * N)
    res = launch_kernel(dev, mod.get_kernel("fam"), [GROUPS], [BLOCK], args)
    out = b"".join(bytes(dev.global_mem.view(p.off, n)) for p, n in
                   ((out_f, 4 * N), (out_i, 4 * N), (counter, 8), extra))
    return out, res, mod


@pytest.mark.parametrize("dialect", ["opencl", "cuda"])
def test_builtin_families_identical_across_tiers(dialect):
    """One builtin of every env-bound family (SFU math, atomics with
    CUDA's wrap-around atomicInc, printf, image/texture reads, vloadN/
    vstoreN, clock) plus an alias: byte-identical outputs, counters,
    modeled time and stdout under both tiers."""
    o1, r1, envs1, tables1, _ = _run_families(dialect, "interp")
    o2, r2, envs2, tables2, m2 = _run_families(dialect, "compiled")
    assert "fam" in m2.compiled_entries, m2.compile_fallbacks
    assert o2 == o1
    assert r2.counters == r1.counters
    assert r2.time == r1.time
    assert r2.stdout == r1.stdout
    assert len(r1.stdout) == N // 16
    assert r1.counters.atomics == 2 * N
    assert r1.counters.sfu_ops >= 2 * N
    if dialect == "cuda":
        # atomicInc(p, 5) wraps to 0 above 5: old values cycle 0..5
        wraps = np.frombuffer(o1[4 * N:8 * N], np.uint32) % 8
        assert sorted(wraps) == sorted(i % 6 for i in range(N))
    # the interpreter builds the whole table once per work-item ...
    assert tables1 == len(envs1) == N
    # ... generated code never does, and each work-item holds only the
    # names it called
    assert tables2 == 0
    assert len(envs2) == N
    for env in envs2:
        want = set(_FAMILY_CALLS[dialect])
        if env.gid[0] % 16 == 0:
            want.add("printf")
        assert set(env._bound) == want, env.gid


@pytest.mark.parametrize("dialect", ["opencl", "cuda"])
def test_make_builtins_covers_every_factory(dialect):
    """The eager table holds every name generated code can bind, and an
    alias (sqrtf, native_sin, atom_add, ...) is its target's object."""
    from repro.device.builtins import (BUILTIN_ALIASES, BUILTIN_FACTORIES,
                                       make_builtins)
    dev = Device(GTX_TITAN)
    src = _OCL_FAMILIES if dialect == "opencl" else _CUDA_FAMILIES
    mod = load_module(dev, parse(src, dialect), dialect, exec_tier="interp")
    from repro.device.engine import WorkItemEnv, _LaunchEnv
    launch = _LaunchEnv(dev, mod.get_kernel("fam"), dialect, (1, 1, 1),
                        (1, 1, 1))
    env = WorkItemEnv(launch, None, (0, 0, 0), (0, 0, 0))
    table = make_builtins(env, dialect)
    assert set(table) == set(BUILTIN_FACTORIES[dialect])
    aliases = BUILTIN_ALIASES[dialect]
    assert aliases
    for alias, target in aliases.items():
        assert table[alias] is table[target], alias
    # the other names are each their own object, except the module-level
    # functions several names share (min/fmin, length/fast_length, ...)
    other = make_builtins(env, dialect)
    own = [n for n in table if n not in aliases and table[n] is not other[n]]
    assert len({id(table[n]) for n in own}) == len(own)
    wanted = {"opencl": {"native_sin": "sin", "atom_add": "atomic_add"},
              "cuda": {"sqrtf": "sqrt", "expf": "exp", "fabsf": "fabs"}}
    assert wanted[dialect].items() <= aliases.items()


# ---------------------------------------------------------------------------
# builtin edge cases, pinned on every tier they can run under
# ---------------------------------------------------------------------------

_SCALAR_GEOMETRY = """
__kernel void geo(__global float* out) {
  int i = get_global_id(0);
  float a = (float)i * 0.5f - 2.0f;
  out[3 * i] = dot(a, 2.0f);
  out[3 * i + 1] = distance(a, 0.5f);
  out[3 * i + 2] = normalize(a);
}
"""


@pytest.mark.parametrize("tier", ["interp", "compiled", "vector"])
def test_geometric_builtins_take_scalars(tier):
    """dot/distance/normalize accept scalar floats (OpenCL 1.2 §6.12.5):
    a*b, |a-b| and a/|a|, with normalize(0) returning 0."""
    dev = Device(GTX_TITAN)
    mod = load_module(dev, parse(_SCALAR_GEOMETRY, "opencl"), "opencl",
                      exec_tier=tier)
    p = dev.alloc_global(4 * 3 * BLOCK)
    launch_kernel(dev, mod.get_kernel("geo"), [1], [BLOCK],
                  [p.retype(T.FLOAT)])
    got = dev.global_mem.typed_view(p.off, T.FLOAT, 3 * BLOCK).reshape(-1, 3)
    a = np.arange(BLOCK, dtype=np.float32) * 0.5 - 2.0
    assert np.array_equal(got[:, 0], a * 2)
    assert np.array_equal(got[:, 1], np.abs(a - 0.5))
    assert np.array_equal(got[:, 2], np.sign(a))


_VECTOR_POINTEE = """
__kernel void vl(__global float4* p, __global float* out) {
  float4 v = vload4(0, p);
  out[get_global_id(0)] = v.x;
}
__kernel void vs(__global float4* p) {
  vstore2((float2)(1.0f, 2.0f), 0, p);
}
"""


@pytest.mark.parametrize("tier", ["interp", "compiled"])
@pytest.mark.parametrize("kernel,builtin", [("vl", "vload4"),
                                            ("vs", "vstore2")])
def test_vload_vstore_need_scalar_pointee(tier, kernel, builtin):
    """vloadN/vstoreN through a pointer to a vector type is a located
    InterpError naming the builtin and the pointee, not a bare assert."""
    from repro.errors import InterpError
    dev = Device(GTX_TITAN)
    mod = load_module(dev, parse(_VECTOR_POINTEE, "opencl"), "opencl",
                      exec_tier=tier)
    if tier == "compiled":
        assert kernel in mod.compiled_entries
    p = dev.alloc_global(64)
    args = [p.retype(T.vector("float", 4))]
    if kernel == "vl":
        args.append(dev.alloc_global(64).retype(T.FLOAT))
    with pytest.raises(InterpError,
                       match=rf"{builtin} through a pointer to float4"):
        launch_kernel(dev, mod.get_kernel(kernel), [1], [1], args)


# ---------------------------------------------------------------------------
# named constants (CLK_* flags, float limits, pi, ...) read as identifiers
# ---------------------------------------------------------------------------

_NAMED_KERNEL = {"opencl": """
__kernel void named(__global double* out, int n) {
  int gid = get_global_id(0);
  if (gid >= n) return;
  out[2 * gid] = NAME;
  out[2 * gid + 1] = NAME * 2 + gid;
}
""", "cuda": """
__global__ void named(double* out, int n) {
  int gid = blockIdx.x * blockDim.x + threadIdx.x;
  if (gid >= n) return;
  out[2 * gid] = NAME;
  out[2 * gid + 1] = NAME * 2 + gid;
}
"""}

#: C's values (the float constants as binary32), as the ``repr`` of the
#: double a kernel stores and ``%.17g`` prints on the host
_C_VALUES = {
    "FLT_EPSILON": "1.1920928955078125e-07",
    "FLT_MIN": "1.1754943508222875e-38",
    "FLT_MAX": "3.4028234663852886e+38",
    "M_PI_F": "3.1415927410125732",
    "CUDART_PI_F": "3.1415927410125732",
    "M_PI": "3.141592653589793",
}


def _run_named(name, dialect, tier):
    dev = Device(GTX_TITAN)
    src = _NAMED_KERNEL[dialect].replace("NAME", name)
    mod = load_module(dev, parse(src, dialect), dialect, exec_tier=tier)
    p = dev.alloc_global(16 * N)
    res = launch_kernel(dev, mod.get_kernel("named"), [GROUPS], [BLOCK],
                        [p.retype(T.DOUBLE), N])
    return bytes(dev.global_mem.view(p.off, 16 * N)), res, mod


@pytest.mark.parametrize("dialect", ["opencl", "cuda"])
@pytest.mark.parametrize("name", sorted(NAMED_CONSTANTS))
def test_named_constant_identical_all_tiers(name, dialect):
    """Every named constant, stored as read and used in arithmetic with
    a varying value: byte-identical on all three tiers, on the vector
    rung, and C's value where the test pins one."""
    ref, r1, _ = _run_named(name, dialect, "interp")
    for tier in ("compiled", "vector"):
        got, r, mod = _run_named(name, dialect, tier)
        assert got == ref, tier
        assert r.counters == r1.counters
        assert r.time == r1.time
    assert "named" in mod.vector_entries, mod.vector_fallbacks
    if name in _C_VALUES:
        assert repr(float(np.frombuffer(ref, np.float64)[0])) == \
            _C_VALUES[name]


_HOST_LIMITS = r"""
int main(void) {
  printf("%.17g %.17g %.17g\n", (double)FLT_EPSILON, (double)FLT_MIN,
         (double)FLT_MAX);
  return 0;
}
"""


@pytest.mark.parametrize("tier", ["interp", "compiled", "vector"])
def test_host_float_limits_hold_c_values(tier):
    """The host library's float limits are the device's: C's binary32
    values, tree-walked and lowered alike."""
    from repro.harness import run_opencl_app
    res = run_opencl_app("limits", _HOST_LIMITS, "", exec_tier=tier)
    assert "host_fallback" not in res.extra
    assert res.stdout == " ".join(
        _C_VALUES[n] for n in ("FLT_EPSILON", "FLT_MIN", "FLT_MAX")) + "\n"
