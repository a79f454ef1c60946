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

#: working-local type -> the rung its kernels run on under ``vector``:
#: every integer type, unsigned 64-bit ones in exact lanes
TYPED_RUNGS = {"char": "vector", "uchar": "vector", "short": "vector",
               "ushort": "vector", "int": "vector", "uint": "vector",
               "long": "vector", "ulong": "vector", "size_t": "vector"}

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
    assert TYPED_RUNGS[ty] == "vector"
    assert "typed" in m3.vector_entries, m3.vector_fallbacks
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
# unsigned 64-bit lanes: values past int64, held exactly
# ---------------------------------------------------------------------------

_WIDE = """
__kernel void wide(__global const int* iin, __global ulong* uout,
                   __global long* lout, __global double* dout,
                   __global int* iout, ulong big, int n) {
  size_t g = get_group_id(0) * get_local_size(0) + get_local_id(0);
  int gid = get_global_id(0);
  if (gid >= n) return;
  ulong w = (ulong)iin[g];
  size_t m = (size_t)-1;
  ulong s = w + big;
  ulong p = w * (ulong)3 - (ulong)gid;
  int c = (w > big) + 2 * (w < (ulong)gid) + 4 * (s == p) + 8 * (m > w);
  ulong q = w / (ulong)7 + w % (ulong)5 + (w >> 3) + (w << 2);
  double f = (double)w + (double)s * 0.5;
  ulong back = (ulong)(f * 0.25);
  uout[g] = s ^ q;
  uout[g + n] = w < big ? w : big;
  uout[g + 2 * n] = uout[g] / (ulong)(gid + 1) + m;
  lout[g] = (long)(m - w) + (long)back;
  dout[g] = f + (double)(big - (ulong)gid);
  iout[g] = c + (int)(q & (ulong)255) + (int)(big >> 60) + gid;
}
"""


def _run_wide(tier, big):
    dev = Device(GTX_TITAN)
    mod = load_module(dev, parse(_WIDE, "opencl"), "opencl", exec_tier=tier)
    iin = np.random.default_rng(11).integers(-1000, 1000, N).astype(np.int32)
    iin[::5] = -1
    outs = [dev.alloc_global(sz * N * k)
            for sz, k in ((8, 3), (8, 1), (8, 1), (4, 1))]
    res = launch_kernel(
        dev, mod.get_kernel("wide"), [GROUPS], [BLOCK],
        [_upload(dev, iin).retype(T.INT), outs[0].retype(T.ULONG),
         outs[1].retype(T.LONG), outs[2].retype(T.DOUBLE),
         outs[3].retype(T.INT), big, N])
    data = b"".join(bytes(dev.global_mem.view(p.off, sz * N * k))
                    for p, (sz, k) in zip(outs, ((8, 3), (8, 1), (8, 1),
                                                 (4, 1))))
    return data, res, mod


@pytest.mark.parametrize("big", [2**64 - 5, 2**63, 12345])
def test_unsigned_64bit_lanes_identical_all_tiers(big):
    """Values at and past 2**63 from negative ints cast to ``ulong``,
    ``(size_t)-1`` and a uniform ``ulong`` parameter near 2**64 mixed
    with int lanes: wrap-around, compares, ``/ % >> <<``, float
    conversion, ``ulong*`` loads and stores through a ``size_t`` index
    built from the group id, on the vector rung."""
    d1, r1, _ = _run_wide("interp", big)
    u = np.frombuffer(d1[:8 * N * 3], np.uint64)
    assert int(u.max()) >= 2**63 or big < 2**63
    for tier in ("compiled", "vector"):
        d, r, mod = _run_wide(tier, big)
        if tier == "vector":
            assert "wide" in mod.vector_entries, mod.vector_fallbacks
        assert d == d1, tier
        assert r.counters == r1.counters
        assert r.time == r1.time


_WIDE_INDEX = """
__kernel void far(__global const int* iin, __global int* out, int n) {
  int gid = get_global_id(0);
  if (gid < n) out[(size_t)iin[gid]] = gid;
}
"""


@pytest.mark.parametrize("tier", ["interp", "compiled", "vector"])
def test_index_past_int64_faults_at_the_first_lane(tier):
    """A ``size_t`` index of 2**64 - 3 raises the interpreter's
    ``MemoryFault`` for the first faulting lane on every tier, not an
    ``OverflowError``."""
    from repro.errors import MemoryFault
    dev = Device(GTX_TITAN)
    mod = load_module(dev, parse(_WIDE_INDEX, "opencl"), "opencl",
                      exec_tier=tier)
    iin = np.arange(N, dtype=np.int32)
    iin[5] = -3
    iin[9] = -7
    out = dev.alloc_global(4 * N)
    with pytest.raises(MemoryFault) as err:
        launch_kernel(dev, mod.get_kernel("far"), [GROUPS], [BLOCK],
                      [_upload(dev, iin).retype(T.INT), out.retype(T.INT),
                       N])
    if tier == "vector":
        assert "far" in mod.vector_entries, mod.vector_fallbacks
    want = out.off + (2**64 - 3) * 4
    assert f"access [{want}, {want + 4})" in str(err.value)


# ---------------------------------------------------------------------------
# uniform pointer registers and *p
# ---------------------------------------------------------------------------

_POINTERS = """
extern __shared__ char smem[];

__global__ void ptrs(const float* in, float* out, int* flag, int n) {
  int lid = threadIdx.x;
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  float* t = (float*)smem;
  const float* src = in + 2;
  t[lid] = src[i % n];
  __syncthreads();
  out[i] = t[(lid + 1) % 32] + *src;
  *flag = lid;
}
"""


def test_pointer_registers_identical_all_tiers():
    """The shape OpenCL->CUDA gives ``__local`` parameters: a pointer
    register cast from the extern shared region, one from pointer
    arithmetic on a parameter, a ``*p`` load and a ``*p`` store from
    every lane: equal on all three tiers, on the vector rung."""
    def run(tier):
        dev = Device(GTX_TITAN)
        mod = load_module(dev, parse(_POINTERS, "cuda"), "cuda",
                          exec_tier=tier)
        src = _upload(dev, np.arange(N + 2, dtype=np.float32) * 0.5)
        out = dev.alloc_global(4 * N)
        flag = dev.alloc_global(4)
        res = launch_kernel(dev, mod.get_kernel("ptrs"), [GROUPS], [BLOCK],
                            [src.retype(T.FLOAT), out.retype(T.FLOAT),
                             flag.retype(T.INT), N],
                            dynamic_shared=4 * BLOCK)
        data = bytes(dev.global_mem.view(out.off, 4 * N)) + bytes(
            dev.global_mem.view(flag.off, 4))
        return data, res, mod
    d1, r1, _ = run("interp")
    for tier in ("compiled", "vector"):
        d, r, mod = run(tier)
        assert d == d1, tier
        assert r.counters == r1.counters
        assert r.time == r1.time
    assert "ptrs" in mod.vector_entries, mod.vector_fallbacks


# ---------------------------------------------------------------------------
# operands with effects, evaluated only on the lanes that select them
# ---------------------------------------------------------------------------

#: ``l[lid * 1000]`` lies past the group's local memory for every lane but
#: lane 0: evaluated on a lane that does not select it, it faults
_IMPURE = {
    "arm": "out[i] = lid < 1 ? l[lid * 1000] : l[lid] - 1;",
    "and": "out[i] = (lid < 1 && l[lid * 1000] > 0) ? 5 : l[lid];",
    "or": "out[i] = (lid >= 1 || l[lid * 1000] > 3) + 2;",
    "nested-arm": "int u = lid < 1 ? (lid < 1 ? l[lid * 1000] : 3) : 4;"
                  " out[i] = u;",
    "two-arms": "out[i] = (lid < 1 ? l[lid * 1000] : 0)"
                " + (lid > 2 ? l[lid - 1] : l[lid]);",
    # operators that raise on the lanes that do not select them: a divide
    # by zero, a modulo by zero, a negative shift count, int() of inf
    "div-arm": "out[i] = i != 0 ? 100 / i : -1;",
    "mod-and": "out[i] = lid != 0 && 100 % lid == 0;",
    "shift-arm": "out[i] = lid > 3 ? 1 << (lid - 4) : -1;",
    "cast-arm": "out[i] = lid != 1 ? (int)(100.0f / (lid - 1)) : -1;",
}

#: the same shapes where hoisting would reorder or run the operand
#: unconditionally: each keeps its reason
_IMPURE_KEPT = {
    "in-uniform-arm": ("out[i] = n > 0 ? (lid < 1 ? l[lid * 1000] : -1) : 0;",
                       "impure arm of varying conditional"),
    "after-load": ("out[i] = l[0] + (lid < 1 ? l[lid * 1000] : -1);",
                   "impure arm of varying conditional"),
    "and-after-load": ("out[i] = l[1] + (lid < 1 && l[lid * 1000] > 0);",
                       "impure rhs of varying '&&'"),
    "div-after-load": ("out[i] = l[0] + (i != 0 ? 100 / i : -1);",
                       "impure arm of varying conditional"),
}


def _impure_kernel(stmt):
    return f"""
__kernel void sel(__global const int* a, __global int* out, int n) {{
  __local int l[16];
  int i = get_global_id(0);
  int lid = get_local_id(0);
  if (lid < 16) l[lid] = a[i];
  barrier(CLK_LOCAL_MEM_FENCE);
  {stmt}
}}
"""


def _run_impure(src, tier):
    dev = Device(GTX_TITAN)
    mod = load_module(dev, parse(src, "opencl"), "opencl", exec_tier=tier)
    a = np.arange(N, dtype=np.int32) * 7 % 11
    out = dev.alloc_global(4 * N)
    res = launch_kernel(dev, mod.get_kernel("sel"), [GROUPS], [BLOCK],
                        [_upload(dev, a).retype(T.INT), out.retype(T.INT),
                         N])
    return bytes(dev.global_mem.view(out.off, 4 * N)), res, mod


@pytest.mark.parametrize("shape", sorted(_IMPURE))
def test_impure_operand_runs_on_its_own_lanes(shape):
    """A load in a varying conditional's arm or a varying ``&&``/``||``
    rhs runs, with its counts and traces, only on the lanes that select
    it: no fault from the other lanes, and everything equal on all
    three tiers, on the vector rung."""
    src = _impure_kernel(_IMPURE[shape])
    d1, r1, _ = _run_impure(src, "interp")
    for tier in ("compiled", "vector"):
        d, r, mod = _run_impure(src, tier)
        if tier == "vector":
            assert "sel" in mod.vector_entries, mod.vector_fallbacks
        assert d == d1, tier
        assert r.counters == r1.counters
        assert r.time == r1.time


@pytest.mark.parametrize("shape", sorted(_IMPURE_KEPT))
def test_impure_operand_keeps_its_reason(shape):
    """Inside a uniform-condition arm, or after a load in the same
    statement, the operand stays outside the vector subset: the kernel
    runs on the scalar tier, with the reason, and still equals the
    interpreter."""
    stmt, why = _IMPURE_KEPT[shape]
    src = _impure_kernel(stmt)
    d1, r1, _ = _run_impure(src, "interp")
    d3, r3, mod = _run_impure(src, "vector")
    assert "sel" not in mod.vector_entries
    assert why in mod.vector_fallbacks["sel"]
    assert d3 == d1
    assert r3.counters == r1.counters
    assert r3.time == r1.time


_NARROW = """
__kernel void nar(__global const double* a, __global float* out) {
  int i = get_global_id(0);
  out[i] = VALUE;
}
"""


@pytest.mark.parametrize("value", ["(float)(a[i] * 1e300)", "a[i] * 1e300"],
                         ids=["cast", "store"])
def test_float_narrowing_overflow_raises_on_all_tiers(value):
    """A finite double past binary32, cast or stored to ``float``, raises
    the interpreter's packing error on every tier (every lane but lane
    0, whose product is 0.0, overflows)."""
    def run(tier):
        dev = Device(GTX_TITAN)
        mod = load_module(dev, parse(_NARROW.replace("VALUE", value),
                                     "opencl"), "opencl", exec_tier=tier)
        a = _upload(dev, np.arange(N, dtype=np.float64))
        out = dev.alloc_global(4 * N)
        with pytest.raises(OverflowError) as exc:
            launch_kernel(dev, mod.get_kernel("nar"), [GROUPS], [BLOCK],
                          [a.retype(T.DOUBLE), out.retype(T.FLOAT)])
        return str(exc.value), mod
    want, _ = run("interp")
    for tier in ("compiled", "vector"):
        got, mod = run(tier)
        assert got == want, tier
    assert "nar" in mod.vector_entries, mod.vector_fallbacks


# ---------------------------------------------------------------------------
# cross-lane hazards: a lane of a warp accessing what another lane of the
# warp accessed in the same barrier interval, one of them a store
# ---------------------------------------------------------------------------

_PROP = """
__kernel void prop(__global int* a, int n) {
  int i = get_global_id(0);
  a[i] = a[(i + n - 1) % n] + 1;
  a[n] = a[n] + 1;
}
"""


def _run_prop(tier):
    dev = Device(GTX_TITAN)
    mod = load_module(dev, parse(_PROP, "opencl"), "opencl", exec_tier=tier)
    p = _upload(dev, np.arange(65, dtype=np.int32))
    res = launch_kernel(dev, mod.get_kernel("prop"), [1], [64],
                        [p.retype(T.INT), 64])
    return dev.global_mem.typed_view(p.off, T.INT, 65).copy(), res, mod


def test_cross_lane_hazard_reruns_on_the_scalar_tier():
    """Lane i reads what lane i - 1 writes, and every lane updates a[n]:
    the interpreter runs each lane to the end before the next, so the
    vector tier's statement-at-a-time warps would store [64, 1, 2, 3]
    and 66.  The guard re-runs the launch on the scalar tier and demotes
    the kernel: buffers, counters and modeled time equal on all tiers."""
    a1, r1, _ = _run_prop("interp")
    assert a1[:4].tolist() == [64, 65, 66, 67] and a1[64] == 128
    for tier in ("compiled", "vector"):
        a, r, mod = _run_prop(tier)
        assert a.tobytes() == a1.tobytes(), tier
        assert r.counters == r1.counters
        assert r.time == r1.time
    assert "prop" not in mod.vector_entries
    assert "prop" in mod.compiled_entries
    assert mod.vector_fallbacks["prop"] == "prop: cross-lane hazard on 'a'"


_HAZARD_SHAPES = {
    "stencil": ("a[i] = a[(i + D + n) % n] * 3 + 1;",
                "int t = a[(i + D + n) % n]; barrier(CLK_GLOBAL_MEM_FENCE);"
                " a[i] = t * 3 + 1;"),
    "local": ("l[lid] = l[(lid + D + 64) % 64] * 3 + 1;",
              "int t = l[(lid + D + 64) % 64]; barrier(CLK_LOCAL_MEM_FENCE);"
              " l[lid] = t * 3 + 1;"),
    "uniform": ("a[k] = a[k] + i;", "a[k] += i;"),
    "indirect": ("a[idx[i]] = a[i] + 1;", "a[idx[i]] = b[i] + 1;"),
    "alias": ("b[i] = a[(i + D + n) % n] + 1;",
              "int t = a[(i + D + n) % n]; barrier(CLK_GLOBAL_MEM_FENCE);"
              " b[i] = t + 1;"),
    # a pointer register whose value changes between the accesses: one
    # declared in a loop from pointer arithmetic, one advanced in a loop
    "loop-register": ("for (int q = 0; q < 2; q++) { __global int* p = a + q;"
                      " p[i] = p[i] * 2 + i; }",
                      "__global int* p = a; for (int q = 0; q < 2; q++) {"
                      " p[i] = p[i] * 2 + i; p = p + 1; }"),
}


def gen_hazard_kernel(seed: int):
    """A seeded hazard shape: in-place stencils over global and local
    memory (with and without a barrier between the read and the write),
    a uniform-index read-modify-write, an indirect store through
    duplicate indices, one buffer passed as two arguments, and pointer
    registers that move between the iterations of a loop."""
    rng = random.Random(f"hazard/{seed}")
    shape = sorted(_HAZARD_SHAPES)[seed % len(_HAZARD_SHAPES)]
    stmt = _HAZARD_SHAPES[shape][seed // len(_HAZARD_SHAPES) % 2]
    stmt = stmt.replace("D", str(rng.randint(-2, 2)))
    src = f"""
__kernel void haz(__global int* a, __global int* b,
                  __global const int* idx, int n, int k) {{
  __local int l[64];
  int i = get_global_id(0);
  int lid = get_local_id(0);
  l[lid] = a[i];
  barrier(CLK_LOCAL_MEM_FENCE);
  {stmt}
  barrier(CLK_LOCAL_MEM_FENCE);
  b[i] = b[i] + l[lid];
}}
"""
    return src, shape == "alias"


def _run_hazard(src, alias, tier):
    dev = Device(GTX_TITAN)
    mod = load_module(dev, parse(src, "opencl"), "opencl", exec_tier=tier)
    rng = np.random.default_rng(3)
    # one element past the launch for the loop registers' last step
    m = GROUPS * 64 + 1
    a = _upload(dev, rng.integers(-50, 50, m).astype(np.int32))
    b = a if alias else _upload(dev, rng.integers(-50, 50, m).astype(
        np.int32))
    idx = _upload(dev, rng.integers(0, N // 4, m).astype(np.int32))
    res = launch_kernel(dev, mod.get_kernel("haz"), [GROUPS], [64],
                        [a.retype(T.INT), b.retype(T.INT),
                         idx.retype(T.INT), GROUPS * 64, 7])
    data = b"".join(bytes(dev.global_mem.view(p.off, 4 * m))
                    for p in (a, b))
    return data, res, mod


@pytest.mark.parametrize("seed", range(24))
def test_hazard_shapes_identical_all_tiers(seed):
    """Every hazard shape agrees on all three tiers: the vector tier's
    guard re-runs what batching would reorder on the scalar tier."""
    src, alias = gen_hazard_kernel(seed)
    d1, r1, _ = _run_hazard(src, alias, "interp")
    for tier in ("compiled", "vector"):
        d, r, _mod = _run_hazard(src, alias, tier)
        assert d == d1, tier
        assert r.counters == r1.counters
        assert r.time == r1.time


def _inversion_reference(log):
    """The hazard condition byte by byte: the site of the first access (by
    byte, then batched order) that a higher lane's earlier access to the
    byte precedes, one of the two a store, unless both are stores and
    every store of the byte wrote one known value."""
    mems, seqs = {}, {}
    for t, (site, mem, offs, al, esz, store, wire) in enumerate(log):
        m = mems.setdefault(id(mem), len(mems))
        raw = None if wire is None else wire.view(np.uint8).reshape(-1, esz)
        for j, (off, lane) in enumerate(zip(offs.tolist(), al.tolist())):
            for b in range(esz):
                v = None if raw is None else int(raw[j, b])
                seqs.setdefault((m, off + b), []).append((lane, store, v, site))
    for byte in sorted(seqs):
        seq = seqs[byte]
        vals = {v for _lane, store, v, _site in seq if store}
        same = len(vals) == 1 and None not in vals
        for i, (lane, store, _v, site) in enumerate(seq):
            if any(xl > lane and (xs or store) and not (xs and store and same)
                   for xl, xs, _xv, _xsite in seq[:i]):
                return site
    return None


@pytest.mark.parametrize("seed", range(4))
def test_hazard_check_matches_its_definition(seed):
    """The guard's check on random logs: one or two memories, element
    sizes 1 to 8 at any alignment, loads, and stores of known and unknown
    values, against the condition written out byte by byte."""
    from repro.clike.vectorize import _inversion
    rng = random.Random(f"inversion/{seed}")
    mems = [object(), object()]
    for _ in range(500):
        log = []
        for _t in range(rng.randint(1, 5)):
            esz = rng.choice([1, 2, 4, 8])
            n = rng.randint(0, 6)
            al = np.array(sorted(rng.sample(range(8), n)), dtype=np.int64)
            offs = np.array([rng.randint(0, 3) + rng.randint(0, 4)
                             * rng.choice([1, esz]) for _ in range(n)],
                            dtype=np.int64)
            store = rng.random() < 0.5
            wire = None
            if store and rng.random() < 0.7:
                wire = np.array([rng.choice([0, 7]) for _ in range(n * esz)],
                                dtype=np.uint8).view(f"<u{esz}")
            log.append((rng.randint(0, 9), rng.choice(mems), offs, al, esz,
                        store, wire))
        assert _inversion(log) == _inversion_reference(log), log


_WAVE = """
__kernel void wave(__global int* s, int dim, int w) {
  int t = get_global_id(0);
  int y = t + 1;
  int x = w - t - 1;
  if (y >= 1 && y < dim && x >= 1 && x < dim) {
    int up = s[(y - 1) * dim + x];
    int lf = s[y * dim + x - 1];
    s[y * dim + x] = up > lf ? up + 1 : lf + 2;
  }
}
"""

_OWN = """
__kernel void own(__global int* a, int n) {
  int i = get_global_id(0);
  if (i < n) a[i] = a[i] * 2 + i;
}
"""


@pytest.mark.parametrize("which", ["wave", "own"])
def test_race_free_kernels_keep_the_vector_rung(which):
    """Controls: a wavefront that loads the row above and the column to
    the left and stores one anti-diagonal per launch (rodinia nw), and a
    lane-own update, stay vectorized and equal; the lane-own update's
    accesses are not even recorded."""
    def run(tier):
        dev = Device(GTX_TITAN)
        src = _WAVE if which == "wave" else _OWN
        mod = load_module(dev, parse(src, "opencl"), "opencl",
                          exec_tier=tier)
        dim = 12
        p = _upload(dev, (np.arange(dim * dim, dtype=np.int32) * 5) % 17)
        results = []
        if which == "wave":
            for w in range(2, 2 * (dim - 1) + 1):
                results.append(launch_kernel(
                    dev, mod.get_kernel("wave"), [1], [64],
                    [p.retype(T.INT), dim, w]))
        else:
            results.append(launch_kernel(
                dev, mod.get_kernel("own"), [GROUPS], [BLOCK],
                [p.retype(T.INT), dim * dim]))
        return bytes(dev.global_mem.view(p.off, 4 * dim * dim)), results, mod
    d1, rs1, _ = run("interp")
    d3, rs3, mod = run("vector")
    assert which in mod.vector_entries, mod.vector_fallbacks
    assert d3 == d1
    assert [r.counters for r in rs3] == [r.counters for r in rs1]
    assert [r.time for r in rs3] == [r.time for r in rs1]
    if which == "own":
        assert not mod.vector_hazards["own"].sites(False, (0,))


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
