"""Device built-in function implementations for both dialects.

``BUILTIN_FACTORIES[dialect]`` maps every builtin name to a factory that
builds its callable for one work-item environment.  The tables realize the
one-to-one correspondence of paper §3.3 (same semantics, different
spellings) plus the deliberate mismatches of §3.7 — CUDA's ``atomicInc``
has *wrap-around* semantics unlike OpenCL's ``atomic_inc``, and
hardware-specific intrinsics (``__shfl``, ``__ballot``, ...) exist here so
native CUDA execution works, while the translator refuses them.

``make_builtins(env, dialect)`` builds the whole table at once, the
name→callable dict a work-item's interpreter sees; an alias in
``BUILTIN_ALIASES`` (``sqrtf``, ``native_sin``, ``atom_add``, ...) shares
its target's object there.  Generated code binds one name at a time
through ``WorkItemEnv.bind_builtin`` instead.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Tuple, TYPE_CHECKING

from ..clike import types as T
from ..clike.hostlib import _HOST_MATH, c_format
from ..errors import DeviceError, InterpError
from ..runtime.values import Ptr, Vec, coerce

if TYPE_CHECKING:  # pragma: no cover
    from .engine import WorkItemEnv

__all__ = ["make_builtins", "BUILTIN_FACTORIES", "BUILTIN_ALIASES",
           "BARRIER_NAMES"]

#: calls that synchronize a work-group (yield points in the interpreter)
BARRIER_NAMES = {
    "opencl": frozenset({"barrier"}),
    "cuda": frozenset({"__syncthreads"}),
}


def _vectorize1(f: Callable[[float], float]) -> Callable[..., Any]:
    def impl(a):
        if isinstance(a, Vec):
            return a.map(f)
        return f(a)
    return impl


def _vectorize2(f: Callable[[float, float], float]) -> Callable[..., Any]:
    def impl(a, b):
        if isinstance(a, Vec):
            return a.zip(b, f)
        if isinstance(b, Vec):
            return Vec(b.ctype, [f(a, y) for y in b.vals])
        return f(a, b)
    return impl


def _vectorize3(f: Callable[[float, float, float], float]) -> Callable[..., Any]:
    def impl(a, b, c):
        if isinstance(a, Vec):
            bs = b.vals if isinstance(b, Vec) else [b] * a.ctype.count
            cs = c.vals if isinstance(c, Vec) else [c] * a.ctype.count
            return Vec(a.ctype, [f(x, y, z)
                                 for x, y, z in zip(a.vals, bs, cs)])
        return f(a, b, c)
    return impl


def _sfu(env: "WorkItemEnv", f: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap a transcendental so each call counts as a special-function op."""
    def impl(*args):
        env.count_op("sfu")
        return f(*args)
    return impl


_SFU_NAMES = frozenset({
    "sqrt", "rsqrt", "sin", "cos", "tan", "asin", "acos", "atan", "atan2",
    "sinh", "cosh", "tanh", "exp", "exp2", "exp10", "log", "log2", "log10",
    "pow", "erf", "erfc", "cbrt", "log1p", "expm1", "hypot",
})


def _atomic(env: "WorkItemEnv", op: Callable[[Any, Any], Any]
            ) -> Callable[..., Any]:
    """Read-modify-write atomic returning the old value.

    Work-items execute serialized between barriers, so plain RMW is atomic;
    the counter feeds the serialization cost in the performance model.
    """
    def impl(ptr, *rest):
        if not isinstance(ptr, Ptr):
            raise InterpError("atomic on non-pointer")
        env.count_atomic()
        old = ptr.load()
        ptr.store(coerce(op(old, rest[0] if rest else None), ptr.ctype))
        return old
    return impl


def _cmpxchg(env: "WorkItemEnv") -> Callable[..., Any]:
    def impl(ptr, cmp, val):
        env.count_atomic()
        old = ptr.load()
        if old == cmp:
            ptr.store(coerce(val, ptr.ctype))
        return old
    return impl


def _cuda_atomic_inc(env: "WorkItemEnv") -> Callable[..., Any]:
    """CUDA atomicInc(p, max): wraps to 0 above max (§3.7)."""
    def impl(ptr, maxval):
        env.count_atomic()
        old = ptr.load()
        ptr.store(0 if old >= maxval else old + 1)
        return old
    return impl


def _cuda_atomic_dec(env: "WorkItemEnv") -> Callable[..., Any]:
    def impl(ptr, maxval):
        env.count_atomic()
        old = ptr.load()
        ptr.store(maxval if (old == 0 or old > maxval) else old - 1)
        return old
    return impl


def _generic_min(a, b):
    if isinstance(a, Vec) or isinstance(b, Vec):
        return _vectorize2(min)(a, b)
    return min(a, b)


def _generic_max(a, b):
    if isinstance(a, Vec) or isinstance(b, Vec):
        return _vectorize2(max)(a, b)
    return max(a, b)


def _clampv(x, lo, hi):
    return _vectorize3(lambda a, b, c: max(b, min(c, a)))(x, lo, hi)


# geometric functions take gentypef, scalar float included (OpenCL 1.2
# §6.12.5): the scalar forms are a*b, |a-b| and a/|a|

def _dot(a, b) -> float:
    if isinstance(a, Vec):
        return sum(x * y for x, y in zip(a.vals, b.vals))
    return a * b


def _length(a) -> float:
    if isinstance(a, Vec):
        return math.sqrt(sum(x * x for x in a.vals))
    return abs(a)


def _distance(a, b) -> float:
    if isinstance(a, Vec):
        return _length(a.zip(b, lambda x, y: x - y))
    return abs(a - b)


def _normalize(a):
    n = _length(a)
    if n == 0:
        return a
    if isinstance(a, Vec):
        return a.map(lambda v: v / n)
    return a / n


def _cross(a: Vec, b: Vec) -> Vec:
    ax, ay, az = a.vals[0], a.vals[1], a.vals[2]
    bx, by, bz = b.vals[0], b.vals[1], b.vals[2]
    out = [ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx]
    if a.ctype.count == 4:
        out.append(0.0)
    return Vec(a.ctype, out)


def _select(a, b, c):
    # OpenCL select(a, b, c): component-wise c ? b : a
    if isinstance(c, Vec):
        av = a.vals if isinstance(a, Vec) else [a] * c.ctype.count
        bv = b.vals if isinstance(b, Vec) else [b] * c.ctype.count
        ref = a if isinstance(a, Vec) else b
        return Vec(ref.ctype, [y if m else x
                               for x, y, m in zip(av, bv, c.vals)])
    return b if c else a


def _step(edge, x):
    return _vectorize2(lambda e, v: 0.0 if v < e else 1.0)(edge, x)


def _mix(a, b, t):
    return _vectorize3(lambda x, y, u: x + (y - x) * u)(a, b, t)


def _sign(x):
    return _vectorize1(lambda v: (v > 0) - (v < 0) + 0.0)(x)


def _make_vec(base: str, w: int) -> Callable[..., Any]:
    if w == 1:
        st = T.scalar(base)
        return lambda *args: coerce(args[0] if args else 0, st)
    vt = T.vector(base, w)

    def ctor(*args):
        vals: List[Any] = []
        for a in args:
            if isinstance(a, Vec):
                vals.extend(a.vals)
            else:
                vals.append(a)
        if len(vals) == 1:
            vals = vals * w
        return Vec(vt, vals)
    return ctor


def _device_printf(env: "WorkItemEnv") -> Callable[..., Any]:
    def impl(fmt, *args):
        def read_str(v):
            if isinstance(v, Ptr):
                return v.mem.read_cstring(v.off)
            return str(v)
        s = c_format(read_str(fmt), list(args), read_str)
        env.launch.stdout.append(s)
        return len(s)
    return impl


def _cuda_assert(cond):
    if not cond:
        raise DeviceError("device-side assert failed")
    return None


#: in-kernel sampler flag encodings (OpenCL CLK_* constants)
_CLK_NORMALIZED = 0x01
_CLK_ADDR_MASK = 0x0E
_CLK_ADDR = {0x00: "none", 0x02: "clamp_to_edge", 0x04: "clamp",
             0x06: "repeat"}
_CLK_FILTER_LINEAR = 0x20


def decode_sampler(value: Any):
    """Turn an in-kernel CLK_* flag combination into a Sampler object."""
    from .images import Sampler
    if not isinstance(value, int):
        return value  # already a Sampler
    return Sampler(
        normalized=bool(value & _CLK_NORMALIZED),
        addressing=_CLK_ADDR.get(value & _CLK_ADDR_MASK, "clamp_to_edge"),
        filtering="linear" if value & _CLK_FILTER_LINEAR else "nearest")


def _read_image(env: "WorkItemEnv", suffix: str) -> Callable[..., Any]:
    def impl(img, sampler, coord):
        env.count_image_read(img)
        if isinstance(coord, Vec):
            coords = coord.vals
        else:
            coords = [coord]
        return img.read(decode_sampler(sampler), coords)
    return impl


def _write_image(env: "WorkItemEnv") -> Callable[..., Any]:
    def impl(img, coord, value):
        env.count_image_write(img)
        coords = coord.vals if isinstance(coord, Vec) else [coord]
        img.write([int(c) for c in coords], value)
        return None
    return impl


def _tex_fetch(env: "WorkItemEnv", dims: int,
               integer_index: bool = False) -> Callable[..., Any]:
    def impl(texref, *coords):
        linear = getattr(texref, "linear", None)
        if linear is not None:
            # linear-memory texture: behaves like a (cached) global load,
            # including coalescing — route through the normal counters
            i = int(coords[0])
            if texref.linear_elems:
                i = min(max(i, 0), texref.linear_elems - 1)
            ptr = linear.add(i)
            env.on_load(ptr, ptr.ctype.size or 4, None)
            return ptr.load()
        env.count_image_read(texref)
        return texref.fetch([float(c) for c in coords],
                            integer_index=integer_index)
    return impl


def _vector_pointee(ptr: Ptr, name: str) -> T.ScalarType:
    """The scalar element type ``name`` (vloadN/vstoreN) reads through."""
    base = ptr.ctype
    if not isinstance(base, T.ScalarType):
        raise InterpError(f"{name} through a pointer to {base}: "
                          "needs a pointer to a scalar type")
    return base


def _vload(env: "WorkItemEnv", w: int) -> Callable[..., Any]:
    def impl(offset, ptr):
        if not isinstance(ptr, Ptr):
            raise InterpError("vload on non-pointer")
        base = _vector_pointee(ptr, f"vload{w}")
        vt = T.VectorType(base, w)
        vp = Ptr(ptr.mem, ptr.off + int(offset) * base.size * w, vt)
        env.on_load(vp, base.size * w, None)  # counted as one access
        vals = [ptr.mem.read_scalar(vp.off + i * base.size, base)
                for i in range(w)]
        return Vec(vt, vals)
    return impl


def _vstore(env: "WorkItemEnv", w: int) -> Callable[..., Any]:
    def impl(vec, offset, ptr):
        if not isinstance(ptr, Ptr) or not isinstance(vec, Vec):
            raise InterpError("vstore needs (vector, offset, pointer)")
        base = _vector_pointee(ptr, f"vstore{w}")
        off = ptr.off + int(offset) * base.size * w
        env.on_store(Ptr(ptr.mem, off, T.VectorType(base, w)),
                     base.size * w, None)
        for i in range(w):
            ptr.mem.write_scalar(off + i * base.size, base, vec.vals[i])
        return None
    return impl


# ---------------------------------------------------------------------------
# the builtin tables: name -> factory, one per dialect
# ---------------------------------------------------------------------------

#: builds one builtin's callable for one work-item environment
Factory = Callable[["WorkItemEnv"], Callable[..., Any]]

_TWO_ARG = frozenset({"pow", "atan2", "fmod", "fmin", "fmax", "hypot",
                      "copysign"})
_THREE_ARG = frozenset({"fma", "mad", "clamp"})


def _math(name: str, f: Callable[..., Any]) -> Factory:
    """Generic math over host function ``f``, with SFU cost accounting."""
    vec = (_vectorize3 if name in _THREE_ARG
           else _vectorize2 if name in _TWO_ARG else _vectorize1)
    if name in _SFU_NAMES:
        return lambda env: _sfu(env, vec(f))
    return lambda env: vec(f)


#: vector-aware versions that override generic-math entries
_VECTOR_AWARE: Dict[str, Factory] = {
    "min": lambda env: _generic_min, "max": lambda env: _generic_max,
    "abs": lambda env: _vectorize1(abs), "fabs": lambda env: _vectorize1(abs),
    "clamp": lambda env: _clampv, "mix": lambda env: _mix,
    "step": lambda env: _step, "sign": lambda env: _sign,
    "fma": lambda env: _vectorize3(lambda a, b, c: a * b + c),
    "mad": lambda env: _vectorize3(lambda a, b, c: a * b + c),
    "fmin": lambda env: _generic_min, "fmax": lambda env: _generic_max,
    "dot": lambda env: _dot, "length": lambda env: _length,
    "fast_length": lambda env: _length, "distance": lambda env: _distance,
    "normalize": lambda env: _normalize, "cross": lambda env: _cross,
    "select": lambda env: _select,
    "isnan": lambda env: _vectorize1(lambda v: 1 if math.isnan(v) else 0),
    "isinf": lambda env: _vectorize1(lambda v: 1 if math.isinf(v) else 0),
}

#: OC2CU runtime wrappers: translated OpenCL kernels keep calling
#: read_imageX/write_imageX under CUDA too; the paper implements these as
#: CUDA device wrappers over CLImage (§5, Fig. 6)
_IMAGES: Dict[str, Factory] = {
    "read_imagef": lambda env: _read_image(env, "f"),
    "read_imagei": lambda env: _read_image(env, "i"),
    "read_imageui": lambda env: _read_image(env, "ui"),
    "write_imagef": _write_image,
    "write_imagei": _write_image,
    "write_imageui": _write_image,
    "get_image_width": lambda env: lambda img: img.width,
    "get_image_height": lambda env: lambda img: img.height,
}

_OPENCL: Dict[str, Factory] = {
    "get_global_id": lambda env: lambda d: env.global_id(int(d)),
    "get_local_id": lambda env: lambda d: env.local_id(int(d)),
    "get_group_id": lambda env: lambda d: env.group_id(int(d)),
    "get_global_size": lambda env: lambda d: env.global_size(int(d)),
    "get_local_size": lambda env: lambda d: env.local_size(int(d)),
    "get_num_groups": lambda env: lambda d: env.num_groups(int(d)),
    "get_work_dim": lambda env: lambda: env.launch.work_dim,
    "get_global_offset": lambda env: lambda d: 0,
    "mem_fence": lambda env: lambda flags: None,
    "read_mem_fence": lambda env: lambda flags: None,
    "write_mem_fence": lambda env: lambda flags: None,
    "atomic_add": lambda env: _atomic(env, lambda o, v: o + v),
    "atomic_sub": lambda env: _atomic(env, lambda o, v: o - v),
    "atomic_inc": lambda env: _atomic(env, lambda o, v: o + 1),
    "atomic_dec": lambda env: _atomic(env, lambda o, v: o - 1),
    "atomic_xchg": lambda env: _atomic(env, lambda o, v: v),
    "atomic_min": lambda env: _atomic(env, lambda o, v: min(o, v)),
    "atomic_max": lambda env: _atomic(env, lambda o, v: max(o, v)),
    "atomic_and": lambda env: _atomic(env, lambda o, v: int(o) & int(v)),
    "atomic_or": lambda env: _atomic(env, lambda o, v: int(o) | int(v)),
    "atomic_xor": lambda env: _atomic(env, lambda o, v: int(o) ^ int(v)),
    "atomic_cmpxchg": _cmpxchg,
    "mul24": lambda env: lambda a, b: (
        (int(a) & 0xFFFFFF) * (int(b) & 0xFFFFFF)),
    "mad24": lambda env: lambda a, b, c: (
        ((int(a) & 0xFFFFFF) * (int(b) & 0xFFFFFF)) + c),
    "clz": lambda env: lambda x: 32 - int(x).bit_length() if x >= 0 else 0,
    "popcount": lambda env: lambda x: bin(int(x) & 0xFFFFFFFF).count("1"),
    "rotate": lambda env: lambda v, n: (
        ((int(v) << (int(n) & 31))
         | ((int(v) & 0xFFFFFFFF) >> (32 - (int(n) & 31)))) & 0xFFFFFFFF),
    "printf": _device_printf,
    **_IMAGES,
    "get_image_depth": lambda env: lambda img: img.depth,
    "native_divide": lambda env: _vectorize2(
        lambda a, b: a / b if b else float("inf")),
    "native_recip": lambda env: _vectorize1(
        lambda a: 1.0 / a if a else float("inf")),
}
for _w in (2, 3, 4, 8, 16):
    _OPENCL[f"vload{_w}"] = lambda env, w=_w: _vload(env, w)
    _OPENCL[f"vstore{_w}"] = lambda env, w=_w: _vstore(env, w)

#: OpenCL alias -> target: atom_* are the 1.0 spellings some apps still
#: use; native_*/half_* map onto the precise versions
_OPENCL_ALIASES: Dict[str, str] = {
    **{f"atom_{op}": f"atomic_{op}"
       for op in ("add", "inc", "xchg", "max", "min", "cmpxchg")},
    **{f"{p}_{nm}": nm for nm in ("sin", "cos", "exp", "log", "sqrt", "rsqrt")
       for p in ("native", "half")},
    "native_powr": "pow",
}

_CUDA: Dict[str, Factory] = {
    "__threadfence": lambda env: lambda: None,
    "__threadfence_block": lambda env: lambda: None,
    "atomicAdd": lambda env: _atomic(env, lambda o, v: o + v),
    "atomicSub": lambda env: _atomic(env, lambda o, v: o - v),
    "atomicExch": lambda env: _atomic(env, lambda o, v: v),
    "atomicMin": lambda env: _atomic(env, lambda o, v: min(o, v)),
    "atomicMax": lambda env: _atomic(env, lambda o, v: max(o, v)),
    "atomicAnd": lambda env: _atomic(env, lambda o, v: int(o) & int(v)),
    "atomicOr": lambda env: _atomic(env, lambda o, v: int(o) | int(v)),
    "atomicXor": lambda env: _atomic(env, lambda o, v: int(o) ^ int(v)),
    "atomicInc": _cuda_atomic_inc,
    "atomicDec": _cuda_atomic_dec,
    "atomicCAS": _cmpxchg,
    "__mul24": lambda env: lambda a, b: (
        (int(a) & 0xFFFFFF) * (int(b) & 0xFFFFFF)),
    "__umul24": lambda env: lambda a, b: (
        (int(a) & 0xFFFFFF) * (int(b) & 0xFFFFFF)),
    "__popc": lambda env: lambda x: bin(int(x) & 0xFFFFFFFF).count("1"),
    "__clz": lambda env: lambda x: 32 - int(x).bit_length() if x >= 0 else 0,
    "__fdividef": lambda env: _vectorize2(
        lambda a, b: a / b if b else float("inf")),
    "__expf": lambda env: _sfu(env, _vectorize1(math.exp)),
    "__logf": lambda env: _sfu(env, _vectorize1(
        lambda x: math.log(x) if x > 0 else float("-inf"))),
    "__sinf": lambda env: _sfu(env, _vectorize1(math.sin)),
    "__cosf": lambda env: _sfu(env, _vectorize1(math.cos)),
    "__powf": lambda env: _sfu(env, _vectorize2(math.pow)),
    "__saturatef": lambda env: _vectorize1(lambda x: max(0.0, min(1.0, x))),
    "rsqrt": lambda env: _sfu(env, _vectorize1(
        lambda x: 1.0 / math.sqrt(x) if x > 0 else float("inf"))),
    "rsqrtf": lambda env: _sfu(env, _vectorize1(
        lambda x: 1.0 / math.sqrt(x) if x > 0 else float("inf"))),
    "__ldg": lambda env: lambda p: p.load(),
    "printf": _device_printf,
    "assert": lambda env: _cuda_assert,
    "clock": lambda env: env.clock,
    "clock64": lambda env: env.clock,
    **_IMAGES,
    "tex1Dfetch": lambda env: _tex_fetch(env, 1, integer_index=True),
    "tex1D": lambda env: _tex_fetch(env, 1),
    "tex2D": lambda env: _tex_fetch(env, 2),
    "tex3D": lambda env: _tex_fetch(env, 3),
    # warp primitives (__all/__any/__ballot/__shfl*) are NOT in this
    # table: like barriers they suspend the work-item, so the
    # interpreter and the compile tier route them through
    # ExecEnv.warp_op_kind and the warp scheduler's rendezvous
    # (repro.device.sched) instead of a plain call
}
# make_<type><n> constructors
for _base in ("char", "uchar", "short", "ushort", "int", "uint",
              "long", "ulong", "longlong", "ulonglong", "float", "double"):
    for _w in (1, 2, 3, 4):
        _CUDA[f"make_{_base}{_w}"] = (
            lambda env, b=_base, w=_w: _make_vec(b, w))


def _dialect_table(dialect: str) -> Tuple[Dict[str, Factory],
                                           Dict[str, str],
                                           Tuple[Tuple[str, Factory], ...]]:
    """(name -> factory, alias -> target, make_builtins' build order) for
    one dialect."""
    generic = {name: _math(name, f) for name, f in _HOST_MATH.items()}
    make = dict(generic)
    aliases: Dict[str, str] = {}
    if dialect == "cuda":
        for name in _HOST_MATH:
            if name in _VECTOR_AWARE and name not in ("fmin", "fmax", "fabs"):
                # fmaf, clampf, ... keep the generic form the vector-aware
                # override replaces for the unsuffixed name
                make[name + "f"] = make[name]
            else:
                aliases[name + "f"] = name
    make.update(_VECTOR_AWARE)
    specific = _OPENCL if dialect == "opencl" else _CUDA
    make.update(specific)
    for name in specific:
        aliases.pop(name, None)  # CUDA's rsqrtf is its own entry
    if dialect == "opencl":
        aliases.update(_OPENCL_ALIASES)
    make.update({alias: make[target] for alias, target in aliases.items()})
    # The interpreter's table has always built the generic entries the
    # overrides replace (fabs, fmin, ...) before replacing them.  Keep
    # building them: the garbage they add sets how often the interpreter
    # collects, and its speed is bench_engine's denominator.
    used = set(make.values())
    order = [(name, g) for name, g in generic.items() if g not in used]
    order += [(name, m) for name, m in make.items() if name not in aliases]
    return make, aliases, tuple(order)


#: dialect -> builtin name -> factory building that builtin for one
#: work-item (an alias maps to its target's factory)
BUILTIN_FACTORIES: Dict[str, Dict[str, Factory]] = {}
#: dialect -> alias -> target; ``make_builtins`` gives an alias its
#: target's object
BUILTIN_ALIASES: Dict[str, Dict[str, str]] = {}
#: dialect -> the (name, factory) pairs ``make_builtins`` calls in order,
#: aliases left out; a later pair replaces an earlier one of its name
_EAGER: Dict[str, Tuple[Tuple[str, Factory], ...]] = {}
for _d in ("opencl", "cuda"):
    BUILTIN_FACTORIES[_d], BUILTIN_ALIASES[_d], _EAGER[_d] = (
        _dialect_table(_d))


def make_builtins(env: "WorkItemEnv", dialect: str
                  ) -> Dict[str, Callable[..., Any]]:
    """Build the whole builtin table for one work-item environment."""
    table = {name: make(env) for name, make in _EAGER[dialect]}
    for alias, target in BUILTIN_ALIASES[dialect].items():
        table[alias] = table[target]
    return table
