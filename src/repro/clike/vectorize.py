"""Vector tier: warp-batched codegen over numpy lanes.

The scalar compile tier (:mod:`repro.clike.compile`) runs one generated
generator per work-item; this module lowers *eligible* kernels a second
time into one generator per **warp**, where every statement executes all
active lanes at once over numpy arrays — vectorized loads/stores via
gather/scatter, arithmetic over ``int64``/``float64`` lanes, and masked
active-sets for uniformly-nested divergent branches.

The contract is unchanged from the scalar tier: byte identity with the
interpreter for output buffers, performance counters, and therefore the
modeled kernel time.  Two deliberate relaxations keep batching possible:

* counter *increment order* within a run is unobservable (only the final
  totals of a successful launch are consumed), so static op counts flush
  scaled by the active-lane count instead of once per lane;
* per-site access traces are per-lane program-ordered but carry no
  cross-lane ordering, so a batched access appends to every active
  lane's trace in one sweep.

Everything the tier cannot mirror exactly raises
:class:`~repro.clike.compile.CompileUnsupported` for that kernel and the
engine demotes it to the scalar compiled form (and from there to the
interpreter) — the ``vector -> compiled -> interp`` ladder.  Demotion is
static and per kernel, recorded in ``CompiledSource.vector_fallbacks``.

Numeric fidelity notes (all mirrored, not approximated):

* float64 lane math is IEEE-identical to Python float math;
* ``float`` / ``half`` coercions round through float64 first (two-step,
  matching ``_f32``/``_f16``);
* C division/modulo reproduce ``_c_div``/``_c_mod`` including the
  divide-by-zero infinities, truncation toward zero, and the exact
  ``InterpError``/``ValueError``/``OverflowError`` raises;
* ``<<`` results that could exceed 64 bits fall back to an exact
  object-dtype path, then re-wrap to the annotated width;
* stores with duplicate target offsets within a warp and loads/stores
  that fault fall back to sequential lane order so last-wins races and
  the first faulting lane match the scalar tiers.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import InterpError
from ..runtime.memory import Memory
from ..runtime.values import Ptr, coerce
from . import ast as A
from . import types as T
from .compile import (CODEGEN_VERSION, CompileUnsupported, CompiledSource,
                      _CMP_OPS, _CUDA_SPECIALS, _MAX_LOOP_ITERS, _ONE,
                      _OPENCL_IDS, _XYZ, _UnitCodegen, _budget, _cast,
                      _dynid, _f16, _f32, _kind_of, _scan_signals)
from .interp import _apply_binop, _c_div, _c_mod, _truth
from .sema import resolve_conversion

__all__ = ["WarpEnv", "vector_compile_unit", "bind_vector_unit"]

_I8 = np.dtype(np.int64)
_F8 = np.dtype(np.float64)

#: little-endian element dtypes per scalar name (matches memory's packing)
_DTYPES: Dict[str, np.dtype] = {
    "bool": np.dtype("<u1"), "char": np.dtype("<i1"),
    "uchar": np.dtype("<u1"), "short": np.dtype("<i2"),
    "ushort": np.dtype("<u2"), "int": np.dtype("<i4"),
    "uint": np.dtype("<u4"), "long": np.dtype("<i8"),
    "longlong": np.dtype("<i8"), "half": np.dtype("<f2"),
    "float": np.dtype("<f4"), "double": np.dtype("<f8"),
}

#: per-element-size byte-offset aranges for gather/scatter index matrices
_R = {n: np.arange(n, dtype=np.int64) for n in (1, 2, 4, 8)}

_INT64_MAX_F = 9.223372036854775e18


# ---------------------------------------------------------------------------
# warp environment
# ---------------------------------------------------------------------------

class WarpEnv:
    """Per-warp execution environment: the vector tier's ``env``.

    Holds the lane-id arrays for one warp window ``[lo, hi)`` of a
    work-group and the batched accounting hooks.  Reuses the scalar
    :class:`~repro.device.engine.WorkItemEnv` logic for the pieces that
    only touch shared launch state (shared-memory slots, named
    constants), so the two tiers cannot drift.
    """

    __slots__ = ("launch", "group", "lo", "hi", "n", "lids", "_tc",
                 "lid0", "lid1", "lid2", "gid0", "gid1", "gid2")

    def __init__(self, launch: Any, group: Tuple[int, int, int],
                 lo: int, hi: int) -> None:
        self.launch = launch
        self.group = group
        self.lo = lo
        self.hi = hi
        self.n = hi - lo
        bx, by, _bz = launch.block
        lin = np.arange(lo, hi, dtype=np.int64)
        self.lids = lin.tolist()  # linear ids, for full-warp trace sweeps
        self._tc: Dict[Tuple[int, int], list] = {}  # (traces id, site) -> seqs
        self.lid0 = lin % bx
        rest = lin // bx
        self.lid1 = rest % by
        self.lid2 = rest // by
        block = launch.block
        self.gid0 = group[0] * block[0] + self.lid0
        self.gid1 = group[1] * block[1] + self.lid1
        self.gid2 = group[2] * block[2] + self.lid2

    # -- shared state (delegated to the scalar env implementation) ----------

    def local_static_slot(self, name: str, ctype: T.Type) -> Ptr:
        from ..device.engine import WorkItemEnv
        return WorkItemEnv.local_static_slot(self, name, ctype)

    def dynamic_shared_slot(self, elem: T.Type) -> Ptr:
        from ..device.engine import WorkItemEnv
        return WorkItemEnv.dynamic_shared_slot(self, elem)

    def constant(self, name: str) -> Any:
        from ..device.engine import WorkItemEnv
        # the scalar implementation reads self._CLK_CONSTANTS; mirror the
        # class attribute here once so the unbound call resolves it
        WarpEnv._CLK_CONSTANTS = WorkItemEnv._CLK_CONSTANTS
        return WorkItemEnv.constant(self, name)

    def special_var(self, name: str) -> Any:
        # only the uniform CUDA special is resolvable per-warp; the Vec
        # specials (threadIdx & co) are per-lane and demote statically
        if (name == "warpSize"
                and self.launch.kernel.module.dialect == "cuda"):
            return self.launch.device.spec.warp_size
        raise KeyError(name)

    def global_size(self, d: int) -> int:
        return self.launch.grid[d] * self.launch.block[d]

    # -- batched accounting --------------------------------------------------

    def vaccess(self, mem: Memory, offs: np.ndarray, nbytes: int,
                site: int, load: bool, al: np.ndarray) -> None:
        """Batched ``access_site``: one call accounts the access for every
        active lane (``al`` = active lane positions within the warp).
        Counter totals and per-lane traces match ``len(al)`` scalar calls.
        """
        launch = self.launch
        space = mem.space
        c = launch.counters
        k = len(al)
        if space is _SPG:
            if mem is launch._gmem and launch.constant_ranges:
                cm = np.zeros(k, dtype=bool)
                for clo, chi in launch.constant_ranges:
                    cm |= (offs >= clo) & (offs < chi)
                nc = int(cm.sum())
                if nc:
                    c.constant_read_bytes += nbytes * nc
                    if nc == k:
                        return
                    keep = ~cm
                    offs = offs[keep]
                    al = al[keep]
                    k -= nc
            if load:
                c.global_load_bytes += nbytes * k
            else:
                c.global_store_bytes += nbytes * k
            if launch.tracing:
                self._trace(launch.global_traces, offs, nbytes, site, al, k)
        elif space is _SPL:
            c.local_accesses += k
            c.local_bytes += nbytes * k
            if launch.tracing:
                self._trace(launch.local_traces, offs, nbytes, site, al, k)
        elif space is _SPC:
            c.constant_read_bytes += nbytes * k
        # private/host: free

    def _trace(self, traces: List[Dict[int, list]], offs: np.ndarray,
               nbytes: int, site: int, al: np.ndarray, k: int) -> None:
        if k == self.n:
            # full warp: resolve the per-lane sequence lists once per
            # (trace list, site) and sweep them directly thereafter
            key = (id(traces), site)
            seqs = self._tc.get(key)
            if seqs is None:
                lo = self.lo
                self._tc[key] = seqs = [
                    t.setdefault(site, []) for t in traces[lo:self.hi]]
            for seq, off in zip(seqs, offs.tolist()):
                seq.append((off, nbytes))
            return
        for lid, off in zip((al + self.lo).tolist(), offs.tolist()):
            d = traces[lid]
            seq = d.get(site)
            if seq is None:
                d[site] = seq = []
            seq.append((off, nbytes))


# resolved late to avoid importing the engine at module import time
_SPG = T.AddressSpace.GLOBAL
_SPL = T.AddressSpace.LOCAL
_SPC = T.AddressSpace.CONSTANT


# ---------------------------------------------------------------------------
# runtime helpers (vector exec-namespace support library)
# ---------------------------------------------------------------------------

def _vtr(x: Any) -> Any:
    """Truth mask: bool array for varying values (matches ``_truth`` on
    int/float scalars lane-wise)."""
    if isinstance(x, np.ndarray):
        return x != 0
    return _truth(x)


def _vmask(x: Any, n: int) -> np.ndarray:
    """Branch mask over ``n`` active lanes: always a bool array, even when
    a logical expression collapsed to a uniform value at runtime."""
    if isinstance(x, np.ndarray):
        return x != 0
    return np.full(n, bool(_truth(x)))


def _vsc(c: Any, f: int, i: int, k: int, v: Any) -> Any:
    """Deferred count flush scaled by ``k`` evaluating lanes."""
    if f:
        c.flops += f * k
    if i:
        c.iops += i * k
    return v


def _vnz(x: Any) -> Any:
    """Normalize a truth value to the interpreter's 0/1 ints, lane-wise."""
    if isinstance(x, np.ndarray):
        return (x != 0).astype(_I8)
    return 1 if _truth(x) else 0


def _popc(g: Any, n: int) -> int:
    """Number of true lanes in gate ``g`` over ``n`` active lanes."""
    if isinstance(g, np.ndarray):
        return int(g.sum())
    return n if g else 0


def _vand(c: Any, ta: np.ndarray, tb: Any, fb: int, ib: int, n: int) -> Any:
    """Varying ``a && b`` with both sides pre-evaluated (statically pure
    rhs); rhs static counts flush only for lanes where ``a`` is true."""
    ga = ta != 0
    _vsc(c, fb, ib, _popc(ga, n), None)
    gb = tb != 0 if isinstance(tb, np.ndarray) else bool(_truth(tb))
    return (ga & gb).astype(_I8)


def _vor(c: Any, ta: np.ndarray, tb: Any, fb: int, ib: int, n: int) -> Any:
    ga = ta != 0
    _vsc(c, fb, ib, _popc(~ga, n), None)
    gb = tb != 0 if isinstance(tb, np.ndarray) else bool(_truth(tb))
    return (ga | gb).astype(_I8)


def _vcond(c: Any, g: np.ndarray, x: Any, fx: int, ix: int,
           y: Any, fy: int, iy: int, n: int) -> Any:
    """Varying ``cond ? x : y`` with statically pure, pre-evaluated arms."""
    ga = g != 0
    kt = _popc(ga, n)
    _vsc(c, fx, ix, kt, None)
    _vsc(c, fy, iy, n - kt, None)
    return np.where(ga, x, y)


def _vix(x: Any) -> Any:
    """Lane-wise C int cast (truncation), with the interpreter's exact
    error behaviour for non-finite floats and exact big-int results."""
    if isinstance(x, np.ndarray):
        if x.dtype == object:
            return np.array([int(v) for v in x.tolist()], dtype=object)
        if x.dtype.kind == "f":
            if not np.isfinite(x).all():
                for v in x.tolist():
                    int(v)  # raises interp's ValueError/OverflowError
            t = np.trunc(x)
            if np.abs(t).max(initial=0.0) >= _INT64_MAX_F:
                return np.array([int(v) for v in x.tolist()], dtype=object)
            return t.astype(_I8)
        return x
    return int(x)


def _vfl(x: Any) -> Any:
    """Lane-wise C double cast."""
    if isinstance(x, np.ndarray):
        if x.dtype == object:
            return np.array([float(v) for v in x.tolist()], dtype=_F8)
        if x.dtype.kind == "f":
            return x
        return x.astype(_F8)
    return float(x)


def _vf32(x: Any) -> Any:
    """Lane-wise binary32 round-trip; rounds through float64 first so int
    lanes double-round exactly like ``_f32(float(v))``."""
    if isinstance(x, np.ndarray):
        return _vfl(x).astype(_DTYPES["float"]).astype(_F8)
    return _f32(x)


def _vf16(x: Any) -> Any:
    if isinstance(x, np.ndarray):
        return _vfl(x).astype(_DTYPES["half"]).astype(_F8)
    return _f16(x)


def _vw64(x: Any) -> Any:
    """Wrap to signed 64-bit; int64 lanes are already in the wrapped
    domain, only the exact object-dtype path needs folding back."""
    if isinstance(x, np.ndarray) and x.dtype == object:
        m = (1 << 64) - 1
        h = 1 << 63
        return np.array([((int(v) + h) & m) - h for v in x.tolist()],
                        dtype=_I8)
    return x


def _vshl(a: Any, b: Any) -> Any:
    """Lane-wise ``a << b`` with exact Python-int semantics: negative
    shifts raise, and results that could overflow 64 bits take an exact
    object-dtype path (re-wrapped by the annotated result width)."""
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return int(a) << int(b)
    aa = np.asarray(a)
    bb = np.asarray(b)
    if aa.dtype == object or bb.dtype == object:
        return _shl_exact(aa, bb, max(aa.size, bb.size))
    bmax = int(bb.max())
    bmin = int(bb.min())
    if bmin < 0:
        for v in np.broadcast_to(bb, np.broadcast_shapes(
                aa.shape, bb.shape)).tolist():
            if v < 0:
                raise ValueError("negative shift count")
    amax = int(np.abs(aa).max(initial=0))
    if bmax >= 62 or (amax >> max(0, 62 - bmax)):
        return _shl_exact(aa, bb, max(aa.size, bb.size))
    return aa << bb


def _shl_exact(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    av = np.broadcast_to(a, (n,)).tolist() if a.shape else [int(a)] * n
    bv = np.broadcast_to(b, (n,)).tolist() if b.shape else [int(b)] * n
    return np.array([int(x) << int(y) for x, y in zip(av, bv)], dtype=object)


def _vdvf(a: Any, b: Any) -> Any:
    """Lane-wise float C division (``_c_div`` float arm: x/0 -> +-inf)."""
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return _c_div(a, b)
    with np.errstate(all="ignore"):
        r = np.true_divide(a, b)
        bz = np.asarray(b) == 0
        if bz.any():
            inf = np.where(np.greater_equal(a, 0), math.inf, -math.inf)
            r = np.where(bz, inf, r)
    return r


def _vdvi(a: Any, b: Any) -> Any:
    """Lane-wise integer C division: truncation toward zero, and the
    interpreter's exact divide-by-zero raise."""
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return _c_div(a, b)
    aa = np.asarray(a)
    bb = np.asarray(b)
    if (bb == 0).any():
        raise InterpError("integer division by zero")
    with np.errstate(all="ignore"):
        q = np.abs(aa) // np.abs(bb)
        return np.where((aa >= 0) == (bb >= 0), q, -q)


def _vmdf(a: Any, b: Any) -> Any:
    """Lane-wise ``fmod`` with ``math.fmod``'s exact domain errors."""
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return _c_mod(a, b)
    aa = np.asarray(a, dtype=_F8)
    bb = np.asarray(b, dtype=_F8)
    if (bb == 0).any() or not np.isfinite(aa).all():
        n = max(aa.size, bb.size)
        av = np.broadcast_to(aa, (n,)).tolist()
        bv = np.broadcast_to(bb, (n,)).tolist()
        return np.array([math.fmod(x, y) for x, y in zip(av, bv)], dtype=_F8)
    with np.errstate(all="ignore"):
        return np.fmod(aa, bb)


def _vmdi(a: Any, b: Any) -> Any:
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return _c_mod(a, b)
    bb = np.asarray(b)
    if (bb == 0).any():
        raise InterpError("integer modulo by zero")
    return a - _vdvi(a, b) * b


def _vab(op: str, a: Any, b: Any) -> Any:
    """Uncounted compound-assign apply step over lanes (the vector twin of
    ``_apply_code``; operand kinds were statically checked as scalar)."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    flop = ((isinstance(a, np.ndarray) and a.dtype.kind == "f")
            or (isinstance(b, np.ndarray) and b.dtype.kind == "f")
            or isinstance(a, float) or isinstance(b, float))
    if op == "/":
        return _vdvf(a, b) if flop else _vdvi(a, b)
    if op == "%":
        return _vmdf(a, b) if flop else _vmdi(a, b)
    ia, ib = _vix(a), _vix(b)
    if op == "<<":
        return _vshl(ia, ib)
    if op == ">>":
        return ia >> ib
    if op == "&":
        return ia & ib
    if op == "|":
        return ia | ib
    if op == "^":
        return ia ^ ib
    raise InterpError(f"unsupported vector operator {op!r}")


def _own(v: Any, n: int, dt: np.dtype) -> np.ndarray:
    """Materialize a full-warp register array the variable owns."""
    if isinstance(v, np.ndarray):
        if v.dtype == object:
            return v.copy()
        return v.astype(dt, copy=True)
    return np.full(n, v, dtype=dt)


def _offsets(p: Ptr, i: Any, al: np.ndarray, esz: int) -> np.ndarray:
    if isinstance(i, np.ndarray):
        if i.dtype != _I8:
            i = np.array([int(v) for v in i.tolist()], dtype=_I8) \
                if i.dtype == object else i.astype(_I8)
        return p.off + i * esz
    return np.full(len(al), p.off + int(i) * esz, dtype=_I8)


def _check_bounds(mem: Memory, offs: np.ndarray, esz: int) -> None:
    if len(offs) == 0:
        return
    lo = int(offs.min())
    hi = int(offs.max()) + esz
    if lo < 0 or hi > mem._size:
        for off in offs.tolist():
            mem._check(off, esz)  # first faulting lane, in lane order


_LOG2 = {1: 0, 2: 1, 4: 2, 8: 3}


def _gather(mem: Memory, offs: np.ndarray, esz: int, dt: np.dtype,
            aligned: bool) -> np.ndarray:
    """``aligned`` is per-*pointer*: offsets are ``p.off + i*esz``, so the
    whole batch is element-aligned iff the base offset is."""
    if esz == 1:
        vals = mem.buf[offs].view(dt)
    elif aligned:
        # element-aligned (the overwhelmingly common case): one 1-D fancy
        # index into a typed view instead of an (n, esz) byte gather
        nel = mem._size >> _LOG2[esz]
        vals = mem.buf[:nel << _LOG2[esz]].view(dt)[offs >> _LOG2[esz]]
    else:
        vals = mem.buf[offs[:, None] + _R[esz]].view(dt).ravel()
    if dt.kind == "f":
        return vals.astype(_F8)
    return vals.astype(_I8)


def _towire(v: Any, n: int, dt: np.dtype, esz: int) -> np.ndarray:
    """Convert lane values to the element wire format (the write_scalar
    float()/wrap conversions, batched)."""
    if dt.kind == "f":
        if isinstance(v, np.ndarray):
            fv = _vfl(v)
            if fv.dtype == dt and fv.flags.c_contiguous:
                return fv
            return fv.astype(dt)
        return np.full(n, float(v), dtype=dt)
    iv = _vix(v)
    if isinstance(iv, np.ndarray):
        if iv.dtype == object:
            m = (1 << (8 * esz)) - 1
            h = 1 << (8 * esz - 1)
            out = [int(x) & m for x in iv.tolist()]
            if dt.kind == "i":
                out = [x - (m + 1) if x >= h else x for x in out]
            return np.array(out, dtype=dt)
        if iv.dtype == dt and iv.flags.c_contiguous:
            return iv
        return iv.astype(dt)
    w = int(iv) & ((1 << (8 * esz)) - 1)
    if dt.kind == "i" and w >= (1 << (8 * esz - 1)):
        w -= 1 << (8 * esz)
    return np.full(n, w, dtype=dt)


def _vldix(env: WarpEnv, p: Ptr, i: Any, al: np.ndarray, esz: int,
           dt: np.dtype, site: int) -> np.ndarray:
    """Batched ``p[i]`` rvalue over the active lanes."""
    offs = _offsets(p, i, al, esz)
    mem = p.mem
    env.vaccess(mem, offs, esz, site, True, al)
    _check_bounds(mem, offs, esz)
    if len(offs) == 0:
        return np.empty(0, dtype=_F8 if dt.kind == "f" else _I8)
    return _gather(mem, offs, esz, dt, not p.off & (esz - 1))


def _scatter(mem: Memory, offs: np.ndarray, wire: np.ndarray,
             esz: int, aligned: bool) -> None:
    n = len(offs)
    if n == 0:
        return
    if len(set(offs.tolist())) != n:
        # duplicate targets: sequential lane order so last-wins matches
        # the scalar tiers
        raw = wire.view(np.uint8).reshape(n, esz)
        buf = mem.buf
        for j, off in enumerate(offs.tolist()):
            buf[off:off + esz] = raw[j]
        return
    if esz == 1:
        mem.buf[offs] = wire.view(np.uint8)
        return
    if aligned:
        # element-aligned and duplicate-free: typed 1-D fancy assignment
        nel = mem._size >> _LOG2[esz]
        mem.buf[:nel << _LOG2[esz]].view(wire.dtype)[offs >> _LOG2[esz]] = wire
        return
    mem.buf[offs[:, None] + _R[esz]] = wire.view(np.uint8).reshape(n, esz)


def _vstix(env: WarpEnv, p: Ptr, i: Any, v: Any, al: np.ndarray, esz: int,
           dt: np.dtype, site: int) -> Any:
    """Batched ``p[i] = v``; returns the raw rhs (statement discards)."""
    offs = _offsets(p, i, al, esz)
    mem = p.mem
    env.vaccess(mem, offs, esz, site, False, al)
    _check_bounds(mem, offs, esz)
    _scatter(mem, offs, _towire(v, len(offs), dt, esz), esz,
             not p.off & (esz - 1))
    return v


def _vstixc(env: WarpEnv, p: Ptr, i: Any, op: str, v: Any, al: np.ndarray,
            esz: int, dt: np.dtype, site: int) -> Any:
    """Batched ``p[i] op= v``: load-hook + gather, uncounted apply,
    store-hook + scatter.  Duplicate targets run the whole read-modify-
    write sequentially per lane (the scalar accumulation order)."""
    offs = _offsets(p, i, al, esz)
    mem = p.mem
    n = len(offs)
    env.vaccess(mem, offs, esz, site, True, al)
    _check_bounds(mem, offs, esz)
    if n and len(set(offs.tolist())) != n:
        env.vaccess(mem, offs, esz, site, False, al)
        ct = p.ctype
        vv = v.tolist() if isinstance(v, np.ndarray) else [v] * n
        out = []
        for j, off in enumerate(offs.tolist()):
            cur = mem.read_scalar(off, ct)
            rhs = _apply_binop(op, cur, vv[j], env)
            mem.write_scalar(off, ct, rhs)
            out.append(rhs)
        return np.array(out, dtype=_F8 if dt.kind == "f" else _I8)
    aligned = not p.off & (esz - 1)
    cur = _gather(mem, offs, esz, dt, aligned) if n else \
        np.empty(0, dtype=_F8 if dt.kind == "f" else _I8)
    rhs = _vab(op, cur, v)
    env.vaccess(mem, offs, esz, site, False, al)
    _scatter(mem, offs, _towire(rhs, n, dt, esz), esz, aligned)
    return rhs


def _vldu(env: WarpEnv, p: Ptr, al: np.ndarray, site: int) -> Any:
    """Uniform-address scalar load: every active lane performs the same
    load (counted and traced per lane); the value itself is uniform."""
    ct = p.ctype
    sz = ct.size or 1
    offs = np.full(len(al), p.off, dtype=_I8)
    env.vaccess(p.mem, offs, sz, site, True, al)
    return p.load()


def _vdiverge(env: WarpEnv) -> "Exception":
    """Intra-warp barrier divergence: some lanes of this warp returned
    (guard-style) and the rest reached a barrier.  Raise the scheduler's
    exact error."""
    from ..device.sched import divergence_error
    return divergence_error(env.launch.kernel.name, env.launch.kernel.fn)


def _vec_namespace() -> Dict[str, Any]:
    """The exec namespace for bound vector modules."""
    ns: Dict[str, Any] = {
        "_np": np, "_i8": _I8, "_f8": _F8,
        "_vtr": _vtr, "_vmask": _vmask, "_vsc": _vsc, "_vnz": _vnz,
        "_vand": _vand,
        "_vor": _vor, "_vcond": _vcond, "_vix": _vix, "_vfl": _vfl,
        "_vf32": _vf32, "_vf16": _vf16, "_vw64": _vw64, "_vshl": _vshl,
        "_vdvf": _vdvf, "_vdvi": _vdvi, "_vmdf": _vmdf, "_vmdi": _vmdi,
        "_vab": _vab, "_own": _own, "_vldix": _vldix, "_vstix": _vstix,
        "_vstixc": _vstixc, "_vldu": _vldu, "_vdiverge": _vdiverge,
        "_co": coerce, "_f32": _f32, "_f16": _f16, "_cast": _cast,
        "_dv": _c_div, "_md": _c_mod, "_tr": _truth, "_dynid": _dynid,
        "_budget": _budget, "_ONE": _ONE, "_Ptr": Ptr,
        "InterpError": InterpError, "_B": "barrier",
    }
    for name, st in T.SCALAR_TYPES.items():
        ns[f"_T_{name}"] = st
    for name, dt in _DTYPES.items():
        ns[f"_D_{name}"] = dt
    return ns


# ---------------------------------------------------------------------------
# static classification
# ---------------------------------------------------------------------------

#: runtime kinds of the named constants ``_dynid`` can resolve
_CONST_KINDS = {
    "CLK_LOCAL_MEM_FENCE": "i", "CLK_GLOBAL_MEM_FENCE": "i",
    "CLK_NORMALIZED_COORDS_FALSE": "i", "CLK_NORMALIZED_COORDS_TRUE": "i",
    "CLK_ADDRESS_NONE": "i", "CLK_ADDRESS_CLAMP_TO_EDGE": "i",
    "CLK_ADDRESS_CLAMP": "i", "CLK_ADDRESS_REPEAT": "i",
    "CLK_FILTER_NEAREST": "i", "CLK_FILTER_LINEAR": "i",
    "INT_MAX": "i", "NULL": "i", "warpSize": "i",
    "CUDART_INF_F": "f", "INFINITY": "f", "HUGE_VALF": "f", "NAN": "f",
    "M_PI": "f", "M_PI_F": "f", "CUDART_PI_F": "f", "FLT_MAX": "f",
    "MAXFLOAT": "f", "FLT_MIN": "f", "FLT_EPSILON": "f",
}

#: OpenCL work-item builtins that vary per lane
_VARYING_IDS = frozenset({"get_global_id", "get_local_id"})


def _scalar_ok(t: Optional[T.Type]) -> bool:
    """Scalar types the vector tier can hold in int64/float64 lanes:
    unsigned 64-bit values do not fit the signed lane dtype and demote."""
    return (isinstance(t, T.ScalarType) and t.name != "void"
            and not (not t.floating and not t.signed and t.size == 8))


def _elem_of(bt: Optional[T.Type]) -> Optional[T.Type]:
    if isinstance(bt, T.PointerType):
        return bt.pointee
    if isinstance(bt, T.ArrayType):
        return bt.elem
    return None


# ---------------------------------------------------------------------------
# per-kernel vector codegen
# ---------------------------------------------------------------------------

class _VecFnCodegen:
    """Lower one kernel to a per-warp generator.

    Values are either *uniform* (Python scalars, emitted with the scalar
    tier's exact expression text) or *varying* (numpy arrays over the
    currently active lanes).  Divergent-but-uniformly-nested ``if``
    statements narrow the active lane-index set; a leading
    ``if (cond) return;`` guard narrows it permanently and arms the
    ``__R`` divergence flag checked at every later barrier.
    """

    def __init__(self, u: _UnitCodegen, fn: A.FunctionDecl) -> None:
        self.u = u
        self.fn = fn
        self.lines: List[Tuple[int, str]] = []
        self.ind = 0
        self.ntmp = 0
        self.uses_counts = False
        self.uses_steps = False
        self.guarded = False
        self.full = True
        self.act = ("__I0", "__n0")
        self.mask_depth = 0
        self.loop_depth = 0
        # (kind, break-flag, mask_depth at loop entry)
        self.ctx: List[Tuple[str, Optional[str], int]] = []
        self.names: Dict[str, Tuple[str, T.Type]] = {}
        self.arrays: Set[str] = set()
        self.vary: Dict[str, bool] = {}

    # -- infrastructure ------------------------------------------------------

    @property
    def actA(self) -> str:
        return self.act[0]

    @property
    def actn(self) -> str:
        return self.act[1]

    def w(self, line: str) -> None:
        self.lines.append((self.ind, line))

    def tmp(self) -> str:
        self.ntmp += 1
        return f"__t{self.ntmp}"

    def aux(self, stem: str) -> str:
        self.ntmp += 1
        return f"__{stem}{self.ntmp}"

    def site(self) -> int:
        return self.u.new_site()

    def unsup(self, why: str) -> CompileUnsupported:
        return CompileUnsupported(f"{self.fn.name}: {why}")

    def flush(self, cnt: List[int]) -> None:
        if cnt[0]:
            self.uses_counts = True
            self.w(f"__C.flops += {cnt[0]} * {self.actn}")
        if cnt[1]:
            self.uses_counts = True
            self.w(f"__C.iops += {cnt[1]} * {self.actn}")
        cnt[0] = cnt[1] = 0

    def flush_at(self, cnt: List[int], mark: int) -> None:
        ins: List[Tuple[int, str]] = []
        if cnt[0]:
            self.uses_counts = True
            ins.append((self.ind, f"__C.flops += {cnt[0]} * {self.actn}"))
        if cnt[1]:
            self.uses_counts = True
            ins.append((self.ind, f"__C.iops += {cnt[1]} * {self.actn}"))
        cnt[0] = cnt[1] = 0
        self.lines[mark:mark] = ins

    def truth(self, code: str, kind: str) -> str:
        return code if kind in "ifp" else f"_tr({code})"

    def rread(self, name: str) -> str:
        if self.full:
            return f"V_{name}"
        return f"V_{name}[{self.actA}]"

    # -- prepass: name classes + uniformity fixpoint -------------------------

    def prepass(self) -> None:
        from .compile import _FnCodegen
        sc = _FnCodegen(self.u, self.fn)
        sc.prepass()
        if sc.retyped:
            raise self.unsup(
                f"conflicting redeclaration of {min(sc.retyped)!r}")
        self.names = sc.names
        self.arrays = set(sc.arrays)
        for name, (cls, t) in self.names.items():
            if cls == "pregw":
                raise self.unsup(f"reassigned parameter {name!r}")
            self.vary[name] = False
        # fixpoint: a register is varying if any rhs is varying or any
        # write occurs in a different masked context than a declaration
        for _ in range(len(self.vary) + 2):
            declctxs: Dict[str, Set[Tuple]] = {}
            assigns: List[Tuple[str, Optional[A.Node], Tuple]] = []
            self._collect(self.fn.body, (), declctxs, assigns)
            changed = False
            for name, rhs, ctx in assigns:
                rec = self.names.get(name)
                if rec is None or rec[0] != "reg" or self.vary.get(name):
                    continue
                v = ((rhs is not None and self._evary(rhs))
                     or ctx not in declctxs.get(name, {()}))
                if v:
                    self.vary[name] = True
                    changed = True
            if not changed:
                break

    def _collect(self, s: Optional[A.Node], ctx: Tuple,
                 declctxs: Dict[str, Set[Tuple]],
                 assigns: List[Tuple[str, Optional[A.Node], Tuple]]) -> None:
        if s is None:
            return
        k = type(s)
        if k is A.Compound:
            for st in s.stmts:
                self._collect(st, ctx, declctxs, assigns)
        elif k is A.DeclStmt:
            for d in s.decls:
                declctxs.setdefault(d.name, set()).add(ctx)
                if d.init is not None:
                    assigns.append((d.name, d.init, ctx))
                    self._collect_expr(d.init, ctx, assigns)
        elif k is A.ExprStmt:
            self._collect_expr(s.expr, ctx, assigns)
        elif k is A.If:
            self._collect_expr(s.cond, ctx, assigns)
            if self._evary(s.cond):
                self._collect(s.then, ctx + ((id(s), 0),), declctxs, assigns)
                self._collect(s.orelse, ctx + ((id(s), 1),), declctxs,
                              assigns)
            else:
                self._collect(s.then, ctx, declctxs, assigns)
                self._collect(s.orelse, ctx, declctxs, assigns)
        elif k is A.For:
            self._collect(s.init, ctx, declctxs, assigns)
            if s.cond is not None:
                self._collect_expr(s.cond, ctx, assigns)
            if s.step is not None:
                self._collect_expr(s.step, ctx, assigns)
            self._collect(s.body, ctx, declctxs, assigns)
        elif k in (A.While, A.DoWhile):
            self._collect_expr(s.cond, ctx, assigns)
            self._collect(s.body, ctx, declctxs, assigns)
        elif k is A.Switch:
            self._collect_expr(s.cond, ctx, assigns)
            for case in s.cases:
                for st in case.stmts:
                    self._collect(st, ctx, declctxs, assigns)

    def _collect_expr(self, e: Optional[A.Node], ctx: Tuple,
                      assigns: List[Tuple[str, Optional[A.Node],
                                          Tuple]]) -> None:
        if e is None:
            return
        for n in A.walk(e):
            if isinstance(n, A.Assign) and isinstance(n.target, A.Ident):
                assigns.append((n.target.name, n.value, ctx))
            elif (isinstance(n, A.UnOp) and n.op in ("++", "--")
                    and isinstance(n.operand, A.Ident)):
                assigns.append((n.operand.name, None, ctx))

    def _evary(self, e: Optional[A.Node]) -> bool:
        if e is None:
            return False
        k = type(e)
        if k in (A.IntLit, A.FloatLit, A.CharLit, A.StringLit, A.SizeOf):
            return False
        if k is A.Ident:
            return self.vary.get(e.name, False)
        if k is A.Call:
            name = e.callee_name
            if name in _VARYING_IDS:
                return True
            if name in _OPENCL_IDS or name in (
                    "get_global_size", "get_work_dim", "get_global_offset"):
                return any(self._evary(a) for a in e.args)
            if name in self.u.barrier_names:
                return False
            return True  # conservative; emission demotes these anyway
        if k is A.Member:
            if isinstance(e.base, A.Ident) and not e.arrow:
                if e.base.name == "threadIdx":
                    return True
                if e.base.name in _CUDA_SPECIALS:
                    return False
            return True
        if k is A.Index:
            return True
        if k is A.BinOp:
            return self._evary(e.lhs) or self._evary(e.rhs)
        if k is A.UnOp:
            return self._evary(e.operand)
        if k is A.Cond:
            return (self._evary(e.cond) or self._evary(e.then)
                    or self._evary(e.orelse))
        if k is A.Cast:
            return self._evary(e.expr)
        if k is A.Comma:
            return any(self._evary(x) for x in e.exprs)
        if k is A.Assign:
            return True
        return True

    def _pure(self, e: Optional[A.Node]) -> bool:
        """No hooks, no counts beyond static ones, no writes: safe to
        pre-evaluate eagerly for a varying short-circuit operand."""
        if e is None:
            return False
        k = type(e)
        if k in (A.IntLit, A.FloatLit, A.CharLit):
            return True
        if k is A.Ident:
            rec = self.names.get(e.name)
            if rec is not None:
                return rec[0] in ("reg", "preg")
            return e.name in _CONST_KINDS
        if k is A.BinOp:
            return self._pure(e.lhs) and self._pure(e.rhs)
        if k is A.UnOp:
            return e.op in ("-", "+", "!", "~") and self._pure(e.operand)
        if k is A.Cond:
            return (self._pure(e.cond) and self._pure(e.then)
                    and self._pure(e.orelse))
        if k is A.Cast:
            return isinstance(e.type, T.ScalarType) and self._pure(e.expr)
        if k is A.Member:
            return (not e.arrow and isinstance(e.base, A.Ident)
                    and e.base.name in _CUDA_SPECIALS and e.name in _XYZ)
        if k is A.Call:
            return (self.u.dialect_name == "opencl"
                    and e.callee_name in _OPENCL_IDS
                    and all(self._pure(a) for a in e.args))
        if k is A.SizeOf:
            return e.type is not None and e.type.size is not None
        return False

    # -- expressions ---------------------------------------------------------

    def expr(self, e: A.Node, cnt: List[int]) -> Tuple[str, str, bool]:
        kind = type(e)
        if kind is A.IntLit:
            return repr(e.value), "i", False
        if kind is A.FloatLit:
            return repr(e.value), "f", False
        if kind is A.CharLit:
            return str(ord(e.value)), "i", False
        if kind is A.Ident:
            return self.ident(e, cnt)
        if kind is A.BinOp:
            return self.binop(e, cnt)
        if kind is A.UnOp:
            return self.unop(e, cnt)
        if kind is A.Cond:
            return self.cond(e, cnt)
        if kind is A.Call:
            return self.call(e, cnt)
        if kind is A.Index:
            return self.index(e, cnt)
        if kind is A.Member:
            return self.member(e, cnt)
        if kind is A.Cast:
            return self.cast(e, cnt)
        if kind is A.SizeOf:
            return self.sizeof(e)
        raise self.unsup(f"cannot vectorize {kind.__name__} expression")

    def ident(self, e: A.Ident, cnt: List[int]) -> Tuple[str, str, bool]:
        name = e.name
        rec = self.names.get(name)
        if rec is not None:
            cls, t = rec
            if cls in ("reg", "preg"):
                if self.vary.get(name):
                    return self.rread(name), _kind_of(t), True
                return f"V_{name}", _kind_of(t), False
            # mem
            if name in self.arrays:
                return f"Md_{name}", "p", False
            if isinstance(t, T.ScalarType):
                return (f"_vldu(env, M_{name}, {self.actA}, "
                        f"{self.site()})", _kind_of(t), False)
            raise self.unsup(f"non-scalar memory variable {name!r}")
        if name in self.u.sym_names:
            for d in self.u.unit.decls:
                if isinstance(d, A.VarDecl) and d.name == name:
                    if isinstance(d.type, T.ArrayType):
                        return f"Gd_{name}", "p", False
                    if isinstance(d.type, T.ScalarType):
                        return (f"_vldu(env, G_{name}, {self.actA}, "
                                f"{self.site()})", _kind_of(d.type), False)
                    raise self.unsup(f"non-scalar module symbol {name!r}")
            raise self.unsup(f"module symbol {name!r} without a decl")
        if name in self.u.gv_names:
            raise self.unsup(f"global value {name!r}")
        if name in self.u.fns:
            raise self.unsup(f"function {name!r} used as a value")
        if name in _CUDA_SPECIALS:
            raise self.unsup(f"bare special register {name!r}")
        line = getattr(e, "loc", (0,))[0]
        return (f"_dynid(env, {name!r}, {line})",
                _CONST_KINDS.get(name, "?"), False)

    def vintwrap(self, code: str, st: T.ScalarType, vary: bool) -> str:
        if not _scalar_ok(st):
            raise self.unsup(f"unsigned 64-bit result type {st.name}")
        bits = 8 * st.size
        if vary and bits == 64:
            return f"_vw64({code})"
        mask = (1 << bits) - 1
        if st.signed:
            half = 1 << (bits - 1)
            return f"(({code} + {half} & {mask}) - {half})"
        return f"({code} & {mask})"

    def binop(self, e: A.BinOp, cnt: List[int]) -> Tuple[str, str, bool]:
        op = e.op
        if op in ("&&", "||"):
            return self.logical(e, cnt)
        a, ak, av = self.expr(e.lhs, cnt)
        b, bk, bv = self.expr(e.rhs, cnt)
        if ak not in "if" or bk not in "if":
            raise self.unsup(f"operator {op!r} on kinds {ak}{bk}")
        flop = "f" in (ak, bk)
        cnt[0 if flop else 1] += 1
        vary = av or bv
        rt = e.ctype
        wrap = (isinstance(rt, T.ScalarType) and not rt.floating
                and op in ("+", "-", "*", "<<"))
        if not vary:
            # uniform subtree: the scalar tier's exact Python expression
            if op in ("+", "-", "*"):
                code = f"({a} {op} {b})"
                if wrap and not flop:
                    return self.vintwrap(code, rt, False), "i", False
                return code, ("f" if flop else "i"), False
            if op == "/":
                return f"_dv({a}, {b})", ("f" if flop else "i"), False
            if op == "%":
                return f"_md({a}, {b})", ("f" if flop else "i"), False
            if op in _CMP_OPS:
                return f"(1 if {a} {op} {b} else 0)", "i", False
            if op in ("<<", ">>", "&", "|", "^"):
                if flop:
                    a, b = f"int({a})", f"int({b})"
                code = f"({a} {op} {b})"
                if op == "<<" and wrap:
                    return self.vintwrap(code, rt, False), "i", False
                return code, "i", False
            raise self.unsup(f"operator {op!r}")
        if op in ("+", "-", "*"):
            code = f"({a} {op} {b})"
            if flop:
                return code, "f", True
            if wrap:
                return self.vintwrap(code, rt, True), "i", True
            raise self.unsup(f"unannotated varying integer {op!r}")
        if op == "/":
            return ((f"_vdvf({a}, {b})", "f", True) if flop
                    else (f"_vdvi({a}, {b})", "i", True))
        if op == "%":
            return ((f"_vmdf({a}, {b})", "f", True) if flop
                    else (f"_vmdi({a}, {b})", "i", True))
        if op in _CMP_OPS:
            return f"(({a}) {op} ({b})).astype(_i8)", "i", True
        if op in ("<<", ">>", "&", "|", "^"):
            if flop:
                a, b = f"_vix({a})", f"_vix({b})"
            if op == "<<":
                code = f"_vshl({a}, {b})"
                if wrap:
                    return self.vintwrap(code, rt, True), "i", True
                raise self.unsup("unannotated varying shift")
            return f"({a} {op} {b})", "i", True
        raise self.unsup(f"operator {op!r}")

    def logical(self, e: A.BinOp, cnt: List[int]) -> Tuple[str, str, bool]:
        op = e.op
        a, ak, av = self.expr(e.lhs, cnt)
        rc: List[int] = [0, 0]
        if av and not self._pure(e.rhs):
            raise self.unsup(f"impure rhs of varying {op!r}")
        b, bk, bv = self.expr(e.rhs, rc)
        if ak not in "if" or bk not in "if":
            raise self.unsup(f"{op!r} on kinds {ak}{bk}")
        self.uses_counts = self.uses_counts or rc[0] or rc[1] or av
        if not av and not bv:
            j = "and" if op == "&&" else "or"
            wb = b
            if rc[0] or rc[1]:
                wb = f"_vsc(__C, {rc[0]}, {rc[1]}, {self.actn}, {b})"
            return (f"(1 if {self.truth(a, ak)} {j} {self.truth(wb, bk)} "
                    f"else 0)", "i", False)
        if not av:
            # uniform lhs, varying rhs: rhs evaluates (and counts) only on
            # the short-circuit-surviving side
            tb = f"_vnz(_vsc(__C, {rc[0]}, {rc[1]}, {self.actn}, {b}))"
            if op == "&&":
                return (f"({tb} if {self.truth(a, ak)} else 0)", "i", True)
            return (f"(1 if {self.truth(a, ak)} else {tb})", "i", True)
        fn = "_vand" if op == "&&" else "_vor"
        return (f"{fn}(__C, {a}, {b}, {rc[0]}, {rc[1]}, {self.actn})",
                "i", True)

    def cond(self, e: A.Cond, cnt: List[int]) -> Tuple[str, str, bool]:
        c, ck, cv = self.expr(e.cond, cnt)
        if not cv:
            tc: List[int] = [0, 0]
            a, ak, av = self.expr(e.then, tc)
            ec: List[int] = [0, 0]
            b, bk, bv = self.expr(e.orelse, ec)
            if tc[0] or tc[1]:
                self.uses_counts = True
                a = f"_vsc(__C, {tc[0]}, {tc[1]}, {self.actn}, {a})"
            if ec[0] or ec[1]:
                self.uses_counts = True
                b = f"_vsc(__C, {ec[0]}, {ec[1]}, {self.actn}, {b})"
            if ak != bk:
                raise self.unsup("mixed-kind conditional")
            return (f"({a} if {self.truth(c, ck)} else {b})", ak, av or bv)
        if not (self._pure(e.then) and self._pure(e.orelse)):
            raise self.unsup("impure arm of varying conditional")
        tc = [0, 0]
        a, ak, av = self.expr(e.then, tc)
        ec = [0, 0]
        b, bk, bv = self.expr(e.orelse, ec)
        if ak != bk or ak not in "if":
            raise self.unsup("mixed-kind varying conditional")
        self.uses_counts = True
        return (f"_vcond(__C, {c}, {a}, {tc[0]}, {tc[1]}, {b}, {ec[0]}, "
                f"{ec[1]}, {self.actn})", ak, True)

    def unop(self, e: A.UnOp, cnt: List[int]) -> Tuple[str, str, bool]:
        op = e.op
        if op in ("++", "--"):
            return self.incdec_expr(e)
        if op in ("&", "*"):
            raise self.unsup(f"unary operator {op!r}")
        code, k, vary = self.expr(e.operand, cnt)
        if op == "-":
            if k not in "if":
                raise self.unsup("unary minus on this kind")
            return f"(-{code})", k, vary
        if op == "+":
            return code, k, vary
        if op == "!":
            if not vary:
                return f"(0 if {self.truth(code, k)} else 1)", "i", False
            return f"((({code}) == 0).astype(_i8))", "i", True
        if op == "~":
            if k not in "if":
                raise self.unsup("~ on this kind")
            if not vary:
                return f"(~int({code}))", "i", False
            return f"(~_vix({code}))", "i", True
        raise self.unsup(f"unary operator {op!r}")

    def incdec_expr(self, e: A.UnOp) -> Tuple[str, str, bool]:
        t = e.operand
        if not isinstance(t, A.Ident):
            raise self.unsup("++/-- on a non-register")
        rec = self.names.get(t.name)
        if rec is None or rec[0] != "reg" or self.vary.get(t.name):
            raise self.unsup("++/-- on a non-uniform register")
        _cls, dt = rec
        k = _kind_of(dt)
        v = f"V_{t.name}"
        sign = "+" if e.op == "++" else "-"
        if k == "i":
            new = self.vintwrap(f"{v} {sign} 1", dt, False)
        elif k == "f":
            new = self.co(f"({v} {sign} 1)", dt, "f", False)
        else:
            raise self.unsup("++/-- on this kind")
        if not e.postfix:
            return f"({v} := {new})", k, False
        tmp = self.tmp()
        if k == "i":
            newc = self.vintwrap(f"{tmp} {sign} 1", dt, False)
        else:
            newc = self.co(f"({tmp} {sign} 1)", dt, "f", False)
        return (f"(({tmp} := {v}), ({v} := {newc}), {tmp})[2]", k, False)

    def index(self, e: A.Index, cnt: List[int]) -> Tuple[str, str, bool]:
        bt = e.base.ctype if isinstance(e.base, A.Expr) else None
        elem = _elem_of(bt)
        if not (_scalar_ok(elem) and elem.name in _DTYPES):
            raise self.unsup(f"indexed element type {elem!r}")
        base, bk, bv = self.expr(e.base, cnt)
        if bk != "p" or bv:
            raise self.unsup("index on a non-uniform pointer")
        idx, ik, _iv = self.expr(e.index, cnt)
        if ik == "f":
            idx = f"_vix({idx})"
        elif ik != "i":
            raise self.unsup("non-integer index")
        return (f"_vldix(env, {base}, {idx}, {self.actA}, {elem.size}, "
                f"_D_{elem.name}, {self.site()})", _kind_of(elem), True)

    def member(self, e: A.Member, cnt: List[int]) -> Tuple[str, str, bool]:
        if (not e.arrow and isinstance(e.base, A.Ident)
                and e.base.name not in self.names
                and e.base.name not in self.u.sym_names
                and e.base.name not in self.u.gv_names
                and self.u.dialect_name == "cuda"
                and e.base.name in _CUDA_SPECIALS and e.name in _XYZ):
            d = _XYZ[e.name]
            name = e.base.name
            if name == "threadIdx":
                code = f"env.lid{d}"
                if not self.full:
                    code = f"{code}[{self.actA}]"
                return code, "i", True
            if name == "blockIdx":
                return f"env.group[{d}]", "i", False
            if name == "blockDim":
                return f"env.launch.block[{d}]", "i", False
            return f"env.launch.grid[{d}]", "i", False
        raise self.unsup(f"member access .{e.name}")

    def co(self, code: str, t: T.Type, k: str, vary: bool) -> str:
        if not (isinstance(t, T.ScalarType) and t.name != "void"):
            raise self.unsup(f"coercion to {t!r}")
        if not vary:
            if k in "if":
                if t.floating:
                    if t.size == 4:
                        return f"_f32({code})"
                    if t.size == 2:
                        return f"_f16({code})"
                    return f"float({code})"
                if k == "f":
                    code = f"int({code})"
                return self.vintwrap(code, t, False)
            return f"_co({code}, _T_{t.name})"
        if k not in "if":
            raise self.unsup("varying coercion from unknown kind")
        if t.floating:
            if t.size == 4:
                return f"_vf32({code})"
            if t.size == 2:
                return f"_vf16({code})"
            return f"_vfl({code})" if k == "i" else code
        if k == "f":
            code = f"_vix({code})"
        return self.vintwrap(code, t, True)

    def cast(self, e: A.Cast, cnt: List[int]) -> Tuple[str, str, bool]:
        t = e.type
        if isinstance(e.expr, A.InitList):
            raise self.unsup("compound literal")
        code, k, vary = self.expr(e.expr, cnt)
        if not isinstance(t, T.ScalarType):
            raise self.unsup(f"cast to {t!r}")
        return self.co(code, t, k, vary), _kind_of(t), vary

    def sizeof(self, e: A.SizeOf) -> Tuple[str, str, bool]:
        if e.type is not None:
            if e.type.size is None:
                raise self.unsup("sizeof incomplete type")
            return str(e.type.size), "i", False
        ct = e.expr.ctype if isinstance(e.expr, A.Expr) else None
        if ct is not None and ct.size:
            return str(ct.size), "i", False
        raise self.unsup("sizeof on unsized expression")

    def call(self, e: A.Call, cnt: List[int]) -> Tuple[str, str, bool]:
        name = e.callee_name
        if name is None:
            raise self.unsup("call through a function value")
        if name in self.u.barrier_names:
            raise self.unsup("barrier in expression position")
        if name in self.u.warp_ops:
            raise self.unsup(f"warp primitive {name!r}")
        if name in self.u.fns:
            raise self.unsup(f"call to user function {name!r}")
        if (self.u.dialect_name == "opencl" and name in _OPENCL_IDS
                and len(e.args) == 1):
            arg = e.args[0]
            attr = {"get_global_id": "gid", "get_local_id": "lid"}.get(name)
            if attr is not None:
                if isinstance(arg, A.IntLit) and arg.value in (0, 1, 2):
                    code = f"env.{attr}{arg.value}"
                else:
                    d, dk, dv = self.expr(arg, cnt)
                    if dv:
                        raise self.unsup("varying dimension argument")
                    if dk != "i":
                        d = f"int({d})"
                    code = (f"(env.{attr}0, env.{attr}1, "
                            f"env.{attr}2)[{d}]")
                if not self.full:
                    code = f"{code}[{self.actA}]"
                return code, "i", True
            d, dk, dv = self.expr(arg, cnt)
            if dv:
                raise self.unsup("varying dimension argument")
            if dk != "i":
                d = f"int({d})"
            return f"{_OPENCL_IDS[name]}[{d}]", "i", False
        if (self.u.dialect_name == "opencl"
                and name == "get_global_size" and len(e.args) == 1):
            d, dk, dv = self.expr(e.args[0], cnt)
            if dv:
                raise self.unsup("varying dimension argument")
            if not isinstance(e.args[0], A.IntLit):
                return f"env.global_size(int({d}))", "i", False
            if dk != "i":
                d = f"int({d})"
            return (f"(env.launch.grid[{d}] * env.launch.block[{d}])",
                    "i", False)
        if (self.u.dialect_name == "opencl"
                and name == "get_work_dim" and not e.args):
            return "env.launch.work_dim", "i", False
        if (self.u.dialect_name == "opencl"
                and name == "get_global_offset" and len(e.args) == 1):
            d, _dk, _dv = self.expr(e.args[0], cnt)
            return f"({d}, 0)[1]", "i", False
        conv = resolve_conversion(name, self.u.dialect)
        if conv is not None:
            if len(e.args) != 1 or name.startswith("as_"):
                raise self.unsup(f"conversion {name!r}")
            code, k, vary = self.expr(e.args[0], cnt)
            if not isinstance(conv, T.ScalarType):
                raise self.unsup(f"conversion to {conv!r}")
            return self.co(code, conv, k, vary), _kind_of(conv), vary
        raise self.unsup(f"call to builtin {name!r}")

    # -- statements ----------------------------------------------------------

    def stmt(self, s: Optional[A.Node]) -> None:
        if s is None:
            return
        kind = type(s)
        if kind is A.Compound:
            for st in s.stmts:
                self.stmt(st)
        elif kind is A.ExprStmt:
            self.expr_stmt(s.expr)
        elif kind is A.DeclStmt:
            for d in s.decls:
                self.decl(d)
        elif kind is A.If:
            self._if(s)
        elif kind is A.For:
            self._for(s)
        elif kind is A.While:
            self._while(s)
        elif kind is A.Return:
            self._return(s)
        elif kind is A.Break:
            self._break()
        elif kind is A.Continue:
            self._continue()
        else:
            raise self.unsup(f"cannot vectorize {kind.__name__} statement")

    def _block(self, emit) -> None:
        mark = len(self.lines)
        self.ind += 1
        emit()
        if len(self.lines) == mark:
            self.w("pass")
        self.ind -= 1

    def expr_stmt(self, e: A.Node) -> None:
        cnt: List[int] = [0, 0]
        if isinstance(e, A.Call) and e.callee_name is not None:
            name = e.callee_name
            if name in self.u.barrier_names:
                if self.mask_depth:
                    raise self.unsup("barrier under a divergent mask")
                args = [self.expr(a, cnt)[0] for a in e.args]
                self.flush(cnt)
                for a in args:
                    self.w(a)
                if self.guarded:
                    self.w("if __R:")
                    self.ind += 1
                    self.w("raise _vdiverge(env)")
                    self.ind -= 1
                self.w("yield _B")
                return
        if isinstance(e, A.Assign):
            mark = len(self.lines)
            self.assign_stmt(e, cnt)
            self.flush_at(cnt, mark)
            return
        if isinstance(e, A.UnOp) and e.op in ("++", "--"):
            mark = len(self.lines)
            self.incdec_stmt(e, cnt)
            self.flush_at(cnt, mark)
            return
        code, _k, _v = self.expr(e, cnt)
        self.flush(cnt)
        self.w(code)

    def _apply_vec(self, op: str, cur: str, rhs: str, tk: str,
                   rk: str) -> Tuple[str, str]:
        """Varying compound-assign apply step (uncounted, like the scalar
        tier's ``_apply_code``)."""
        if tk not in "if" or rk not in "if":
            raise self.unsup(f"compound {op}= on kinds {tk}{rk}")
        flop = "f" in (tk, rk)
        if op in ("+", "-", "*"):
            return f"({cur} {op} {rhs})", ("f" if flop else "i")
        if op == "/":
            return ((f"_vdvf({cur}, {rhs})", "f") if flop
                    else (f"_vdvi({cur}, {rhs})", "i"))
        if op == "%":
            return ((f"_vmdf({cur}, {rhs})", "f") if flop
                    else (f"_vmdi({cur}, {rhs})", "i"))
        if op in ("<<", ">>", "&", "|", "^"):
            a = f"_vix({cur})" if tk == "f" else cur
            b = f"_vix({rhs})" if rk == "f" else rhs
            if op == "<<":
                return f"_vshl({a}, {b})", "i"
            return f"({a} {op} {b})", "i"
        raise self.unsup(f"compound operator {op}=")

    def assign_stmt(self, e: A.Assign, cnt: List[int]) -> None:
        t = e.target
        op = e.op
        if isinstance(t, A.Ident):
            rec = self.names.get(t.name)
            if rec is None or rec[0] != "reg":
                raise self.unsup(f"cannot assign to {t.name!r}")
            _cls, dt = rec
            if not (isinstance(dt, T.ScalarType) and _kind_of(dt) in "if"):
                raise self.unsup(f"assignment to non-scalar {t.name!r}")
            tk = _kind_of(dt)
            name = t.name
            v = f"V_{name}"
            if not self.vary.get(name):
                # uniform register: the scalar tier's exact statement
                rhs, rk, rv = self.expr(e.value, cnt)
                if rv:
                    raise self.unsup(
                        f"varying write to uniform register {name!r}")
                if not op:
                    self.w(f"{v} = {self.co(rhs, dt, rk, False)}")
                    return
                tmp = self.tmp()
                self.w(f"{tmp} = {rhs}")
                applied, ak = self._apply_uni(op, v, tmp, tk, rk)
                self.w(f"{v} = {self.co(applied, dt, ak, False)}")
                return
            # varying register
            dref = "_f8" if tk == "f" else "_i8"
            rhs, rk, rv = self.expr(e.value, cnt)
            if not op:
                val = self.co(rhs, dt, rk, rv)
                if self.full:
                    self.w(f"{v} = _own({val}, __n0, {dref})")
                else:
                    self.w(f"{v}[{self.actA}] = {val}")
                return
            tmp = self.tmp()
            self.w(f"{tmp} = {rhs}")
            cur = self.rread(name)
            if rv:
                applied, ak = self._apply_vec(op, cur, tmp, tk, rk)
            else:
                # varying target, uniform rhs: the apply broadcasts
                applied, ak = self._apply_vec(op, cur, tmp, tk, rk)
            val = self.co(applied, dt, ak, True)
            if self.full:
                self.w(f"{v} = _own({val}, __n0, {dref})")
            else:
                self.w(f"{v}[{self.actA}] = {val}")
            return
        if isinstance(t, A.Index):
            bt = t.base.ctype if isinstance(t.base, A.Expr) else None
            elem = _elem_of(bt)
            if not (_scalar_ok(elem) and elem.name in _DTYPES):
                raise self.unsup(f"stored element type {elem!r}")
            base, bk, bv = self.expr(t.base, cnt)
            if bk != "p" or bv:
                raise self.unsup("store through a non-uniform pointer")
            idx, ik, _iv = self.expr(t.index, cnt)
            if ik == "f":
                idx = f"_vix({idx})"
            elif ik != "i":
                raise self.unsup("non-integer store index")
            site = self.site()
            rhs, _rk, _rv = self.expr(e.value, cnt)
            if op:
                self.w(f"_vstixc(env, {base}, {idx}, {op!r}, {rhs}, "
                       f"{self.actA}, {elem.size}, _D_{elem.name}, {site})")
            else:
                self.w(f"_vstix(env, {base}, {idx}, {rhs}, {self.actA}, "
                       f"{elem.size}, _D_{elem.name}, {site})")
            return
        raise self.unsup(f"assignment to {type(t).__name__} target")

    def _apply_uni(self, op: str, cur: str, rhs: str, tk: str,
                   rk: str) -> Tuple[str, str]:
        """Uniform compound apply — the scalar tier's exact text."""
        if tk not in "if" or rk not in "if":
            raise self.unsup(f"compound {op}= on kinds {tk}{rk}")
        flop = "f" in (tk, rk)
        if op in ("+", "-", "*"):
            return f"({cur} {op} {rhs})", ("f" if flop else "i")
        if op == "/":
            return f"_dv({cur}, {rhs})", ("f" if flop else "i")
        if op == "%":
            return f"_md({cur}, {rhs})", ("f" if flop else "i")
        if op in ("<<", ">>", "&", "|", "^"):
            a = f"int({cur})" if tk == "f" else cur
            b = f"int({rhs})" if rk == "f" else rhs
            return f"({a} {op} {b})", "i"
        raise self.unsup(f"compound operator {op}=")

    def incdec_stmt(self, e: A.UnOp, cnt: List[int]) -> None:
        t = e.operand
        if not isinstance(t, A.Ident):
            raise self.unsup("++/-- on a non-register")
        rec = self.names.get(t.name)
        if rec is None or rec[0] != "reg":
            raise self.unsup("++/-- on a non-register")
        _cls, dt = rec
        k = _kind_of(dt)
        if k not in "if":
            raise self.unsup("++/-- on this kind")
        name = t.name
        v = f"V_{name}"
        sign = "+" if e.op == "++" else "-"
        if not self.vary.get(name):
            if k == "i":
                self.w(f"{v} = {self.vintwrap(f'{v} {sign} 1', dt, False)}")
            else:
                self.w(f"{v} = {self.co(f'({v} {sign} 1)', dt, 'f', False)}")
            return
        cur = self.rread(name)
        val = self.co(f"({cur} {sign} 1)", dt, k, True)
        if self.full:
            dref = "_f8" if k == "f" else "_i8"
            self.w(f"{v} = _own({val}, __n0, {dref})")
        else:
            self.w(f"{v}[{self.actA}] = {val}")

    # -- control flow --------------------------------------------------------

    def _is_guard_return(self, s: A.If) -> bool:
        if (s.orelse is not None or self.mask_depth or self.loop_depth
                or self.guarded):
            return False
        body = s.then
        if isinstance(body, A.Compound):
            if len(body.stmts) != 1:
                return False
            body = body.stmts[0]
        return isinstance(body, A.Return) and body.value is None

    def _if(self, s: A.If) -> None:
        cnt: List[int] = [0, 0]
        c, ck, cv = self.expr(s.cond, cnt)
        self.flush(cnt)
        if not cv:
            self.w(f"if {self.truth(c, ck)}:")
            self._block(lambda: self.stmt(s.then))
            if s.orelse is not None:
                self.w("else:")
                self._block(lambda: self.stmt(s.orelse))
            return
        if self._is_guard_return(s):
            # leading `if (oob) return;` guard: narrow the active set for
            # the rest of the kernel and arm the divergence flag that
            # every later barrier checks
            self.guarded = True
            m = self.aux("m")
            na = self.aux("a")
            nn = self.aux("n")
            self.w(f"{m} = _vmask({c}, {self.actn})")
            self.w(f"{na} = {self.actA}[~{m}]")
            self.w(f"{nn} = len({na})")
            self.w(f"if {nn} != {self.actn}:")
            self.ind += 1
            self.w("__R = 1")
            self.ind -= 1
            self.w(f"if not {nn}:")
            self.ind += 1
            self.w("return")
            self.ind -= 1
            self.act = (na, nn)
            self.full = False
            return
        # masked divergent if/else: each arm runs over its lane subset,
        # skipped entirely when no lane takes it (no hooks, no counts)
        m = self.aux("m")
        self.w(f"{m} = _vmask({c}, {self.actn})")
        outer = self.act
        outer_full = self.full
        ta = self.aux("a")
        tn = self.aux("n")
        self.w(f"{ta} = {outer[0]}[{m}]")
        self.w(f"{tn} = len({ta})")
        self.w(f"if {tn}:")
        self.act = (ta, tn)
        self.full = False
        self.mask_depth += 1
        self._block(lambda: self.stmt(s.then))
        self.mask_depth -= 1
        self.act = outer
        self.full = outer_full
        if s.orelse is not None:
            ea = self.aux("a")
            en = self.aux("n")
            self.w(f"{ea} = {outer[0]}[~{m}]")
            self.w(f"{en} = len({ea})")
            self.w(f"if {en}:")
            self.act = (ea, en)
            self.full = False
            self.mask_depth += 1
            self._block(lambda: self.stmt(s.orelse))
            self.mask_depth -= 1
            self.act = outer
            self.full = outer_full

    def _budget_lines(self) -> None:
        self.uses_steps = True
        self.w("__steps += 1")
        self.w(f"if __steps > {_MAX_LOOP_ITERS}:")
        self.ind += 1
        self.w("_budget()")
        self.ind -= 1

    def _loop_cond_break(self, cond: A.Node) -> None:
        cnt: List[int] = [0, 0]
        c, ck, cv = self.expr(cond, cnt)
        if cv:
            raise self.unsup("varying loop condition")
        self.flush(cnt)
        self.w(f"if not {self.truth(c, ck)}:")
        self.ind += 1
        self.w("break")
        self.ind -= 1

    def _loop_body(self, body: Optional[A.Node], need_wrap: bool,
                   has_break: bool) -> Optional[str]:
        if not need_wrap:
            self.ctx.append(("native", None, self.mask_depth))
            mark = len(self.lines)
            self.loop_depth += 1
            self.stmt(body)
            self.loop_depth -= 1
            if len(self.lines) == mark:
                self.w("pass")
            self.ctx.pop()
            return None
        flag = self.aux("b") if has_break else None
        if flag is not None:
            self.w(f"{flag} = 0")
        xv = self.aux("x")
        self.w(f"for {xv} in _ONE:")
        self.ctx.append(("wrap", flag, self.mask_depth))
        self.loop_depth += 1
        self._block(lambda: self.stmt(body))
        self.loop_depth -= 1
        self.ctx.pop()
        return flag

    def _while(self, s: A.While) -> None:
        self.w("while 1:")
        self.ind += 1
        self._budget_lines()
        self._loop_cond_break(s.cond)
        self.ctx.append(("native", None, self.mask_depth))
        mark = len(self.lines)
        self.loop_depth += 1
        self.stmt(s.body)
        self.loop_depth -= 1
        if len(self.lines) == mark:
            self.w("pass")
        self.ctx.pop()
        self.ind -= 1

    def _for(self, s: A.For) -> None:
        self.stmt(s.init)
        has_b, has_c = _scan_signals(s.body)
        self.w("while 1:")
        self.ind += 1
        self._budget_lines()
        if s.cond is not None:
            self._loop_cond_break(s.cond)
        flag = self._loop_body(s.body, need_wrap=has_c, has_break=has_b)
        if flag is not None:
            self.w(f"if {flag}:")
            self.ind += 1
            self.w("break")
            self.ind -= 1
        if s.step is not None:
            cnt: List[int] = [0, 0]
            if isinstance(s.step, A.Assign):
                mark = len(self.lines)
                self.assign_stmt(s.step, cnt)
                self.flush_at(cnt, mark)
            elif isinstance(s.step, A.UnOp) and s.step.op in ("++", "--"):
                mark = len(self.lines)
                self.incdec_stmt(s.step, cnt)
                self.flush_at(cnt, mark)
            else:
                code, _k, _v = self.expr(s.step, cnt)
                self.flush(cnt)
                self.w(code)
        self.ind -= 1

    def _break(self) -> None:
        if not self.ctx:
            raise self.unsup("break outside loop")
        kind, flag, depth = self.ctx[-1]
        if depth != self.mask_depth:
            raise self.unsup("break under a divergent mask")
        if kind == "wrap":
            if flag is None:
                raise self.unsup("break in wrapped loop without flag")
            self.w(f"{flag} = 1")
        self.w("break")

    def _continue(self) -> None:
        if not self.ctx:
            raise self.unsup("continue outside loop")
        kind, _flag, depth = self.ctx[-1]
        if depth != self.mask_depth:
            raise self.unsup("continue under a divergent mask")
        if kind == "native":
            self.w("continue")
        else:
            self.w("break")

    def _return(self, s: A.Return) -> None:
        if s.value is not None:
            raise self.unsup("value return in a kernel")
        if self.mask_depth:
            raise self.unsup("return under a divergent mask")
        self.w("return")

    # -- declarations --------------------------------------------------------

    def decl(self, d: A.VarDecl) -> None:
        name = d.name
        rec = self.names[name]
        t = d.type
        if d.space == T.AddressSpace.LOCAL:
            if "extern" in d.quals:
                elem = t.elem if isinstance(t, T.ArrayType) else t
                self.w(f"M_{name} = env.dynamic_shared_slot("
                       f"{self.u.type_ref(elem)})")
            else:
                key = f"{self.fn.name}.{name}"
                self.w(f"M_{name} = env.local_static_slot({key!r}, "
                       f"{self.u.type_ref(t)})")
            if isinstance(t, T.ArrayType) or "extern" in d.quals:
                elem = t.elem if isinstance(t, T.ArrayType) else t
                self.w(f"Md_{name} = _Ptr(M_{name}.mem, M_{name}.off, "
                       f"{self.u.type_ref(elem)})")
                self.arrays.add(name)
            return
        if rec[0] == "mem":
            raise self.unsup(f"private memory variable {name!r}")
        if not (isinstance(t, T.ScalarType) and _kind_of(t) in "if"
                and _scalar_ok(t)):
            raise self.unsup(f"register type {t!r}")
        k = _kind_of(t)
        v = f"V_{name}"
        if not self.vary.get(name):
            if d.init is not None:
                cnt: List[int] = [0, 0]
                code, rk, rv = self.expr(d.init, cnt)
                self.flush(cnt)
                if rv:
                    raise self.unsup(
                        f"varying init of uniform register {name!r}")
                self.w(f"{v} = {self.co(code, t, rk, False)}")
            elif k == "f":
                self.w(f"{v} = 0.0")
            else:
                self.w(f"{v} = 0")
            return
        dref = "_f8" if k == "f" else "_i8"
        if d.init is None:
            self.w(f"{v} = _np.zeros(__n0, {dref})")
            return
        cnt = [0, 0]
        code, rk, rv = self.expr(d.init, cnt)
        self.flush(cnt)
        val = self.co(code, t, rk, rv)
        if self.full:
            self.w(f"{v} = _own({val}, __n0, {dref})")
        else:
            self.w(f"{v} = _np.zeros(__n0, {dref})")
            self.w(f"{v}[{self.actA}] = {val}")

    # -- function assembly ---------------------------------------------------

    def emit(self) -> str:
        self.prepass()
        fn = self.fn
        self.ind = 2  # def(0) > with errstate(1) > body(2)
        for i, p in enumerate(fn.params):
            rec = self.names[p.name]
            if rec[0] == "mem":
                raise self.unsup(f"by-value aggregate parameter {p.name!r}")
            pt = p.type
            if isinstance(pt, T.ScalarType) and pt.name != "void":
                if not _scalar_ok(pt):
                    raise self.unsup(f"parameter type {pt.name}")
                self.w(f"V_{p.name} = _co(a{i}, _T_{pt.name})")
            else:
                # pointers/opaques arrive pre-coerced from the launch path
                self.w(f"V_{p.name} = a{i}")
        self.stmt(fn.body)
        body = self.lines
        self.lines = []
        self.ind = 0
        argv = ", ".join(["env"] + [f"a{i}" for i in range(len(fn.params))])
        self.w(f"def _F_{fn.name}({argv}):")
        self.ind = 1
        self.w("if False:")
        self.ind += 1
        self.w("yield")
        self.ind -= 1
        if self.uses_counts:
            self.w("__C = env.launch.counters")
        if self.uses_steps:
            self.w("__steps = 0")
        self.w("__n0 = env.n")
        self.w("__I0 = _np.arange(__n0)")
        if self.guarded:
            self.w("__R = 0")
        self.w("with _np.errstate(all='ignore'):")
        out = [("    " * ind + text) for ind, text in self.lines]
        if not body:
            body = [(2, "pass")]
        for ind, text in body:
            out.append("    " * ind + text)
        return "\n".join(out)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def vector_compile_unit(unit: A.TranslationUnit, dialect: str,
                        cs: CompiledSource) -> CompiledSource:
    """Offer every scalar-compiled kernel to the warp-batched codegen.

    Populates ``cs.vector_source`` / ``cs.vector_kernel_names`` /
    ``cs.vector_fallbacks`` in place.  The ladder invariant is that a
    vector-eligible kernel is always scalar-eligible too: kernels the
    scalar pass demoted are recorded here as scalar fallbacks so the
    vector tier demotes through the same chain.  Never raises for
    per-kernel issues.
    """
    kernels = [f for f in unit.functions()
               if f.is_kernel and f.body is not None]
    if not kernels:
        return cs
    u = _UnitCodegen(unit, dialect)
    chunks: List[str] = []
    names: List[str] = []
    fallbacks: Dict[str, str] = {}
    eligible = set(cs.kernel_names)
    for fn in kernels:
        if fn.name not in eligible:
            why = cs.fallbacks.get(fn.name, "not scalar-compiled")
            fallbacks[fn.name] = f"scalar fallback: {why}"
            continue
        try:
            chunks.append(_VecFnCodegen(u, fn).emit())
            names.append(fn.name)
        except CompileUnsupported as exc:
            fallbacks[fn.name] = str(exc)
        except Exception as exc:  # safety net: demote, never crash
            fallbacks[fn.name] = f"{type(exc).__name__}: {exc}"
    parts = [f"# generated by repro.clike.vectorize v{CODEGEN_VERSION} "
             f"(dialect={dialect})"]
    parts.extend(u._ty_lines)
    parts.extend(chunks)
    cs.vector_source = "\n".join(parts) + "\n"
    cs.vector_kernel_names = names
    cs.vector_fallbacks = fallbacks
    return cs


_VCODE_MEMO: Dict[str, Any] = {}


def bind_vector_unit(unit: A.TranslationUnit, cs: CompiledSource,
                     symbols: Dict[str, Any],
                     globals_values: Dict[str, Any]) -> Dict[str, Any]:
    """``exec`` the warp-batched source against a module's device state;
    returns ``{kernel_name: per-warp generator function}``."""
    if cs.codegen_version != CODEGEN_VERSION:
        raise CompileUnsupported(
            f"compiled artifact version {cs.codegen_version} != "
            f"{CODEGEN_VERSION}")
    if not cs.vector_kernel_names:
        return {}
    code = _VCODE_MEMO.get(cs.vector_source)
    if code is None:
        if len(_VCODE_MEMO) > 128:
            _VCODE_MEMO.clear()
        code = compile(cs.vector_source, "<repro-vector-codegen>", "exec")
        _VCODE_MEMO[cs.vector_source] = code
    ns = _vec_namespace()
    for name, ptr in symbols.items():
        ns[f"G_{name}"] = ptr
        if isinstance(ptr.ctype, T.ArrayType):
            ns[f"Gd_{name}"] = type(ptr)(ptr.mem, ptr.off, ptr.ctype.elem)
    exec(code, ns)
    return {k: ns[f"_F_{k}"] for k in cs.vector_kernel_names}
