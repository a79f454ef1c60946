"""Vector tier: warp-batched codegen over numpy lanes.

The scalar compile tier (:mod:`repro.clike.compile`) runs one generated
generator per work-item.  This module's emitter, the second subclass of
that tier's emitter core (``compile._CoreCodegen``), writes *eligible*
kernels into the same artifact's warp section: one generator per
**warp** (``_W_<kernel>``), where every statement executes all active
lanes at once over numpy arrays — vectorized loads/stores via
gather/scatter, arithmetic over integer and ``float64`` lanes, and masked
active-sets for uniformly-nested divergent branches.  The core writes
everything a uniform value needs, with the scalar tier's exact text;
this module adds what varying lanes need, plus their runtime helpers.

The contract is unchanged from the scalar tier: byte identity with the
interpreter for output buffers, performance counters, and therefore the
modeled kernel time.  Two deliberate relaxations keep batching possible:

* counter *increment order* within a run is unobservable (only the final
  totals of a successful launch are consumed), so static op counts flush
  scaled by the active-lane count instead of once per lane;
* per-site access traces are per-lane program-ordered but carry no
  cross-lane ordering, so a batched access appends to every active
  lane's trace in one sweep.

Batching does reorder memory accesses *across* lanes: a warp runs one
statement for all its lanes where the scalar tiers run each lane to its
next barrier.  Each kernel's :class:`HazardMap` marks the access sites
where that can matter, and the engine's cross-lane hazard guard records
them, undoes a launch whose warps reordered two conflicting accesses and
re-runs it on the scalar tier (:meth:`WarpEnv.check_interval`).

Everything the tier cannot mirror exactly raises
:class:`~repro.clike.compile.CompileUnsupported` for that kernel and the
engine demotes it to the scalar compiled form (and from there to the
interpreter) — the ``vector -> compiled -> interp`` ladder.  Demotion is
static and per kernel, recorded in ``CompiledSource.vector_fallbacks``,
except for the hazard guard's, which happens at run time.

The subset covers every scalar type, uniform pointer registers and
``*p``, and varying conditionals and ``&&``/``||`` whose operand has
effects (a load, or an operator that may raise, such as a division):
that operand runs as hoisted lines on the lanes selecting it (only when
nothing with effects ran earlier in the statement and no inline
conditional encloses it, so the interpreter's evaluation order holds).

Numeric fidelity notes (all mirrored, not approximated):

* integer lanes hold the interpreter's exact values: ``int64`` while
  every value fits, exact Python ints in an object array otherwise
  (unsigned 64-bit values at or past 2**63; never ``float64``, to which
  numpy promotes an int64/uint64 mix);
* float64 lane math is IEEE-identical to Python float math;
* ``float`` / ``half`` coercions round through float64 first (two-step,
  matching ``_f32``/``_f16``), and a finite value past binary32 raises
  ``_f32``'s ``OverflowError``;
* C division/modulo reproduce ``_c_div``/``_c_mod`` including the
  divide-by-zero infinities, truncation toward zero, and the exact
  ``InterpError``/``ValueError``/``OverflowError`` raises;
* ``<<`` results that could exceed 64 bits fall back to an exact
  object-dtype path, then re-wrap to the annotated width;
* stores with duplicate target offsets within a warp and loads/stores
  that fault fall back to sequential lane order so last-wins races and
  the first faulting lane match the scalar tiers; offsets are computed
  exactly, so an index past int64 faults like the interpreter.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import CrossLaneHazard, InterpError
from ..runtime.memory import Memory
from ..runtime.values import Ptr
from . import ast as A
from . import types as T
from .compile import (_CMP_OPS, _CUDA_SPECIALS, _OPENCL_IDS, _XYZ,
                      _CoreCodegen, _UnitCodegen, _f16, _f32, _kind_of)
from .interp import _apply_binop, _c_div, _c_mod, _truth
from .sema import resolve_conversion
from .stdlib import NAMED_CONSTANTS

__all__ = ["WarpEnv", "WARP_HELPERS", "HazardMap", "undo_stores"]

_I8 = np.dtype(np.int64)
_F8 = np.dtype(np.float64)
_U8 = np.dtype("<u8")

#: little-endian element dtypes per scalar name (matches memory's packing)
_DTYPES: Dict[str, np.dtype] = {
    "bool": np.dtype("<u1"), "char": np.dtype("<i1"),
    "uchar": np.dtype("<u1"), "short": np.dtype("<i2"),
    "ushort": np.dtype("<u2"), "int": np.dtype("<i4"),
    "uint": np.dtype("<u4"), "long": np.dtype("<i8"),
    "ulong": _U8, "longlong": np.dtype("<i8"), "ulonglong": _U8,
    "size_t": _U8, "half": np.dtype("<f2"),
    "float": np.dtype("<f4"), "double": np.dtype("<f8"),
}

#: per-element-size byte-offset aranges for gather/scatter index matrices
_R = {n: np.arange(n, dtype=np.int64) for n in (1, 2, 4, 8)}

_INT64_MAX_F = 9.223372036854775e18
_INT64_MIN = -(1 << 63)
_INT64_END = 1 << 63
_M64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# warp environment
# ---------------------------------------------------------------------------

class WarpEnv:
    """Per-warp execution environment: the vector tier's ``env``.

    Holds the lane-id arrays for one warp window ``[lo, hi)`` of a
    work-group and the batched accounting hooks.  Reuses the scalar
    :class:`~repro.device.engine.WorkItemEnv` logic for the shared-memory
    slots, which only touch shared launch state, and reads the same
    named-constant table, so the two tiers cannot drift.
    """

    __slots__ = ("launch", "group", "lo", "hi", "n", "lids", "_tc",
                 "lid0", "lid1", "lid2", "gid0", "gid1", "gid2",
                 "hz", "hzlog", "undo")

    def __init__(self, launch: Any, group: Tuple[int, int, int],
                 lo: int, hi: int) -> None:
        self.launch = launch
        self.group = group
        self.lo = lo
        self.hi = hi
        self.n = hi - lo
        #: access sites the cross-lane hazard guard records (empty: the
        #: launch is unguarded), this barrier interval's records, and the
        #: launch's undo log of global stores (None when unguarded)
        self.hz = launch.hazard_sites
        self.hzlog: List[_Rec] = []
        self.undo = launch.undo
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

    # -- shared state: the scalar env's slots, the constants table -----------

    def local_static_slot(self, name: str, ctype: T.Type) -> Ptr:
        from ..device.engine import WorkItemEnv
        return WorkItemEnv.local_static_slot(self, name, ctype)

    def dynamic_shared_slot(self, elem: T.Type) -> Ptr:
        from ..device.engine import WorkItemEnv
        return WorkItemEnv.dynamic_shared_slot(self, elem)

    def constant(self, name: str) -> Any:
        return NAMED_CONSTANTS[name]

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

    # -- cross-lane hazard guard ---------------------------------------------

    def guard(self, mem: Memory, offs: np.ndarray, esz: int, site: int,
              store: bool, al: np.ndarray,
              wire: Optional[np.ndarray] = None) -> None:
        """Record one batched access for the guard: a marked site's lanes,
        offsets and stored element values (``wire``; None for a store
        whose values are not known yet), and a store's old global bytes
        for the undo log."""
        if site in self.hz:
            self.hzlog.append((site, mem, offs, al, esz, store, wire))
        if store and mem.space is not _SPL and len(offs):
            old = mem.buf[offs[:, None] + _R[esz]]
            self.undo.append((mem, offs, esz, old))

    def check_interval(self) -> None:
        """End of a barrier interval: raise :class:`CrossLaneHazard` when
        a lower lane's recorded access to a byte another lane accessed
        came later in batched order, one of them a store."""
        log = self.hzlog
        if log:
            self.hzlog = []
            site = _inversion(log)
            if site is not None:
                raise CrossLaneHazard(self.launch.hazard_names[site])


#: one guarded access: site, memory, offsets, lane positions, element
#: size, store flag, stored element values (None: unknown)
_Rec = Tuple[int, Memory, np.ndarray, np.ndarray, int, bool,
             Optional[np.ndarray]]


def _inversion(log: List[_Rec]) -> Optional[int]:
    """The site of a conflicting access that batching reordered, or None.

    Record ``t`` of ``log`` ran before record ``t + 1``; inside one
    record the lanes ran in lane order.  Keyed by byte, an access by lane
    ``k`` inverts when an earlier record accessed its byte from a lane
    above ``k`` and one of the two accesses is a store.  Two stores of
    the same value to a byte that no store writes otherwise leave memory
    as lane order would, and do not count."""
    if len(log) < 2 or not any(r[5] for r in log):
        return None
    mems: Dict[int, int] = {}
    keys = [(r[2][:, None] + _R[r[4]]).ravel()
            + (mems.setdefault(id(r[1]), len(mems)) << 40) for r in log]
    # prefilter, linear in the accesses: no byte is stored by two
    # records, or stored by one and loaded by another
    stored: Set[int] = set()
    nstored = 0
    for r, k in zip(log, keys):
        if r[5]:
            got = set(k.tolist())
            nstored += len(got)
            stored |= got
    if nstored == len(stored) and all(
            stored.isdisjoint(k.tolist())
            for r, k in zip(log, keys) if not r[5]):
        return None
    lens = [len(k) for k in keys]
    key = np.concatenate(keys)
    # the records' lanes ascend, so a stable sort by byte leaves each
    # byte's accesses in batched order
    order = np.argsort(key, kind="stable")
    key = key[order]
    lane = np.concatenate([np.repeat(r[3], r[4]) for r in log])[order]
    st = np.repeat([r[5] for r in log], lens)[order]
    first = np.r_[True, key[1:] != key[:-1]]
    grp = np.cumsum(first) - 1
    tagged = (grp << 20) + lane
    # highest lane among the earlier loads / stores of the same byte, or
    # below the byte's tags when there is none
    prev_ld = np.r_[-1, np.maximum.accumulate(
        np.where(st, -1, tagged))[:-1]]
    prev_st = np.r_[-1, np.maximum.accumulate(
        np.where(st, tagged, -1))[:-1]]
    after_st = prev_st > tagged
    inv = np.where(st, prev_ld > tagged, after_st)
    two = st & after_st
    if two.any():
        # a store after a higher lane's store counts unless every store
        # of the byte wrote one known value (a load carries none)
        val = np.concatenate([
            r[6].view(np.uint8).astype(_I8) if r[6] is not None
            else np.full(n, -1 - r[5], dtype=_I8)
            for r, n in zip(log, lens)])[order]
        starts = np.flatnonzero(first)
        lo = np.minimum.reduceat(np.where(st, val, _INT64_END - 1), starts)
        hi = np.maximum.reduceat(np.where(st, val, -1), starts)
        inv |= two & ~((lo == hi) & (lo >= 0))[grp]
    if not inv.any():
        return None
    at = int(order[int(np.argmax(inv))])
    return log[int(np.searchsorted(np.cumsum(lens), at, side="right"))][0]


def undo_stores(log: List[Tuple[Memory, np.ndarray, int, np.ndarray]]
                ) -> None:
    """Put back the bytes a guarded launch's global stores overwrote
    (:meth:`WarpEnv.guard` logs them), newest store first."""
    for mem, offs, esz, old in reversed(log):
        mem.buf[offs[:, None] + _R[esz]] = old


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


def _vsel(m: np.ndarray, x: Any, y: Any, n: int, dt: np.dtype) -> np.ndarray:
    """Merge a varying conditional's arms, each evaluated only on the
    lanes that select it (``None``: no lane did), over ``n`` lanes."""
    if _isobj(x) or _isobj(y):
        dt = np.dtype(object)
    r = np.empty(n, dtype=dt)
    if x is not None:
        r[m] = x
    if y is not None:
        r[~m] = y
    return r


def _vlog(m: np.ndarray, t: Any, conj: bool) -> np.ndarray:
    """Varying ``a && b`` (``conj``) or ``a || b`` whose rhs ``t`` was
    evaluated only on the lanes the lhs mask ``m`` did not decide."""
    r = m.astype(_I8)
    if t is not None:
        tt = t != 0 if isinstance(t, np.ndarray) else bool(_truth(t))
        if conj:
            r[m] = tt
        else:
            r[~m] = tt
    return r


# -- exact integer lanes: int64 while every value fits, object otherwise ----

def _isobj(v: Any) -> bool:
    """Whether ``v`` needs object lanes: an object array, or a Python int
    outside int64."""
    if isinstance(v, np.ndarray):
        return v.dtype == object
    return type(v) is int and not _INT64_MIN <= v < _INT64_END


def _lanes(vals: List[int]) -> np.ndarray:
    """Exact int lane values: int64 when every value fits, else object."""
    try:
        return np.array(vals, dtype=_I8)
    except OverflowError:
        return np.array(vals, dtype=object)


def _vbig(x: Any) -> Any:
    """A uniform int outside int64 as a 0-d object array, so lane
    arithmetic with it stays exact (numpy raises ``OverflowError`` when
    such an int meets int64 lanes, and may wrap it in ``np.where``)."""
    if type(x) is int and not _INT64_MIN <= x < _INT64_END:
        return np.array(x, dtype=object)
    return x


def _vu64(x: Any) -> Any:
    """Wrap lane values to unsigned 64-bit, exactly: int64 lanes while
    every value is below 2**63, object lanes otherwise."""
    if not isinstance(x, np.ndarray):
        return int(x) & _M64
    if x.dtype == object:
        if x.ndim == 0:
            return int(x.item()) & _M64
        return _lanes([int(v) & _M64 for v in x.tolist()])
    if x.size and int(x.min()) < 0:
        return np.array([v & _M64 for v in x.tolist()], dtype=object)
    return x


def _vput(reg: np.ndarray, al: np.ndarray, v: Any) -> np.ndarray:
    """``reg[al] = v`` on an unsigned 64-bit register array, moved to
    object lanes first when ``v`` needs them."""
    if reg.dtype != object and _isobj(v):
        reg = reg.astype(object)
    reg[al] = v
    return reg


def _vix(x: Any) -> Any:
    """Lane-wise C int cast (truncation), with the interpreter's exact
    error behaviour for non-finite floats and exact big-int results."""
    if isinstance(x, np.ndarray):
        if x.dtype == object:
            if x.ndim == 0:
                return np.array(int(x.item()), dtype=object)
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
        if x.dtype.kind == "f":
            return x
        return x.astype(_F8)
    return float(x)


def _narrow(fv: np.ndarray, dt: np.dtype) -> np.ndarray:
    """``fv.astype(dt)``, where a finite lane that overflows binary32
    raises the interpreter's packing error (``_f32``, ``write_scalar``)."""
    r = fv.astype(dt)
    if (dt.itemsize == 4 and not np.isfinite(r).all()
            and (np.isinf(r) & np.isfinite(fv)).any()):
        raise OverflowError("float too large to pack with f format")
    return r


def _vf32(x: Any) -> Any:
    """Lane-wise binary32 round-trip; rounds through float64 first so int
    lanes double-round exactly like ``_f32(float(v))``."""
    if isinstance(x, np.ndarray):
        return _narrow(_vfl(x), _DTYPES["float"]).astype(_F8)
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
    aa = np.asarray(_vbig(a))
    bb = np.asarray(_vbig(b))
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
    interpreter's exact divide-by-zero raise.  INT64_MIN / -1, whose
    quotient 2**63 leaves int64, takes the exact object-dtype path."""
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return _c_div(a, b)
    aa = np.asarray(_vbig(a))
    bb = np.asarray(_vbig(b))
    if (bb == 0).any():
        raise InterpError("integer division by zero")
    if ((aa == _INT64_MIN) & (bb == -1)).any():
        n = max(aa.size, bb.size)
        return np.array([_c_div(x, y) for x, y in zip(
            np.broadcast_to(aa, (n,)).tolist(),
            np.broadcast_to(bb, (n,)).tolist())], dtype=object)
    with np.errstate(all="ignore"):
        q = aa // bb
        # floor division rounds down; truncation steps up where the
        # division is inexact and the signs differ
        return q + ((q * bb != aa) & ((aa < 0) != (bb < 0)))


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
    a, b = _vbig(a), _vbig(b)
    bb = np.asarray(b)
    if (bb == 0).any():
        raise InterpError("integer modulo by zero")
    return a - _vdvi(a, b) * b


def _vab(op: str, a: Any, b: Any) -> Any:
    """Uncounted compound-assign apply step over lanes (the vector twin of
    ``_apply_code``; operand kinds were statically checked as scalar)."""
    a, b = _vbig(a), _vbig(b)
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
            return v.astype(_F8) if dt is _F8 else _lanes(v.tolist())
        return v.astype(dt, copy=True)
    if _isobj(v):
        return np.full(n, v, dtype=object)
    return np.full(n, v, dtype=dt)


def _offsets(p: Ptr, i: Any, n: int, esz: int) -> np.ndarray:
    """Byte offsets of ``p[i]`` on ``n`` active lanes, bounds-checked:
    the first out-of-bounds lane, in lane order, raises the interpreter's
    ``MemoryFault``.  Offsets are computed exactly, so an index past
    int64 faults instead of wrapping."""
    mem = p.mem
    off = p.off
    if not isinstance(i, np.ndarray):
        o = off + int(i) * esz
        if n and (o < 0 or o + esz > mem._size):
            mem._check(o, esz)
        return np.full(n, o, dtype=_I8)
    if i.dtype != _I8:
        i = _lanes(i.tolist()) if i.dtype == object else i.astype(_I8)
    if len(i):
        lo = off + int(i.min()) * esz
        hi = off + int(i.max()) * esz + esz
        if lo < 0 or hi > mem._size:
            for v in i.tolist():
                mem._check(off + v * esz, esz)  # first faulting lane
    return off + i * esz


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
    if dt is _U8 and len(vals) and int(vals.max()) >= _INT64_END:
        return np.array(vals.tolist(), dtype=object)
    return vals.astype(_I8)


def _towire(v: Any, n: int, dt: np.dtype, esz: int) -> np.ndarray:
    """Convert lane values to the element wire format (the write_scalar
    float()/wrap conversions, batched)."""
    if dt.kind == "f":
        if isinstance(v, np.ndarray):
            fv = _vfl(v)
            if fv.dtype == dt and fv.flags.c_contiguous:
                return fv
            return _narrow(fv, dt)
        return _narrow(np.full(n, float(v)), dt)
    iv = _vix(v)
    if isinstance(iv, np.ndarray):
        if iv.dtype == object:
            m = (1 << (8 * esz)) - 1
            h = 1 << (8 * esz - 1)
            out = [int(x) & m for x in np.broadcast_to(iv, (n,)).tolist()]
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
    offs = _offsets(p, i, len(al), esz)
    mem = p.mem
    env.vaccess(mem, offs, esz, site, True, al)
    if env.hz:
        env.guard(mem, offs, esz, site, False, al)
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
    offs = _offsets(p, i, len(al), esz)
    mem = p.mem
    env.vaccess(mem, offs, esz, site, False, al)
    wire = _towire(v, len(offs), dt, esz)
    if env.hz:
        env.guard(mem, offs, esz, site, True, al, wire)
    _scatter(mem, offs, wire, esz, not p.off & (esz - 1))
    return v


def _vstixc(env: WarpEnv, p: Ptr, i: Any, op: str, v: Any, al: np.ndarray,
            esz: int, dt: np.dtype, site: int) -> Any:
    """Batched ``p[i] op= v``: load-hook + gather, uncounted apply,
    store-hook + scatter.  Duplicate targets run the whole read-modify-
    write sequentially per lane (the scalar accumulation order)."""
    offs = _offsets(p, i, len(al), esz)
    mem = p.mem
    n = len(offs)
    env.vaccess(mem, offs, esz, site, True, al)
    if env.hz:
        # one record: the lanes' read-modify-writes conflict like stores,
        # and duplicate targets below run them in lane order
        env.guard(mem, offs, esz, site, True, al)
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
        return np.array(out, dtype=_F8) if dt.kind == "f" else _lanes(out)
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
    if env.hz:
        env.guard(p.mem, offs, sz, site, False, al)
    return p.load()


def _vdiverge(env: WarpEnv) -> "Exception":
    """Intra-warp barrier divergence: some lanes of this warp returned
    (guard-style) and the rest reached a barrier.  Raise the scheduler's
    exact error."""
    from ..device.sched import divergence_error
    return divergence_error(env.launch.kernel.name, env.launch.kernel.fn)


#: the warp section's helpers, added to the scalar section's namespace
#: (:func:`repro.clike.compile.bind_unit`), which holds everything else
#: it calls
WARP_HELPERS: Dict[str, Any] = {
    "_np": np, "_i8": _I8, "_f8": _F8,
    "_vtr": _vtr, "_vmask": _vmask, "_vsc": _vsc, "_vnz": _vnz,
    "_vand": _vand, "_vor": _vor, "_vcond": _vcond, "_vix": _vix, "_vfl": _vfl,
    "_vf32": _vf32, "_vf16": _vf16, "_vw64": _vw64, "_vshl": _vshl,
    "_vdvf": _vdvf, "_vdvi": _vdvi, "_vmdf": _vmdf, "_vmdi": _vmdi,
    "_vab": _vab, "_own": _own, "_vldix": _vldix, "_vstix": _vstix,
    "_vstixc": _vstixc, "_vldu": _vldu, "_vdiverge": _vdiverge,
    "_vsel": _vsel, "_vlog": _vlog, "_vbig": _vbig, "_vu64": _vu64,
    "_vput": _vput,
    **{f"_D_{name}": dt for name, dt in _DTYPES.items()},
}


# ---------------------------------------------------------------------------
# static classification
# ---------------------------------------------------------------------------

#: runtime kinds of the uniform names ``_dynid`` can resolve: the named
#: constants and CUDA's ``warpSize``
_CONST_KINDS = {name: "f" if isinstance(v, float) else "i"
                for name, v in NAMED_CONSTANTS.items()}
_CONST_KINDS["warpSize"] = "i"

#: OpenCL work-item builtins that vary per lane
_VARYING_IDS = frozenset({"get_global_id", "get_local_id"})


def _scalar(t: Optional[T.Type]) -> bool:
    """Scalar types the vector tier holds in lanes: int64 or exact object
    lanes for integers, float64 for floating types."""
    return isinstance(t, T.ScalarType) and t.name != "void"


def _wide(t: Optional[T.Type]) -> bool:
    """Unsigned 64-bit integer types, whose values may leave int64."""
    return (isinstance(t, T.ScalarType) and not t.floating
            and not t.signed and t.size == 8)


def _raises(e: A.Node) -> bool:
    """Whether the interpreter may raise applying ``e``'s own operator:
    an integer ``/`` or ``%`` by zero, ``fmod``'s domain errors, a
    negative shift count, the ``int()`` of a non-finite float (a cast to
    an integer type, a bitwise operator on a float) and a ``float``
    narrowing that overflows."""
    k = type(e)
    if k is A.Cast:
        t = e.type
        if not isinstance(t, T.ScalarType):
            return False
        src = _kind_of(e.expr.ctype)
        if t.floating:
            return t.size == 4 and src == "f"
        return src != "i"
    if k is A.UnOp:
        return e.op == "~" and _kind_of(e.operand.ctype) != "i"
    if k is not A.BinOp:
        return False
    op = e.op
    kinds = {_kind_of(e.lhs.ctype), _kind_of(e.rhs.ctype)}
    ints = kinds == {"i"}
    if op == "/" and "f" in kinds:
        return False  # a float division by zero is an infinity
    if op in ("/", "%", "<<", ">>"):
        # safe by a literal: a nonzero divisor, any shift count
        lit = e.rhs.value if isinstance(e.rhs, A.IntLit) else None
        return (not ints or lit is None
                or (lit == 0 and op in ("/", "%")))
    return op in ("&", "|", "^") and not ints


def _elem_of(bt: Optional[T.Type]) -> Optional[T.Type]:
    if isinstance(bt, T.PointerType):
        return bt.pointee
    if isinstance(bt, T.ArrayType):
        return bt.elem
    return None


# ---------------------------------------------------------------------------
# cross-lane hazard map
# ---------------------------------------------------------------------------

#: one access site as the hazard analysis sees it: its memory base (one
#: key per region that may be accessed: ``('g', param)`` global,
#: ``('c', param)`` constant, ``('l', name)`` a distinct local region,
#: ``('s', '')`` the extern shared region, ``('?', '')`` unknown), whether
#: it stores, its lane-own index ``(dim, index, element size, pointer)``
#: or None, and whether it sits in a loop
_Acc = Tuple[int, Tuple[str, str], bool, Optional[Tuple], bool]


class HazardMap:
    """A vectorized kernel's access sites, per barrier interval, for the
    engine's cross-lane hazard guard.

    :meth:`sites` names the sites a launch must record: those of every
    memory base that one interval both stores and loads, or stores at
    two sites (or at one site in a loop).  A base whose accesses in the
    interval all use one lane-own index (a lane id plus a uniform, on
    a dimension whose ids are distinct within each warp of the launch)
    stays unrecorded.  With ``aliased`` (two global pointer arguments
    share an allocation) the global bases are one base."""

    def __init__(self, intervals: List[List[_Acc]],
                 names: Dict[int, str]) -> None:
        self.intervals = intervals
        #: site -> the name of the memory it accesses, for the reason
        self.names = names
        #: whether merging the global bases can mark more sites
        self.alias_sensitive = any(
            len({a[1] for a in iv if a[1][0] in "gc"}) > 1
            and any(a[2] and a[1][0] in "gc" for a in iv)
            for iv in intervals)
        self._memo: Dict[Tuple[bool, Tuple[int, ...]], frozenset] = {}

    def sites(self, aliased: bool, own_dims: Tuple[int, ...]) -> frozenset:
        memo_key = (aliased and self.alias_sensitive, own_dims)
        got = self._memo.get(memo_key)
        if got is not None:
            return got
        marked: Set[int] = set()
        for iv in self.intervals:
            unknown = any(a[1][0] == "?" for a in iv)
            groups: Dict[Tuple[str, str], List[_Acc]] = {}
            for a in iv:
                key = a[1]
                if unknown:
                    key = ("?", "")
                elif memo_key[0] and key[0] in "gc":
                    key = ("g", "")
                groups.setdefault(key, []).append(a)
            for accs in groups.values():
                if not any(a[2] for a in accs):
                    continue
                if len(accs) == 1 and not accs[0][4]:
                    continue
                own = accs[0][3]
                if (own is not None and own[0] in own_dims
                        and all(a[3] == own for a in accs)):
                    continue
                marked.update(a[0] for a in accs)
        got = self._memo[memo_key] = frozenset(marked)
        return got


_UNKNOWN = (("?", ""), "?", None)


# ---------------------------------------------------------------------------
# per-kernel vector codegen
# ---------------------------------------------------------------------------

class _VecFnCodegen(_CoreCodegen):
    """Lower one kernel to a per-warp generator.

    Values are either *uniform* (Python scalars, emitted with the scalar
    tier's exact expression text, which the shared core writes) or
    *varying* (numpy arrays over the currently active lanes).
    Divergent-but-uniformly-nested ``if`` statements narrow the active
    lane-index set; a leading ``if (cond) return;`` guard narrows it
    permanently and arms the ``__R`` divergence flag checked at every
    later barrier.  A varying conditional or ``&&``/``||`` whose operand
    has effects (a load) evaluates that operand as hoisted lines over the
    lanes that select it, then merges.
    """

    def __init__(self, u: _UnitCodegen, fn: A.FunctionDecl) -> None:
        super().__init__(u, fn)
        self.guarded = False
        self.full = True
        self.act = ("__I0", "__n0")
        self.vary: Dict[str, bool] = {}
        #: inline conditional contexts around the expression being
        #: emitted (hoisted lines there would run unconditionally)
        self.inline = 0
        #: whether the statement being emitted already evaluated an
        #: operand with effects in its own text (hoisting a later one
        #: would reorder the two)
        self.impure = False
        #: access node id -> its hazard-analysis record and base name
        self.accs: Dict[int, Tuple[_Acc, str]] = {}
        self._own: Optional[Dict[str, int]] = None
        self._bases: Dict[str, Tuple[Tuple[str, str], str,
                                     Optional[str]]] = {}
        self._extern_names: Optional[Set[str]] = None

    # -- infrastructure ------------------------------------------------------

    @property
    def actA(self) -> str:
        return self.act[0]

    @property
    def actn(self) -> str:
        return self.act[1]

    def count_scale(self) -> str:
        return f" * {self.actn}"

    def uniform(self, e: A.Node, cnt: List[int],
                why: str) -> Tuple[str, str]:
        c, k, vary = self.expr(e, cnt)
        if vary:
            raise self.unsup(why)
        return c, k

    def rread(self, name: str) -> str:
        if self.full:
            return f"V_{name}"
        return f"V_{name}[{self.actA}]"

    # -- prepass: name classes + uniformity fixpoint -------------------------

    def prepass(self) -> None:
        super().prepass()
        if self.retyped:
            raise self.unsup(
                f"conflicting redeclaration of {min(self.retyped)!r}")
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
            # a load through a pointer runs per lane, like an Index
            return e.op == "*" or self._evary(e.operand)
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
        """No hooks, no counts beyond static ones, no writes, no raise:
        safe to pre-evaluate eagerly for a varying short-circuit
        operand."""
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
            return (not _raises(e) and self._pure(e.lhs)
                    and self._pure(e.rhs))
        if k is A.UnOp:
            return (e.op in ("-", "+", "!", "~") and not _raises(e)
                    and self._pure(e.operand))
        if k is A.Cond:
            return (self._pure(e.cond) and self._pure(e.then)
                    and self._pure(e.orelse))
        if k is A.Cast:
            return (isinstance(e.type, T.ScalarType) and not _raises(e)
                    and self._pure(e.expr))
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
            return self.load(e, e.base, e.index, cnt)
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
                self.impure = True
                return (f"_vldu(env, M_{name}, {self.actA}, "
                        f"{self._site(e, e, False, None)})",
                        _kind_of(t), False)
            raise self.unsup(f"non-scalar memory variable {name!r}")
        if name in self.u.sym_names:
            for d in self.u.unit.decls:
                if isinstance(d, A.VarDecl) and d.name == name:
                    if isinstance(d.type, T.ArrayType):
                        return f"Gd_{name}", "p", False
                    if isinstance(d.type, T.ScalarType):
                        self.impure = True
                        return (f"_vldu(env, G_{name}, {self.actA}, "
                                f"{self._site(e, e, False, None)})",
                                _kind_of(d.type), False)
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

    def intwrap(self, code: str, st: T.ScalarType,
                vary: bool = False) -> str:
        if vary and st.size == 8:
            return f"_vw64({code})" if st.signed else f"_vu64({code})"
        return super().intwrap(code, st)

    def binop(self, e: A.BinOp, cnt: List[int]) -> Tuple[str, str, bool]:
        op = e.op
        if op in ("&&", "||"):
            return self.logical(e, cnt)
        a, ak, av = self.expr(e.lhs, cnt)
        b, bk, bv = self.expr(e.rhs, cnt)
        if _raises(e):
            self.impure = True
        if "p" in (ak, bk):
            return self._pointer_arith(e, a, ak, av, b, bk, bv, cnt)
        if ak not in "if" or bk not in "if":
            raise self.unsup(f"operator {op!r} on kinds {ak}{bk}")
        if not (av or bv):
            return (*self.arith(e, a, ak, b, bk, cnt), False)
        flop, wrap = self._op_shape(e, ak, bk, cnt)
        # unsigned 64-bit operands: a float operation converts them to
        # float first, as Python does; int lanes meet a uniform that may
        # leave int64 as an object value
        if flop and op in ("+", "-", "*", "/", "%"):
            if ak == "i" and _wide(e.lhs.ctype):
                a = f"_vfl({a})"
            if bk == "i" and _wide(e.rhs.ctype):
                b = f"_vfl({b})"
        elif not flop:
            if not av and _wide(e.lhs.ctype):
                a = f"_vbig({a})"
            if not bv and _wide(e.rhs.ctype):
                b = f"_vbig({b})"
        rt = e.ctype
        if op in ("+", "-", "*"):
            code = f"({a} {op} {b})"
            if flop:
                return code, "f", True
            if wrap:
                return self.intwrap(code, rt, True), "i", True
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
                    return self.intwrap(code, rt, True), "i", True
                raise self.unsup("unannotated varying shift")
            return f"({a} {op} {b})", "i", True
        raise self.unsup(f"operator {op!r}")

    def _pointer_arith(self, e: A.BinOp, a: str, ak: str, av: bool, b: str,
                       bk: str, bv: bool,
                       cnt: List[int]) -> Tuple[str, str, bool]:
        """Uniform pointer plus or minus a uniform int: the interpreter's
        pointer arithmetic, one iop per active lane as ``_bop`` counts."""
        if (av or bv or e.op not in ("+", "-") or (ak, bk) not in (
                ("p", "i"), ("i", "p")) or (e.op == "-" and ak != "p")):
            raise self.unsup(f"operator {e.op!r} on kinds {ak}{bk}")
        cnt[1] += 1
        return f"_pb({e.op!r}, {a}, {b})", "p", False

    def _lane_arm(self, sel: str, e: A.Node) -> Tuple[str, str]:
        """Hoist ``e`` as lines evaluating it over the active lanes mask
        ``sel`` keeps, its static counts scaled by their number; returns
        the temp holding its value (None when no lane selects it) and its
        kind.  Callers hoist only when nothing with effects ran earlier in
        the statement's text and no inline conditional encloses ``e``."""
        v = self.tmp()
        self.w(f"{v} = None")
        kind: List[str] = []

        def arm() -> None:
            self.impure = False
            ac: List[int] = [0, 0]
            code, k, _vary = self.expr(e, ac)
            self.flush(ac)
            self.w(f"{v} = {code}")
            kind.append(k)
        self._on_lanes(sel, arm)
        return v, kind[0]

    def logical(self, e: A.BinOp, cnt: List[int]) -> Tuple[str, str, bool]:
        op = e.op
        before = self.impure
        a, ak, av = self.expr(e.lhs, cnt)
        if av and not self._pure(e.rhs):
            if before or self.inline or ak not in "if":
                raise self.unsup(f"impure rhs of varying {op!r}")
            m = self.aux("m")
            self.w(f"{m} = _vmask({a}, {self.actn})")
            t, bk = self._lane_arm(m if op == "&&" else f"~{m}", e.rhs)
            if bk not in "if":
                raise self.unsup(f"{op!r} on kinds {ak}{bk}")
            self.impure = before
            return f"_vlog({m}, {t}, {op == '&&'})", "i", True
        rc: List[int] = [0, 0]
        self.inline += 1
        b, bk, bv = self.expr(e.rhs, rc)
        self.inline -= 1
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
        before = self.impure
        c, ck, cv = self.expr(e.cond, cnt)
        if not cv:
            self.inline += 1
            tc: List[int] = [0, 0]
            a, ak, av = self.expr(e.then, tc)
            ec: List[int] = [0, 0]
            b, bk, bv = self.expr(e.orelse, ec)
            self.inline -= 1
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
            if before or self.inline:
                raise self.unsup("impure arm of varying conditional")
            # each arm runs, with its loads, on the lanes selecting it
            m = self.aux("m")
            self.w(f"{m} = _vmask({c}, {self.actn})")
            x, ak = self._lane_arm(m, e.then)
            y, bk = self._lane_arm(f"~{m}", e.orelse)
            if ak != bk or ak not in "if":
                raise self.unsup("mixed-kind varying conditional")
            self.impure = before
            dref = "_f8" if ak == "f" else "_i8"
            return f"_vsel({m}, {x}, {y}, {self.actn}, {dref})", ak, True
        tc = [0, 0]
        a, ak, av = self.expr(e.then, tc)
        ec = [0, 0]
        b, bk, bv = self.expr(e.orelse, ec)
        if ak != bk or ak not in "if":
            raise self.unsup("mixed-kind varying conditional")
        if not av and _wide(e.then.ctype):
            a = f"_vbig({a})"
        if not bv and _wide(e.orelse.ctype):
            b = f"_vbig({b})"
        self.uses_counts = True
        return (f"_vcond(__C, {c}, {a}, {tc[0]}, {tc[1]}, {b}, {ec[0]}, "
                f"{ec[1]}, {self.actn})", ak, True)

    def unop(self, e: A.UnOp, cnt: List[int]) -> Tuple[str, str, bool]:
        op = e.op
        if op in ("++", "--"):
            return self.incdec_expr(e)
        if op == "*":
            return self.load(e, e.operand, None, cnt)
        if op == "&":
            raise self.unsup(f"unary operator {op!r}")
        code, k, vary = self.expr(e.operand, cnt)
        if _raises(e):
            self.impure = True
        if op == "-" and k not in "if":
            raise self.unsup("unary minus on this kind")
        if op == "~" and k not in "if":
            raise self.unsup("~ on this kind")
        if vary and op == "!":
            return f"((({code}) == 0).astype(_i8))", "i", True
        if vary and op == "~":
            return f"(~_vix({code}))", "i", True
        return (*self._unary(op, code, k), vary)

    def incdec_expr(self, e: A.UnOp) -> Tuple[str, str, bool]:
        t = e.operand
        if not isinstance(t, A.Ident):
            raise self.unsup("++/-- on a non-register")
        rec = self.names.get(t.name)
        if rec is None or rec[0] != "reg" or self.vary.get(t.name):
            raise self.unsup("++/-- on a non-uniform register")
        dt = rec[1]
        k = _kind_of(dt)
        if k not in "if":
            raise self.unsup("++/-- on this kind")
        sign = "+" if e.op == "++" else "-"
        code, k = self._reg_incdec(
            e, f"V_{t.name}", lambda cur: self._stepped(cur, dt, k, sign), k,
            False)
        self.impure = True
        return code, k, False

    def _elem(self, base: A.Node, index: Optional[A.Node], cnt: List[int],
              store: bool) -> Tuple[str, str, T.ScalarType]:
        """``(pointer, index, element type)`` code of the element
        ``base[index]`` (``*base`` when ``index`` is None) through a
        uniform pointer."""
        elem = _elem_of(base.ctype if isinstance(base, A.Expr) else None)
        if not (_scalar(elem) and elem.name in _DTYPES):
            raise self.unsup(
                f"{'stored' if store else 'indexed'} element type {elem!r}")
        p, pk, pv = self.expr(base, cnt)
        if pk != "p" or pv:
            raise self.unsup("store through a non-uniform pointer" if store
                             else "index on a non-uniform pointer")
        if index is None:
            return p, "0", elem
        idx, ik, _iv = self.expr(index, cnt)
        if ik == "f":
            idx = f"_vix({idx})"
        elif ik != "i":
            raise self.unsup("non-integer store index" if store
                             else "non-integer index")
        return p, idx, elem

    def load(self, e: A.Node, base: A.Node, index: Optional[A.Node],
             cnt: List[int]) -> Tuple[str, str, bool]:
        """``base[index]`` or ``*base`` as an rvalue, over the active
        lanes."""
        p, idx, elem = self._elem(base, index, cnt, False)
        site = self._site(e, base, False, index)
        self.impure = True
        return (f"_vldix(env, {p}, {idx}, {self.actA}, {elem.size}, "
                f"_D_{elem.name}, {site})", _kind_of(elem), True)

    def member(self, e: A.Member, cnt: List[int]) -> Tuple[str, str, bool]:
        code = self._dim_register(e)
        if code is None:
            raise self.unsup(f"member access .{e.name}")
        if e.base.name != "threadIdx":
            return code, "i", False
        code = f"env.lid{_XYZ[e.name]}"
        if not self.full:
            code = f"{code}[{self.actA}]"
        return code, "i", True

    def co(self, code: str, t: T.Type, k: str, vary: bool = False) -> str:
        if isinstance(t, T.PointerType) and k == "p" and not vary:
            return super().co(code, t, k)
        if not _scalar(t):
            raise self.unsup(f"coercion to {t!r}")
        if not vary:
            return super().co(code, t, k)
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
        return self.intwrap(code, t, True)

    def cast(self, e: A.Cast, cnt: List[int]) -> Tuple[str, str, bool]:
        t = e.type
        if isinstance(e.expr, A.InitList):
            raise self.unsup("compound literal")
        code, k, vary = self.expr(e.expr, cnt)
        if _raises(e):
            self.impure = True
        if isinstance(t, T.PointerType) and k == "p" and not vary:
            # the scalar tier's text: a retyped view of the same pointer
            return f"_cast({code}, {self.tref(t)})", "p", False
        if not isinstance(t, T.ScalarType):
            raise self.unsup(f"cast to {t!r}")
        return self.co(code, t, k, vary), _kind_of(t), vary

    def sizeof(self, e: A.SizeOf) -> Tuple[str, str, bool]:
        size = self._static_size(e)
        if size is None:
            raise self.unsup("sizeof on unsized expression")
        return size, "i", False

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
        attr = {"get_global_id": "gid", "get_local_id": "lid"}.get(name)
        if (attr is not None and self.u.dialect_name == "opencl"
                and len(e.args) == 1):
            arg = e.args[0]
            if isinstance(arg, A.IntLit) and arg.value in (0, 1, 2):
                code = f"env.{attr}{arg.value}"
            else:
                d, dk = self.uniform(arg, cnt, "varying dimension argument")
                if dk != "i":
                    d = f"int({d})"
                code = (f"(env.{attr}0, env.{attr}1, "
                        f"env.{attr}2)[{d}]")
            if not self.full:
                code = f"{code}[{self.actA}]"
            return code, "i", True
        query = self._work_item_query(e, cnt)
        if query is not None:
            return (*query, False)
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

    def expr_stmt(self, e: A.Node) -> None:
        cnt: List[int] = [0, 0]
        if (isinstance(e, A.Call)
                and e.callee_name in self.u.barrier_names):
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
        self._plain_stmt(e, cnt)

    def _plain_stmt(self, e: A.Node, cnt: List[int]) -> None:
        self.impure = False
        super()._plain_stmt(e, cnt)

    def _loop_cond_break(self, cond: A.Node) -> None:
        self.impure = False
        super()._loop_cond_break(cond)

    def _step(self, e: A.Node) -> None:
        # a for step runs in statement form, over the active lanes
        self._plain_stmt(e, [0, 0])

    def _other_stmt(self, s: A.Node) -> None:
        raise self.unsup(f"cannot vectorize {type(s).__name__} statement")

    def _apply(self, op: str, cur: str, rhs: str, tk: str, rk: str,
               vary: bool) -> Tuple[str, str]:
        """Compound-assign apply step (uncounted): the scalar tier's text
        on a uniform register, lane-wise on a varying one."""
        if tk not in "if" or rk not in "if":
            raise self.unsup(f"compound {op}= on kinds {tk}{rk}")
        if not vary:
            return self._apply_code(op, cur, rhs, tk, rk)
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

    def _set_varying(self, name: str, val: str, k: str) -> None:
        """Store ``val`` into the active lanes of varying register
        ``name``."""
        if self.full:
            dref = "_f8" if k == "f" else "_i8"
            self.w(f"V_{name} = _own({val}, __n0, {dref})")
        elif _wide(self.names[name][1]):
            self.w(f"V_{name} = _vput(V_{name}, {self.actA}, {val})")
        else:
            self.w(f"V_{name}[{self.actA}] = {val}")

    def assign_stmt(self, e: A.Assign, cnt: List[int]) -> None:
        t = e.target
        op = e.op
        if isinstance(t, A.Ident):
            rec = self.names.get(t.name)
            if rec is None or rec[0] != "reg":
                raise self.unsup(f"cannot assign to {t.name!r}")
            _cls, dt = rec
            name = t.name
            vary = self.vary.get(name)
            if isinstance(dt, T.PointerType) and not vary:
                self._assign_pointer(e, dt, cnt)
                return
            if not (isinstance(dt, T.ScalarType) and _kind_of(dt) in "if"):
                raise self.unsup(f"assignment to non-scalar {t.name!r}")
            tk = _kind_of(dt)
            rhs, rk, rv = self.expr(e.value, cnt)
            if rv and not vary:
                raise self.unsup(f"varying write to uniform register {name!r}")
            if op:
                tmp = self.tmp()
                if vary and not rv and _wide(e.value.ctype):
                    rhs = f"_vbig({rhs})"
                self.w(f"{tmp} = {rhs}")
                cur = self.rread(name) if vary else f"V_{name}"
                if vary and "f" in (tk, rk) and _wide(dt):
                    cur = f"_vfl({cur})"
                # on a varying target a uniform rhs broadcasts
                rhs, rk = self._apply(op, cur, tmp, tk, rk, vary)
                rv = vary
            if vary:
                self._set_varying(name, self.co(rhs, dt, rk, rv), tk)
            else:
                # uniform register: the scalar tier's exact statement
                self.w(f"V_{name} = {self.co(rhs, dt, rk)}")
            return
        if isinstance(t, A.Index) or (isinstance(t, A.UnOp)
                                      and t.op == "*"):
            base, index = ((t.base, t.index) if isinstance(t, A.Index)
                           else (t.operand, None))
            p, idx, elem = self._elem(base, index, cnt, True)
            site = self._site(t, base, True, index)
            rhs, _rk, _rv = self.expr(e.value, cnt)
            if op:
                self.w(f"_vstixc(env, {p}, {idx}, {op!r}, {rhs}, "
                       f"{self.actA}, {elem.size}, _D_{elem.name}, {site})")
            else:
                self.w(f"_vstix(env, {p}, {idx}, {rhs}, {self.actA}, "
                       f"{elem.size}, _D_{elem.name}, {site})")
            return
        raise self.unsup(f"assignment to {type(t).__name__} target")

    def _assign_pointer(self, e: A.Assign, dt: T.PointerType,
                        cnt: List[int]) -> None:
        """``p = q`` / ``p op= v`` on a uniform pointer register, with the
        scalar tier's text."""
        rhs, rk, rv = self.expr(e.value, cnt)
        if rv:
            raise self.unsup(f"register type {dt!r}")
        v = f"V_{e.target.name}"
        if e.op:
            tmp = self.tmp()
            self.w(f"{tmp} = {rhs}")
            rhs, rk = self._apply_code(e.op, v, tmp, "p", rk)
        elif rk != "p":
            raise self.unsup(f"register type {dt!r}")
        self.w(f"{v} = {super().co(rhs, dt, rk)}")

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
        sign = "+" if e.op == "++" else "-"
        if not self.vary.get(name):
            self._reg_incdec(e, f"V_{name}",
                             lambda cur: self._stepped(cur, dt, k, sign), k,
                             True)
            return
        val = self.co(f"({self.rread(name)} {sign} 1)", dt, k, True)
        self._set_varying(name, val, k)

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
        self.impure = False
        cnt: List[int] = [0, 0]
        c, ck, cv = self.expr(s.cond, cnt)
        self.flush(cnt)
        if not cv:
            self._uniform_if(s, c, ck)
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
        # masked divergent if/else: each arm runs over its lane subset
        m = self.aux("m")
        self.w(f"{m} = _vmask({c}, {self.actn})")
        self._masked_arm(m, s.then)
        if s.orelse is not None:
            self._masked_arm(f"~{m}", s.orelse)

    def _masked_arm(self, sel: str, body: A.Node) -> None:
        self.mask_depth += 1
        self._on_lanes(sel, lambda: self.stmt(body))
        self.mask_depth -= 1

    def _on_lanes(self, sel: str, emit: Callable[[], None]) -> None:
        """Emit ``emit``'s lines over the active lanes mask ``sel`` keeps,
        skipped entirely when it keeps none (no hooks, no counts)."""
        outer, outer_full = self.act, self.full
        a = self.aux("a")
        n = self.aux("n")
        self.w(f"{a} = {outer[0]}[{sel}]")
        self.w(f"{n} = len({a})")
        self.w(f"if {n}:")
        self.act = (a, n)
        self.full = False
        self._block(emit)
        self.act = outer
        self.full = outer_full

    def _return(self, s: A.Return) -> None:
        if s.value is not None:
            raise self.unsup("value return in a kernel")
        if self.mask_depth:
            raise self.unsup("return under a divergent mask")
        self.w("return")

    # -- declarations --------------------------------------------------------

    def decl(self, d: A.VarDecl) -> None:
        if d.space == T.AddressSpace.LOCAL:
            self._decl_local(d)
            return
        self.impure = False
        name = d.name
        rec = self.names[name]
        t = d.type
        if rec[0] == "mem":
            raise self.unsup(f"private memory variable {name!r}")
        v = f"V_{name}"
        if (isinstance(t, T.PointerType) and not self.vary.get(name)
                and d.init is not None):
            # a uniform pointer register: the scalar tier's declaration
            cnt: List[int] = [0, 0]
            code, rk, rv = self.expr(d.init, cnt)
            self.flush(cnt)
            if rv or rk != "p":
                raise self.unsup(f"register type {t!r}")
            self.w(f"{v} = {super().co(code, t, rk)}")
            return
        if not (_scalar(t) and _kind_of(t) in "if"):
            raise self.unsup(f"register type {t!r}")
        k = _kind_of(t)
        if not self.vary.get(name):
            if d.init is not None:
                cnt = [0, 0]
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
        if not self.full:
            self.w(f"{v} = _np.zeros(__n0, {dref})")
        self._set_varying(name, self.co(code, t, rk, rv), k)

    # -- cross-lane hazard analysis ------------------------------------------

    def _site(self, node: A.Node, base: A.Node, store: bool,
              index: Optional[A.Node]) -> int:
        """A new access site for ``node``, recorded for the hazard map."""
        site = self.site()
        key, name, ptr = self._base(base)
        own = None
        if ptr is not None and index is not None:
            ident = self._own_index(index)
            if ident is not None:
                own = (self._lane_dim(index), ident,
                       _elem_of(base.ctype).size, ptr)
        self.accs[id(node)] = ((site, key, store, own, False), name)
        return site

    def _own_index(self, e: A.Node) -> Optional[Tuple]:
        """What identifies a lane-own index's value across accesses: a
        lane-own register, or a bare lane id; None for another index."""
        if isinstance(e, A.Ident):
            return ("r", e.name) if e.name in self._own_regs() else None
        if type(e) in (A.Call, A.Member):
            d = self._lane_dim(e)
            if d is not None:
                return ("id", getattr(e, "callee_name", None) or "threadIdx",
                        d)
        return None

    def _base(self, e: A.Node) -> Tuple[Tuple[str, str], str, Optional[str]]:
        """``(base key, base name, pointer identity)`` of a pointer
        expression: the memory region it points into."""
        k = type(e)
        if k is A.Cast:
            return self._base(e.expr)
        if k is A.BinOp and e.op in ("+", "-"):
            for side in (e.lhs, e.rhs):
                if _kind_of(side.ctype) == "p":
                    key, name, _ptr = self._base(side)
                    return key, name, None
            return _UNKNOWN
        if k is not A.Ident:
            return _UNKNOWN
        name = e.name
        rec = self.names.get(name)
        if rec is None:
            if name in self.u.sym_names:
                return ("g", name), name, name
            return _UNKNOWN
        cls, t = rec
        if cls == "preg" and isinstance(t, T.PointerType):
            space = {T.AddressSpace.LOCAL: "l",
                     T.AddressSpace.CONSTANT: "c"}.get(t.space, "g")
            return (space, name), name, name
        if cls == "mem":
            if name in self._externs():
                return ("s", ""), name, name
            return ("l", name), name, name
        if cls == "reg" and isinstance(t, T.PointerType):
            got = self._bases.get(name)
            if got is None:
                self._bases[name] = _UNKNOWN  # while its writes refer to it
                got = self._bases[name] = self._reg_base(name)
            return got
        return _UNKNOWN

    def _reg_base(self, name: str) -> Tuple[Tuple[str, str], str,
                                            Optional[str]]:
        """A pointer register points where every value written to it
        does.  Written once, it names its value's pointer; when that
        value has no name (pointer arithmetic), the register names it
        only while declared at the top level of the kernel body, where
        the declaration runs once: in a loop its value changes."""
        roots = []
        for d in A.walk(self.fn.body):
            if isinstance(d, A.VarDecl) and d.name == name:
                roots.append(self._base(d.init) if d.init is not None
                             else _UNKNOWN)
            elif (isinstance(d, A.Assign) and isinstance(d.target, A.Ident)
                    and d.target.name == name):
                roots.append(_UNKNOWN if d.op else self._base(d.value))
            elif (isinstance(d, A.UnOp) and d.op in ("++", "--")
                    and isinstance(d.operand, A.Ident)
                    and d.operand.name == name):
                roots.append(_UNKNOWN)
        if len({r[0] for r in roots}) != 1:
            return _UNKNOWN
        key, root, ptr = roots[0]
        if len(roots) != 1:
            return key, root, None
        if ptr is None and any(
                isinstance(st, A.DeclStmt)
                and any(d.name == name for d in st.decls)
                for st in self.fn.body.stmts):
            ptr = name
        return key, root, ptr

    def _externs(self) -> Set[str]:
        if self._extern_names is None:
            self._extern_names = {
                d.name for d in A.walk(self.fn.body)
                if isinstance(d, A.VarDecl) and "extern" in d.quals}
        return self._extern_names

    def _own_regs(self) -> Dict[str, int]:
        """Registers holding a lane-own index: declared once, at the top
        level of the kernel body, never written again, from a lane id
        plus a uniform (their lane-id dimension)."""
        if self._own is None:
            self._own = {}
            written = set()
            decls: Dict[str, int] = {}
            for n in A.walk(self.fn.body):
                if isinstance(n, A.Assign) and isinstance(n.target, A.Ident):
                    written.add(n.target.name)
                elif (isinstance(n, A.UnOp) and n.op in ("++", "--")
                        and isinstance(n.operand, A.Ident)):
                    written.add(n.operand.name)
                elif isinstance(n, A.VarDecl):
                    decls[n.name] = decls.get(n.name, 0) + 1
            for st in self.fn.body.stmts:
                if not isinstance(st, A.DeclStmt):
                    continue
                for d in st.decls:
                    t = d.type
                    if (d.init is None or d.name in written
                            or decls[d.name] != 1
                            or self.names.get(d.name, ("",))[0] != "reg"
                            or not isinstance(t, T.ScalarType)
                            or t.floating or t.size < 2):
                        continue
                    dim = self._lane_dim(d.init)
                    if dim is not None:
                        self._own[d.name] = dim
        return self._own

    def _lane_dim(self, e: A.Node) -> Optional[int]:
        """The dimension ``d`` when ``e`` is a lane id along ``d`` plus
        (or minus) a uniform, which takes distinct values on lanes with
        distinct ``d`` ids; else None."""
        k = type(e)
        if k is A.Call:
            if (e.callee_name in _VARYING_IDS and len(e.args) == 1
                    and self.u.dialect_name == "opencl"
                    and isinstance(e.args[0], A.IntLit)
                    and e.args[0].value in (0, 1, 2)):
                return e.args[0].value
            return None
        if k is A.Member:
            if (self._dim_register(e) is not None
                    and e.base.name == "threadIdx"):
                return _XYZ[e.name]
            return None
        if k is A.Ident:
            return (self._own or {}).get(e.name)
        if k is A.Cast:
            t = e.type
            if (isinstance(t, T.ScalarType) and not t.floating
                    and t.size >= 2):
                return self._lane_dim(e.expr)
            return None
        if k is A.BinOp and e.op in ("+", "-"):
            for lane, other in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
                d = self._lane_dim(lane)
                if (d is not None and not self._evary(other)
                        and self._pure(other)):
                    return d
        return None

    def hazards(self) -> HazardMap:
        """The kernel's access sites per barrier interval (see
        :class:`HazardMap`), from a walk over the kernel body that
        follows the warp generator's control flow: loops to a fixpoint,
        both arms of every branch."""
        out: List[frozenset] = []
        loops: List[Tuple[List[frozenset], List[frozenset]]] = []
        repeated: Set[int] = set()
        accs = self.accs

        def found(node: Optional[A.Node]) -> frozenset:
            if node is None:
                return frozenset()
            return frozenset(id(n) for n in A.walk(node) if id(n) in accs)

        def run(s: Optional[A.Node], cur: frozenset) -> frozenset:
            if s is None:
                return cur
            k = type(s)
            if k is A.Compound:
                for st in s.stmts:
                    cur = run(st, cur)
                return cur
            if k is A.ExprStmt:
                e = s.expr
                if (isinstance(e, A.Call)
                        and e.callee_name in self.u.barrier_names):
                    out.append(cur)
                    return frozenset()
                return cur | found(e)
            if k is A.DeclStmt:
                for d in s.decls:
                    cur = cur | found(d.init)
                return cur
            if k is A.If:
                cur = cur | found(s.cond)
                return run(s.then, cur) | run(s.orelse, cur)
            if k in (A.For, A.While):
                if k is A.For:
                    cur = run(s.init, cur)
                    repeated.update(found(s.step))
                repeated.update(found(s.cond) | found(s.body))
                head = cur
                while True:
                    loops.append(([], []))
                    c = head | found(s.cond)
                    end = run(s.body, c)
                    brk, cont = loops.pop()
                    end = end.union(*cont)
                    if k is A.For:
                        end = end | found(s.step)
                    if end <= head:
                        return c.union(*brk)
                    head = head | end
            if k is A.Return:
                out.append(cur)
                return cur
            if k in (A.Break, A.Continue) and loops:
                loops[-1][k is A.Continue].append(cur)
            return cur

        out.append(run(self.fn.body, frozenset()))
        intervals = []
        for ids in set(out):
            if ids:
                intervals.append(sorted(
                    (accs[i][0][:4] + (i in repeated,) for i in ids),
                    key=lambda a: a[0]))
        intervals.sort(key=lambda iv: [a[0] for a in iv])
        return HazardMap(intervals, {a[0]: name for a, name
                                     in accs.values()})

    # -- function assembly ---------------------------------------------------

    def emit(self) -> str:
        self.prepass()
        self._own_regs()
        fn = self.fn
        self.ind = 2  # def(0) > with errstate(1) > body(2)
        for i, p in enumerate(fn.params):
            rec = self.names[p.name]
            if rec[0] == "mem":
                raise self.unsup(f"by-value aggregate parameter {p.name!r}")
            pt = p.type
            if isinstance(pt, T.ScalarType) and pt.name != "void":
                self.w(f"V_{p.name} = _co(a{i}, _T_{pt.name})")
            else:
                # pointers/opaques arrive pre-coerced from the launch path
                self.w(f"V_{p.name} = a{i}")
        self.stmt(fn.body)
        body = self._header("_W_")
        self.w("__n0 = env.n")
        self.w("__I0 = _np.arange(__n0)")
        if self.guarded:
            self.w("__R = 0")
        self.w("with _np.errstate(all='ignore'):")
        return "\n".join("    " * ind + text for ind, text
                         in self.lines + (body or [(2, "pass")]))
