"""Compile tier: lower kernel ASTs to generated Python generator source.

The interpreter (:mod:`repro.clike.interp`) re-walks the AST for every
work-item; this module lowers each device function once into a Python
generator function (``compile()``-d per module) that preserves the
barrier ``yield`` protocol, so the device engine can drive compiled and
interpreted work-items through the exact same phase loop.

The contract is *byte identity* with the interpreter: output buffers,
performance counters (flops/iops/bytes/transactions) and therefore the
modeled kernel time must be bit-for-bit equal under both tiers.  Codegen
therefore mirrors the interpreter's observable quirks deliberately:

* loads/stores fire the same accounting hooks, once per access, keyed to
  a *site* id that partitions accesses exactly like the interpreter's
  ``id(node)`` keys (same node -> same site), so warp coalescing and
  bank-conflict grouping produce identical transaction counts;
* integer results of ``+ - * <<`` are width-wrapped through the
  annotated result type, and only those;
* assignment to an undeclared parameter register coerces through the
  current-value rule (``int`` unless the value is a vector);
* statement-level vector-element assignment performs the interpreter's
  extra trailing load.

Anything codegen cannot mirror faithfully raises
:class:`CompileUnsupported` for that function; the failure propagates to
callers, and affected kernels transparently fall back to the
interpreter (the ``compiled`` and ``vector`` tiers are best-effort
per kernel).  Counter flushes are batched per statement, so a run aborted by
a mid-statement fault may differ in counters from the interpreter —
counters of failed launches are never consumed.

Known modeling divergence (documented, not observable in passing runs):
the step budget is enforced per loop iteration per function invocation
rather than per work-item statement count, so pathological kernels abort
at slightly different points under the two tiers.

*Host mode* (:func:`compile_host_unit`) lowers a host program's ``main``
and its callees with the same emitter into plain functions: no barrier
protocol, no op counts (the host environment has no launch counters; its
access hooks are no-ops), identifiers the emitter cannot bind statically
resolved through the run's environment on every evaluation, and CUDA
``<<<...>>>`` launches handed to the environment's launch hook.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import InterpError
from ..runtime.memory import _PACK, _UNPACK
from ..runtime.values import _F32, Ptr, StructRef, Vec, coerce, sizeof
from . import ast as A
from . import types as T
from .dialect import get_dialect
from .interp import (WARP_OP_KINDS, WarpOp, _apply_binop, _c_div, _c_mod,
                     _memvar_names, _op_kind, _pointer_binop, _reinterpret,
                     _truth)
from .printer import print_unit
from .sema import resolve_conversion
from .stdlib import CUDA_SPECIAL_VARS, NAMED_CONSTANTS, swizzle_indices

#: hot-path alias: ``type(ct) is _Scalar`` in the per-access helpers
_Scalar = T.ScalarType

__all__ = ["CompileUnsupported", "CompiledSource", "compile_unit",
           "compile_module", "bind_unit", "compile_host_unit", "bind_host",
           "host_globals"]

_MAX_LOOP_ITERS = 50_000_000


class CompileUnsupported(Exception):
    """A construct codegen cannot mirror byte-identically (fallback)."""


@dataclass
class CompiledSource:
    """Result of :func:`compile_unit` (or :func:`compile_host_unit`): one
    module's generated Python in two sections that :func:`bind_unit` runs
    into one namespace, plus the per-function coverage maps.

    The scalar section defines ``_F_<name>`` per lowered function (one
    generator per work-item); the warp section, ``_W_<kernel>`` per
    vectorized kernel (one generator per warp; empty in host mode).
    ``code``/``vector_code`` hold each section's code object once
    :func:`bind_unit` has compiled it."""

    source: str
    #: entry points the source defines: the covered kernels, or in host
    #: mode every lowered function
    kernel_names: List[str]
    fallbacks: Dict[str, str] = field(default_factory=dict)
    #: kernels missing from ``vector_kernel_names`` demote to the scalar
    #: section, with the reason recorded in ``vector_fallbacks``
    vector_source: str = ""
    vector_kernel_names: List[str] = field(default_factory=list)
    vector_fallbacks: Dict[str, str] = field(default_factory=dict)
    #: vectorized kernel -> its ``vectorize.HazardMap``, which names the
    #: access sites the engine's cross-lane hazard guard records
    vector_hazards: Dict[str, Any] = field(default_factory=dict)
    code: Any = None
    vector_code: Any = None


# ---------------------------------------------------------------------------
# runtime helpers (exec-namespace support library)
#
# These run inside generated code.  Each mirrors one interpreter access
# path including its hook/counter behaviour; ``site`` is the stable
# access-site id standing in for the interpreter's ``id(node)``.
# ---------------------------------------------------------------------------

def _ldp(env, p, site):
    """Load through a pointer (interp ``_MemLV.get`` / ident memvar load)."""
    n = p.ctype.size or 1
    env.access_site(p.mem, p.off, n, site, True)
    return p.load()


def _ldix(env, p, i, site):
    """``p[i]`` rvalue (interp ``_lvalue(Index).get()``)."""
    if type(p) is not Ptr:
        if isinstance(p, list):
            return p[int(i)]
        if not isinstance(p, Ptr):
            raise InterpError(f"cannot index into {type(p).__name__}")
    if type(i) is not int:
        i = int(i)
    ct = p.ctype
    sz = ct.size or 1
    off = p.off + i * sz
    mem = p.mem
    env.access_site(mem, off, sz, site, True)
    if type(ct) is _Scalar:
        # Memory.read_scalar, inlined (bounds check + precompiled unpack)
        if off < 0 or off + sz > mem._size:
            mem._check(off, sz)
        return _UNPACK[ct.name](mem._mv, off)[0]
    return Ptr(mem, off, ct).load()


def _stp(env, p, v, site):
    """``*lv = v`` (interp ``_MemLV.set``); returns the raw rhs."""
    ct = p.ctype
    env.access_site(p.mem, p.off, ct.size or 1, site, False)
    p.store(coerce(v, ct))
    return v


def _stix(env, p, i, v, site):
    """``p[i] = v``; returns the raw rhs."""
    if not isinstance(p, Ptr):
        if isinstance(p, list):
            p[int(i)] = v  # _ListElemLV.set: raw, unhooked
            return v
        raise InterpError(f"cannot index into {type(p).__name__}")
    if type(i) is not int:
        i = int(i)
    ct = p.ctype
    sz = ct.size or 1
    off = p.off + i * sz
    mem = p.mem
    env.access_site(mem, off, sz, site, False)
    if type(ct) is _Scalar and type(v) in (int, float, bool):
        # Memory.write_scalar, inlined — identical wrap/float conversion
        if off < 0 or off + sz > mem._size:
            mem._check(off, sz)
        if ct.floating:
            w = float(v)
        else:
            w = int(v) & ((1 << (8 * sz)) - 1)
            if ct.signed and w >= (1 << (8 * sz - 1)):
                w -= 1 << (8 * sz)
        _PACK[ct.name](mem._mv, off, w)
    else:
        Ptr(mem, off, ct).store(coerce(v, ct))
    return v


def _stpc(env, p, op, v, site):
    """``*lv op= v`` (compound assign through a pointer): load, apply
    (uncounted, as in ``Interp._assign``), store; returns the applied rhs."""
    ct = p.ctype
    n = ct.size or 1
    env.access_site(p.mem, p.off, n, site, True)
    cur = p.load()
    rhs = _apply_binop(op, cur, v, env)
    env.access_site(p.mem, p.off, n, site, False)
    p.store(coerce(rhs, ct))
    return rhs


def _stixc(env, p, i, op, v, site):
    """``p[i] op= v``."""
    if not isinstance(p, Ptr):
        if isinstance(p, list):
            ix = int(i)
            rhs = _apply_binop(op, p[ix], v, env)
            p[ix] = rhs
            return rhs
        raise InterpError(f"cannot index into {type(p).__name__}")
    return _stpc(env, p.add(int(i)), op, v, site)


def _incp(env, p, delta, post, site):
    """``++``/``--`` on a memory lvalue; prefix re-loads (interp quirk)."""
    ct = p.ctype
    n = ct.size or 1
    env.access_site(p.mem, p.off, n, site, True)
    old = p.load()
    env.access_site(p.mem, p.off, n, site, False)
    if isinstance(old, Ptr):
        p.store(coerce(old.add(delta), ct))
    else:
        p.store(coerce(old + delta, ct))
    if post:
        return old
    env.access_site(p.mem, p.off, n, site, True)
    return p.load()


def _velem_t(vt, idx):
    return vt.base if len(idx) == 1 else T.VectorType(vt.base, len(idx))


def _vset_m(env, p, idx, v, site):
    """Vector-element store through memory; mirrors ``_VecElemLV`` over
    ``_MemLV`` plus the statement-level trailing ``lv.get()``."""
    vt = p.ctype
    n = vt.size or 1
    env.access_site(p.mem, p.off, n, site, True)
    vec = p.load()
    env.access_site(p.mem, p.off, n, site, False)
    p.store(coerce(vec.with_set(idx, coerce(v, _velem_t(vt, idx))), vt))
    env.access_site(p.mem, p.off, n, site, True)
    return p.load().get(idx)


def _vaug_m(env, p, idx, op, v, site):
    """Compound vector-element store through memory."""
    vt = p.ctype
    n = vt.size or 1
    env.access_site(p.mem, p.off, n, site, True)
    cur = p.load().get(idx)
    rhs = _apply_binop(op, cur, v, env)
    env.access_site(p.mem, p.off, n, site, True)
    vec = p.load()
    env.access_site(p.mem, p.off, n, site, False)
    p.store(coerce(vec.with_set(idx, coerce(rhs, _velem_t(vt, idx))), vt))
    env.access_site(p.mem, p.off, n, site, True)
    return p.load().get(idx)


def _sfld(env, sref, name, site):
    """``struct.field`` rvalue (interp ``_eval_member`` StructRef arm)."""
    fptr = sref.field_ptr(name)
    env.access_site(fptr.mem, fptr.off, fptr.ctype.size or 1, site, True)
    if isinstance(fptr.ctype, T.ArrayType):
        return Ptr(fptr.mem, fptr.off, fptr.ctype.elem)
    return fptr.load()


def _arrow(env, p, name, site):
    """``ptr->field`` rvalue."""
    if isinstance(p, Ptr) and isinstance(p.ctype, T.StructType):
        return _sfld(env, StructRef(p.mem, p.off, p.ctype), name, site)
    raise InterpError("-> on non-struct-pointer value")


def _fptr(p, name):
    """``ptr->field`` lvalue pointer."""
    if isinstance(p, Ptr) and isinstance(p.ctype, T.StructType):
        return StructRef(p.mem, p.off, p.ctype).field_ptr(name)
    raise InterpError("-> on non-struct-pointer")


def _sfptr(p, name):
    """``memvar.field`` lvalue pointer (base already a struct Ptr)."""
    return StructRef(p.mem, p.off, p.ctype).field_ptr(name)


def _memb(env, base, name, site):
    """Generic ``base.name`` rvalue (non-static base)."""
    if isinstance(base, Vec):
        idx = swizzle_indices(name, base.ctype.count)
        if idx is None:
            raise InterpError(f"bad swizzle .{name} on {base.ctype}")
        return base.get(idx)
    if isinstance(base, StructRef):
        return _sfld(env, base, name, site)
    if hasattr(base, name) and not isinstance(base, (int, float, Ptr)):
        return getattr(base, name)
    raise InterpError(f"cannot access .{name} on {type(base).__name__}")


def _bop(env, op, a, b, rt):
    """Full-fidelity binop for operands codegen cannot type statically."""
    env.count_op(_op_kind(a, b))
    r = _apply_binop(op, a, b, env)
    if (rt is not None and isinstance(rt, T.ScalarType) and not rt.floating
            and isinstance(r, int) and op in ("+", "-", "*", "<<")):
        r = coerce(r, rt)
    return r


def _cc(c, f, i, v):
    """Deferred (conditionally-evaluated) static op-count flush."""
    if f:
        c.flops += f
    if i:
        c.iops += i
    return v


def _pco(cur, new):
    """Assignment to an undeclared parameter register: the interpreter
    coerces through the *current* value's type (int unless vector)."""
    return coerce(new, cur.ctype if isinstance(cur, Vec) else T.INT)


def _rco(v, t):
    return None if v is None else coerce(v, t)


def _f32(v):
    """binary32 round-trip, identical to ``_coerce_scalar`` for floats."""
    return _F32.unpack(_F32.pack(float(v)))[0]


def _f16(v):
    import numpy as np
    return float(np.float16(float(v)))


def _cast(v, t):
    if isinstance(t, T.PointerType) and isinstance(v, Ptr):
        return v.retype(t.pointee)
    return coerce(v, t)


def _vlit(t, items):
    """Vector compound literal ``(float4){a, b}`` — flattens vector items
    and splats singletons (interp ``_eval_cast`` InitList arm)."""
    vals: List[Any] = []
    for v in items:
        if isinstance(v, Vec):
            vals.extend(v.vals)
        else:
            vals.append(v)
    if len(vals) == 1:
        vals = vals * t.count
    return Vec(t, vals)


def _vdecl(t, vals):
    """Vector declaration init list — splats singletons, no flattening."""
    if len(vals) == 1:
        vals = vals * t.count
    return Vec(t, vals)


def _szv(v):
    """``sizeof expr`` on an evaluated value (interp fallback arm)."""
    if isinstance(v, Vec):
        return v.ctype.size
    if isinstance(v, (Ptr, StructRef)):
        return 8
    return 4


def _neg(v):
    return v.map(lambda x: -x) if isinstance(v, Vec) else -v


def _inv(v):
    if isinstance(v, Vec):
        return v.map(lambda x: ~int(x))
    return ~int(v)


def _callx(gen, name):
    """Expression-position user-function call: drain the generator."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise InterpError(f"barrier inside expression call to {name!r}")


def _callb(env, name, line, conv, args):
    """Builtin / conversion call, mirroring ``Interp._eval_call`` tail."""
    impl = env.bind_builtin(name)
    if impl is not None:
        return impl(*args)
    if conv is not None:
        if name.startswith("as_"):
            return _reinterpret(args[0], conv)
        return coerce(args[0], conv)
    raise InterpError(f"undefined function {name!r} (line {line})")


#: names that resolved through ``env.constant`` — those are fixed values
#: (CLK_* flags, FLT_MAX, ...), so skip the special-var KeyError dance on
#: repeat lookups.  Special vars (threadIdx & co) are per-work-item and are
#: tried first on a miss, so they can never be shadowed by this memo.
_CONST_MEMO: Dict[str, Any] = {}


def _dynid(env, name, line):
    """Identifier not statically resolvable: special var, then constant."""
    v = _CONST_MEMO.get(name)
    if v is not None:
        return v
    try:
        return env.special_var(name)
    except KeyError:
        pass
    try:
        v = env.constant(name)
    except KeyError:
        raise InterpError(f"undefined identifier {name!r} (line {line})")
    _CONST_MEMO[name] = v
    return v


def _incr(cur, delta, t):
    """``++``/``--`` on a declared register (set coerces to decl type)."""
    new = cur.add(delta) if isinstance(cur, Ptr) else cur + delta
    return coerce(new, t)


def _pinc(cur, delta):
    """``++``/``--`` on an undeclared parameter register."""
    new = cur.add(delta) if isinstance(cur, Ptr) else cur + delta
    return _pco(cur, new)


def _barexpr(name):
    raise InterpError(f"{name}() may only appear as a standalone statement")


def _budget():
    raise InterpError(f"step budget exceeded ({_MAX_LOOP_ITERS})")


#: single-element iterable backing the ``for _ in _ONE:`` block wrapper
#: (gives ``continue``/``break`` a scope that exits exactly once)
_ONE = (0,)


# ---------------------------------------------------------------------------
# host-mode helpers
#
# Host programs call the access helpers above too: HostEnv keeps
# ExecEnv's no-op access_site/count_op.  These cover what only host code
# does: per-run identifiers, attribute stores and CUDA launches.
# ---------------------------------------------------------------------------

def _hid(env, name, line):
    """Identifier not statically resolvable, looked up through the run's
    environment on every evaluation: never through ``_CONST_MEMO``, whose
    entries outlive the run (``KERNEL_SOURCE`` differs per program)."""
    try:
        return env.special_var(name)
    except KeyError:
        pass
    try:
        return env.constant(name)
    except KeyError:
        raise InterpError(f"undefined identifier {name!r} (line {line})")


def _hattr(obj, attr):
    """Texture reference ``obj`` as the target of ``obj.attr = v``
    (interp ``_AttrLV``)."""
    if not hasattr(obj, attr):
        raise InterpError(f"{type(obj).__name__} has no attribute {attr!r}")
    return obj


def _hattrc(env, name, attr):
    """Environment constant ``name`` as the target of ``name.attr = v``
    (wrapper-runtime texture bindings in translated host code)."""
    try:
        obj = env.constant(name)
    except KeyError:
        raise InterpError(f"cannot assign to {name!r}")
    if not hasattr(obj, attr):
        raise InterpError(f"cannot assign to {name!r}")
    return obj


def _hsetattr(obj, attr, v):
    setattr(obj, attr, v)
    return v


def _launch(env, name, grid, block, shmem, stream, args):
    """CUDA ``<<<...>>>`` (interp ``_eval_kernel_launch``, operands already
    evaluated in its order)."""
    impl = env.builtin("__cuda_launch__")
    if impl is None:
        raise InterpError("kernel launch outside a CUDA runtime environment")
    return impl(name, grid, block, shmem, stream, args)


def _base_namespace() -> Dict[str, Any]:
    """The exec namespace shared by every bound module."""
    ns: Dict[str, Any] = {
        "_ldp": _ldp, "_ldix": _ldix, "_stp": _stp, "_stix": _stix,
        "_stpc": _stpc, "_stixc": _stixc, "_incp": _incp,
        "_vset_m": _vset_m, "_vaug_m": _vaug_m,
        "_sfld": _sfld, "_arrow": _arrow, "_fptr": _fptr, "_sfptr": _sfptr,
        "_memb": _memb, "_bop": _bop, "_cc": _cc, "_pco": _pco, "_rco": _rco,
        "_co": coerce, "_f32": _f32, "_f16": _f16, "_cast": _cast,
        "_vlit": _vlit, "_vdecl": _vdecl, "_szv": _szv,
        "_neg": _neg, "_inv": _inv, "_tr": _truth, "_dv": _c_div,
        "_md": _c_mod, "_ab": _apply_binop, "_pb": _pointer_binop,
        "_callx": _callx, "_callb": _callb, "_dynid": _dynid,
        "_incr": _incr, "_pinc": _pinc,
        "_barexpr": _barexpr, "_budget": _budget, "_ONE": _ONE,
        "_hid": _hid, "_hattr": _hattr, "_hattrc": _hattrc,
        "_hsetattr": _hsetattr, "_launch": _launch,
        "_Ptr": Ptr, "Vec": Vec, "StructRef": StructRef,
        "_PtrT": T.PointerType, "_ArrT": T.ArrayType, "_vt": T.vector,
        "_OpqT": T.OpaqueType,
        "_AS": T.AddressSpace, "InterpError": InterpError,
        "_B": "barrier", "_WOP": WarpOp,
    }
    for name, st in T.SCALAR_TYPES.items():
        ns[f"_T_{name}"] = st
    return ns


# ---------------------------------------------------------------------------
# static kinds
#
# A "kind" is the statically-guaranteed runtime shape of an expression's
# value: 'i' int, 'f' float, 'v' Vec, 'p' Ptr-ish, 's' StructRef, '?'
# unknown.  Arithmetic is inlined (with static op counting) only when both
# operands are 'i'/'f' — every other combination goes through ``_bop``,
# which dispatches and counts at runtime exactly like the interpreter.
# ---------------------------------------------------------------------------

def _kind_of(t: Optional[T.Type]) -> str:
    if t is None:
        return "?"
    if isinstance(t, T.ScalarType):
        if t.name == "void":
            return "?"
        return "f" if t.floating else "i"
    if isinstance(t, T.VectorType):
        return "v"
    if isinstance(t, (T.PointerType, T.ArrayType)):
        return "p"
    if isinstance(t, T.StructType):
        return "s"
    return "?"


#: names whose pre-declaration reads resolve through the environment —
#: declaring a local with one of these would shadow flow-sensitively
_ENV_NAMES = frozenset(CUDA_SPECIAL_VARS) | frozenset(NAMED_CONSTANTS)

_CUDA_SPECIALS = {"threadIdx": "env.lid", "blockIdx": "env.group",
                  "blockDim": "env.launch.block", "gridDim": "env.launch.grid"}

_XYZ = {"x": 0, "y": 1, "z": 2}

#: OpenCL work-item id builtins -> (indexable-expr, needs-dim-arg)
_OPENCL_IDS = {
    "get_global_id": "env.gid",
    "get_local_id": "env.lid",
    "get_group_id": "env.group",
    "get_local_size": "env.launch.block",
    "get_num_groups": "env.launch.grid",
}

_CMP_OPS = ("<", ">", "<=", ">=", "==", "!=")


def _scan_signals(n: Optional[A.Node]) -> Tuple[bool, bool]:
    """(direct break, direct continue) of a loop body wrt the enclosing
    loop: nested loops absorb both; Switch absorbs only break."""
    if n is None:
        return (False, False)
    k = type(n)
    if k is A.Break:
        return (True, False)
    if k is A.Continue:
        return (False, True)
    if k in (A.For, A.While, A.DoWhile):
        return (False, False)
    if k is A.Switch:
        c = False
        for case in n.cases:
            for st in case.stmts:
                c = c or _scan_signals(st)[1]
        return (False, c)
    if k is A.Compound:
        b = c = False
        for st in n.stmts:
            sb, sc = _scan_signals(st)
            b, c = b or sb, c or sc
        return (b, c)
    if k is A.If:
        b1, c1 = _scan_signals(n.then)
        b2, c2 = _scan_signals(n.orelse)
        return (b1 or b2, c1 or c2)
    return (False, False)


# ---------------------------------------------------------------------------
# unit-level codegen
# ---------------------------------------------------------------------------

def host_globals(unit: A.TranslationUnit) -> Tuple[Set[str], Set[str]]:
    """``(slot names, value names)`` a host program's file scope binds
    once ``Interp.init_globals`` and the CUDA runtime's ``attach`` ran:
    every variable lives in ``global_slots`` except texture references,
    which live in ``global_values``."""
    slots: Set[str] = set()
    values: Set[str] = set()
    for d in unit.decls:
        if isinstance(d, A.VarDecl):
            (values if isinstance(d.type, T.TextureType) else slots).add(
                d.name)
    return slots, values


class _UnitCodegen:
    def __init__(self, unit: A.TranslationUnit, dialect_name: str,
                 host: bool = False) -> None:
        # local import: device.builtins pulls in host-library modules
        from ..device.builtins import BARRIER_NAMES
        self.unit = unit
        self.dialect_name = dialect_name
        self.dialect = get_dialect(dialect_name)
        #: host mode: plain functions (no barrier protocol), no op
        #: counts, identifiers resolved per run
        self.host = host
        self.barrier_names = frozenset(
            () if host else BARRIER_NAMES.get(dialect_name, ()))
        # warp primitives suspend on a WarpOp token (scheduler rendezvous);
        # only the CUDA dialect exposes them (mirrors ExecEnv.warp_op_kind)
        self.warp_ops: Dict[str, str] = (
            WARP_OP_KINDS if dialect_name == "cuda" and not host else {})
        self.fns: Dict[str, A.FunctionDecl] = {
            f.name: f for f in unit.functions() if f.body is not None}
        # mirror of load_module's symbol registration (host mode: of the
        # host interpreter's file scope)
        self.sym_names: Set[str] = set()
        self.gv_names: Set[str] = set()
        if host:
            self.sym_names, self.gv_names = host_globals(unit)
        else:
            for d in unit.decls:
                if not isinstance(d, A.VarDecl):
                    continue
                if isinstance(d.type, T.TextureType):
                    self.gv_names.add(d.name)
                elif dialect_name == "cuda" and d.space is None:
                    pass  # host-side global, not a device symbol
                else:
                    self.sym_names.add(d.name)
        self._nsite = 0
        self._ty_lines: List[str] = []
        self._ty_memo: Dict[str, str] = {}

    def new_site(self) -> int:
        self._nsite += 1
        return self._nsite

    def type_ref(self, t: T.Type) -> str:
        if isinstance(t, T.ScalarType):
            return f"_T_{t.name}"
        if isinstance(t, T.VectorType):
            return self._intern(f"_vt({t.base.name!r}, {t.count})")
        if isinstance(t, T.PointerType):
            space = f"_AS.{t.space.name}" if t.space is not None else "None"
            return self._intern(
                f"_PtrT({self.type_ref(t.pointee)}, {space}, {t.const!r})")
        if isinstance(t, T.ArrayType):
            return self._intern(
                f"_ArrT({self.type_ref(t.elem)}, {t.length!r})")
        if isinstance(t, T.StructType):
            if not t.name:
                raise CompileUnsupported("anonymous struct type")
            return self._intern(f"__STRUCTS[{t.name!r}]")
        if isinstance(t, T.OpaqueType):
            return self._intern(f"_OpqT({t.name!r})")
        raise CompileUnsupported(f"type {t!r} in codegen")

    def _intern(self, code: str) -> str:
        name = self._ty_memo.get(code)
        if name is None:
            name = f"_TY{len(self._ty_memo)}"
            self._ty_memo[code] = name
            self._ty_lines.append(f"{name} = {code}")
        return name

    def _host_reachable(self) -> Set[str]:
        """``main`` and the functions it calls, transitively."""
        seen: Set[str] = set()
        todo = ["main"] if "main" in self.fns else []
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            for node in A.walk(self.fns[name].body):
                if isinstance(node, A.Call) and node.callee_name in self.fns:
                    todo.append(node.callee_name)
        return seen

    def run(self) -> CompiledSource:
        chunks: Dict[str, str] = {}
        callees: Dict[str, Set[str]] = {}
        fallbacks: Dict[str, str] = {}
        order: List[str] = []
        wanted = self._host_reachable() if self.host else None
        for fn in self.unit.functions():
            if fn.body is None or (wanted is not None
                                   and fn.name not in wanted):
                continue
            order.append(fn.name)
            try:
                code, cals = _FnCodegen(self, fn).emit()
                chunks[fn.name] = code
                callees[fn.name] = cals
            except CompileUnsupported as exc:
                fallbacks[fn.name] = str(exc)
            except Exception as exc:  # safety net: fall back, never crash
                fallbacks[fn.name] = f"{type(exc).__name__}: {exc}"
        # a function calling a fallen-back function must fall back too
        changed = True
        while changed:
            changed = False
            for name in list(chunks):
                bad = callees[name] & fallbacks.keys()
                if bad:
                    fallbacks[name] = (
                        f"calls fallback function {sorted(bad)[0]!r}")
                    del chunks[name]
                    changed = True
        kernel_names = [
            f.name for f in self.unit.functions()
            if (f.is_kernel or self.host) and f.body is not None
            and f.name in chunks]
        mode = ", host" if self.host else ""
        parts = [f"# generated by repro.clike.compile "
                 f"(dialect={self.dialect_name}{mode})"]
        parts.extend(self._ty_lines)
        parts.extend(chunks[n] for n in order if n in chunks)
        cs = CompiledSource("\n".join(parts) + "\n", kernel_names,
                            fallbacks)
        if not self.host:
            self._warp_section(cs)
        return cs

    def _warp_section(self, cs: CompiledSource) -> None:
        """Offer every scalar-compiled kernel to the warp-batched emitter
        (:mod:`repro.clike.vectorize`), filling ``cs.vector_*``.

        A vector-eligible kernel is always scalar-eligible too: kernels
        the scalar section lacks are recorded as scalar fallbacks, so the
        vector tier demotes through the same chain.  The section starts
        with the type prelude lines its kernels added; the ones both
        sections use are bound by the scalar section, which runs first.
        """
        # local import: vectorize imports this module for the shared tables
        from .vectorize import _VecFnCodegen
        first_ty = len(self._ty_lines)
        chunks: List[str] = []
        for fn in self.unit.functions():
            if not fn.is_kernel or fn.body is None:
                continue
            if fn.name not in cs.kernel_names:
                why = cs.fallbacks.get(fn.name, "not scalar-compiled")
                cs.vector_fallbacks[fn.name] = f"scalar fallback: {why}"
                continue
            try:
                gen = _VecFnCodegen(self, fn)
                chunks.append(gen.emit())
                cs.vector_hazards[fn.name] = gen.hazards()
                cs.vector_kernel_names.append(fn.name)
            except CompileUnsupported as exc:
                cs.vector_fallbacks[fn.name] = str(exc)
            except Exception as exc:  # safety net: demote, never crash
                cs.vector_fallbacks[fn.name] = f"{type(exc).__name__}: {exc}"
        if chunks:
            cs.vector_source = "\n".join(
                self._ty_lines[first_ty:] + chunks) + "\n"


# ---------------------------------------------------------------------------
# per-function codegen
# ---------------------------------------------------------------------------

class _CoreCodegen:
    """What both per-function emitters do alike.

    :class:`_FnCodegen` lowers a function to one generator per work-item
    (in host mode, to a plain function); the warp emitter,
    :class:`repro.clike.vectorize._VecFnCodegen`, lowers a kernel to one
    generator per warp.  This core owns the line buffer, temps and access
    sites, static op-count flushes, the name-class prepass, loop
    scaffolding, ``__local`` declarations, the function header, and the
    text of operations on uniform int/float values.  Where varying lanes
    differ, the warp emitter overrides a hook: ``count_scale`` (counts
    flush once per active lane), ``uniform`` (control flow demotes on a
    varying value), ``intwrap`` (int64 lanes) and ``_step`` (a ``for``
    step runs as a statement).
    """

    def __init__(self, u: _UnitCodegen, fn: A.FunctionDecl) -> None:
        self.u = u
        self.fn = fn
        self.host = u.host
        self.lines: List[Tuple[int, str]] = []
        self.ind = 0
        self.ntmp = 0
        self.uses_counts = False
        self.uses_steps = False
        # name -> ('reg', t) | ('preg', t) | ('pregw', t) | ('mem', t)
        self.names: Dict[str, Tuple[str, T.Type]] = {}
        self.arrays: Set[str] = set()  # mem names with ArrayType (have Md_)
        #: names declared again with another type -> the value kind all
        #: their declarations share ('?' if none); a register's coercion
        #: type then lives in ``T_<name>``, set by each executed declaration
        #: (the interpreter's flat per-frame ``__types__``)
        self.retyped: Dict[str, str] = {}
        #: enclosing loops and switches: (kind, break flag, mask depth)
        self.ctx: List[Tuple[str, Optional[str], int]] = []
        #: divergent masks and loops around the statement being emitted
        #: (the scalar emitter never masks)
        self.mask_depth = 0
        self.loop_depth = 0

    # -- infrastructure ------------------------------------------------------

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

    def unsup(self, why: str) -> "CompileUnsupported":
        return CompileUnsupported(f"{self.fn.name}: {why}")

    def tref(self, t: T.Type) -> str:
        return self.u.type_ref(t)

    def truth(self, code: str, kind: str) -> str:
        return code if kind in "ifp" else f"_tr({code})"

    def count_scale(self) -> str:
        """Factor on a flushed static count: none, one work-item runs."""
        return ""

    def _count_lines(self, cnt: List[int]) -> List[Tuple[int, str]]:
        """The lines flushing ``cnt``'s static op counts; resets ``cnt``.
        Host mode counts nothing."""
        out = []
        if not self.host:
            for what, n in (("flops", cnt[0]), ("iops", cnt[1])):
                if n:
                    self.uses_counts = True
                    out.append((self.ind, f"__C.{what} += {n}"
                                          f"{self.count_scale()}"))
        cnt[0] = cnt[1] = 0
        return out

    def flush(self, cnt: List[int]) -> None:
        self.lines.extend(self._count_lines(cnt))

    def flush_at(self, cnt: List[int], mark: int) -> None:
        """Insert the statement's static count flush *before* any lines an
        as_stmt emitter already wrote (counts precede the statement)."""
        self.lines[mark:mark] = self._count_lines(cnt)

    def uniform(self, e: A.Node, cnt: List[int],
                why: str) -> Tuple[str, str]:
        """``(code, kind)`` of a value generated control flow or indexing
        needs as one value; the warp emitter demotes with ``why`` when it
        varies across lanes."""
        return self.expr(e, cnt)

    # -- prepass -------------------------------------------------------------

    def prepass(self) -> None:
        fn = self.fn
        if fn.template_params:
            raise self.unsup("template function")
        memnames = _memvar_names(fn)
        for p in fn.params:
            if "reference" in p.quals:
                raise self.unsup(f"reference parameter {p.name!r}")
            if p.name in self.names:
                raise self.unsup(f"duplicate parameter {p.name!r}")
            if p.name in memnames:
                self.names[p.name] = ("mem", p.type)
                if isinstance(p.type, T.ArrayType):
                    self.arrays.add(p.name)
            else:
                self.names[p.name] = ("preg", p.type)
        written: Set[str] = set()
        for node in A.walk(fn.body):
            if isinstance(node, A.Assign) and isinstance(node.target, A.Ident):
                written.add(node.target.name)
            elif (isinstance(node, A.UnOp) and node.op in ("++", "--")
                    and isinstance(node.operand, A.Ident)):
                written.add(node.operand.name)
            elif isinstance(node, A.VarDecl):
                d = node
                if d.name in self.names and self.names[d.name][0] in (
                        "preg", "pregw"):
                    raise self.unsup(f"local {d.name!r} shadows parameter")
                if d.name in self.u.sym_names or d.name in self.u.gv_names:
                    raise self.unsup(f"local {d.name!r} shadows module symbol")
                if d.name in _ENV_NAMES:
                    raise self.unsup(f"local {d.name!r} shadows builtin name")
                if d.name in self.u.fns:
                    raise self.unsup(f"local {d.name!r} shadows function")
                if (d.space == T.AddressSpace.LOCAL or d.name in memnames
                        or isinstance(d.type, (T.ArrayType, T.StructType))):
                    cls = "mem"
                else:
                    cls = "reg"
                prev = self.names.get(d.name)
                if prev is not None and prev[0] != cls:
                    raise self.unsup(
                        f"{d.name!r} redeclared in another storage class")
                if prev is not None and not self._same_t(prev[1], d.type):
                    if (isinstance(prev[1], T.ArrayType)
                            != isinstance(d.type, T.ArrayType)):
                        raise self.unsup(
                            f"{d.name!r} redeclared as array and non-array")
                    k = _kind_of(d.type)
                    shared = self.retyped.get(d.name, _kind_of(prev[1]))
                    self.retyped[d.name] = k if shared == k else "?"
                self.names[d.name] = (cls, d.type)
                if cls == "mem" and isinstance(d.type, T.ArrayType):
                    self.arrays.add(d.name)
        for name in written:
            rec = self.names.get(name)
            if rec is not None and rec[0] == "preg":
                self.names[name] = ("pregw", rec[1])

    @staticmethod
    def _same_t(a: T.Type, b: T.Type) -> bool:
        if a is b:
            return True
        try:
            return bool(a == b)
        except Exception:
            return False

    # -- uniform int/float operations ----------------------------------------

    def intwrap(self, code: str, st: T.ScalarType) -> str:
        bits = 8 * st.size
        mask = (1 << bits) - 1
        if st.signed:
            half = 1 << (bits - 1)
            return f"(({code} + {half} & {mask}) - {half})"
        return f"({code} & {mask})"

    def _op_shape(self, e: A.BinOp, ak: str, bk: str,
                  cnt: List[int]) -> Tuple[bool, bool]:
        """Count one inlined binary operator; returns (float operation?,
        integer result width-wrapped?)."""
        flop = "f" in (ak, bk)
        cnt[0 if flop else 1] += 1
        rt = e.ctype
        return flop, (isinstance(rt, T.ScalarType) and not rt.floating
                      and e.op in ("+", "-", "*", "<<"))

    def arith(self, e: A.BinOp, a: str, ak: str, b: str, bk: str,
              cnt: List[int]) -> Tuple[str, str]:
        """``a op b`` on int/float operands, counted statically: the
        interpreter's exact result as inline Python."""
        op = e.op
        flop, wrap = self._op_shape(e, ak, bk, cnt)
        k = "f" if flop else "i"
        if op in ("+", "-", "*"):
            code = f"({a} {op} {b})"
            if wrap and not flop:
                return self.intwrap(code, e.ctype), "i"
            return code, k
        if op == "/":
            return f"_dv({a}, {b})", k
        if op == "%":
            return f"_md({a}, {b})", k
        if op in _CMP_OPS:
            return f"(1 if {a} {op} {b} else 0)", "i"
        if op in ("<<", ">>", "&", "|", "^"):
            if flop:
                a, b = f"int({a})", f"int({b})"
            code = f"({a} {op} {b})"
            if op == "<<" and wrap:
                return self.intwrap(code, e.ctype), "i"
            return code, "i"
        raise self.unsup(f"operator {op!r}")

    def _unary(self, op: str, code: str, k: str) -> Tuple[str, str]:
        """``op code`` on an int/float value (``+`` and ``!`` on any)."""
        if op == "-":
            return f"(-{code})", k
        if op == "+":
            return code, k
        if op == "!":
            return f"(0 if {self.truth(code, k)} else 1)", "i"
        if op == "~":
            return f"(~int({code}))", "i"
        raise self.unsup(f"unary operator {op!r}")

    def _stepped(self, cur: str, t: T.ScalarType, k: str, sign: str) -> str:
        """``cur`` plus or minus one, coerced to int/float type ``t``."""
        if k == "i":
            return self.intwrap(f"{cur} {sign} 1", t)
        return self.co(f"({cur} {sign} 1)", t, "f")

    def _reg_incdec(self, e: A.UnOp, v: str, new: Callable[[str], str],
                    k: str, as_stmt: bool) -> Tuple[str, str]:
        """``++``/``--`` on register ``v``; ``new(cur)`` is the stepped
        value's text."""
        if as_stmt:
            self.w(f"{v} = {new(v)}")
            return "", k
        if not e.postfix:
            return f"({v} := {new(v)})", k
        tmp = self.tmp()
        return (f"(({tmp} := {v}), ({v} := {new(tmp)}), {tmp})[2]", k)

    def co(self, code: str, t: T.Type, k: str) -> str:
        """Inline ``coerce(code, t)``; byte-identical to runtime coerce for
        the statically-known kinds, generic ``_co`` otherwise."""
        if isinstance(t, T.ScalarType) and t.name != "void" and k in "if":
            if t.floating:
                if t.size == 4:
                    return f"_f32({code})"
                if t.size == 2:
                    return f"_f16({code})"
                return f"float({code})"
            if k == "f":
                code = f"int({code})"
            return self.intwrap(code, t)
        if isinstance(t, (T.StructType, T.ArrayType, T.OpaqueType,
                          T.ImageType, T.SamplerType, T.TextureType)):
            return code  # coerce is the identity
        return f"_co({code}, {self.tref(t)})"

    def _apply_code(self, op: str, cur: str, rhs: str, tk: str,
                    rk: str) -> Tuple[str, str]:
        """Compound-assign apply step (uncounted, like Interp._assign)."""
        if tk in "if" and rk in "if":
            flop = "f" in (tk, rk)
            if op in ("+", "-", "*"):
                return f"({cur} {op} {rhs})", ("f" if flop else "i")
            if op == "/":
                return f"_dv({cur}, {rhs})", ("f" if flop else "i")
            if op == "%":
                return f"_md({cur}, {rhs})", ("f" if flop else "i")
            if op in ("<<", ">>", "&", "|", "^"):
                a = f"int({cur})" if flop else cur
                b = f"int({rhs})" if rk == "f" else rhs
                return f"({a} {op} {b})", "i"
        return f"_ab({op!r}, {cur}, {rhs}, env)", "?"

    def _static_size(self, e: A.SizeOf) -> Optional[str]:
        """``sizeof`` known at codegen time, or None."""
        if e.type is not None:
            if e.type.size is None:
                raise self.unsup("sizeof incomplete type")
            return str(e.type.size)
        ct = e.expr.ctype if isinstance(e.expr, A.Expr) else None
        if ct is not None and ct.size:
            return str(ct.size)
        return None

    def _dim_register(self, e: A.Member) -> Optional[str]:
        """A work-item's read of a CUDA dim register (``threadIdx.x`` and
        friends), or None for another member access."""
        if (e.arrow or not isinstance(e.base, A.Ident) or self.host
                or self.u.dialect_name != "cuda" or e.name not in _XYZ):
            return None
        name = e.base.name
        if (name not in _CUDA_SPECIALS or name in self.names
                or name in self.u.sym_names or name in self.u.gv_names):
            return None
        return f"{_CUDA_SPECIALS[name]}[{_XYZ[e.name]}]"

    def _work_item_query(self, e: A.Call,
                         cnt: List[int]) -> Optional[Tuple[str, str]]:
        """An OpenCL work-item query (``get_global_id`` & co) as a
        work-item reads it, or None for another call."""
        name = e.callee_name
        if self.u.dialect_name != "opencl":
            return None
        if name in _OPENCL_IDS and len(e.args) == 1:
            d, dk = self.uniform(e.args[0], cnt,
                                 "varying dimension argument")
            if dk != "i":
                d = f"int({d})"
            return f"{_OPENCL_IDS[name]}[{d}]", "i"
        if name == "get_global_size" and len(e.args) == 1:
            d, dk = self.uniform(e.args[0], cnt,
                                 "varying dimension argument")
            if not isinstance(e.args[0], A.IntLit):
                # the dim code is embedded twice below; only literals are
                # safe to re-evaluate (no hooks, no walrus temps)
                return f"env.global_size(int({d}))", "i"
            if dk != "i":
                d = f"int({d})"
            return (f"(env.launch.grid[{d}] * env.launch.block[{d}])", "i")
        if name == "get_work_dim" and not e.args:
            return "env.launch.work_dim", "i"
        if name == "get_global_offset" and len(e.args) == 1:
            return f"({self.expr(e.args[0], cnt)[0]}, 0)[1]", "i"
        return None

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
            self._other_stmt(s)

    def _if(self, s: A.If) -> None:
        cnt: List[int] = [0, 0]
        c, ck = self.expr(s.cond, cnt)
        self.flush(cnt)
        self._uniform_if(s, c, ck)

    def _uniform_if(self, s: A.If, c: str, ck: str) -> None:
        self.w(f"if {self.truth(c, ck)}:")
        self._block(lambda: self.stmt(s.then))
        if s.orelse is not None:
            self.w("else:")
            self._block(lambda: self.stmt(s.orelse))

    def _block(self, emit) -> None:
        mark = len(self.lines)
        self.ind += 1
        emit()
        if len(self.lines) == mark:
            self.w("pass")
        self.ind -= 1

    def _plain_stmt(self, e: A.Node, cnt: List[int]) -> None:
        """An expression statement without a statement-only call: an
        assignment or ``++``/``--`` in statement form, else the expression
        evaluated for its effects."""
        if isinstance(e, A.Assign) or (isinstance(e, A.UnOp)
                                       and e.op in ("++", "--")):
            mark = len(self.lines)
            if isinstance(e, A.Assign):
                self.assign_stmt(e, cnt)
            else:
                self.incdec_stmt(e, cnt)
            self.flush_at(cnt, mark)
            return
        code = self.expr(e, cnt)[0]
        self.flush(cnt)
        self.w(code)

    def _break_if(self, test: str) -> None:
        self.w(f"if {test}:")
        self.ind += 1
        self.w("break")
        self.ind -= 1

    def _budget_lines(self) -> None:
        self.uses_steps = True
        self.w("__steps += 1")
        self.w(f"if __steps > {_MAX_LOOP_ITERS}:")
        self.ind += 1
        self.w("_budget()")
        self.ind -= 1

    def _loop_cond_break(self, cond: A.Node) -> None:
        cnt: List[int] = [0, 0]
        c, ck = self.uniform(cond, cnt, "varying loop condition")
        self.flush(cnt)
        self._break_if(f"not {self.truth(c, ck)}")

    def _loop_body(self, body: Optional[A.Node], need_wrap: bool,
                   has_break: bool) -> Optional[str]:
        """Emit a loop body; returns the break-flag name if one was used."""
        self.loop_depth += 1
        if not need_wrap:
            self.ctx.append(("native", None, self.mask_depth))
            mark = len(self.lines)
            self.stmt(body)
            if len(self.lines) == mark:
                self.w("pass")
            flag = None
        else:
            flag = self.aux("b") if has_break else None
            if flag is not None:
                self.w(f"{flag} = 0")
            xv = self.aux("x")
            self.w(f"for {xv} in _ONE:")
            self.ctx.append(("wrap", flag, self.mask_depth))
            self._block(lambda: self.stmt(body))
        self.ctx.pop()
        self.loop_depth -= 1
        return flag

    def _while(self, s: A.While) -> None:
        self.w("while 1:")
        self.ind += 1
        self._budget_lines()
        self._loop_cond_break(s.cond)
        self._loop_body(s.body, need_wrap=False, has_break=False)
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
            self._break_if(flag)
        if s.step is not None:
            self._step(s.step)
        self.ind -= 1

    def _step(self, e: A.Node) -> None:
        """A ``for`` step, evaluated as an expression."""
        cnt: List[int] = [0, 0]
        code = self.expr(e, cnt)[0]
        self.flush(cnt)
        self.w(code)

    def _break(self) -> None:
        if not self.ctx:
            raise self.unsup("break outside loop/switch")
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
        elif kind == "wrap":
            self.w("break")
        else:
            raise self.unsup("continue inside switch")

    def _decl_local(self, d: A.VarDecl) -> None:
        """A ``__local`` / ``__shared__`` declaration (``extern``: CUDA's
        dynamic shared region)."""
        name = d.name
        t = d.type
        if "extern" in d.quals:
            elem = t.elem if isinstance(t, T.ArrayType) else t
            self.w(f"M_{name} = env.dynamic_shared_slot("
                   f"{self.tref(elem)})")
        else:
            key = f"{self.fn.name}.{name}"
            self.w(f"M_{name} = env.local_static_slot({key!r}, "
                   f"{self.tref(t)})")
        if isinstance(t, T.ArrayType) or "extern" in d.quals:
            elem = t.elem if isinstance(t, T.ArrayType) else t
            self.w(f"Md_{name} = _Ptr(M_{name}.mem, M_{name}.off, "
                   f"{self.tref(elem)})")
            self.arrays.add(name)

    # -- function assembly ---------------------------------------------------

    def _header(self, stem: str) -> List[Tuple[int, str]]:
        """Restart the line buffer with the function's ``def`` line and the
        prologue every emitter shares; returns the body emitted so far."""
        body = self.lines
        self.lines = []
        self.ind = 0
        argv = ", ".join(["env"] + [f"a{i}"
                                    for i in range(len(self.fn.params))])
        self.w(f"def {stem}{self.fn.name}({argv}):")
        self.ind = 1
        if not self.host:  # device functions are generators (barriers)
            self.w("if False:")
            self.ind += 1
            self.w("yield")
            self.ind -= 1
        if self.uses_counts:
            self.w("__C = env.launch.counters")
        if self.uses_steps:
            self.w("__steps = 0")
        return body


class _FnCodegen(_CoreCodegen):
    """Lower one function to a generator per work-item (host mode: a plain
    function)."""

    def __init__(self, u: _UnitCodegen, fn: A.FunctionDecl) -> None:
        super().__init__(u, fn)
        self.callees: Set[str] = set()
        self.has_alloc = False

    def cc_wrap(self, code: str, cnt: List[int]) -> str:
        """Wrap a conditionally-evaluated subexpression's static counts."""
        if (cnt[0] or cnt[1]) and not self.host:
            self.uses_counts = True
            return f"_cc(__C, {cnt[0]}, {cnt[1]}, {code})"
        return code

    # -- identifiers ---------------------------------------------------------

    def ident(self, e: A.Ident, cnt: List[int]) -> Tuple[str, str]:
        name = e.name
        rec = self.names.get(name)
        if rec is not None:
            cls, t = rec
            k = self.retyped.get(name) or _kind_of(t)
            if cls in ("reg", "preg"):
                return f"V_{name}", k
            if cls == "pregw":
                # reassigned parameter: value shape no longer statically known
                return f"V_{name}", "?"
            # mem
            if name in self.arrays:
                return f"Md_{name}", "p"
            return f"_ldp(env, M_{name}, {self.site()})", k
        if name in self.u.sym_names:
            # module symbol type: find the decl
            for d in self.u.unit.decls:
                if isinstance(d, A.VarDecl) and d.name == name:
                    if isinstance(d.type, T.ArrayType):
                        return f"Gd_{name}", "p"
                    return (f"_ldp(env, G_{name}, {self.site()})",
                            _kind_of(d.type))
            return f"_ldp(env, G_{name}, {self.site()})", "?"
        if name in self.u.gv_names:
            return f"__GV[{name!r}]", "?"
        if name in self.u.fns:
            raise self.unsup(f"function {name!r} used as a value")
        line = getattr(e, "loc", (0,))[0]
        if self.host:
            return f"_hid(env, {name!r}, {line})", "?"
        return f"_dynid(env, {name!r}, {line})", "?"

    # -- expressions ---------------------------------------------------------

    def expr(self, e: A.Node, cnt: List[int]) -> Tuple[str, str]:
        kind = type(e)
        if kind is A.IntLit:
            return repr(e.value), "i"
        if kind is A.FloatLit:
            return repr(e.value), "f"
        if kind is A.CharLit:
            return str(ord(e.value)), "i"
        if kind is A.StringLit:
            return f"env.intern_string({e.value!r})", "p"
        if kind is A.Ident:
            return self.ident(e, cnt)
        if kind is A.BinOp:
            return self.binop(e, cnt)
        if kind is A.UnOp:
            return self.unop(e, cnt, as_stmt=False)
        if kind is A.Assign:
            return self.assign(e, cnt, as_stmt=False)
        if kind is A.Cond:
            c, ck = self.expr(e.cond, cnt)
            tc: List[int] = [0, 0]
            a, ak = self.expr(e.then, tc)
            a = self.cc_wrap(a, tc)
            ec: List[int] = [0, 0]
            b, bk = self.expr(e.orelse, ec)
            b = self.cc_wrap(b, ec)
            k = ak if ak == bk else "?"
            return f"({a} if {self.truth(c, ck)} else {b})", k
        if kind is A.Call:
            return self.call(e, cnt)
        if kind is A.Index:
            return self.index(e, cnt)
        if kind is A.Member:
            return self.member(e, cnt)
        if kind is A.Cast:
            return self.cast(e, cnt)
        if kind is A.SizeOf:
            return self.sizeof(e, cnt)
        if kind is A.Comma:
            codes = [self.expr(x, cnt)[0] for x in e.exprs[:-1]]
            last, lk = self.expr(e.exprs[-1], cnt)
            codes.append(last)
            return f"({', '.join(codes)},)[-1]", lk
        if kind is A.InitList:
            items = [self.expr(i, cnt)[0] for i in e.items]
            return f"[{', '.join(items)}]", "?"
        if kind is A.KernelLaunch and self.host:
            return self.launch(e, cnt)
        raise self.unsup(f"cannot compile {kind.__name__} expression")

    def launch(self, e: A.KernelLaunch, cnt: List[int]) -> Tuple[str, str]:
        """CUDA ``<<<...>>>``, operands in ``Interp._eval_kernel_launch``'s
        order: grid, block, shared bytes, stream, then the arguments."""
        if not isinstance(e.kernel, A.Ident):
            raise self.unsup("kernel launch target must be a kernel name")
        ops = [self.expr(e.grid, cnt)[0], self.expr(e.block, cnt)[0]]
        ops.append(f"int({self.expr(e.shmem, cnt)[0]})"
                   if e.shmem is not None else "0")
        ops.append(self.expr(e.stream, cnt)[0]
                   if e.stream is not None else "0")
        args = ", ".join(self.expr(a, cnt)[0] for a in e.args)
        return (f"_launch(env, {e.kernel.name!r}, {', '.join(ops)}, "
                f"[{args}])", "?")

    # -- operators -----------------------------------------------------------

    def binop(self, e: A.BinOp, cnt: List[int]) -> Tuple[str, str]:
        op = e.op
        if op in ("&&", "||"):
            a, ak = self.expr(e.lhs, cnt)
            rc: List[int] = [0, 0]
            b, bk = self.expr(e.rhs, rc)
            b = self.cc_wrap(b, rc)
            j = "and" if op == "&&" else "or"
            return (f"(1 if {self.truth(a, ak)} {j} {self.truth(b, bk)} "
                    f"else 0)", "i")
        a, ak = self.expr(e.lhs, cnt)
        b, bk = self.expr(e.rhs, cnt)
        if ak in "if" and bk in "if":
            return self.arith(e, a, ak, b, bk, cnt)
        # runtime-dispatched: counts + width wrap happen inside _bop
        rt = e.ctype
        rtref = (self.tref(rt) if isinstance(rt, T.ScalarType)
                 and not rt.floating else "None")
        return f"_bop(env, {op!r}, {a}, {b}, {rtref})", "?"

    def unop(self, e: A.UnOp, cnt: List[int],
             as_stmt: bool) -> Tuple[str, str]:
        op = e.op
        if op in ("++", "--"):
            return self.incdec(e, cnt, as_stmt)
        if op == "&":
            code, t = self.lv_ptr(e.operand, cnt)
            return code, "p"
        if op == "*":
            code, k = self.expr(e.operand, cnt)
            rt = e.ctype
            return f"_ldp(env, {code}, {self.site()})", _kind_of(rt)
        code, k = self.expr(e.operand, cnt)
        if k not in "if" and op == "-":
            return f"_neg({code})", k
        if k not in "if" and op == "~":
            return f"_inv({code})", "?"
        return self._unary(op, code, k)

    def incdec(self, e: A.UnOp, cnt: List[int],
               as_stmt: bool) -> Tuple[str, str]:
        delta = 1 if e.op == "++" else -1
        t = e.operand
        if isinstance(t, A.Ident):
            rec = self.names.get(t.name)
            if rec is not None and rec[0] in ("reg", "preg", "pregw"):
                cls, dt = rec
                if t.name in self.retyped:
                    new = lambda cur: f"_incr({cur}, {delta}, T_{t.name})"
                    k = "?"
                elif cls == "reg" and _kind_of(dt) in "if":
                    k = _kind_of(dt)
                    new = lambda cur: self._stepped(
                        cur, dt, k, "+" if delta > 0 else "-")
                elif cls == "reg":
                    new = lambda cur: f"_incr({cur}, {delta}, {self.tref(dt)})"
                    k = "?"
                else:
                    new = lambda cur: f"_pinc({cur}, {delta})"
                    k = "?"
                return self._reg_incdec(e, f"V_{t.name}", new, k, as_stmt)
            # memory ident falls through to the pointer path
        code, pt = self.lv_ptr(t, cnt)
        post = "True" if e.postfix else "False"
        call = f"_incp(env, {code}, {delta}, {post}, {self.site()})"
        if as_stmt:
            self.w(call)
            return "", "?"
        return call, _kind_of(pt) if pt is not None else "?"

    # -- member / index ------------------------------------------------------

    def index(self, e: A.Index, cnt: List[int]) -> Tuple[str, str]:
        bt = e.base.ctype if isinstance(e.base, A.Expr) else None
        if isinstance(bt, T.VectorType):
            # interp routes vector indexing through _lvalue(e).get(): the
            # base is evaluated once for the Vec check and again by the
            # _VecElemLV — for memory-resident vectors that is two hooked
            # loads around the index evaluation.
            ek = "f" if bt.base.floating else "i"
            if not isinstance(e.base, A.Ident):
                raise self.unsup("vector index on non-identifier base")
            rec = self.names.get(e.base.name)
            idx, ik = self.expr(e.index, cnt)
            if ik != "i":
                idx = f"int({idx})"
            if e.base.name in self.retyped:
                raise self.unsup("vector index on a retyped name")
            if rec is not None and rec[0] in ("reg", "preg") \
                    and isinstance(rec[1], T.VectorType):
                return f"V_{e.base.name}.get(({idx},))", ek
            if (rec is not None and rec[0] == "mem") \
                    or (rec is None and e.base.name in self.u.sym_names):
                p, pt = self.lv_ptr(e.base, cnt)
                s = self.site()
                t = self.tmp()
                return (f"(_ldp(env, {p}, {s}), ({t} := {idx}), "
                        f"_ldp(env, {p}, {s}).get(({t},)))[2]", ek)
            raise self.unsup("vector index on this base")
        base, bk = self.expr(e.base, cnt)
        idx, ik = self.expr(e.index, cnt)
        elem: Optional[T.Type] = None
        if isinstance(bt, T.PointerType):
            elem = bt.pointee
        elif isinstance(bt, T.ArrayType):
            elem = bt.elem
        return (f"_ldix(env, {base}, {idx}, {self.site()})",
                _kind_of(elem) if elem is not None else "?")

    def member(self, e: A.Member, cnt: List[int]) -> Tuple[str, str]:
        bt = e.base.ctype if isinstance(e.base, A.Expr) else None
        code = self._dim_register(e)
        if code is not None:
            return code, "i"
        if e.arrow:
            base, bk = self.expr(e.base, cnt)
            return (f"_arrow(env, {base}, {e.name!r}, {self.site()})",
                    _kind_of(e.ctype))
        if isinstance(bt, T.VectorType):
            idx = swizzle_indices(e.name, bt.count)
            base, bk = self.expr(e.base, cnt)
            if idx is None or bk != "v":
                # _memb re-derives the swizzle and raises interp's errors
                return (f"_memb(env, {base}, {e.name!r}, {self.site()})", "?")
            if len(idx) == 1:
                ek = "f" if bt.base.floating else "i"
                return f"({base}).get(({idx[0]},))", ek
            return f"({base}).get({tuple(idx)!r})", "v"
        base, bk = self.expr(e.base, cnt)
        if bk == "s":
            return (f"_sfld(env, {base}, {e.name!r}, {self.site()})",
                    _kind_of(e.ctype))
        return f"_memb(env, {base}, {e.name!r}, {self.site()})", "?"

    # -- casts / sizeof ------------------------------------------------------

    def reg_co(self, name: str, code: str, t: T.Type, k: str) -> str:
        """Coercion of a store to register ``name``: through its declared
        type, or for a retyped name the type its last executed
        declaration set."""
        if name in self.retyped:
            return f"_co({code}, T_{name})"
        return self.co(code, t, k)

    def cast(self, e: A.Cast, cnt: List[int]) -> Tuple[str, str]:
        t = e.type
        if isinstance(e.expr, A.InitList):
            if isinstance(t, T.VectorType):
                items = [self.expr(i, cnt)[0] for i in e.expr.items]
                return f"_vlit({self.tref(t)}, [{', '.join(items)}])", "v"
            raise self.unsup(f"compound literal of {t}")
        code, k = self.expr(e.expr, cnt)
        if isinstance(t, T.PointerType):
            return f"_cast({code}, {self.tref(t)})", "p"
        return self.co(code, t, k), _kind_of(t)

    def sizeof(self, e: A.SizeOf, cnt: List[int]) -> Tuple[str, str]:
        size = self._static_size(e)
        if size is not None:
            return size, "i"
        code, _ = self.expr(e.expr, cnt)
        return f"_szv({code})", "i"

    # -- calls ---------------------------------------------------------------

    def call(self, e: A.Call, cnt: List[int]) -> Tuple[str, str]:
        name = e.callee_name
        if name is None:
            raise self.unsup("call through a function value")
        if e.template_args:
            raise self.unsup("templated call")
        if name in self.u.barrier_names:
            # interp raises before evaluating any argument
            return f"_barexpr({name!r})", "?"
        if name in self.u.warp_ops:
            # expression-position warp primitives raise InterpError at run
            # time (statement forms suspend on a WarpOp token instead);
            # demote so the interpreter reports the error at its own site
            raise self.unsup(f"warp primitive {name!r} in expression position")
        fn = self.u.fns.get(name)
        if fn is not None:
            if len(e.args) != len(fn.params):
                raise self.unsup(
                    f"arity mismatch calling {name!r}")
            self.callees.add(name)
            args = [self.expr(a, cnt)[0] for a in e.args]
            inner = ", ".join(["env"] + args)
            rt = fn.ret_type
            k = "?" if rt is None or getattr(rt, "is_void", False) \
                else _kind_of(rt)
            if self.host:
                return f"_F_{name}({inner})", k
            return f"_callx(_F_{name}({inner}), {name!r})", k
        query = self._work_item_query(e, cnt)
        if query is not None:
            return query
        conv = resolve_conversion(name, self.u.dialect)
        if conv is not None and len(e.args) != 1:
            raise self.unsup(f"conversion {name!r} with {len(e.args)} args")
        args = [self.expr(a, cnt)[0] for a in e.args]
        tup = ", ".join(args) + ("," if len(args) == 1 else "")
        cref = self.tref(conv) if conv is not None else "None"
        line = getattr(e, "loc", (0,))[0]
        # a host library callable may return another Python type than
        # the C prototype sema assumed (abs of a float), so host-mode
        # results are never statically kinded
        return (f"_callb(env, {name!r}, {line}, {cref}, ({tup}))",
                "?" if self.host else _kind_of(e.ctype))

    # -- lvalue pointers -----------------------------------------------------

    def lv_ptr(self, e: A.Node,
               cnt: List[int]) -> Tuple[str, Optional[T.Type]]:
        """Code evaluating to the lvalue's Ptr (no hooks fire)."""
        if isinstance(e, A.Ident):
            rec = self.names.get(e.name)
            if rec is not None and rec[0] == "mem":
                return (f"M_{e.name}",
                        None if e.name in self.retyped else rec[1])
            if rec is None and e.name in self.u.sym_names:
                for d in self.u.unit.decls:
                    if isinstance(d, A.VarDecl) and d.name == e.name:
                        return f"G_{e.name}", d.type
                return f"G_{e.name}", None
            raise self.unsup(f"cannot form lvalue for {e.name!r}")
        if isinstance(e, A.Index):
            base, bk = self.expr(e.base, cnt)
            idx, ik = self.expr(e.index, cnt)
            bt = e.base.ctype if isinstance(e.base, A.Expr) else None
            elem: Optional[T.Type] = None
            if isinstance(bt, T.PointerType):
                elem = bt.pointee
            elif isinstance(bt, T.ArrayType):
                elem = bt.elem
            return f"({base}).add(int({idx}))", elem
        if isinstance(e, A.Member):
            if e.arrow:
                base, bk = self.expr(e.base, cnt)
                bt = e.base.ctype if isinstance(e.base, A.Expr) else None
                ft = None
                if (isinstance(bt, T.PointerType)
                        and isinstance(bt.pointee, T.StructType)):
                    ft = bt.pointee.fields.get(e.name)
                return f"_fptr({base}, {e.name!r})", ft
            if isinstance(e.base, A.Ident) and (
                    e.base.name in self.u.gv_names
                    or (e.base.name not in self.names
                        and e.base.name not in self.u.sym_names)):
                raise self.unsup("attribute lvalue on opaque object")
            bp, bt = self.lv_ptr(e.base, cnt)
            if not isinstance(bt, T.StructType):
                raise self.unsup(f"member lvalue .{e.name} on {bt}")
            return f"_sfptr({bp}, {e.name!r})", bt.fields.get(e.name)
        if isinstance(e, A.UnOp) and e.op == "*":
            code, k = self.expr(e.operand, cnt)
            bt = e.operand.ctype if isinstance(e.operand, A.Expr) else None
            pt = bt.pointee if isinstance(bt, T.PointerType) else None
            return code, pt
        raise self.unsup(f"not a supported lvalue: {type(e).__name__}")

    # -- assignment ----------------------------------------------------------

    def _writes_name(self, e: A.Node, name: str) -> bool:
        for n in A.walk(e):
            if isinstance(n, A.Assign) and isinstance(n.target, A.Ident) \
                    and n.target.name == name:
                return True
            if (isinstance(n, A.UnOp) and n.op in ("++", "--")
                    and isinstance(n.operand, A.Ident)
                    and n.operand.name == name):
                return True
        return False

    def assign(self, e: A.Assign, cnt: List[int],
               as_stmt: bool) -> Tuple[str, str]:
        t = e.target
        op = e.op
        # ---- register identifiers ----
        if isinstance(t, A.Ident):
            rec = self.names.get(t.name)
            if rec is not None and rec[0] in ("reg", "preg", "pregw"):
                return self._assign_reg(e, rec, cnt, as_stmt)
            if rec is not None and rec[0] == "mem":
                p, pt = f"M_{t.name}", rec[1]
            elif rec is None and t.name in self.u.sym_names:
                p, pt = self.lv_ptr(t, cnt)
            else:
                raise self.unsup(f"cannot assign to {t.name!r}")
            return self._assign_mem(p, e, cnt, as_stmt)
        # ---- vector element/swizzle targets ----
        bt = t.base.ctype if isinstance(t, (A.Index, A.Member)) \
            and isinstance(t.base, A.Expr) else None
        if isinstance(t, A.Index) and isinstance(bt, T.VectorType):
            return self._assign_vec_index(e, bt, cnt, as_stmt)
        if isinstance(t, A.Member) and not t.arrow \
                and isinstance(bt, T.VectorType):
            return self._assign_vec_swizzle(e, bt, cnt, as_stmt)
        # ---- attributes of opaque objects (texture references) ----
        if (self.host and isinstance(t, A.Member) and not t.arrow
                and isinstance(t.base, A.Ident)):
            name = t.base.name
            if name in self.u.gv_names:
                obj = f"_hattr(__GV[{name!r}], {t.name!r})"
            elif name not in self.names and name not in self.u.sym_names:
                obj = f"_hattrc(env, {name!r}, {t.name!r})"
            else:
                obj = None
            if obj is not None:
                if op:
                    raise self.unsup("compound assignment to an attribute")
                rhs, rk = self.expr(e.value, cnt)
                code = f"_hsetattr({obj}, {t.name!r}, {rhs})"
                if as_stmt:
                    self.w(code)
                    return "", rk
                return code, rk
        # ---- memory targets ----
        if isinstance(t, A.Index):
            base, bk = self.expr(t.base, cnt)
            idx, ik = self.expr(t.index, cnt)
            site = self.site()
            if op:
                rhs, rk = self.expr(e.value, cnt)
                code = f"_stixc(env, {base}, {idx}, {op!r}, {rhs}, {site})"
            else:
                rhs, rk = self.expr(e.value, cnt)
                code = f"_stix(env, {base}, {idx}, {rhs}, {site})"
            if as_stmt:
                self.w(code)
                return "", "?"
            return code, (rk if not op else "?")
        if isinstance(t, (A.Member, A.UnOp)):
            if isinstance(t, A.UnOp) and t.op != "*":
                raise self.unsup(f"assignment to unary {t.op!r}")
            if isinstance(t, A.Member):
                p, pt = self.lv_ptr(t, cnt)
            else:
                p, pt = self.lv_ptr(t, cnt)
            return self._assign_mem(p, e, cnt, as_stmt)
        raise self.unsup(
            f"assignment to {type(t).__name__} target")

    def _assign_mem(self, p: str, e: A.Assign, cnt: List[int],
                    as_stmt: bool) -> Tuple[str, str]:
        site = self.site()
        rhs, rk = self.expr(e.value, cnt)
        if e.op:
            code = f"_stpc(env, {p}, {e.op!r}, {rhs}, {site})"
            k = "?"
        else:
            code = f"_stp(env, {p}, {rhs}, {site})"
            k = rk
        if as_stmt:
            self.w(code)
            return "", k
        return code, k

    def _assign_reg(self, e: A.Assign, rec: Tuple[str, T.Type],
                    cnt: List[int], as_stmt: bool) -> Tuple[str, str]:
        cls, dt = rec
        name = e.target.name
        v = f"V_{name}"
        rhs, rk = self.expr(e.value, cnt)
        if cls == "reg":
            tk = self.retyped.get(name) or _kind_of(dt)
            if not e.op:
                if as_stmt:
                    self.w(f"{v} = {self.reg_co(name, rhs, dt, rk)}")
                    return "", rk
                tmp = self.tmp()
                co2 = self.reg_co(name, tmp, dt, rk)
                return f"(({tmp} := {rhs}), ({v} := {co2}), {tmp})[2]", rk
            # compound: cur read after rhs (use a temp)
            if as_stmt:
                tmp = self.tmp()
                self.w(f"{tmp} = {rhs}")
                applied, ak = self._apply_code(e.op, v, tmp, tk, rk)
                self.w(f"{v} = {self.reg_co(name, applied, dt, ak)}")
                return "", "?"
            tmp = self.tmp()
            tmp2 = self.tmp()
            applied, ak = self._apply_code(e.op, v, tmp, tk, rk)
            return (f"(({tmp} := {rhs}), ({tmp2} := {applied}), "
                    f"({v} := {self.reg_co(name, tmp2, dt, ak)}), "
                    f"{tmp2})[3]", ak)
        # parameter register: coerce through the current-value rule
        if not e.op:
            if as_stmt and not self._writes_name(e.value, name):
                self.w(f"{v} = _pco({v}, {rhs})")
                return "", rk
            to = self.tmp()
            tn = self.tmp()
            code = (f"(({to} := {v}), ({tn} := {rhs}), "
                    f"({v} := _pco({to}, {tn})), {tn})[3]")
            if as_stmt:
                self.w(code)
                return "", rk
            return code, rk
        # compound on a parameter register: interp captures the coercion
        # ctype from the value *before* rhs, reads cur *after* rhs, and
        # returns the applied (pre-coercion) value
        to = self.tmp()
        tn = self.tmp()
        tmp2 = self.tmp()
        code = (f"(({to} := {v}), ({tn} := {rhs}), "
                f"({tmp2} := _ab({e.op!r}, {v}, {tn}, env)), "
                f"({v} := _pco({to}, {tmp2})), {tmp2})[4]")
        if as_stmt:
            self.w(code)
            return "", "?"
        return code, "?"

    def _vec_parts(self, vt: T.VectorType,
                   nidx: int) -> Tuple[str, str]:
        elt = vt.base if nidx == 1 else T.VectorType(vt.base, nidx)
        return self.tref(vt), self.tref(elt)

    def _assign_vec_index(self, e: A.Assign, vt: T.VectorType,
                          cnt: List[int], as_stmt: bool) -> Tuple[str, str]:
        t = e.target
        base = t.base
        if not isinstance(base, A.Ident):
            raise self.unsup("vector element assignment on complex base")
        rec = self.names.get(base.name)
        idx, ik = self.expr(t.index, cnt)
        if ik != "i":
            idx = f"int({idx})"
        if base.name in self.retyped:
            raise self.unsup("vector element assignment on a retyped name")
        if rec is not None and rec[0] == "reg" \
                and isinstance(rec[1], T.VectorType):
            return self._assign_vec_reg(e, rec[1], f"({idx},)", 1, cnt,
                                        as_stmt, need_tmp_idx=True)
        if rec is not None and rec[0] == "mem" \
                or (rec is None and base.name in self.u.sym_names):
            p, pt = self.lv_ptr(base, cnt)
            site = self.site()
            rhs, rk = self.expr(e.value, cnt)
            # Index lvalues evaluate (and load) the base vector first
            if e.op:
                code = (f"(_ldp(env, {p}, {site}), _vaug_m(env, {p}, "
                        f"({idx},), {e.op!r}, {rhs}, {site}))[1]")
            else:
                code = (f"(_ldp(env, {p}, {site}), _vset_m(env, {p}, "
                        f"({idx},), {rhs}, {site}))[1]")
            if as_stmt:
                self.w(code)
                return "", "?"
            return code, "?"
        raise self.unsup("vector element assignment on this base")

    def _assign_vec_swizzle(self, e: A.Assign, vt: T.VectorType,
                            cnt: List[int], as_stmt: bool) -> Tuple[str, str]:
        t = e.target
        base = t.base
        idx = swizzle_indices(t.name, vt.count)
        if idx is None:
            raise self.unsup(f"bad swizzle .{t.name}")
        sidx = f"({', '.join(str(i) for i in idx)},)"
        if not isinstance(base, A.Ident):
            raise self.unsup("swizzle assignment on complex base")
        rec = self.names.get(base.name)
        if base.name in self.retyped:
            raise self.unsup("swizzle assignment on a retyped name")
        if rec is not None and rec[0] == "reg" \
                and isinstance(rec[1], T.VectorType):
            return self._assign_vec_reg(e, rec[1], sidx, len(idx), cnt,
                                        as_stmt, need_tmp_idx=False)
        if rec is not None and rec[0] == "mem" \
                or (rec is None and base.name in self.u.sym_names):
            p, pt = self.lv_ptr(base, cnt)
            site = self.site()
            rhs, rk = self.expr(e.value, cnt)
            if e.op:
                code = (f"_vaug_m(env, {p}, {sidx}, {e.op!r}, {rhs}, "
                        f"{site})")
            else:
                code = f"_vset_m(env, {p}, {sidx}, {rhs}, {site})"
            if as_stmt:
                self.w(code)
                return "", "?"
            return code, "?"
        raise self.unsup("swizzle assignment on this base")

    def _assign_vec_reg(self, e: A.Assign, vt: T.VectorType, sidx: str,
                        nidx: int, cnt: List[int], as_stmt: bool,
                        need_tmp_idx: bool) -> Tuple[str, str]:
        name = e.target.base.name
        v = f"V_{name}"
        vref, eref = self._vec_parts(vt, nidx)
        pre: List[str] = []
        if need_tmp_idx:
            iv = self.tmp()
            if as_stmt:
                self.w(f"{iv} = {sidx}")
            else:
                pre.append(f"({iv} := {sidx})")
            sidx = iv
        # rhs evaluates before any register read (interp order)
        rhs, rk = self.expr(e.value, cnt)
        tr = self.tmp()
        if as_stmt:
            self.w(f"{tr} = {rhs}")
        else:
            pre.append(f"({tr} := {rhs})")
        if e.op:
            inner = f"_co(_ab({e.op!r}, {v}.get({sidx}), {tr}, env), {eref})"
        else:
            inner = f"_co({tr}, {eref})"
        setcode = f"_co({v}.with_set({sidx}, {inner}), {vref})"
        if as_stmt:
            self.w(f"{v} = {setcode}")
            return "", "?"
        parts = pre + [f"({v} := {setcode})", f"{v}.get({sidx})"]
        return f"({', '.join(parts)})[{len(parts) - 1}]", "?"

    # -- statements ----------------------------------------------------------

    def expr_stmt(self, e: A.Node) -> None:
        cnt: List[int] = [0, 0]
        if isinstance(e, A.Call) and e.callee_name is not None:
            name = e.callee_name
            if name in self.u.barrier_names:
                args = [self.expr(a, cnt)[0] for a in e.args]
                self.flush(cnt)
                for a in args:
                    self.w(a)
                self.w("yield _B")
                return
            wk = self.u.warp_ops.get(name)
            if wk is not None:
                self._warp_yield(wk, e, cnt)
                return
            fn = self.u.fns.get(name)
            if fn is not None:
                if e.template_args:
                    raise self.unsup("templated call")
                if len(e.args) != len(fn.params):
                    raise self.unsup(f"arity mismatch calling {name!r}")
                self.callees.add(name)
                args = [self.expr(a, cnt)[0] for a in e.args]
                self.flush(cnt)
                inner = ", ".join(["env"] + args)
                self.w(f"{'' if self.host else 'yield from '}"
                       f"_F_{name}({inner})")
                return
        if (isinstance(e, A.Assign) and isinstance(e.value, A.Call)
                and e.value.callee_name in self.u.warp_ops):
            self._warp_assign(e, cnt)
            return
        self._plain_stmt(e, cnt)

    def assign_stmt(self, e: A.Assign, cnt: List[int]) -> None:
        self.assign(e, cnt, as_stmt=True)

    def incdec_stmt(self, e: A.UnOp, cnt: List[int]) -> None:
        self.incdec(e, cnt, as_stmt=True)

    def _warp_yield(self, wk: str, call: A.Call,
                    cnt: List[int]) -> str:
        """Evaluate the primitive's arguments, flush counts, and suspend on
        a WarpOp token (mirrors the interpreter's statement-position arms);
        returns the name holding the rendezvous result."""
        args = [self.expr(a, cnt)[0] for a in call.args]
        self.flush(cnt)
        tup = ", ".join(args) + ("," if len(args) == 1 else "")
        r = self.tmp()
        self.w(f"{r} = yield _WOP({wk!r}, ({tup}), {self.site()})")
        return r

    def _warp_assign(self, e: A.Assign, cnt: List[int]) -> None:
        """``x = __shfl(...)`` / ``x op= __ballot(...)`` statement forms."""
        call = e.value
        wk = self.u.warp_ops[call.callee_name]
        t = e.target
        rec = self.names.get(t.name) if isinstance(t, A.Ident) else None
        if rec is None or rec[0] != "reg":
            raise self.unsup(
                "warp primitive assigned to a non-register target")
        _cls, dt = rec
        r = self._warp_yield(wk, call, cnt)
        if e.op:
            # uncounted apply, exactly like the interpreter's Assign arm
            self.w(f"{r} = _ab({e.op!r}, V_{t.name}, {r}, env)")
        self.w(f"V_{t.name} = {self.reg_co(t.name, r, dt, '?')}")

    def _other_stmt(self, s: A.Node) -> None:
        if type(s) is A.DoWhile:
            self._dowhile(s)
        elif type(s) is A.Switch:
            self._switch(s)
        else:
            raise self.unsup(f"cannot compile {type(s).__name__} statement")

    def _dowhile(self, s: A.DoWhile) -> None:
        has_b, has_c = _scan_signals(s.body)
        self.w("while 1:")
        self.ind += 1
        self._budget_lines()
        flag = self._loop_body(s.body, need_wrap=has_c, has_break=has_b)
        if flag is not None:
            self._break_if(flag)
        self._loop_cond_break(s.cond)
        self.ind -= 1

    def _switch(self, s: A.Switch) -> None:
        cnt: List[int] = [0, 0]
        c, _ = self.expr(s.cond, cnt)
        self.flush(cnt)
        sw = self.aux("sw")
        m = self.aux("m")
        xv = self.aux("x")
        self.w(f"{sw} = {c}")
        self.w(f"{m} = 0")
        self.w(f"for {xv} in _ONE:")
        self.ind += 1
        self.ctx.append(("switch", None, self.mask_depth))
        for case in s.cases:
            if case.value is None:
                self.w(f"if not {m}:")
                self.ind += 1
                self.w(f"{m} = 1")
                self.ind -= 1
            else:
                vc: List[int] = [0, 0]
                vcode, _ = self.expr(case.value, vc)
                vcode = self.cc_wrap(vcode, vc)
                self.w(f"if not {m} and ({vcode} == {sw}):")
                self.ind += 1
                self.w(f"{m} = 1")
                self.ind -= 1
            if case.stmts:
                self.w(f"if {m}:")
                self._block(lambda stmts=case.stmts:
                            [self.stmt(st) for st in stmts])
        self.ctx.pop()
        self.ind -= 1

    def _return(self, s: A.Return) -> None:
        cnt: List[int] = [0, 0]
        if s.value is None:
            self.flush(cnt)
            self.w("return None")
            return
        code, k = self.expr(s.value, cnt)
        self.flush(cnt)
        rt = self.fn.ret_type
        if rt is None or getattr(rt, "is_void", False):
            self.w(f"return {code}")  # raw value (interp void-return quirk)
            return
        if isinstance(rt, T.ScalarType) and k in "if":
            self.w(f"return {self.co(code, rt, k)}")
            return
        self.w(f"return _rco({code}, {self.tref(rt)})")

    # -- declarations --------------------------------------------------------

    def decl(self, d: A.VarDecl) -> None:
        if d.space == T.AddressSpace.LOCAL:
            self._decl_local(d)
            return
        name = d.name
        t = d.type
        if self.names[name][0] == "mem":
            size = t.size
            if size is None:
                raise self.unsup(f"incomplete type for {name!r}")
            align = max(t.align, 1)
            self.has_alloc = True
            self.w(f"Mo_{name} = __stk.alloc({size}, {align})")
            self.w(f"M_{name} = _Ptr(__pm, Mo_{name}, {self.tref(t)})")
            if isinstance(t, T.ArrayType):
                self.w(f"Md_{name} = _Ptr(__pm, Mo_{name}, "
                       f"{self.tref(t.elem)})")
            if d.init is not None:
                self.store_init(f"Mo_{name}", t, d.init)
            elif isinstance(t, T.StructType):
                self.w(f'__pm.write_bytes(Mo_{name}, b"\\0" * {size})')
            return
        # register
        v = f"V_{name}"
        if d.init is not None:
            cnt: List[int] = [0, 0]
            if (isinstance(d.init, A.Call)
                    and d.init.callee_name in self.u.warp_ops):
                wk = self.u.warp_ops[d.init.callee_name]
                r = self._warp_yield(wk, d.init, cnt)
                self.w(f"{v} = {self.co(r, t, '?')}")
            elif isinstance(d.init, A.InitList) and isinstance(t, T.VectorType):
                items = [self.expr(i, cnt)[0] for i in d.init.items]
                self.flush(cnt)
                self.w(f"{v} = _vdecl({self.tref(t)}, "
                       f"[{', '.join(items)}])")
            else:
                code, k = self.expr(d.init, cnt)
                self.flush(cnt)
                self.w(f"{v} = {self.co(code, t, k)}")
        else:
            k = _kind_of(t)
            if k == "f":
                self.w(f"{v} = 0.0")
            elif isinstance(t, T.VectorType):
                self.w(f"{v} = Vec({self.tref(t)}, [0] * {t.count})")
            else:
                self.w(f"{v} = 0")
        if name in self.retyped:
            self.w(f"T_{name} = {self.tref(t)}")

    def store_init(self, off: str, t: T.Type, init: A.Node) -> None:
        """Static expansion of Interp._store_init at stack offset ``off``
        (no accounting hooks fire, as in the interpreter)."""
        if isinstance(init, A.InitList):
            if isinstance(t, T.ArrayType):
                esz = sizeof(t.elem)
                n = t.length or len(init.items)
                for i in range(n):
                    sub = f"{off} + {i * esz}" if i else off
                    if i < len(init.items):
                        self.store_init(sub, t.elem, init.items[i])
                    else:
                        self.w(f'__pm.write_bytes({sub}, '
                               f'b"\\0" * {t.elem.size or 1})')
                return
            if isinstance(t, T.StructType):
                names = list(t.fields)
                for i, fname in enumerate(names):
                    foff = t.field_offset(fname)
                    sub = f"{off} + {foff}" if foff else off
                    ft = t.fields[fname]
                    if i < len(init.items):
                        self.store_init(sub, ft, init.items[i])
                    else:
                        self.w(f'__pm.write_bytes({sub}, '
                               f'b"\\0" * {ft.size or 1})')
                return
            if isinstance(t, T.VectorType):
                cnt: List[int] = [0, 0]
                items = [self.expr(i, cnt)[0] for i in init.items]
                self.flush(cnt)
                self.w(f"_Ptr(__pm, {off}, {self.tref(t)}).store("
                       f"_vdecl({self.tref(t)}, [{', '.join(items)}]))")
                return
            # scalar init with braces
            cnt = [0, 0]
            if init.items:
                code, k = self.expr(init.items[0], cnt)
            else:
                code, k = "0", "i"
            self.flush(cnt)
            self._store_scalar(off, t, code, k)
            return
        cnt = [0, 0]
        code, k = self.expr(init, cnt)
        self.flush(cnt)
        self._store_scalar(off, t, code, k)

    def _store_scalar(self, off: str, t: T.Type, code: str, k: str) -> None:
        if isinstance(t, T.ScalarType) and t.name != "void" and k in "if":
            # write_scalar applies the identical wrap/float conversion
            self.w(f"__pm.write_scalar({off}, _T_{t.name}, {code})")
        else:
            self.w(f"_Ptr(__pm, {off}, {self.tref(t)}).store("
                   f"_co({code}, {self.tref(t)}))")

    # -- function assembly ---------------------------------------------------

    def emit(self) -> Tuple[str, Set[str]]:
        self.prepass()
        fn = self.fn
        # body first: prologue depends on what the body used
        self.ind = 2  # def(0) > try(1) > body(2); re-based later if no try
        for i, p in enumerate(fn.params):
            rec = self.names[p.name]
            if rec[0] == "mem":
                self.has_alloc = True
                pt = p.type
                self.w(f"Mo_{p.name} = __stk.alloc({sizeof(pt)}, {pt.align})")
                self.w(f"M_{p.name} = _Ptr(__pm, Mo_{p.name}, "
                       f"{self.tref(pt)})")
                self.w(f"M_{p.name}.store(_co(a{i}, {self.tref(pt)}))")
                if isinstance(pt, T.ArrayType):
                    self.w(f"Md_{p.name} = _Ptr(__pm, Mo_{p.name}, "
                           f"{self.tref(pt.elem)})")
            else:
                pt = p.type
                if isinstance(pt, (T.OpaqueType, T.ImageType, T.SamplerType,
                                   T.TextureType, T.StructType, T.ArrayType)):
                    self.w(f"V_{p.name} = a{i}")
                else:
                    self.w(f"V_{p.name} = _co(a{i}, {self.tref(pt)})")
        self.stmt(fn.body)
        body = self._header("_F_")
        if self.has_alloc:
            self.w("__stk = env.stack")
            self.w("__pm = __stk.mem")
            self.w("__mark = __stk.sp")
            self.w("try:")
        out = [("    " * ind + text) for ind, text in self.lines]
        shift = 0 if self.has_alloc else -1
        if not body:
            body = [(2, "pass")]
        for ind, text in body:
            out.append("    " * (ind + shift) + text)
        if self.has_alloc:
            out.append("    finally:")
            out.append("        __stk.sp = __mark")
        return "\n".join(out), self.callees


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def compile_unit(unit: A.TranslationUnit, dialect: str) -> CompiledSource:
    """Lower every device function in ``unit`` to Python generator source.

    Functions using unsupported constructs are recorded in ``fallbacks``
    and excluded (together with their transitive callers) from
    ``kernel_names``; the engine runs those kernels through the
    interpreter.  Kernels that compiled scalar are additionally offered to
    the warp-vectorized codegen (:mod:`repro.clike.vectorize`), populating
    ``vector_source``/``vector_kernel_names``/``vector_fallbacks`` — the
    top rung of the ``vector -> compiled -> interp`` demotion ladder.
    Never raises for per-function issues.
    """
    return _UnitCodegen(unit, dialect).run()


#: most recently used kernel modules :func:`compile_module` keeps
_MEMO_SIZE = 128
_MEMO: OrderedDict[Tuple[str, str], CompiledSource] = OrderedDict()
_MEMO_LOCK = threading.Lock()


def compile_module(unit: A.TranslationUnit,
                   dialect: str) -> Tuple[CompiledSource, bool]:
    """:func:`compile_unit` behind the process-wide kernel-module memo.

    Keyed by dialect and printed module, it keeps the 128 most recently
    used artifacts together with the code objects :func:`bind_unit`
    compiles into them, so a hit skips codegen and ``compile()`` alike.
    Returns the artifact and whether the memo held it.
    """
    key = (dialect, print_unit(unit, dialect))
    with _MEMO_LOCK:
        cs = _MEMO.get(key)
        if cs is not None:
            _MEMO.move_to_end(key)
            return cs, True
    cs = compile_unit(unit, dialect)
    with _MEMO_LOCK:
        _MEMO[key] = cs
        if len(_MEMO) > _MEMO_SIZE:
            _MEMO.popitem(last=False)
    return cs, False


def compile_host_unit(unit: A.TranslationUnit,
                      dialect: str) -> CompiledSource:
    """Lower a host program's ``main`` and its callees (host mode).

    Host mode emits plain functions (host code never reaches a barrier),
    counts no ops (``HostEnv`` has no launch counters; it keeps
    ``ExecEnv``'s no-op ``access_site``/``count_op``), resolves
    environment identifiers on every evaluation, and runs CUDA
    ``<<<...>>>`` launches through the environment's ``__cuda_launch__``.
    Functions outside the covered subset are recorded in ``fallbacks``
    together with their callers; ``kernel_names`` lists the lowered
    functions.  ``unit`` must be annotated, as constructing the host
    :class:`~repro.clike.interp.Interp` does.
    """
    return _UnitCodegen(unit, dialect, host=True).run()


def bind_host(interp: Any, cs: CompiledSource) -> Dict[str, Any]:
    """Bind host-mode ``cs`` to ``interp``'s file scope, after
    ``init_globals`` and any runtime ``attach``; returns ``{name:
    function}``, each called as ``fn(env, *args)``.  Raises
    :class:`CompileUnsupported` when that file scope is not the one
    codegen assumed (see :func:`host_globals`)."""
    slots, values = host_globals(interp.unit)
    have_slots = interp.global_slots.keys()
    have_values = interp.global_values.keys()
    odd = sorted((slots ^ have_slots) | (values ^ have_values))
    if odd:
        raise CompileUnsupported(
            f"file-scope name {odd[0]!r} bound other than codegen assumed")
    return bind_unit(interp.unit, cs, interp.global_slots,
                     interp.global_values)[0]


def _collect_structs(unit: A.TranslationUnit) -> Dict[str, T.StructType]:
    out: Dict[str, T.StructType] = {}

    def visit(t: Optional[T.Type]) -> None:
        if isinstance(t, T.StructType):
            if t.name and t.name not in out:
                out[t.name] = t
                for ft in t.fields.values():
                    visit(ft)
        elif isinstance(t, T.PointerType):
            visit(t.pointee)
        elif isinstance(t, T.ArrayType):
            visit(t.elem)
        elif isinstance(t, T.VectorType):
            pass

    for node in A.walk(unit):
        for attr in ("type", "ctype", "ret_type", "struct_type"):
            t = getattr(node, attr, None)
            if isinstance(t, T.Type):
                visit(t)
    return out


def bind_unit(unit: A.TranslationUnit, cs: CompiledSource,
              symbols: Dict[str, Ptr], globals_values: Dict[str, Any]
              ) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, str]]:
    """``exec`` both sections of ``cs`` into one namespace bound to a
    module's device state.

    Returns ``(entries, vector_entries, vector_fallbacks)``: ``{kernel:
    generator function}`` per section and the vector tier's demotion
    reasons.  The scalar section runs first, and an error in it
    propagates: the caller demotes the whole module.  An error in the
    warp section demotes only the vector tier, recorded for each of its
    kernels in ``vector_fallbacks``.
    """
    # local import: vectorize imports this module for the shared tables
    from .vectorize import WARP_HELPERS
    ns = _base_namespace()
    ns.update(WARP_HELPERS)
    # the struct table walks the whole unit; most sources never read it
    ns["__STRUCTS"] = (_collect_structs(unit)
                       if "__STRUCTS[" in cs.source
                       or "__STRUCTS[" in cs.vector_source else {})
    ns["__GV"] = globals_values
    for name, ptr in symbols.items():
        ns[f"G_{name}"] = ptr
        if isinstance(ptr.ctype, T.ArrayType):
            ns[f"Gd_{name}"] = Ptr(ptr.mem, ptr.off, ptr.ctype.elem)
    if cs.code is None:
        cs.code = compile(cs.source, "<repro-codegen>", "exec")
    exec(cs.code, ns)
    entries = {k: ns[f"_F_{k}"] for k in cs.kernel_names}
    vector_fallbacks = dict(cs.vector_fallbacks)
    if not cs.vector_kernel_names:
        return entries, {}, vector_fallbacks
    try:
        if cs.vector_code is None:
            cs.vector_code = compile(cs.vector_source,
                                     "<repro-warp-codegen>", "exec")
        exec(cs.vector_code, ns)
    except Exception as e:
        reason = f"warp section failed: {type(e).__name__}: {e}"
        vector_fallbacks.update(dict.fromkeys(cs.vector_kernel_names,
                                              reason))
        return entries, {}, vector_fallbacks
    return (entries, {k: ns[f"_W_{k}"] for k in cs.vector_kernel_names},
            vector_fallbacks)
