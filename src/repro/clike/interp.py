"""Tree-walking interpreter for the C-like AST.

One interpreter executes both host programs (``main()`` calling simulated
cl*/cuda* APIs) and device kernels (driven per work-item by the device
engine).  The difference is the :class:`ExecEnv`, which supplies built-in
functions, special variables (``threadIdx`` ...), memory for stack frames,
and instrumentation hooks for the performance model.

Barrier semantics: statement execution is generator-based; a call to a
barrier built-in (``barrier`` / ``__syncthreads``) *yields* control, and the
device engine resumes all work-items of a group in lock-step phases.  A
barrier in a non-statement position (inside a larger expression) is
rejected — the corpus never does this, and real GPUs make it UB under
divergence anyway.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import InterpError
from ..runtime.memory import Memory
from ..runtime.values import Ptr, StructRef, Vec, coerce, sizeof
from . import ast as A
from . import types as T
from .dialect import Dialect, get_dialect
from .sema import annotate_unit, resolve_conversion
from .stdlib import swizzle_indices

__all__ = ["ExecEnv", "Stack", "Interp", "BARRIER", "WarpOp", "DebugTrap",
           "WARP_OP_KINDS"]

#: token yielded at barriers
BARRIER = "barrier"


class WarpOp:
    """Suspension token for a warp-level primitive (vote / shuffle).

    A lane that executes ``__ballot``/``__shfl``/... yields one of these
    and suspends; the warp scheduler (:mod:`repro.device.sched`) collects
    every lane of the warp suspended at the same ``(kind, site)``, computes
    each lane's result from the whole rendezvous group, and resumes the
    lanes with ``gen.send(result)``.  ``site`` identifies the syntactic
    call site (``id(node)`` for the interpreter, a codegen-assigned literal
    for the compile tier) so lanes diverged onto *different* warp
    primitives never rendezvous with each other.
    """

    __slots__ = ("kind", "args", "site")

    def __init__(self, kind: str, args: Tuple[Any, ...], site: int) -> None:
        self.kind = kind
        self.args = args
        self.site = site

    def __repr__(self) -> str:  # pragma: no cover
        return f"WarpOp({self.kind}, site={self.site})"


class DebugTrap:
    """Suspension token for a debugger stop.

    When an :class:`Interp` has a ``debug_sink`` attached and the sink asks
    to stop at a statement, the interpreter yields one of these *before*
    executing the statement and suspends.  The warp scheduler parks the
    lane (stop-the-world within the work-group) and hands control to the
    debugger, which inspects live frames through ``interp`` and resumes
    with ``gen.send(None)`` — the statement then executes normally, so no
    re-trap guard is needed on resume.
    """

    __slots__ = ("interp", "node")

    def __init__(self, interp: "Interp", node: A.Node) -> None:
        self.interp = interp
        self.node = node

    def __repr__(self) -> str:  # pragma: no cover
        return f"DebugTrap(line={self.node.loc[0]})"


#: CUDA warp-primitive name -> :class:`WarpOp` kind.  The device
#: environment exposes these through :meth:`ExecEnv.warp_op_kind`; other
#: environments leave them undefined.
WARP_OP_KINDS: Dict[str, str] = {
    "__all": "all", "__any": "any", "__ballot": "ballot",
    "__shfl": "shfl", "__shfl_up": "shfl_up",
    "__shfl_down": "shfl_down", "__shfl_xor": "shfl_xor",
}

#: sentinel distinguishing "no override" from "override with None"
_NO_INIT = object()


class Stack:
    """Bump-pointer stack allocator over a Memory pool (frame locals)."""

    __slots__ = ("mem", "sp")

    def __init__(self, mem: Memory) -> None:
        self.mem = mem
        self.sp = 0

    def mark(self) -> int:
        return self.sp

    def release(self, mark: int) -> None:
        self.sp = mark

    def alloc(self, size: int, align: int = 16) -> int:
        off = -(-self.sp // align) * align
        if off + size > self.mem.size:
            raise InterpError(
                f"stack overflow: need {size} bytes at {off}, "
                f"stack size {self.mem.size}")
        self.sp = off + size
        return off


class ExecEnv:
    """Execution environment: built-ins, special variables, instrumentation.

    Subclassed by the host environment (:mod:`repro.clike.hostlib`) and the
    device environment (:mod:`repro.device.engine`).
    """

    def __init__(self, stack_size: int = 1 << 20) -> None:
        self.stack = Stack(Memory("stack", stack_size))

    # -- name resolution -------------------------------------------------------

    def builtin(self, name: str) -> Optional[Callable[..., Any]]:
        """A Python callable implementing built-in ``name``, or None."""
        return None

    def bind_builtin(self, name: str) -> Optional[Callable[..., Any]]:
        """:meth:`builtin` as generated code looks it up; an environment
        may bind only the names its code calls."""
        return self.builtin(name)

    def special_var(self, name: str) -> Any:
        """Value of implicitly-declared variable ``name``.

        Raise KeyError when there is none.
        """
        raise KeyError(name)

    def constant(self, name: str) -> Any:
        """Value of enum/macro constant ``name`` (CL_*, cuda* enums...).

        Raise KeyError when there is none.
        """
        raise KeyError(name)

    def is_barrier(self, name: str) -> bool:
        return False

    def warp_op_kind(self, name: str) -> Optional[str]:
        """:class:`WarpOp` kind for warp-primitive ``name``, or ``None``
        when the name is not a warp primitive in this environment.  Like
        barriers, warp primitives suspend the work-item, so they are only
        legal in statement position (the device scheduler resumes them)."""
        return None

    # -- device memory hooks (overridden by the device engine) -----------------

    def local_static_slot(self, name: str, ctype: T.Type) -> Ptr:
        """Slot for a static __shared__/__local declaration."""
        raise InterpError(
            f"__local/__shared__ variable {name!r} outside device execution")

    def dynamic_shared_slot(self, elem: T.Type) -> Ptr:
        """CUDA ``extern __shared__`` dynamic region."""
        raise InterpError(
            "extern __shared__ outside device execution")

    # -- instrumentation ---------------------------------------------------------

    def on_load(self, ptr: Ptr, nbytes: int, node: A.Node) -> None:
        pass

    def on_store(self, ptr: Ptr, nbytes: int, node: A.Node) -> None:
        pass

    def count_op(self, kind: str, n: int = 1) -> None:
        pass

    def access_site(self, mem: Memory, off: int, nbytes: int, site: int,
                    load: bool) -> None:
        """One access at a generated-code site (``repro.clike.compile``
        helpers); the hook-level twin of :meth:`on_load`/:meth:`on_store`."""
        pass

    # -- strings -------------------------------------------------------------------

    def intern_string(self, s: str) -> Ptr:
        data = s.encode("utf-8") + b"\0"
        off = self.stack.mem.size - len(data) - getattr(self, "_str_top", 0)
        cache = getattr(self, "_str_cache", None)
        if cache is None:
            cache = {}
            self._str_cache: Dict[str, Ptr] = cache
            self._str_top = 0
        hit = cache.get(s)
        if hit is not None:
            return hit
        self._str_top += len(data)
        off = self.stack.mem.size - self._str_top
        self.stack.mem.write_bytes(off, data)
        p = Ptr(self.stack.mem, off, T.CHAR)
        cache[s] = p
        return p


# ---------------------------------------------------------------------------
# lvalues
# ---------------------------------------------------------------------------

class _RegLV:
    __slots__ = ("regs", "name", "ctype")

    def __init__(self, regs: Dict[str, Any], name: str, ctype: T.Type) -> None:
        self.regs = regs
        self.name = name
        self.ctype = ctype

    def get(self):
        return self.regs[self.name]

    def set(self, value) -> None:
        self.regs[self.name] = coerce(value, self.ctype)


class _MemLV:
    __slots__ = ("ptr", "env", "node")

    def __init__(self, ptr: Ptr, env: ExecEnv, node: A.Node) -> None:
        self.ptr = ptr
        self.env = env
        self.node = node

    @property
    def ctype(self) -> T.Type:
        return self.ptr.ctype

    def get(self):
        nbytes = self.ptr.ctype.size or 1
        self.env.on_load(self.ptr, nbytes, self.node)
        return self.ptr.load()

    def set(self, value) -> None:
        nbytes = self.ptr.ctype.size or 1
        self.env.on_store(self.ptr, nbytes, self.node)
        self.ptr.store(coerce(value, self.ptr.ctype))


class _AttrLV:
    """Lvalue over a Python object's attribute (CUDA texture references:
    ``tex.filterMode = cudaFilterModeLinear``)."""

    __slots__ = ("obj", "name")

    def __init__(self, obj: Any, name: str) -> None:
        if not hasattr(obj, name):
            raise InterpError(
                f"{type(obj).__name__} has no attribute {name!r}")
        self.obj = obj
        self.name = name

    @property
    def ctype(self) -> T.Type:
        return T.INT

    def get(self):
        return getattr(self.obj, self.name)

    def set(self, value) -> None:
        setattr(self.obj, self.name, value)


class _ListElemLV:
    """Lvalue over a Python list element (``tex.addressMode[0] = ...``)."""

    __slots__ = ("lst", "idx")

    def __init__(self, lst: List[Any], idx: int) -> None:
        self.lst = lst
        self.idx = idx

    @property
    def ctype(self) -> T.Type:
        return T.INT

    def get(self):
        return self.lst[self.idx]

    def set(self, value) -> None:
        self.lst[self.idx] = value


class _VecElemLV:
    __slots__ = ("base", "indices", "ctype")

    def __init__(self, base, indices: List[int], basetype: T.VectorType) -> None:
        self.base = base
        self.indices = indices
        if len(indices) == 1:
            self.ctype: T.Type = basetype.base
        else:
            self.ctype = T.VectorType(basetype.base, len(indices))

    def get(self):
        vec = self.base.get()
        return vec.get(self.indices)

    def set(self, value) -> None:
        vec = self.base.get()
        self.base.set(vec.with_set(self.indices, coerce(value, self.ctype)))


# ---------------------------------------------------------------------------
# frames & control-flow signals
# ---------------------------------------------------------------------------

class _Frame:
    __slots__ = ("regs", "memvars", "type_bindings", "stack_mark", "fn")

    def __init__(self, fn: Optional[A.FunctionDecl], stack_mark: int) -> None:
        self.fn = fn
        self.regs: Dict[str, Any] = {}
        self.memvars: Dict[str, Ptr] = {}
        self.type_bindings: Dict[str, T.Type] = {}
        self.stack_mark = stack_mark


class _ReturnSig(Exception):
    def __init__(self, value) -> None:
        self.value = value


class _BreakSig(Exception):
    pass


class _ContinueSig(Exception):
    pass


class FunctionVal:
    """A function used as a value (function pointers)."""

    __slots__ = ("decl",)

    def __init__(self, decl: A.FunctionDecl) -> None:
        self.decl = decl


# ---------------------------------------------------------------------------
# the interpreter
# ---------------------------------------------------------------------------

_MAX_STEPS_DEFAULT = 50_000_000


class Interp:
    """Interpreter for one translation unit under one environment."""

    def __init__(self, unit: A.TranslationUnit, env: ExecEnv,
                 dialect: "Dialect | str | None" = None,
                 globals_mem: Optional[Memory] = None,
                 annotate: bool = True) -> None:
        self.unit = unit
        self.env = env
        if dialect is None:
            dialect = unit.dialect_name or "host"
        if isinstance(dialect, str):
            dialect = get_dialect(dialect)
        self.dialect = dialect
        if annotate and not getattr(unit, "_sema_done", False):
            annotate_unit(unit, dialect)
            unit._sema_done = True  # type: ignore[attr-defined]
        self.functions: Dict[str, A.FunctionDecl] = {
            f.name: f for f in unit.functions() if f.body is not None}
        #: name -> Ptr for file-scope variables (set by init_globals or
        #: injected by the device engine for __constant__/__device__ data)
        self.global_slots: Dict[str, Ptr] = {}
        #: name -> opaque file-scope values (CUDA texture references, ...)
        self.global_values: Dict[str, Any] = {}
        self.frames: List[_Frame] = []
        self.globals_mem = globals_mem
        self.steps = 0
        self.max_steps = _MAX_STEPS_DEFAULT
        #: debugger attachment point: an object with
        #: ``should_stop(interp, stmt) -> bool``, consulted before every
        #: non-compound statement.  None (the default) costs one attribute
        #: load per statement.
        self.debug_sink: Optional[Any] = None
        #: generated replacements for functions, ``name -> fn(env, *args)``
        #: (host programs lowered by ``repro.clike.compile``); :meth:`call`
        #: runs these instead of tree-walking
        self.lowered: Dict[str, Callable[..., Any]] = {}

    # -- globals ---------------------------------------------------------------

    def init_globals(self) -> None:
        """Allocate and initialize file-scope variables in globals_mem."""
        mem = self.globals_mem
        if mem is None:
            mem = Memory("globals", 1 << 22)
            self.globals_mem = mem
        frame = _Frame(None, 0)
        self.frames.append(frame)
        try:
            for d in self.unit.decls:
                if not isinstance(d, A.VarDecl) or d.name in self.global_slots:
                    continue
                # device-resident variables (__constant__/__device__ data,
                # texture references) belong to the device module, not the
                # host address space
                if (d.space in (T.AddressSpace.CONSTANT,
                                T.AddressSpace.GLOBAL,
                                T.AddressSpace.LOCAL)
                        or isinstance(d.type, T.TextureType)):
                    continue
                size = d.type.size or 8
                off = mem.alloc(size, max(d.type.align, 1)) \
                    if mem.allocator else 0
                ptr = Ptr(mem, off, d.type)
                self.global_slots[d.name] = ptr
                if d.init is not None:
                    self._store_init(ptr, d.init)
        finally:
            self.frames.pop()

    def _store_init(self, ptr: Ptr, init: A.Node) -> None:
        t = ptr.ctype
        if isinstance(init, A.InitList):
            if isinstance(t, T.ArrayType):
                n = t.length or len(init.items)
                for i in range(n):
                    elem_ptr = Ptr(ptr.mem, ptr.off + i * sizeof(t.elem), t.elem)
                    if i < len(init.items):
                        self._store_init(elem_ptr, init.items[i])
                    else:
                        self._zero(elem_ptr)
            elif isinstance(t, T.StructType):
                names = list(t.fields)
                for i, fname in enumerate(names):
                    fptr = Ptr(ptr.mem, ptr.off + t.field_offset(fname),
                               t.fields[fname])
                    if i < len(init.items):
                        self._store_init(fptr, init.items[i])
                    else:
                        self._zero(fptr)
            elif isinstance(t, T.VectorType):
                vals = [self.eval(it) for it in init.items]
                if len(vals) == 1:
                    vals = vals * t.count
                ptr.store(Vec(t, vals))
            else:
                # scalar init with braces: int x = {0};
                val = self.eval(init.items[0]) if init.items else 0
                ptr.store(coerce(val, t))
        else:
            ptr.store(coerce(self.eval(init), t))

    def _zero(self, ptr: Ptr) -> None:
        n = ptr.ctype.size or 1
        ptr.mem.write_bytes(ptr.off, b"\0" * n)

    # -- debugger entry points ---------------------------------------------------

    def parse_source_expr(self, src: str) -> A.Node:
        """Parse ``src`` as one expression in this unit's dialect."""
        # lazy: the interpreter normally receives pre-parsed ASTs
        from .parser import Parser
        p = Parser(src, self.dialect)
        node = p.parse_expr()
        tok = p.peek()
        if tok.kind != "eof":
            raise InterpError(
                f"trailing input after expression: {tok.text!r}")
        return node

    def eval_source(self, src: str) -> Any:
        """Evaluate a C-like expression string against the live top frame.

        The debugger's ``print``/``watch`` entry point: runs under whatever
        frame the interpreter is currently suspended in, with full access
        to locals, parameters, and globals.
        """
        return self.eval(self.parse_source_expr(src))

    def lvalue_source(self, src: str):
        """Resolve a C-like expression string to an lvalue (for taking
        addresses — the debugger's bank view needs the ``Ptr``, not the
        loaded value)."""
        return self._lvalue(self.parse_source_expr(src))

    # -- calls --------------------------------------------------------------------

    def call(self, name: str, args: Sequence[Any]) -> Any:
        """Call function ``name`` with pre-evaluated runtime args; barriers
        are not allowed to escape (top-level host calls, expression calls).
        """
        fn = self.functions.get(name)
        if fn is None:
            raise InterpError(f"undefined function {name!r}")
        lowered = self.lowered.get(name)
        if lowered is not None:
            if len(args) != len(fn.params):
                raise InterpError(f"{fn.name}() expects {len(fn.params)} "
                                  f"args, got {len(args)}")
            return lowered(self.env, *args)
        gen = self.call_gen(fn, list(args))
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value
        raise InterpError(
            f"barrier reached outside of device-engine control in {name!r}")

    def call_gen(self, fn: A.FunctionDecl, args: List[Any],
                 type_bindings: Optional[Dict[str, T.Type]] = None
                 ) -> Iterator[Any]:
        """Generator-based call: yields barrier tokens, returns the value."""
        if len(args) != len(fn.params):
            raise InterpError(
                f"{fn.name}() expects {len(fn.params)} args, got {len(args)}")
        frame = _Frame(fn, self.env.stack.mark())
        if type_bindings:
            frame.type_bindings.update(type_bindings)
        memnames = _memvar_names(fn)
        self.frames.append(frame)
        try:
            for p, a in zip(fn.params, args):
                ptype = self._resolve_type(p.type, frame)
                if "reference" in p.quals:
                    # references arrive as lvalues (Ptr); keep the pointer
                    frame.regs[p.name] = a
                    continue
                val = coerce(a, ptype)
                if p.name in memnames:
                    off = self.env.stack.alloc(sizeof(ptype), ptype.align)
                    ptr = Ptr(self.env.stack.mem, off, ptype)
                    ptr.store(val)
                    frame.memvars[p.name] = ptr
                else:
                    frame.regs[p.name] = val
            try:
                yield from self.exec_stmt(fn.body)
            except _ReturnSig as r:
                return r.value
            return None
        finally:
            self.env.stack.release(frame.stack_mark)
            self.frames.pop()

    # -- statements ------------------------------------------------------------------

    def exec_stmt(self, s: Optional[A.Node]) -> Iterator[Any]:
        if s is None:
            return
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpError(f"step budget exceeded ({self.max_steps})")
        kind = type(s)
        if (self.debug_sink is not None and kind is not A.Compound
                and self.debug_sink.should_stop(self, s)):
            yield DebugTrap(self, s)
        if kind is A.Compound:
            for st in s.stmts:
                yield from self.exec_stmt(st)
        elif kind is A.ExprStmt:
            yield from self._exec_expr_stmt(s.expr)
        elif kind is A.DeclStmt:
            for d in s.decls:
                wk = None
                if (isinstance(d.init, A.Call)
                        and d.init.callee_name is not None
                        and d.space != T.AddressSpace.LOCAL):
                    wk = self.env.warp_op_kind(d.init.callee_name)
                if wk is None:
                    self._declare_local(d)
                else:
                    args = tuple(self.eval(a) for a in d.init.args)
                    res = yield WarpOp(wk, args, id(d.init))
                    self._declare_local(d, value=res)
        elif kind is A.If:
            if _truth(self.eval(s.cond)):
                yield from self.exec_stmt(s.then)
            elif s.orelse is not None:
                yield from self.exec_stmt(s.orelse)
        elif kind is A.For:
            yield from self.exec_stmt(s.init)
            while s.cond is None or _truth(self.eval(s.cond)):
                try:
                    yield from self.exec_stmt(s.body)
                except _BreakSig:
                    break
                except _ContinueSig:
                    pass
                if s.step is not None:
                    self.eval(s.step)
                self.steps += 1
                if self.steps > self.max_steps:
                    raise InterpError("step budget exceeded in for loop")
        elif kind is A.While:
            while _truth(self.eval(s.cond)):
                try:
                    yield from self.exec_stmt(s.body)
                except _BreakSig:
                    break
                except _ContinueSig:
                    continue
        elif kind is A.DoWhile:
            while True:
                try:
                    yield from self.exec_stmt(s.body)
                except _BreakSig:
                    break
                except _ContinueSig:
                    pass
                if not _truth(self.eval(s.cond)):
                    break
        elif kind is A.Return:
            value = self.eval(s.value) if s.value is not None else None
            fn = self.frames[-1].fn
            if value is not None and fn is not None:
                rt = self._resolve_type(fn.ret_type, self.frames[-1])
                if not rt.is_void:
                    value = coerce(value, rt)
            raise _ReturnSig(value)
        elif kind is A.Break:
            raise _BreakSig()
        elif kind is A.Continue:
            raise _ContinueSig()
        elif kind is A.Switch:
            yield from self._exec_switch(s)
        else:
            raise InterpError(f"cannot execute {kind.__name__}")

    def _exec_switch(self, s: A.Switch) -> Iterator[Any]:
        val = self.eval(s.cond)
        matched = False
        try:
            for case in s.cases:
                if not matched:
                    if case.value is None:
                        matched = True
                    else:
                        if self.eval(case.value) == val:
                            matched = True
                if matched:
                    for st in case.stmts:
                        yield from self.exec_stmt(st)
        except _BreakSig:
            pass

    def _exec_expr_stmt(self, e: A.Node) -> Iterator[Any]:
        """Run a statement-level expression; the only place barriers, warp
        primitives, and user-function yields may occur."""
        if isinstance(e, A.Call):
            name = e.callee_name
            if name is not None:
                if self.env.is_barrier(name):
                    for a in e.args:
                        self.eval(a)
                    yield BARRIER
                    return
                wk = self.env.warp_op_kind(name)
                if wk is not None:
                    args = tuple(self.eval(a) for a in e.args)
                    yield WarpOp(wk, args, id(e))
                    return
                fn = self.functions.get(name)
                if fn is not None:
                    args, bindings = self._prepare_call(fn, e)
                    yield from self.call_gen(fn, args, bindings)
                    return
        elif isinstance(e, A.Assign) and isinstance(e.value, A.Call):
            name = e.value.callee_name
            wk = self.env.warp_op_kind(name) if name is not None else None
            if wk is not None:
                # x = __shfl(...) / x op= __ballot(...): the lvalue first,
                # mirroring _assign's evaluation order
                lv = self._lvalue(e.target)
                args = tuple(self.eval(a) for a in e.value.args)
                res = yield WarpOp(wk, args, id(e.value))
                if e.op:
                    res = _apply_binop(e.op, lv.get(), res, self.env)
                lv.set(res)
                return
        self.eval(e)

    def _declare_local(self, d: A.VarDecl, value: Any = _NO_INIT) -> None:
        frame = self.frames[-1]
        dtype = self._resolve_type(d.type, frame)
        fn = frame.fn
        if d.space == T.AddressSpace.LOCAL:
            # static __shared__/__local: one slot per work-GROUP
            if "extern" in d.quals:
                elem = dtype.elem if isinstance(dtype, T.ArrayType) else dtype
                frame.memvars[d.name] = self.env.dynamic_shared_slot(elem)
            else:
                key = f"{fn.name}.{d.name}" if fn is not None else d.name
                frame.memvars[d.name] = self.env.local_static_slot(key, dtype)
            return
        memnames = _memvar_names(fn) if fn is not None else set()
        needs_mem = (d.name in memnames
                     or isinstance(dtype, (T.ArrayType, T.StructType)))
        if needs_mem:
            size = dtype.size
            if size is None:
                raise InterpError(
                    f"cannot allocate incomplete type for {d.name!r}")
            off = self.env.stack.alloc(size, max(dtype.align, 1))
            ptr = Ptr(self.env.stack.mem, off, dtype)
            frame.memvars[d.name] = ptr
            if value is not _NO_INIT:
                ptr.store(coerce(value, dtype))
            elif d.init is not None:
                self._store_init(ptr, d.init)
            elif isinstance(dtype, T.StructType):
                self._zero(ptr)
        else:
            if value is not _NO_INIT:
                frame.regs[d.name] = coerce(value, dtype)
            elif d.init is not None:
                if isinstance(d.init, A.InitList) and isinstance(dtype, T.VectorType):
                    vals = [self.eval(i) for i in d.init.items]
                    if len(vals) == 1:
                        vals = vals * dtype.count
                    frame.regs[d.name] = Vec(dtype, vals)
                else:
                    frame.regs[d.name] = coerce(self.eval(d.init), dtype)
            else:
                frame.regs[d.name] = _default_value(dtype)
        # remember the declared type for register coercion on assignment
        frame.regs.setdefault("__types__", {})
        frame.regs["__types__"][d.name] = dtype

    # -- expressions -----------------------------------------------------------------

    def eval(self, e: A.Node) -> Any:
        kind = type(e)
        if kind is A.IntLit:
            return e.value
        if kind is A.FloatLit:
            return e.value
        if kind is A.CharLit:
            return ord(e.value)
        if kind is A.StringLit:
            return self.env.intern_string(e.value)
        if kind is A.Ident:
            return self._load_ident(e)
        if kind is A.BinOp:
            return self._binop(e)
        if kind is A.UnOp:
            return self._unop(e)
        if kind is A.Assign:
            return self._assign(e)
        if kind is A.Cond:
            if _truth(self.eval(e.cond)):
                return self.eval(e.then)
            return self.eval(e.orelse)
        if kind is A.Call:
            return self._eval_call(e)
        if kind is A.Index:
            return self._lvalue(e).get()
        if kind is A.Member:
            return self._eval_member(e)
        if kind is A.Cast:
            return self._eval_cast(e)
        if kind is A.SizeOf:
            if e.type is not None:
                return sizeof(self._resolve_type(e.type, self._frame()))
            val_t = e.expr.ctype if isinstance(e.expr, A.Expr) else None
            if val_t is not None and val_t.size:
                return val_t.size
            val = self.eval(e.expr)
            if isinstance(val, Vec):
                return val.ctype.size
            if isinstance(val, (Ptr, StructRef)):
                return 8
            return 4
        if kind is A.Comma:
            result = None
            for x in e.exprs:
                result = self.eval(x)
            return result
        if kind is A.KernelLaunch:
            return self._eval_kernel_launch(e)
        if kind is A.InitList:
            return [self.eval(i) for i in e.items]
        raise InterpError(f"cannot evaluate {kind.__name__}")

    # -- identifiers ----------------------------------------------------------

    def _frame(self) -> _Frame:
        if not self.frames:
            self.frames.append(_Frame(None, 0))
        return self.frames[-1]

    def _load_ident(self, e: A.Ident) -> Any:
        name = e.name
        frame = self._frame()
        if name in frame.regs:
            return frame.regs[name]
        ptr = frame.memvars.get(name)
        if ptr is None:
            ptr = self.global_slots.get(name)
        if ptr is not None:
            if isinstance(ptr.ctype, T.ArrayType):
                return Ptr(ptr.mem, ptr.off, ptr.ctype.elem)  # decay
            nbytes = ptr.ctype.size or 1
            self.env.on_load(ptr, nbytes, e)
            return ptr.load()
        if name in self.global_values:
            return self.global_values[name]
        try:
            return self.env.special_var(name)
        except KeyError:
            pass
        try:
            return self.env.constant(name)
        except KeyError:
            pass
        fn = self.functions.get(name)
        if fn is not None:
            return FunctionVal(fn)
        raise InterpError(f"undefined identifier {name!r} (line {e.loc[0]})")

    # -- lvalues -----------------------------------------------------------------

    def _lvalue(self, e: A.Node):
        if isinstance(e, A.Ident):
            frame = self._frame()
            if e.name in frame.regs:
                types = frame.regs.get("__types__", {})
                ctype = types.get(e.name)
                if ctype is None:
                    val = frame.regs[e.name]
                    ctype = val.ctype if isinstance(val, Vec) else T.INT
                # references auto-deref on use
                val = frame.regs[e.name]
                if (frame.fn is not None and isinstance(val, Ptr)
                        and _is_reference_param(frame.fn, e.name)):
                    return _MemLV(val, self.env, e)
                return _RegLV(frame.regs, e.name, ctype)
            ptr = frame.memvars.get(e.name) or self.global_slots.get(e.name)
            if ptr is not None:
                return _MemLV(ptr, self.env, e)
            raise InterpError(f"cannot assign to {e.name!r}")
        if isinstance(e, A.Index):
            base = self.eval(e.base)
            idx = self.eval(e.index)
            if isinstance(base, Ptr):
                return _MemLV(base.add(int(idx)), self.env, e)
            if isinstance(base, Vec):
                return _VecElemLV(self._lvalue(e.base), [int(idx)], base.ctype)
            if isinstance(base, list):
                return _ListElemLV(base, int(idx))
            raise InterpError(f"cannot index into {type(base).__name__}")
        if isinstance(e, A.Member):
            if e.arrow:
                base = self.eval(e.base)
                if isinstance(base, Ptr):
                    st = base.ctype
                    if isinstance(st, T.StructType):
                        sref = StructRef(base.mem, base.off, st)
                        return _MemLV(sref.field_ptr(e.name), self.env, e)
                raise InterpError(f"-> on non-struct-pointer")
            if isinstance(e.base, A.Ident) and e.base.name in self.global_values:
                # attribute on an opaque object (CUDA texture reference)
                return _AttrLV(self.global_values[e.base.name], e.name)
            if isinstance(e.base, A.Ident):
                # environment-provided opaque objects (wrapper-runtime
                # texture bindings in translated host code)
                frame0 = self._frame()
                if e.base.name not in frame0.regs \
                        and e.base.name not in frame0.memvars \
                        and e.base.name not in self.global_slots:
                    try:
                        obj = self.env.constant(e.base.name)
                    except KeyError:
                        pass
                    else:
                        if hasattr(obj, e.name):
                            return _AttrLV(obj, e.name)
            base_t = e.base.ctype if isinstance(e.base, A.Expr) else None
            if isinstance(base_t, T.VectorType):
                idx = swizzle_indices(e.name, base_t.count)
                if idx is None:
                    raise InterpError(f"bad swizzle .{e.name}")
                return _VecElemLV(self._lvalue(e.base), idx, base_t)
            baselv = self._lvalue(e.base)
            bt = baselv.ctype
            if isinstance(bt, T.StructType):
                assert isinstance(baselv, _MemLV)
                sref = StructRef(baselv.ptr.mem, baselv.ptr.off, bt)
                return _MemLV(sref.field_ptr(e.name), self.env, e)
            if isinstance(bt, T.VectorType):
                idx = swizzle_indices(e.name, bt.count)
                if idx is not None:
                    return _VecElemLV(baselv, idx, bt)
            raise InterpError(f"cannot take member .{e.name} of {bt}")
        if isinstance(e, A.UnOp) and e.op == "*":
            base = self.eval(e.operand)
            if isinstance(base, Ptr):
                return _MemLV(base, self.env, e)
            raise InterpError("dereference of non-pointer")
        if isinstance(e, A.Cast):
            # (type)lvalue used as lvalue: retype the underlying pointer
            inner = self._lvalue(e.expr)
            if isinstance(inner, _MemLV):
                t = self._resolve_type(e.type, self._frame())
                if isinstance(t, T.PointerType):
                    return _MemLV(inner.ptr.retype(t.pointee), self.env, e)
            return inner
        raise InterpError(f"not an lvalue: {type(e).__name__}")

    def _assign(self, e: A.Assign) -> Any:
        lv = self._lvalue(e.target)
        rhs = self.eval(e.value)
        if e.op:
            cur = lv.get()
            rhs = _apply_binop(e.op, cur, rhs, self.env)
        lv.set(rhs)
        return lv.get() if isinstance(lv, _VecElemLV) else rhs

    # -- operators ---------------------------------------------------------------

    def _binop(self, e: A.BinOp) -> Any:
        op = e.op
        if op == "&&":
            if not _truth(self.eval(e.lhs)):
                return 0
            return 1 if _truth(self.eval(e.rhs)) else 0
        if op == "||":
            if _truth(self.eval(e.lhs)):
                return 1
            return 1 if _truth(self.eval(e.rhs)) else 0
        a = self.eval(e.lhs)
        b = self.eval(e.rhs)
        self.env.count_op(_op_kind(a, b))
        result = _apply_binop(op, a, b, self.env)
        # integer ops keep C width via the annotated result type
        rt = e.ctype
        if (rt is not None and isinstance(rt, T.ScalarType) and not rt.floating
                and isinstance(result, int)
                and op in ("+", "-", "*", "<<")):
            result = coerce(result, rt)
        return result

    def _unop(self, e: A.UnOp) -> Any:
        op = e.op
        if op in ("++", "--"):
            lv = self._lvalue(e.operand)
            old = lv.get()
            delta = 1 if op == "++" else -1
            if isinstance(old, Ptr):
                lv.set(old.add(delta))
            else:
                lv.set(old + delta)
            return old if e.postfix else lv.get()
        if op == "&":
            lv = self._lvalue(e.operand)
            if isinstance(lv, _MemLV):
                return lv.ptr
            raise InterpError("address of register variable "
                              "(pre-pass should have demoted it)")
        if op == "*":
            val = self.eval(e.operand)
            if isinstance(val, Ptr):
                nbytes = val.ctype.size or 1
                self.env.on_load(val, nbytes, e)
                return val.load()
            raise InterpError("dereference of non-pointer")
        val = self.eval(e.operand)
        if op == "-":
            return val.map(lambda v: -v) if isinstance(val, Vec) else -val
        if op == "+":
            return val
        if op == "!":
            return 0 if _truth(val) else 1
        if op == "~":
            if isinstance(val, Vec):
                return val.map(lambda v: ~int(v))
            return ~int(val)
        raise InterpError(f"unknown unary op {op}")

    # -- member access -----------------------------------------------------------------

    def _eval_member(self, e: A.Member) -> Any:
        base = self.eval(e.base)
        if e.arrow:
            if isinstance(base, Ptr) and isinstance(base.ctype, T.StructType):
                sref = StructRef(base.mem, base.off, base.ctype)
                fptr = sref.field_ptr(e.name)
                self.env.on_load(fptr, fptr.ctype.size or 1, e)
                return _decay_load(fptr)
            raise InterpError("-> on non-struct-pointer value")
        if isinstance(base, Vec):
            idx = swizzle_indices(e.name, base.ctype.count)
            if idx is None:
                raise InterpError(f"bad swizzle .{e.name} on {base.ctype}")
            return base.get(idx)
        if isinstance(base, StructRef):
            fptr = base.field_ptr(e.name)
            self.env.on_load(fptr, fptr.ctype.size or 1, e)
            return _decay_load(fptr)
        if hasattr(base, e.name) and not isinstance(base, (int, float, Ptr)):
            # attribute on an opaque object (CUDA texture reference)
            return getattr(base, e.name)
        raise InterpError(f"cannot access .{e.name} on {type(base).__name__}")

    # -- casts -------------------------------------------------------------------------

    def _eval_cast(self, e: A.Cast) -> Any:
        t = self._resolve_type(e.type, self._frame())
        if isinstance(e.expr, A.InitList):
            if isinstance(t, T.VectorType):
                vals = []
                for item in e.expr.items:
                    v = self.eval(item)
                    if isinstance(v, Vec):
                        vals.extend(v.vals)
                    else:
                        vals.append(v)
                if len(vals) == 1:
                    vals = vals * t.count
                return Vec(t, vals)
            raise InterpError(f"compound literal of {t} not supported")
        val = self.eval(e.expr)
        if isinstance(t, T.PointerType) and isinstance(val, Ptr):
            return val.retype(t.pointee)
        return coerce(val, t)

    # -- calls ----------------------------------------------------------------------------

    def _prepare_call(self, fn: A.FunctionDecl, e: A.Call
                      ) -> Tuple[List[Any], Optional[Dict[str, T.Type]]]:
        args: List[Any] = []
        for p, a in zip(fn.params, e.args):
            if "reference" in p.quals:
                lv = self._lvalue(a)
                if isinstance(lv, _MemLV):
                    args.append(lv.ptr)
                else:
                    # register variable passed by reference: spill it
                    assert isinstance(lv, _RegLV)
                    off = self.env.stack.alloc(sizeof(lv.ctype), lv.ctype.align)
                    spill = Ptr(self.env.stack.mem, off, lv.ctype)
                    spill.store(lv.get())
                    args.append(_SpillBack(spill, lv))
            else:
                args.append(self.eval(a))
        bindings: Optional[Dict[str, T.Type]] = None
        if fn.template_params:
            bindings = {}
            if e.template_args:
                for name, t in zip(fn.template_params, e.template_args):
                    bindings[name] = t
            else:
                # simple deduction from argument value types
                for p, a in zip(fn.params, args):
                    pt = p.type
                    if isinstance(pt, T.OpaqueType) and pt.name in fn.template_params:
                        bindings.setdefault(pt.name, _value_type(a))
            for name in fn.template_params:
                bindings.setdefault(name, T.INT)
        return args, bindings

    def _eval_call(self, e: A.Call) -> Any:
        name = e.callee_name
        if name is None:
            fval = self.eval(e.func)
            if isinstance(fval, FunctionVal):
                args = [self.eval(a) for a in e.args]
                return self.call(fval.decl.name, args)
            raise InterpError("call of non-function value")
        if self.env.is_barrier(name):
            raise InterpError(
                f"{name}() may only appear as a standalone statement")
        if self.env.warp_op_kind(name) is not None:
            raise InterpError(
                f"{name}() may only appear as a standalone statement or "
                f"the value of a simple assignment")
        fn = self.functions.get(name)
        if fn is not None:
            args, bindings = self._prepare_call(fn, e)
            gen = self.call_gen(fn, args, bindings)
            try:
                next(gen)
            except StopIteration as stop:
                for a in args:
                    if isinstance(a, _SpillBack):
                        a.writeback()
                return stop.value
            raise InterpError(
                f"barrier inside expression call to {name!r}")
        impl = self.env.builtin(name)
        if impl is not None:
            args = [self.eval(a) for a in e.args]
            return impl(*args)
        conv = resolve_conversion(name, self.dialect)
        if conv is not None:
            val = self.eval(e.args[0])
            if name.startswith("as_"):
                return _reinterpret(val, conv)
            return coerce(val, conv)
        raise InterpError(f"undefined function {name!r} (line {e.loc[0]})")

    def _eval_kernel_launch(self, e: A.KernelLaunch) -> Any:
        """CUDA ``<<<...>>>`` launch: delegates to the environment (the CUDA
        framework registers the actual launch implementation)."""
        if not isinstance(e.kernel, A.Ident):
            raise InterpError("kernel launch target must be a kernel name")
        grid = self.eval(e.grid)
        block = self.eval(e.block)
        shmem = int(self.eval(e.shmem)) if e.shmem is not None else 0
        stream = self.eval(e.stream) if e.stream is not None else 0
        args = [self.eval(a) for a in e.args]
        impl = self.env.builtin("__cuda_launch__")
        if impl is None:
            raise InterpError(
                "kernel launch outside a CUDA runtime environment")
        return impl(e.kernel.name, grid, block, shmem, stream, args)

    # -- types -------------------------------------------------------------------------------

    def _resolve_type(self, t: T.Type, frame: _Frame) -> T.Type:
        """Substitute template type parameters bound in this frame."""
        if not frame.type_bindings:
            return t
        if isinstance(t, T.OpaqueType) and t.name in frame.type_bindings:
            return frame.type_bindings[t.name]
        if isinstance(t, T.PointerType):
            inner = self._resolve_type(t.pointee, frame)
            if inner is not t.pointee:
                return T.PointerType(inner, t.space, t.const)
            return t
        if isinstance(t, T.ArrayType):
            inner = self._resolve_type(t.elem, frame)
            if inner is not t.elem:
                return T.ArrayType(inner, t.length)
            return t
        return t


class _SpillBack:
    """Register variable temporarily spilled to memory for by-reference
    passing; written back after the call."""

    __slots__ = ("ptr", "reg")

    def __init__(self, ptr: Ptr, reg: _RegLV) -> None:
        self.ptr = ptr
        self.reg = reg

    def writeback(self) -> None:
        self.reg.set(self.ptr.load())

    # behave like the pointer when used inside the callee
    def __getattr__(self, item):
        return getattr(self.ptr, item)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _truth(v: Any) -> bool:
    if isinstance(v, Ptr):
        return True
    if isinstance(v, Vec):
        return any(v.vals)
    return bool(v)


def _op_kind(a: Any, b: Any) -> str:
    if isinstance(a, float) or isinstance(b, float):
        return "flop"
    if isinstance(a, Vec):
        return "flop" if a.ctype.base.floating else "iop"
    return "iop"


def _c_div(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return a / b if b != 0 else float("inf") * (1 if a >= 0 else -1)
    if b == 0:
        raise InterpError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_mod(a, b):
    if isinstance(a, float) or isinstance(b, float):
        import math
        return math.fmod(a, b)
    if b == 0:
        raise InterpError("integer modulo by zero")
    return a - _c_div(a, b) * b


_BINOPS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _c_div,
    "%": _c_mod,
    "<<": lambda a, b: int(a) << int(b),
    ">>": lambda a, b: int(a) >> int(b),
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
    "<": lambda a, b: 1 if a < b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
}


def _apply_binop(op: str, a: Any, b: Any, env: ExecEnv) -> Any:
    if isinstance(a, Ptr) or isinstance(b, Ptr):
        return _pointer_binop(op, a, b)
    if isinstance(a, Vec) or isinstance(b, Vec):
        return _vector_binop(op, a, b)
    return _BINOPS[op](a, b)


def _pointer_binop(op: str, a: Any, b: Any) -> Any:
    if op == "+":
        if isinstance(a, Ptr):
            return a.add(int(b))
        return b.add(int(a))
    if op == "-":
        if isinstance(a, Ptr) and isinstance(b, Ptr):
            return a.diff(b)
        assert isinstance(a, Ptr)
        return a.add(-int(b))
    if op in ("==", "!="):
        eq = (isinstance(a, Ptr) and isinstance(b, Ptr)
              and a.mem is b.mem and a.off == b.off)
        if not isinstance(a, Ptr) or not isinstance(b, Ptr):
            eq = False  # ptr vs NULL(0)
        want = (op == "==")
        return 1 if eq == want else 0
    if op in ("<", ">", "<=", ">="):
        ao = a.off if isinstance(a, Ptr) else int(a)
        bo = b.off if isinstance(b, Ptr) else int(b)
        return _BINOPS[op](ao, bo)
    raise InterpError(f"invalid pointer operation {op!r}")


def _vector_binop(op: str, a: Any, b: Any) -> Any:
    f = _BINOPS[op]
    if isinstance(a, Vec) and isinstance(b, Vec):
        rtype = a.ctype
        if op in ("<", ">", "<=", ">=", "==", "!="):
            rtype = T.VectorType(T.INT, a.ctype.count)
        return Vec(rtype, [f(x, y) for x, y in zip(a.vals, b.vals)])
    if isinstance(a, Vec):
        rtype = a.ctype if op not in ("<", ">", "<=", ">=", "==", "!=") \
            else T.VectorType(T.INT, a.ctype.count)
        return Vec(rtype, [f(x, b) for x in a.vals])
    assert isinstance(b, Vec)
    rtype = b.ctype if op not in ("<", ">", "<=", ">=", "==", "!=") \
        else T.VectorType(T.INT, b.ctype.count)
    return Vec(rtype, [f(a, y) for y in b.vals])


def _default_value(t: T.Type) -> Any:
    if isinstance(t, T.ScalarType):
        return 0.0 if t.floating else 0
    if isinstance(t, T.VectorType):
        return Vec(t, [0] * t.count)
    if isinstance(t, T.PointerType):
        return 0
    return 0


def _value_type(v: Any) -> T.Type:
    if isinstance(v, Vec):
        return v.ctype
    if isinstance(v, Ptr):
        return T.PointerType(v.ctype)
    if isinstance(v, float):
        return T.FLOAT
    return T.INT


def _decay_load(ptr: Ptr):
    if isinstance(ptr.ctype, T.ArrayType):
        return Ptr(ptr.mem, ptr.off, ptr.ctype.elem)
    return ptr.load()


def _reinterpret(val: Any, target: T.Type) -> Any:
    """as_<type>() bit reinterpretation."""
    import struct as _s
    src_bytes: bytes
    if isinstance(val, Vec):
        fmt = "<" + _scalar_fmt(val.ctype.base) * val.ctype.count
        src_bytes = _s.pack(fmt, *val.vals)
    elif isinstance(val, float):
        src_bytes = _s.pack("<f", val)
    else:
        iv = int(val)
        src_bytes = iv.to_bytes(8, "little", signed=iv < 0)
    if isinstance(target, T.VectorType):
        fmt = "<" + _scalar_fmt(target.base) * target.count
        need = _s.calcsize(fmt)
        vals = _s.unpack(fmt, src_bytes[:need].ljust(need, b"\0"))
        return Vec(target, list(vals))
    assert isinstance(target, T.ScalarType)
    fmt = "<" + _scalar_fmt(target)
    need = _s.calcsize(fmt)
    return _s.unpack(fmt, src_bytes[:need].ljust(need, b"\0"))[0]


def _scalar_fmt(st: T.ScalarType) -> str:
    from ..runtime.memory import _FMT
    return _FMT[st.name]


def _is_reference_param(fn: A.FunctionDecl, name: str) -> bool:
    for p in fn.params:
        if p.name == name:
            return "reference" in p.quals
    return False


def _memvar_names(fn: A.FunctionDecl) -> set:
    """Names that must live in memory: address-taken variables (plus all
    arrays/structs, handled at declaration).  Cached per function."""
    cached = getattr(fn, "_memvars", None)
    if cached is not None:
        return cached
    names = set()
    if fn.body is not None:
        for node in A.walk(fn.body):
            if isinstance(node, A.UnOp) and node.op == "&" \
                    and isinstance(node.operand, A.Ident):
                names.add(node.operand.name)
    fn._memvars = names  # type: ignore[attr-defined]
    return names
