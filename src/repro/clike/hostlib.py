"""Host execution environment: C standard library over simulated memory.

:class:`HostEnv` is the :class:`~repro.clike.interp.ExecEnv` used to run
application *host* code (``main()`` and friends).  It provides heap
allocation, ``printf``-family formatting (output captured for test
assertions), a deterministic ``rand()`` (glibc's classic LCG so runs are
reproducible), string/memory functions, and host math.

API families (cl* / cuda*) are *not* defined here — the frameworks and the
translator wrapper libraries register those callables on top via
:meth:`HostEnv.register_many`, which is exactly the paper's structure: the
host program is untouched and the implementation behind each API name
decides which model executes it (§3.2).  Each family defines its entry
points as methods marked with :func:`api_entry`; :func:`api_entries`
collects them into the table it registers.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import InterpError
from ..runtime.memory import Memory
from ..runtime.values import Ptr, StructRef, Vec, coerce
from . import types as T
from .interp import ExecEnv
from .stdlib import NAMED_CONSTANTS

__all__ = ["HostEnv", "api_entries", "api_entry", "c_format"]

_FMT_RE = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?(hh|h|ll|l|L|z)?([diuoxXeEfgGcspn%])")


def c_format(fmt: str, args: List[Any], read_str: Callable[[Any], str]) -> str:
    """Format ``fmt`` with C printf semantics over runtime values."""
    out: List[str] = []
    pos = 0
    argi = 0

    def next_arg() -> Any:
        nonlocal argi
        if argi >= len(args):
            raise InterpError(f"printf: missing argument for format {fmt!r}")
        v = args[argi]
        argi += 1
        return v

    for m in _FMT_RE.finditer(fmt):
        out.append(fmt[pos:m.start()])
        pos = m.end()
        spec = m.group(0)
        conv = m.group(2)
        if conv == "%":
            out.append("%")
            continue
        if conv == "s":
            out.append(_py_format(spec[:-1] + "s", read_str(next_arg())))
        elif conv == "c":
            v = next_arg()
            out.append(chr(int(v) & 0xFF))
        elif conv == "p":
            v = next_arg()
            addr = v.off if isinstance(v, Ptr) else int(v)
            out.append(f"0x{addr:x}")
        elif conv in "dioxXu":
            pyconv = {"i": "d", "u": "d"}.get(conv, conv)
            cleaned = re.sub(r"(hh|h|ll|l|L|z)", "", spec[:-1])
            out.append(_py_format(cleaned + pyconv, int(next_arg())))
        else:  # e E f g G
            cleaned = re.sub(r"(hh|h|ll|l|L|z)", "", spec[:-1])
            out.append(_py_format(cleaned + conv, float(next_arg())))
    out.append(fmt[pos:])
    return "".join(out)


def _py_format(spec: str, value: Any) -> str:
    try:
        return spec % value
    except (TypeError, ValueError):
        return str(value)


def api_entry(body: Callable[..., Any]) -> Callable[..., Any]:
    """Mark a method as a host-API entry point.

    A call runs ``self._entry(body, args)``: the family's one hook, which
    charges one API call to the simulated clock before the body runs (and
    does whatever else that family does around every entry).
    :func:`api_entries` registers the entry under the method's name.
    """
    @functools.wraps(body)
    def entry(self: Any, *args: Any) -> Any:
        return self._entry(body, args)
    entry.host_api_entry = True  # type: ignore[attr-defined]
    return entry


_ENTRY_NAMES: Dict[type, Tuple[str, ...]] = {}


def api_entries(obj: Any) -> Dict[str, Callable[..., Any]]:
    """``{name: bound entry point}`` of every :func:`api_entry` method of
    ``obj``'s class, inherited ones included: the table a family hands to
    :meth:`HostEnv.register_many`.  The names are computed once per class."""
    cls = type(obj)
    names = _ENTRY_NAMES.get(cls)
    if names is None:
        names = _ENTRY_NAMES[cls] = tuple(dict.fromkeys(
            name for klass in reversed(cls.__mro__)
            for name, value in vars(klass).items()
            if getattr(value, "host_api_entry", False)))
    return {name: getattr(obj, name) for name in names}


class HostEnv(ExecEnv):
    """Standard C host environment with captured stdout."""

    def __init__(self, heap_size: int = 1 << 26,
                 stack_size: int = 1 << 20, seed: int = 1) -> None:
        super().__init__(stack_size=stack_size)
        self.heap = Memory("host-heap", heap_size, T.AddressSpace.HOST)
        self.stdout: List[str] = []
        self.exit_code: Optional[int] = None
        self._rand_state = seed
        self._builtins: Dict[str, Callable[..., Any]] = {}
        self._constants: Dict[str, Any] = {}
        self._install_libc()

    # -- extension points used by frameworks / wrapper libraries ------------

    def register(self, name: str, impl: Callable[..., Any]) -> None:
        """Register (or override) a built-in function implementation."""
        self._builtins[name] = impl

    def register_many(self, table: Dict[str, Callable[..., Any]]) -> None:
        for name, impl in table.items():
            self.register(name, impl)

    def define_constant(self, name: str, value: Any) -> None:
        self._constants[name] = value

    def define_constants(self, table: Dict[str, Any]) -> None:
        self._constants.update(table)

    def define_lazy_constant(self, name: str,
                             fn: Callable[[], Any]) -> None:
        """A constant resolved on first use (wrapper-library handles that
        only exist after the lazy device-code build, §3.4)."""
        lazy = getattr(self, "_lazy_constants", None)
        if lazy is None:
            lazy = self._lazy_constants = {}
        lazy[name] = fn

    # -- ExecEnv interface ------------------------------------------------------

    def builtin(self, name: str) -> Optional[Callable[..., Any]]:
        return self._builtins.get(name)

    def constant(self, name: str) -> Any:
        if name in self._constants:
            return self._constants[name]
        lazy = getattr(self, "_lazy_constants", None)
        if lazy is not None and name in lazy:
            return lazy[name]()
        raise KeyError(name)

    # -- helpers ------------------------------------------------------------------

    def read_str(self, v: Any) -> str:
        if isinstance(v, Ptr):
            return v.mem.read_cstring(v.off)
        if isinstance(v, str):
            return v
        raise InterpError(f"expected string pointer, got {type(v).__name__}")

    def printed(self) -> str:
        """Everything written to stdout so far, as one string."""
        return "".join(self.stdout)

    def malloc(self, size: int) -> Ptr:
        off = self.heap.alloc(int(size) or 1, 16)
        return Ptr(self.heap, off, T.VOID)

    # -- libc ------------------------------------------------------------------------

    def _install_libc(self) -> None:
        env = self

        def printf(fmt, *args):
            s = c_format(env.read_str(fmt), list(args), env.read_str)
            env.stdout.append(s)
            return len(s)

        def fprintf(stream, fmt, *args):
            return printf(fmt, *args)

        def sprintf(dst, fmt, *args):
            s = c_format(env.read_str(fmt), list(args), env.read_str)
            dst.mem.write_cstring(dst.off, s)
            return len(s)

        def puts(sp):
            s = env.read_str(sp)
            env.stdout.append(s + "\n")
            return len(s) + 1

        def malloc(size):
            return env.malloc(size)

        def calloc(n, size):
            p = env.malloc(int(n) * int(size))
            p.mem.write_bytes(p.off, b"\0" * (int(n) * int(size)))
            return p

        def free(p):
            if isinstance(p, Ptr) and p.mem is env.heap:
                env.heap.free(p.off)
            return None

        def realloc(p, size):
            np_ = env.malloc(size)
            if isinstance(p, Ptr):
                old = env.heap.allocator.allocated_size(p.off) or 0
                n = min(old, int(size))
                np_.mem.write_bytes(np_.off, p.mem.read_bytes(p.off, n))
                free(p)
            return np_

        def memcpy(dst, src, n):
            n = int(n)
            data = src.mem.view(src.off, n).copy()
            dst.mem.view(dst.off, n)[:] = data
            return dst

        def memset(dst, byte, n):
            dst.mem.view(dst.off, int(n))[:] = int(byte) & 0xFF
            return dst

        def memcmp(a, b, n):
            da = a.mem.read_bytes(a.off, int(n))
            db = b.mem.read_bytes(b.off, int(n))
            return (da > db) - (da < db)

        def strlen(p):
            return len(env.read_str(p))

        def strcmp(a, b):
            sa, sb = env.read_str(a), env.read_str(b)
            return (sa > sb) - (sa < sb)

        def strcpy(dst, src):
            dst.mem.write_cstring(dst.off, env.read_str(src))
            return dst

        def rand():
            # glibc TYPE_0 LCG: deterministic across runs
            env._rand_state = (env._rand_state * 1103515245 + 12345) & 0x7FFFFFFF
            return env._rand_state

        def srand(seed):
            env._rand_state = int(seed) & 0x7FFFFFFF
            return None

        def c_exit(code):
            env.exit_code = int(code)
            raise _ExitSignal(int(code))

        def atoi(p):
            try:
                return int(env.read_str(p).strip() or "0")
            except ValueError:
                return 0

        def atof(p):
            try:
                return float(env.read_str(p).strip() or "0")
            except ValueError:
                return 0.0

        table: Dict[str, Callable[..., Any]] = {
            "printf": printf, "fprintf": fprintf, "sprintf": sprintf,
            "puts": puts,
            "malloc": malloc, "calloc": calloc, "free": free,
            "realloc": realloc,
            "memcpy": memcpy, "memset": memset, "memcmp": memcmp,
            "strlen": strlen, "strcmp": strcmp, "strcpy": strcpy,
            "rand": rand, "srand": srand, "exit": c_exit,
            "atoi": atoi, "atof": atof,
            "abs": lambda a: abs(a),
            "min": lambda a, b: min(a, b),
            "max": lambda a, b: max(a, b),
        }
        # host math: both bare and f-suffixed spellings
        for name, fn in _HOST_MATH.items():
            table[name] = fn
            table[name + "f"] = fn
        self._builtins.update(table)
        self._constants.update({
            "RAND_MAX": 0x7FFFFFFF, "stdout": 1, "stderr": 2,
            "EXIT_SUCCESS": 0, "EXIT_FAILURE": 1, "M_E": math.e,
            "DBL_MAX": 1.7976931348623157e308, "INT_MIN": -(2**31),
        })
        for name in ("NULL", "M_PI", "INT_MAX", "FLT_MAX", "FLT_MIN",
                     "FLT_EPSILON"):
            self._constants[name] = NAMED_CONSTANTS[name]


class _ExitSignal(Exception):
    """Raised by exit(); caught by the application runner."""

    def __init__(self, code: int) -> None:
        self.code = code
        super().__init__(f"exit({code})")


def _clamp(x, lo, hi):
    return max(lo, min(hi, x))


_HOST_MATH: Dict[str, Callable[..., Any]] = {
    "sqrt": lambda x: math.sqrt(x) if x >= 0 else float("nan"),
    "rsqrt": lambda x: 1.0 / math.sqrt(x) if x > 0 else float("inf"),
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "asin": math.asin, "acos": math.acos, "atan": math.atan,
    "atan2": math.atan2,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "exp": math.exp, "exp2": lambda x: 2.0 ** x,
    "log": lambda x: math.log(x) if x > 0 else float("-inf"),
    "log2": lambda x: math.log2(x) if x > 0 else float("-inf"),
    "log10": lambda x: math.log10(x) if x > 0 else float("-inf"),
    "pow": lambda x, y: math.pow(x, y),
    "fabs": abs, "floor": math.floor, "ceil": math.ceil,
    "fmod": math.fmod, "trunc": math.trunc,
    "round": lambda x: float(math.floor(x + 0.5)),
    "fmin": min, "fmax": max,
    "fma": lambda a, b, c: a * b + c,
    "mad": lambda a, b, c: a * b + c,
    "clamp": _clamp,
    "hypot": math.hypot, "cbrt": lambda x: math.copysign(abs(x) ** (1 / 3), x),
    "erf": math.erf, "erfc": math.erfc,
    "log1p": math.log1p, "expm1": math.expm1,
    "copysign": math.copysign,
    "isnan": lambda x: 1 if math.isnan(x) else 0,
    "isinf": lambda x: 1 if math.isinf(x) else 0,
}
