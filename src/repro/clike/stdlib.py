"""Built-in function signatures and special variables for each dialect.

This module centralizes *what exists* in each programming model — the
one-to-one correspondence tables of paper §3.3 build on these names, and the
semantic analyzer uses the signatures for type inference.  Implementations
live in :mod:`repro.device.builtins` (device) and
:mod:`repro.clike.hostlib` (host).

A signature is either a :class:`~repro.clike.types.FunctionType` or a
callable ``(arg_types) -> Type`` for generics (``min``, ``sqrt`` ...).
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Dict, List, Optional, Sequence, Union

from . import types as T

__all__ = [
    "Signature", "swizzle_indices",
    "OPENCL_DEVICE_SIGS", "CUDA_DEVICE_SIGS", "HOST_SIGS",
    "OPENCL_SPECIAL_VARS", "CUDA_SPECIAL_VARS",
    "CUDA_HW_BUILTINS", "NAMED_CONSTANTS", "signatures_for",
]

Signature = Union[T.FunctionType, Callable[[Sequence[T.Type]], T.Type]]


# ---------------------------------------------------------------------------
# Vector component (swizzle) handling — paper §3.6
# ---------------------------------------------------------------------------

_XYZW = {"x": 0, "y": 1, "z": 2, "w": 3}
_HEX = "0123456789abcdef"


def swizzle_indices(name: str, width: int) -> Optional[List[int]]:
    """Decode a vector component selector into element indices.

    Supports the OpenCL forms ``x y z w`` (and combinations like ``xy``),
    ``lo hi even odd``, and ``sN`` numeric selectors; returns None if
    ``name`` is not a valid selector for a vector of ``width`` components.
    CUDA only allows single-letter x/y/z/w — that restriction is enforced by
    the translator, not here.
    """
    if not name:
        return None
    if name in ("lo", "hi", "even", "odd"):
        half = width // 2
        if width < 2:
            return None
        if name == "lo":
            return list(range(half))
        if name == "hi":
            return list(range(half, 2 * half))
        if name == "even":
            return list(range(0, width, 2))
        return list(range(1, width, 2))
    if name[0] in ("s", "S") and len(name) > 1:
        idx: List[int] = []
        for c in name[1:].lower():
            if c not in _HEX:
                return None
            i = _HEX.index(c)
            if i >= width:
                return None
            idx.append(i)
        return idx
    idx = []
    for c in name:
        if c not in _XYZW:
            return None
        i = _XYZW[c]
        if i >= width:
            return None
        idx.append(i)
    return idx


# ---------------------------------------------------------------------------
# signature helpers
# ---------------------------------------------------------------------------

def _fixed(ret: T.Type, *params: T.Type, variadic: bool = False) -> T.FunctionType:
    return T.FunctionType(ret, tuple(params), variadic)


def _same_as_arg(i: int = 0) -> Signature:
    def sig(args: Sequence[T.Type]) -> T.Type:
        return args[i] if args else T.FLOAT
    return sig


def _float_like(args: Sequence[T.Type]) -> T.Type:
    """Float builtins: vector in -> vector out, integer in -> promoted float."""
    if not args:
        return T.FLOAT
    a = args[0]
    if isinstance(a, T.VectorType):
        return a
    if isinstance(a, T.ScalarType) and a.floating:
        return a
    return T.FLOAT


def _base_of(args: Sequence[T.Type]) -> T.Type:
    a = args[0]
    return a.base if isinstance(a, T.VectorType) else a


def _common(args: Sequence[T.Type]) -> T.Type:
    t = args[0]
    for a in args[1:]:
        t = T.common_type(t, a)
    return t


_GENERIC_MATH = (
    "sqrt", "rsqrt", "sin", "cos", "tan", "asin", "acos", "atan",
    "sinh", "cosh", "tanh", "exp", "exp2", "exp10", "log", "log2", "log10",
    "fabs", "floor", "ceil", "trunc", "round", "rint", "erf", "erfc",
    "cbrt", "log1p", "expm1",
)
_GENERIC_MATH2 = ("pow", "fmod", "fmin", "fmax", "atan2", "fdim", "copysign",
                  "hypot")
_GENERIC_MATH3 = ("fma", "mad", "mix", "clamp", "smoothstep")


def _add_math(table: Dict[str, Signature], f_suffix: bool) -> None:
    for name in _GENERIC_MATH:
        table[name] = _float_like
        if f_suffix:
            table[name + "f"] = _float_like
    for name in _GENERIC_MATH2:
        table[name] = lambda args: _common(args)
        if f_suffix:
            table[name + "f"] = lambda args: _common(args)
    for name in _GENERIC_MATH3:
        table[name] = lambda args: _common(args)
        if f_suffix:
            table[name + "f"] = lambda args: _common(args)


# ---------------------------------------------------------------------------
# OpenCL device built-ins
# ---------------------------------------------------------------------------

OPENCL_DEVICE_SIGS: Dict[str, Signature] = {
    # work-item functions
    "get_global_id": _fixed(T.SIZE_T, T.UINT),
    "get_local_id": _fixed(T.SIZE_T, T.UINT),
    "get_group_id": _fixed(T.SIZE_T, T.UINT),
    "get_global_size": _fixed(T.SIZE_T, T.UINT),
    "get_local_size": _fixed(T.SIZE_T, T.UINT),
    "get_num_groups": _fixed(T.SIZE_T, T.UINT),
    "get_work_dim": _fixed(T.UINT),
    "get_global_offset": _fixed(T.SIZE_T, T.UINT),
    # synchronization
    "barrier": _fixed(T.VOID, T.UINT),
    "mem_fence": _fixed(T.VOID, T.UINT),
    "read_mem_fence": _fixed(T.VOID, T.UINT),
    "write_mem_fence": _fixed(T.VOID, T.UINT),
    # integer
    "min": _common, "max": _common, "abs": _same_as_arg(),
    "mul24": _common, "mad24": _common,
    "clz": _same_as_arg(), "popcount": _same_as_arg(),
    "rotate": _common,
    # geometric
    "dot": _base_of, "length": _base_of, "fast_length": _base_of,
    "distance": _base_of, "normalize": _same_as_arg(),
    "cross": _same_as_arg(),
    # relational / misc
    "select": _same_as_arg(1), "step": _common, "sign": _same_as_arg(),
    "isnan": lambda args: T.INT, "isinf": lambda args: T.INT,
    # atomics (OpenCL 1.2 names; atom_* aliases included)
    "atomic_add": lambda args: _pointee(args[0]),
    "atomic_sub": lambda args: _pointee(args[0]),
    "atomic_inc": lambda args: _pointee(args[0]),
    "atomic_dec": lambda args: _pointee(args[0]),
    "atomic_xchg": lambda args: _pointee(args[0]),
    "atomic_cmpxchg": lambda args: _pointee(args[0]),
    "atomic_min": lambda args: _pointee(args[0]),
    "atomic_max": lambda args: _pointee(args[0]),
    "atomic_and": lambda args: _pointee(args[0]),
    "atomic_or": lambda args: _pointee(args[0]),
    "atomic_xor": lambda args: _pointee(args[0]),
    # image access
    "read_imagef": lambda args: T.vector("float", 4),
    "read_imagei": lambda args: T.vector("int", 4),
    "read_imageui": lambda args: T.vector("uint", 4),
    "write_imagef": lambda args: T.VOID,
    "write_imagei": lambda args: T.VOID,
    "write_imageui": lambda args: T.VOID,
    "get_image_width": lambda args: T.INT,
    "get_image_height": lambda args: T.INT,
    "get_image_depth": lambda args: T.INT,
    # half/native variants map to the generic ones
    "native_sin": _float_like, "native_cos": _float_like,
    "native_exp": _float_like, "native_log": _float_like,
    "native_sqrt": _float_like, "native_rsqrt": _float_like,
    "native_divide": _common, "native_recip": _float_like,
    "native_powr": _common, "half_sqrt": _float_like, "half_rsqrt": _float_like,
}
_add_math(OPENCL_DEVICE_SIGS, f_suffix=False)

for _w in (2, 3, 4, 8, 16):
    OPENCL_DEVICE_SIGS[f"vload{_w}"] = (
        lambda args, w=_w: T.VectorType(_pointee_scalar(args[1]), w))
    OPENCL_DEVICE_SIGS[f"vstore{_w}"] = lambda args: T.VOID

# as_<type> and convert_<type>[_sat][_rt*] are resolved by name pattern in
# sema; see resolve_conversion().

#: special (implicitly declared) variables in OpenCL kernels: none.
OPENCL_SPECIAL_VARS: Dict[str, T.Type] = {}


# ---------------------------------------------------------------------------
# CUDA device built-ins
# ---------------------------------------------------------------------------

_UINT3 = T.vector("uint", 3)

CUDA_SPECIAL_VARS: Dict[str, T.Type] = {
    "threadIdx": _UINT3,
    "blockIdx": _UINT3,
    "blockDim": _UINT3,
    "gridDim": _UINT3,
    "warpSize": T.INT,
}

CUDA_DEVICE_SIGS: Dict[str, Signature] = {
    "__syncthreads": _fixed(T.VOID),
    "__threadfence": _fixed(T.VOID),
    "__threadfence_block": _fixed(T.VOID),
    # integer / misc
    "min": _common, "max": _common, "abs": _same_as_arg(),
    "__mul24": _common, "__umul24": _common,
    "__popc": lambda args: T.INT, "__clz": lambda args: T.INT,
    "__fdividef": _common, "__expf": _float_like, "__logf": _float_like,
    "__sinf": _float_like, "__cosf": _float_like, "__powf": _common,
    "__saturatef": _float_like,
    "rsqrtf": _float_like, "rsqrt": _float_like,
    # atomics
    "atomicAdd": lambda args: _pointee(args[0]),
    "atomicSub": lambda args: _pointee(args[0]),
    "atomicExch": lambda args: _pointee(args[0]),
    "atomicMin": lambda args: _pointee(args[0]),
    "atomicMax": lambda args: _pointee(args[0]),
    "atomicInc": lambda args: _pointee(args[0]),
    "atomicDec": lambda args: _pointee(args[0]),
    "atomicCAS": lambda args: _pointee(args[0]),
    "atomicAnd": lambda args: _pointee(args[0]),
    "atomicOr": lambda args: _pointee(args[0]),
    "atomicXor": lambda args: _pointee(args[0]),
    # textures
    "tex1Dfetch": lambda args: T.FLOAT,
    "tex1D": lambda args: T.FLOAT,
    "tex2D": lambda args: T.FLOAT,
    "tex3D": lambda args: T.FLOAT,
    # hardware-specific (translatable to OpenCL: none — Table 3)
    "__shfl": _same_as_arg(1), "__shfl_up": _same_as_arg(1),
    "__shfl_down": _same_as_arg(1), "__shfl_xor": _same_as_arg(1),
    "__all": lambda args: T.INT, "__any": lambda args: T.INT,
    "__ballot": lambda args: T.UINT,
    "clock": lambda args: T.INT, "clock64": lambda args: T.LONGLONG,
    "__ldg": lambda args: _pointee(args[0]),
    "assert": lambda args: T.VOID,
    "printf": _fixed(T.INT, T.PointerType(T.CHAR), variadic=True),
}
_add_math(CUDA_DEVICE_SIGS, f_suffix=True)

for _base in ("char", "uchar", "short", "ushort", "int", "uint",
              "long", "ulong", "longlong", "ulonglong", "float", "double"):
    for _w in (1, 2, 3, 4):
        CUDA_DEVICE_SIGS[f"make_{_base}{_w}"] = (
            lambda args, b=_base, w=_w: T.vector(b, w))

#: CUDA built-ins with no OpenCL counterpart (paper §3.7 & Table 3) — the
#: analyzer flags any use of these under "No corresponding functions".
CUDA_HW_BUILTINS = frozenset({
    "__shfl", "__shfl_up", "__shfl_down", "__shfl_xor",
    "__all", "__any", "__ballot", "clock", "clock64",
    "assert", "__prof_trigger", "__trap", "__brkpt",
})


# ---------------------------------------------------------------------------
# Host C standard library (the subset the corpus uses)
# ---------------------------------------------------------------------------

_VOIDP = T.PointerType(T.VOID, T.AddressSpace.HOST)
_CHARP = T.PointerType(T.CHAR, T.AddressSpace.HOST)

HOST_SIGS: Dict[str, Signature] = {
    "printf": _fixed(T.INT, _CHARP, variadic=True),
    "fprintf": _fixed(T.INT, _VOIDP, _CHARP, variadic=True),
    "sprintf": _fixed(T.INT, _CHARP, _CHARP, variadic=True),
    "puts": _fixed(T.INT, _CHARP),
    "malloc": _fixed(_VOIDP, T.SIZE_T),
    "calloc": _fixed(_VOIDP, T.SIZE_T, T.SIZE_T),
    "realloc": _fixed(_VOIDP, _VOIDP, T.SIZE_T),
    "free": _fixed(T.VOID, _VOIDP),
    "memcpy": _fixed(_VOIDP, _VOIDP, _VOIDP, T.SIZE_T),
    "memset": _fixed(_VOIDP, _VOIDP, T.INT, T.SIZE_T),
    "memcmp": _fixed(T.INT, _VOIDP, _VOIDP, T.SIZE_T),
    "strlen": _fixed(T.SIZE_T, _CHARP),
    "strcmp": _fixed(T.INT, _CHARP, _CHARP),
    "strcpy": _fixed(_CHARP, _CHARP, _CHARP),
    "rand": _fixed(T.INT),
    "srand": _fixed(T.VOID, T.UINT),
    "exit": _fixed(T.VOID, T.INT),
    "atoi": _fixed(T.INT, _CHARP),
    "atof": _fixed(T.DOUBLE, _CHARP),
    "abs": _same_as_arg(),
    "min": _common, "max": _common,
}
_add_math(HOST_SIGS, f_suffix=True)


# ---------------------------------------------------------------------------
# Named constants
# ---------------------------------------------------------------------------

#: the float nearest pi, as C's ``M_PI_F`` / ``CUDART_PI_F`` hold it
_PI_F = struct.unpack("<f", struct.pack("<f", math.pi))[0]

#: value of every named constant a kernel reads as a bare identifier
#: (``ExecEnv.constant``); the host library takes its float limits from
#: here too.  Floats hold C's values: the ``_F`` names and the ``FLT_``
#: limits are binary32 values.
NAMED_CONSTANTS: Dict[str, Union[int, float]] = {
    "CLK_LOCAL_MEM_FENCE": 1, "CLK_GLOBAL_MEM_FENCE": 2,
    "CLK_NORMALIZED_COORDS_FALSE": 0x00, "CLK_NORMALIZED_COORDS_TRUE": 0x01,
    "CLK_ADDRESS_NONE": 0x00, "CLK_ADDRESS_CLAMP_TO_EDGE": 0x02,
    "CLK_ADDRESS_CLAMP": 0x04, "CLK_ADDRESS_REPEAT": 0x06,
    "CLK_FILTER_NEAREST": 0x10, "CLK_FILTER_LINEAR": 0x20,
    "CUDART_INF_F": float("inf"), "INFINITY": float("inf"),
    "HUGE_VALF": float("inf"), "NAN": float("nan"),
    "M_PI": math.pi, "M_PI_F": _PI_F, "CUDART_PI_F": _PI_F,
    "FLT_MAX": 3.4028234663852886e38, "MAXFLOAT": 3.4028234663852886e38,
    "FLT_MIN": 2.0 ** -126, "FLT_EPSILON": 2.0 ** -23,
    "INT_MAX": 2**31 - 1, "NULL": 0,
}


# ---------------------------------------------------------------------------
# helpers used above
# ---------------------------------------------------------------------------

def _pointee(t: T.Type) -> T.Type:
    if isinstance(t, T.PointerType):
        return t.pointee
    if isinstance(t, T.ArrayType):
        return t.elem
    return T.INT


def _pointee_scalar(t: T.Type) -> T.ScalarType:
    p = _pointee(t)
    if isinstance(p, T.ScalarType):
        return p
    return T.FLOAT


def signatures_for(dialect_name: str) -> Dict[str, Signature]:
    """The built-in signature table visible to code in ``dialect_name``.

    CUDA translation units see both the device built-ins and the host
    library (host and device code share files); OpenCL kernels see only the
    device built-ins; host C sees the host library.
    """
    if dialect_name == "opencl":
        return dict(OPENCL_DEVICE_SIGS)
    if dialect_name == "cuda":
        merged = dict(HOST_SIGS)
        merged.update(CUDA_DEVICE_SIGS)
        return merged
    return dict(HOST_SIGS)
