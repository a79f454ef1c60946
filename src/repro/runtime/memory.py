"""Byte-addressable memory pools backing every simulated address space.

A :class:`Memory` is a NumPy ``uint8`` buffer with typed scalar access and a
first-fit :class:`Allocator`.  Host memory, device global memory, constant
memory, per-group local/shared memory and per-work-item private memory are
all instances of this class, differing only in their ``space`` tag — which
is what the performance model keys on.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..clike import types as T
from ..errors import MemoryFault

__all__ = ["Memory", "Allocator"]

# struct format chars per scalar name (little-endian)
_FMT: Dict[str, str] = {
    "bool": "B", "char": "b", "uchar": "B", "short": "h", "ushort": "H",
    "int": "i", "uint": "I", "long": "q", "ulong": "Q",
    "longlong": "q", "ulonglong": "Q", "half": "e",
    "float": "f", "double": "d", "size_t": "Q", "void": "B",
}

# precompiled converters: scalar loads/stores are the hottest operation in
# kernel execution (both tiers), so skip per-call format-string assembly
_UNPACK = {name: struct.Struct("<" + fmt).unpack_from
           for name, fmt in _FMT.items()}
_PACK = {name: struct.Struct("<" + fmt).pack_into
         for name, fmt in _FMT.items()}


class Allocator:
    """First-fit free-list allocator with coalescing on free.

    Deliberately simple but real: ``clCreateBuffer``/``cudaMalloc`` wrappers
    allocate through this, ``clReleaseMemObject``/``cudaFree`` return blocks,
    and ``cudaMemGetInfo`` reports the remaining bytes (§3.7).
    """

    def __init__(self, size: int, base: int = 0) -> None:
        self.size = size
        self.base = base
        # sorted list of (offset, size) free blocks
        self._free: List[Tuple[int, int]] = [(base, size)]
        self._live: Dict[int, int] = {}

    def alloc(self, size: int, align: int = 16) -> int:
        if size <= 0:
            size = 1
        for i, (off, blk) in enumerate(self._free):
            aligned = -(-off // align) * align
            pad = aligned - off
            if blk >= size + pad:
                rest = blk - size - pad
                pieces: List[Tuple[int, int]] = []
                if pad:
                    pieces.append((off, pad))
                if rest:
                    pieces.append((aligned + size, rest))
                self._free[i:i + 1] = pieces
                self._live[aligned] = size
                return aligned
        raise MemoryFault(
            f"out of memory: requested {size} bytes, "
            f"{self.free_bytes()} free (fragmented)")

    def free(self, offset: int) -> None:
        size = self._live.pop(offset, None)
        if size is None:
            raise MemoryFault(f"free of unallocated offset {offset:#x}")
        self._free.append((offset, size))
        self._free.sort()
        # coalesce adjacent blocks
        merged: List[Tuple[int, int]] = []
        for off, sz in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + sz)
            else:
                merged.append((off, sz))
        self._free = merged

    def allocated_size(self, offset: int) -> Optional[int]:
        return self._live.get(offset)

    def block_of(self, offset: int) -> Optional[int]:
        """Start of the live block holding ``offset``, or None."""
        for start, size in self._live.items():
            if start <= offset < start + size:
                return start
        return None

    def free_bytes(self) -> int:
        return sum(sz for _, sz in self._free)

    def used_bytes(self) -> int:
        return self.size - self.free_bytes()

    def live_blocks(self) -> int:
        return len(self._live)


class Memory:
    """One simulated memory pool (an address space instance)."""

    __slots__ = ("name", "space", "buf", "allocator", "_mv", "_size")

    def __init__(self, name: str, size: int,
                 space: T.AddressSpace = T.AddressSpace.HOST,
                 with_allocator: bool = True) -> None:
        self.name = name
        self.space = space
        self.buf = np.zeros(size, dtype=np.uint8)
        self._mv = memoryview(self.buf)  # fast struct access
        self._size = int(size)           # fixed at construction
        self.allocator = Allocator(size) if with_allocator else None

    @property
    def size(self) -> int:
        return len(self.buf)

    # -- allocation ---------------------------------------------------------

    def alloc(self, size: int, align: int = 16) -> int:
        if self.allocator is None:
            raise MemoryFault(f"memory {self.name} has no allocator")
        return self.allocator.alloc(size, align)

    def free(self, offset: int) -> None:
        assert self.allocator is not None
        self.allocator.free(offset)

    # -- typed access -------------------------------------------------------

    def _check(self, off: int, n: int) -> None:
        if off < 0 or off + n > len(self.buf):
            raise MemoryFault(
                f"access [{off}, {off + n}) out of bounds of "
                f"{self.name} (size {len(self.buf)})")

    def read_scalar(self, off: int, st: T.ScalarType):
        n = st.size
        if off < 0 or off + n > self._size:
            self._check(off, n)
        return _UNPACK[st.name](self._mv, off)[0]

    def write_scalar(self, off: int, st: T.ScalarType, value) -> None:
        n = st.size
        if off < 0 or off + n > self._size:
            self._check(off, n)
        if st.floating:
            value = float(value)
        else:
            value = int(value) & ((1 << (8 * n)) - 1)
            if st.signed and value >= (1 << (8 * n - 1)):
                value -= 1 << (8 * n)
        _PACK[st.name](self._mv, off, value)

    def read_bytes(self, off: int, n: int) -> bytes:
        self._check(off, n)
        return bytes(self.buf[off:off + n])

    def write_bytes(self, off: int, data: "bytes | np.ndarray") -> None:
        n = len(data)
        self._check(off, n)
        self.buf[off:off + n] = np.frombuffer(bytes(data), dtype=np.uint8)

    def view(self, off: int, n: int) -> np.ndarray:
        """A zero-copy uint8 view of [off, off+n) — used by fast memcpy."""
        self._check(off, n)
        return self.buf[off:off + n]

    def typed_view(self, off: int, st: T.ScalarType, count: int) -> np.ndarray:
        """A zero-copy typed view of ``count`` scalars at ``off``."""
        n = st.size * count
        self._check(off, n)
        return self.buf[off:off + n].view(st.np_dtype)

    def read_cstring(self, off: int, maxlen: int = 1 << 16) -> str:
        end = off
        limit = min(len(self.buf), off + maxlen)
        while end < limit and self.buf[end] != 0:
            end += 1
        return bytes(self.buf[off:end]).decode("utf-8", "replace")

    def write_cstring(self, off: int, s: str) -> None:
        data = s.encode("utf-8") + b"\0"
        self.write_bytes(off, data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Memory {self.name} {self.space.value} {len(self.buf)}B>"
