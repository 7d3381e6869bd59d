"""Flat byte-addressable backing store.

This is the functional half of the memory system: a plain byte array with
typed accessors.  Timing (banking, arbitration) is layered on top by
:class:`repro.mem.tcdm.Tcdm`.  The harness uses the numpy helpers to place
input arrays and read back results.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class MemoryError_(Exception):
    """Raised on out-of-range or misaligned accesses."""


class Memory:
    """A flat little-endian memory of ``size`` bytes."""

    def __init__(self, size: int = 1 << 20):
        if size <= 0 or size % 8:
            raise ValueError(f"memory size must be a positive multiple of 8, "
                             f"got {size}")
        self.size = size
        self._data = bytearray(size)

    # -- bounds ---------------------------------------------------------

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.size:
            raise MemoryError_(
                f"access of {nbytes} bytes at {addr:#x} outside memory of "
                f"size {self.size:#x}"
            )
        if addr % nbytes:
            raise MemoryError_(
                f"misaligned {nbytes}-byte access at {addr:#x}"
            )

    # -- scalar accessors -------------------------------------------------

    def read_u8(self, addr: int) -> int:
        self._check(addr, 1)
        return self._data[addr]

    def write_u8(self, addr: int, value: int) -> None:
        self._check(addr, 1)
        self._data[addr] = value & 0xFF

    def read_u16(self, addr: int) -> int:
        self._check(addr, 2)
        return struct.unpack_from("<H", self._data, addr)[0]

    def write_u16(self, addr: int, value: int) -> None:
        self._check(addr, 2)
        struct.pack_into("<H", self._data, addr, value & 0xFFFF)

    def read_u32(self, addr: int) -> int:
        self._check(addr, 4)
        return struct.unpack_from("<I", self._data, addr)[0]

    def write_u32(self, addr: int, value: int) -> None:
        self._check(addr, 4)
        struct.pack_into("<I", self._data, addr, value & 0xFFFFFFFF)

    def read_u64(self, addr: int) -> int:
        self._check(addr, 8)
        return struct.unpack_from("<Q", self._data, addr)[0]

    def write_u64(self, addr: int, value: int) -> None:
        self._check(addr, 8)
        struct.pack_into("<Q", self._data, addr, value & (1 << 64) - 1)

    def read_f64(self, addr: int) -> float:
        self._check(addr, 8)
        return struct.unpack_from("<d", self._data, addr)[0]

    def write_f64(self, addr: int, value: float) -> None:
        self._check(addr, 8)
        struct.pack_into("<d", self._data, addr, value)

    def read_f32(self, addr: int) -> float:
        self._check(addr, 4)
        return struct.unpack_from("<f", self._data, addr)[0]

    def write_f32(self, addr: int, value: float) -> None:
        self._check(addr, 4)
        struct.pack_into("<f", self._data, addr, value)

    # -- bulk numpy helpers ----------------------------------------------

    def write_array(self, addr: int, array: np.ndarray) -> None:
        """Copy ``array`` (C-contiguous view is taken) into memory."""
        import numpy as np

        raw = np.ascontiguousarray(array).tobytes()
        if addr < 0 or addr + len(raw) > self.size:
            raise MemoryError_(
                f"array of {len(raw)} bytes at {addr:#x} exceeds memory"
            )
        self._data[addr:addr + len(raw)] = raw

    def read_array(self, addr: int, shape: tuple[int, ...],
                   dtype="float64") -> np.ndarray:
        """Read an ndarray of ``shape``/``dtype`` starting at ``addr``."""
        import numpy as np

        count = int(np.prod(shape))
        nbytes = count * np.dtype(dtype).itemsize
        if addr < 0 or addr + nbytes > self.size:
            raise MemoryError_(
                f"array of {nbytes} bytes at {addr:#x} exceeds memory"
            )
        flat = np.frombuffer(bytes(self._data[addr:addr + nbytes]),
                             dtype=dtype)
        return flat.reshape(shape).copy()

    def _f64_view(self) -> np.ndarray:
        """Writable float64 view of the whole backing store."""
        import numpy as np

        return np.frombuffer(memoryview(self._data), dtype=np.float64)

    def _check_f64_addrs(self, addrs: np.ndarray) -> None:
        if addrs.size == 0:
            return
        lo = int(addrs.min())
        hi = int(addrs.max())
        if lo < 0 or hi + 8 > self.size:
            raise MemoryError_(
                f"gather/scatter address {hi:#x} outside memory of size "
                f"{self.size:#x}")
        if (addrs & 7).any():
            raise MemoryError_("misaligned 8-byte address in gather/scatter")

    def gather_f64(self, addrs) -> np.ndarray:
        """Read one float64 per (8-aligned) byte address, vectorized."""
        import numpy as np

        addrs = np.asarray(addrs, dtype=np.int64)
        self._check_f64_addrs(addrs)
        return self._f64_view()[addrs >> 3].copy()

    def scatter_f64(self, addrs, values) -> None:
        """Write one float64 per (8-aligned) byte address, vectorized.

        Duplicate addresses resolve to the last occurrence, matching a
        sequential store loop.
        """
        import numpy as np

        addrs = np.asarray(addrs, dtype=np.int64)
        self._check_f64_addrs(addrs)
        self._f64_view()[addrs >> 3] = np.asarray(values, dtype=np.float64)

    def fill(self, addr: int, nbytes: int, byte: int = 0) -> None:
        """Fill ``nbytes`` bytes starting at ``addr`` with ``byte``."""
        if addr < 0 or addr + nbytes > self.size:
            raise MemoryError_(f"fill of {nbytes} bytes at {addr:#x} exceeds "
                               f"memory")
        self._data[addr:addr + nbytes] = bytes([byte & 0xFF]) * nbytes


class Allocator:
    """Bump allocator for laying out arrays in TCDM from the harness."""

    def __init__(self, base: int = 0x100, align: int = 8):
        self._next = base
        self._align = align

    def alloc(self, nbytes: int, align: int | None = None) -> int:
        """Reserve ``nbytes`` and return the base address."""
        align = align or self._align
        addr = (self._next + align - 1) // align * align
        self._next = addr + nbytes
        return addr

    def alloc_f64(self, count: int) -> int:
        """Reserve space for ``count`` doubles."""
        return self.alloc(8 * count, align=8)

    @property
    def used(self) -> int:
        """Bytes allocated so far (high-water mark)."""
        return self._next
