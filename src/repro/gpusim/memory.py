"""Simulated device memory: allocation tracking and transaction counting.

Two things matter to the paper's analysis and are modelled here:

* **Capacity** (§3.2): a V100 has 16 GB; the local-assembly driver must fit
  packed reads + hash tables + output buffers into it, which is why the
  paper computes exact per-extension table sizes.  :class:`DeviceAllocator`
  enforces the budget and raises :class:`DeviceOutOfMemory` on overflow.
* **Coalescing**: one warp-level load/store touches some set of 32-byte
  sectors; the number of *unique* sectors among the active lanes is the
  number of memory transactions.  A unit-stride access by 32 lanes over
  4-byte items costs 4 transactions; a random gather costs up to 32.  This
  is precisely the quantity behind the Instruction Roofline memory walls.

A :class:`DeviceArray` is a NumPy array plus a base address in a flat
simulated address space, so that sector arithmetic can mix arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DeviceArray",
    "DeviceAllocator",
    "DeviceFreeError",
    "DeviceOutOfMemory",
    "count_sectors",
]


class DeviceOutOfMemory(MemoryError):
    """Raised when an allocation would exceed the device's global memory."""


class DeviceFreeError(ValueError):
    """Raised on double-free or freeing an array this allocator never made."""


@dataclass
class DeviceArray:
    """A device-resident array: data + simulated base address."""

    data: np.ndarray
    base_addr: int
    #: set by the owning allocator on free()/reset(); a freed handle is
    #: poison — kernels touching it trip memcheck (use-after-free) or the
    #: always-on strict checks in Warp.global_load/global_store.
    freed: bool = False

    @property
    def itemsize(self) -> int:
        return self.data.itemsize

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def __len__(self) -> int:
        return len(self.data)

    def addresses(self, idx: np.ndarray) -> np.ndarray:
        """Simulated byte addresses of elements *idx* (flat indexing)."""
        return self.base_addr + np.asarray(idx, dtype=np.int64) * self.itemsize


class DeviceAllocator:
    """Bump allocator over a simulated global-memory address space.

    Tracks bytes in use against the device capacity.  ``free`` releases
    capacity but never reuses addresses (addresses only matter for sector
    counting, so monotonically increasing bases are fine and keep arrays
    from ever aliasing).
    """

    #: allocation granularity; CUDA's cudaMalloc aligns to 256 bytes.
    ALIGN = 256

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.bytes_in_use = 0
        self.high_water_bytes = 0
        self._next_addr = 0
        self.n_allocs = 0
        #: live allocations by base address (ownership map for free()).
        self._live: dict[int, DeviceArray] = {}
        #: optional repro.sanitize.Sanitizer receiving alloc/free events.
        self.sanitizer = None

    def alloc(self, shape, dtype) -> DeviceArray:
        """Allocate a zero-initialised device array.  The capacity check
        comes first: a refused request commits no host memory."""
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        padded = (nbytes + self.ALIGN - 1) // self.ALIGN * self.ALIGN
        if self.bytes_in_use + padded > self.capacity_bytes:
            raise DeviceOutOfMemory(
                f"allocation of {nbytes} bytes exceeds device memory: "
                f"{self.bytes_in_use}/{self.capacity_bytes} in use"
            )
        arr = np.zeros(shape, dtype=dtype)
        base = self._next_addr
        self._next_addr += padded
        self.bytes_in_use += padded
        self.high_water_bytes = max(self.high_water_bytes, self.bytes_in_use)
        self.n_allocs += 1
        darr = DeviceArray(arr, base)
        self._live[base] = darr
        if self.sanitizer is not None:
            self.sanitizer.on_alloc(darr)
        return darr

    def to_device(self, host: np.ndarray) -> DeviceArray:
        """Copy a host array to the device (counts toward capacity)."""
        darr = self.alloc(host.shape, host.dtype)
        darr.data[...] = host
        if self.sanitizer is not None:
            # host->device copy initialises every byte of the allocation
            self.sanitizer.mark_initialized(darr)
        return darr

    def free(self, darr: DeviceArray) -> None:
        """Release an allocation's capacity.

        Raises :class:`DeviceFreeError` on double-free or on a handle this
        allocator does not own (never allocated here, or already swept by
        ``reset``).
        """
        if darr.freed:
            raise DeviceFreeError(
                f"double free of device array at 0x{darr.base_addr:x} "
                f"({darr.nbytes} bytes)"
            )
        if self._live.get(darr.base_addr) is not darr:
            raise DeviceFreeError(
                f"free of device array at 0x{darr.base_addr:x} that this "
                f"allocator does not own"
            )
        padded = (darr.nbytes + self.ALIGN - 1) // self.ALIGN * self.ALIGN
        self.bytes_in_use = max(0, self.bytes_in_use - padded)
        darr.freed = True
        del self._live[darr.base_addr]
        if self.sanitizer is not None:
            self.sanitizer.on_free(darr)

    def reset(self) -> None:
        """Free everything (between kernel batches).

        Outstanding :class:`DeviceArray` handles are invalidated (marked
        ``freed``), so a kernel that keeps using one after the batch is
        recycled trips memcheck as use-after-free instead of silently
        reading stale memory.
        """
        self.bytes_in_use = 0
        for darr in self._live.values():
            darr.freed = True
        self._live.clear()
        if self.sanitizer is not None:
            self.sanitizer.on_reset()


def count_sectors(addresses: np.ndarray, itemsize: int, sector_bytes: int = 32) -> int:
    """Number of 32-byte sectors touched by a set of element accesses.

    Each access covers ``[addr, addr + itemsize)``; items can straddle a
    sector boundary, in which case both sectors are counted (matching real
    L1 behaviour).  Duplicate sectors across lanes coalesce into one
    transaction.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.size == 0:
        return 0
    first = addresses // sector_bytes
    last = (addresses + itemsize - 1) // sector_bytes
    if itemsize <= sector_bytes:
        # Common case: an item spans at most 2 sectors.  A Python set is
        # much faster than np.unique for these <=32-element warp accesses
        # (this function sits on the simulator's hottest path).
        sectors = set(first.tolist())
        sectors.update(last.tolist())
        return len(sectors)
    # Large items: expand ranges (rare; only used for wide structs).
    all_sectors: set[int] = set()
    for f, l in zip(first.tolist(), last.tolist()):
        all_sectors.update(range(f, l + 1))
    return len(all_sectors)
