"""Tests for the device allocator and sector/transaction counting."""

import tracemalloc

import numpy as np
import pytest

from repro.gpusim.memory import (
    DeviceAllocator,
    DeviceOutOfMemory,
    count_sectors,
)


class TestAllocator:
    def test_alloc_and_capacity(self):
        a = DeviceAllocator(10_000)
        d = a.alloc(100, np.int64)
        assert d.nbytes == 800
        assert a.bytes_in_use >= 800
        assert len(d) == 100

    def test_alignment(self):
        a = DeviceAllocator(10_000)
        d1 = a.alloc(1, np.uint8)
        d2 = a.alloc(1, np.uint8)
        assert d2.base_addr - d1.base_addr == DeviceAllocator.ALIGN

    def test_oom(self):
        a = DeviceAllocator(1000)
        with pytest.raises(DeviceOutOfMemory):
            a.alloc(2000, np.uint8)

    @pytest.mark.parametrize("shape", [(1 << 20, 1 << 20), 1 << 24])
    def test_oom_is_refused_before_any_host_memory(self, shape):
        """4 TiB (more than the host has) and 64 MiB asked of a 1 MiB
        device: exactly DeviceOutOfMemory, not numpy's MemoryError, no
        host buffer made, and the allocator state untouched."""
        a = DeviceAllocator(1 << 20)
        first = a.alloc(100, np.uint8)
        state = (a.bytes_in_use, a.n_allocs, a.high_water_bytes)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError) as err:
                a.alloc(shape, np.uint32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(err.value) is DeviceOutOfMemory
        assert peak < 1 << 16
        assert (a.bytes_in_use, a.n_allocs, a.high_water_bytes) == state
        assert a.alloc(1, np.uint8).base_addr == first.base_addr + DeviceAllocator.ALIGN

    def test_free_and_reset(self):
        a = DeviceAllocator(1024)
        d = a.alloc(512, np.uint8)
        a.free(d)
        a.alloc(512, np.uint8)  # fits again
        a.reset()
        assert a.bytes_in_use == 0

    def test_high_water(self):
        a = DeviceAllocator(10_000)
        d = a.alloc(4000, np.uint8)
        a.free(d)
        a.alloc(100, np.uint8)
        assert a.high_water_bytes >= 4000

    def test_addresses_never_alias(self):
        a = DeviceAllocator(10_000)
        d1 = a.alloc(100, np.uint8)
        a.free(d1)
        d2 = a.alloc(100, np.uint8)
        assert d2.base_addr > d1.base_addr

    def test_to_device_copies(self):
        a = DeviceAllocator(10_000)
        host = np.arange(10, dtype=np.int32)
        d = a.to_device(host)
        host[0] = 99
        assert d.data[0] == 0

    def test_zero_initialised(self):
        a = DeviceAllocator(10_000)
        assert (a.alloc(50, np.int64).data == 0).all()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DeviceAllocator(0)


class TestSectorCounting:
    def test_empty(self):
        assert count_sectors(np.array([]), 4) == 0

    def test_single_access(self):
        assert count_sectors(np.array([0]), 4) == 1

    def test_unit_stride_coalesces(self):
        # 32 lanes x 4B contiguous = 128B = 4 sectors
        addrs = np.arange(32) * 4
        assert count_sectors(addrs, 4) == 4

    def test_byte_stride_coalesces(self):
        # 32 lanes x 1B contiguous = 32B = 1 sector
        assert count_sectors(np.arange(32), 1) == 1

    def test_broadcast_is_one(self):
        assert count_sectors(np.zeros(32, dtype=np.int64), 4) == 1

    def test_random_gather_worst_case(self):
        # 32 lanes, each in its own sector
        addrs = np.arange(32) * 1000
        assert count_sectors(addrs, 4) == 32

    def test_straddling_item(self):
        # an 8-byte item at offset 28 crosses the 32B boundary
        assert count_sectors(np.array([28]), 8) == 2

    def test_large_item_spans_many_sectors(self):
        assert count_sectors(np.array([0]), 100) == 4  # ceil(100/32)

    def test_duplicate_sectors_merge(self):
        addrs = np.array([0, 4, 8, 1000])
        assert count_sectors(addrs, 4) == 2
