"""Always-on access validation + allocator lifecycle errors (no sanitizer).

Even with every checker off, the simulator refuses the accesses real CUDA
would corrupt silently: negative / past-the-end indices raise IndexError
(instead of NumPy's wraparound semantics) and touching freed memory
raises DeviceFreeError.  The allocator itself rejects double frees and
frees of arrays it does not own.
"""

import numpy as np
import pytest

from repro.gpusim.batched import BatchCounters, WarpBatch
from repro.gpusim.counters import KernelCounters
from repro.gpusim.memory import DeviceAllocator, DeviceFreeError
from repro.gpusim.warp import Warp


@pytest.fixture
def alloc():
    return DeviceAllocator(1 << 20)


@pytest.fixture
def warp():
    return Warp(KernelCounters())


class TestStrictIndexValidation:
    def test_negative_index_load_raises(self, alloc, warp):
        darr = alloc.to_device(np.arange(16, dtype=np.int64))
        idx = np.zeros(32, dtype=np.int64)
        idx[3] = -2
        with pytest.raises(IndexError, match="-2"):
            warp.global_load(darr, idx)

    def test_past_end_index_store_raises(self, alloc, warp):
        darr = alloc.to_device(np.arange(16, dtype=np.int64))
        idx = np.zeros(32, dtype=np.int64)
        idx[7] = 16  # == len(darr): one past the last element
        with pytest.raises(IndexError, match="16"):
            warp.global_store(darr, idx, np.ones(32, dtype=np.int64))

    def test_span_overrun_raises(self, alloc, warp):
        darr = alloc.to_device(np.arange(16, dtype=np.int64))
        with pytest.raises(IndexError):
            warp.global_load_span(darr, 8, 16)

    def test_inactive_lanes_are_not_validated(self, alloc, warp):
        # predicated-off lanes never issue their access (SIMT semantics):
        # a garbage index in a masked lane must not raise
        darr = alloc.to_device(np.arange(16, dtype=np.int64))
        idx = np.full(32, 9999, dtype=np.int64)
        idx[:4] = np.arange(4)
        with warp.where(np.arange(32) < 4):
            vals = warp.global_load(darr, idx)
        assert vals[:4].tolist() == [0, 1, 2, 3]

    def test_valid_access_untouched(self, alloc, warp):
        darr = alloc.to_device(np.arange(32, dtype=np.int64))
        vals = warp.global_load(darr, np.arange(32, dtype=np.int64))
        assert vals.tolist() == list(range(32))

    def test_batched_oob_raises(self, alloc):
        darr = alloc.to_device(np.arange(16, dtype=np.int64))
        wb = WarpBatch(BatchCounters(2))
        with pytest.raises(IndexError, match="999"):
            wb.store_lane0(darr, np.array([3, 999]), 0, np.array([0, 1]))
        assert darr.data.tolist() == list(range(16))  # checked before any write


class TestFreedAccess:
    def test_load_after_free_raises(self, alloc, warp):
        darr = alloc.to_device(np.arange(16, dtype=np.int64))
        alloc.free(darr)
        with pytest.raises(DeviceFreeError):
            warp.global_load(darr, np.zeros(32, dtype=np.int64))

    def test_load_after_reset_raises(self, alloc, warp):
        darr = alloc.to_device(np.arange(16, dtype=np.int64))
        alloc.reset()
        with pytest.raises(DeviceFreeError):
            warp.global_load(darr, np.zeros(32, dtype=np.int64))

    def test_span_after_free_raises(self, alloc, warp):
        darr = alloc.to_device(np.arange(16, dtype=np.int64))
        alloc.free(darr)
        with pytest.raises(DeviceFreeError):
            warp.global_store_span(darr, 0, 4, np.zeros(4, dtype=np.int64))


class TestAllocatorLifecycle:
    def test_double_free_raises(self, alloc):
        darr = alloc.alloc(16, np.int64)
        alloc.free(darr)
        with pytest.raises(DeviceFreeError, match="double free"):
            alloc.free(darr)

    def test_unowned_free_raises(self, alloc):
        other = DeviceAllocator(1 << 20)
        foreign = other.alloc(16, np.int64)
        with pytest.raises(DeviceFreeError, match="does not own"):
            alloc.free(foreign)

    def test_free_after_reset_raises(self, alloc):
        darr = alloc.alloc(16, np.int64)
        alloc.reset()
        with pytest.raises(DeviceFreeError):
            alloc.free(darr)

    def test_normal_free_then_fresh_alloc_ok(self, alloc):
        darr = alloc.alloc(16, np.int64)
        alloc.free(darr)
        again = alloc.alloc(16, np.int64)
        assert not again.freed
