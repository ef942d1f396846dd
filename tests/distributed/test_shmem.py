"""The shared-memory arrays behind the rank harness's segments."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed.shmem import (
    attach_shared_array,
    create_shared_array,
    shared_memory_available,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on this host"
)


class TestSharedNDArray:
    def test_create_zeroed_and_named(self):
        arr = create_shared_array(16, np.int64)
        try:
            assert arr.shape == (16,)
            assert not arr.any()
            assert arr.segment_name
        finally:
            arr.unlink()

    def test_attach_by_name(self):
        arr = create_shared_array(4, np.uint8)
        try:
            arr[:] = [1, 2, 3, 4]
            other = attach_shared_array(arr.segment_name, 4, np.uint8)
            np.testing.assert_array_equal(other, arr)
            other[0] = 9  # the same pages, not a copy
            assert arr[0] == 9
        finally:
            arr.unlink()

    def test_double_unlink_is_harmless(self):
        arr = create_shared_array(4, np.uint8)
        arr.unlink()
        arr.unlink()
