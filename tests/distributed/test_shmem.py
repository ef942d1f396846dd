"""The shared-memory arrays behind the rank harness's segments."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed.shmem import (
    attach_shared_array,
    cleanup_launch_segments,
    create_named_shared_array,
    launch_token,
    shared_memory_available,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on this host"
)


@pytest.fixture
def token():
    """A launch token whose segments are unlinked after the test."""
    tok = launch_token()
    yield tok
    cleanup_launch_segments(tok)


def _create(token, shape, dtype):
    return create_named_shared_array(f"repro-{token}-t", shape, dtype, token=token)


class TestSharedNDArray:
    def test_create_zeroed_and_named(self, token):
        arr = _create(token, 16, np.int64)
        try:
            assert arr.shape == (16,)
            assert not arr.any()
            assert arr.segment_name == f"repro-{token}-t"
            with pytest.raises(FileExistsError):  # O_EXCL: never shared by accident
                _create(token, 16, np.int64)
        finally:
            arr.unlink()

    def test_attach_by_name(self, token):
        arr = _create(token, 4, np.uint8)
        try:
            arr[:] = [1, 2, 3, 4]
            other = attach_shared_array(arr.segment_name, 4, np.uint8)
            np.testing.assert_array_equal(other, arr)
            other[0] = 9  # the same pages, not a copy
            assert arr[0] == 9
        finally:
            arr.unlink()

    def test_double_unlink_is_harmless(self, token):
        arr = _create(token, 4, np.uint8)
        arr.unlink()
        arr.unlink()
