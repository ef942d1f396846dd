"""Sector counts from one sort: the derived build's counters against the
general per-access-kind helpers.

``WarpBatch._sorted_transactions`` counts a device array's sectors from
keys already sorted by (group, element) whose low bits may carry flags,
and ``_sorted_word_transactions`` counts key-stream gathers from entries
sorted by (group, start) without sorting per word.  Both must equal
``_per_group_unique`` / ``_word_transactions`` (which sort per call) on any
input: element sizes that do and do not divide the sector, bases that are
and are not sector-aligned, partial last words and words straddling a
sector.  Composite keys hold at most ``_MAX_GROUPS`` groups.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim.batched import (
    _KEY_BASE,
    _MAX_GROUPS,
    BatchCounters,
    WarpBatch,
    _per_group_unique,
)
from repro.gpusim.memory import DeviceArray


def _batch() -> WarpBatch:
    return WarpBatch(BatchCounters(1), sector_bytes=32)


def _array(n: int, dtype, base_addr: int) -> DeviceArray:
    return DeviceArray(np.zeros(n, dtype=dtype), base_addr)


@pytest.mark.parametrize("base_addr", [0, 256, 4, 20, 33])
@pytest.mark.parametrize("dtype", [np.int64, np.uint32])
@pytest.mark.parametrize("shift", [0, 3, 5])
def test_sorted_element_counts_match_per_group_unique(base_addr, dtype, shift):
    rng = np.random.default_rng(base_addr * 7 + shift)
    wb, darr = _batch(), _array(4096, dtype, base_addr)
    for n_groups in (1, 5, 40):
        groups = rng.integers(0, n_groups, 600)
        idx = rng.integers(0, 300, 600)  # dense enough to share sectors
        flags = rng.integers(0, 1 << shift, 600)
        keys = np.sort(groups * _KEY_BASE + (idx << shift | flags))
        addrs = base_addr + idx * darr.itemsize
        expected = _per_group_unique(
            n_groups,
            np.concatenate([groups, groups]),
            np.concatenate([addrs // 32, (addrs + darr.itemsize - 1) // 32]),
        )
        np.testing.assert_array_equal(wb._sorted_transactions(darr, keys, n_groups, shift), expected)
        np.testing.assert_array_equal(
            wb._element_transactions(darr, idx, groups, n_groups), expected
        )


@pytest.mark.parametrize("k", [21, 33, 55, 8, 1])
@pytest.mark.parametrize("base_addr", [0, 512, 3, 27])
def test_sorted_word_counts_match_word_transactions(k, base_addr):
    rng = np.random.default_rng(k * 31 + base_addr)
    wb, reads = _batch(), _array(1 << 12, np.uint8, base_addr)
    for n_groups, n, spread in ((1, 5, 40), (6, 200, 300), (30, 900, 2000), (3, 400, 64)):
        groups = rng.integers(0, n_groups, n)
        starts = rng.integers(0, spread, n)  # close starts: words share and straddle sectors
        keys = np.sort(groups * _KEY_BASE + starts)
        np.testing.assert_array_equal(
            wb._sorted_word_transactions(reads, keys, n_groups, k),
            wb._word_transactions(reads, starts, groups, n_groups, k),
        )


def test_words_straddling_a_sector():
    """One group, starts 1..31: each word of a k = 21 stream straddles
    wherever its offset in the sector exceeds 24 (a partial last word of 5
    bytes: past 27)."""
    wb, reads = _batch(), _array(256, np.uint8, 0)
    for starts in (np.array([26]), np.array([25, 26]), np.arange(1, 32), np.array([3, 31, 60, 61])):
        keys = np.sort(starts)
        np.testing.assert_array_equal(
            wb._sorted_word_transactions(reads, keys, 1, 21),
            wb._word_transactions(reads, starts, np.zeros(starts.size, dtype=np.int64), 1, 21),
        )


@pytest.mark.parametrize("base_addr", [0, 4])
def test_no_entries_count_nothing(base_addr):
    wb, none = _batch(), np.zeros(0, dtype=np.int64)
    for counts in (
        wb._sorted_transactions(_array(8, np.int64, base_addr), none, 3, 5),
        wb._sorted_word_transactions(_array(8, np.uint8, base_addr), none, 3, 21),
    ):
        np.testing.assert_array_equal(counts, [0, 0, 0])


def test_composite_keys_refuse_too_many_groups():
    wb, darr = _batch(), _array(64, np.int64, 0)
    one = np.zeros(1, dtype=np.int64)
    for n_groups in (_MAX_GROUPS, _MAX_GROUPS + 1):
        calls = (
            lambda: _per_group_unique(n_groups, one, one),
            lambda: wb._sorted_transactions(darr, one, n_groups),
            lambda: wb._sorted_word_transactions(darr, one, n_groups, 21),
            lambda: wb._word_transactions(darr, one, one, n_groups, 21),
        )
        for call in calls:
            if n_groups > _MAX_GROUPS:
                with pytest.raises(ValueError, match="groups"):
                    call()
            else:
                assert call()[0] >= 1
    # the largest group id still fits an int64 key
    assert (_MAX_GROUPS - 1) * int(_KEY_BASE) + int(_KEY_BASE) - 1 < 2**63
