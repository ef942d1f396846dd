"""Batched SoA warp execution: advance every warp of a launch in lockstep.

The sequential interpreter (:mod:`repro.gpusim.warp`) runs one
:class:`~repro.gpusim.warp.Warp` at a time, so a launch pays Python
dispatch overhead per warp per instruction.  This module provides the
*batched* engine primitives: kernel state lives in ``(n_warps, 32)``
structure-of-arrays form and every simulated instruction is applied to all
participating warps with one NumPy operation — the same layout trick
MetaCache-GPU and the MHM2 lineage use to keep thousands of concurrent
work items busy on real hardware.

Correctness contract (pinned by the differential tests and the
``bench_engine_scaling`` bit-identity check):

* **Counters** are additive per warp.  :class:`BatchCounters` keeps every
  :class:`~repro.gpusim.counters.KernelCounters` field as a per-warp
  array; each :class:`WarpBatch` primitive and sector helper replicates
  the sequential accounting formulas exactly (issue slots, predication,
  per-access sector dedup), so the per-warp totals — and therefore the
  merged counters and ``per_warp_inst`` tuples — are bit-identical to
  sequential execution.
* **Data** is warp-disjoint.  The paper's kernels give every warp private
  hash-table / visited / sequence / output regions, so any interleaving of
  warps yields identical memory contents.  Kernels with cross-warp write
  overlap are not batchable.

Batched kernel implementations register themselves against the sequential
kernel function via :func:`register_batched`;
:meth:`repro.gpusim.kernel.GpuContext.launch` dispatches through
:func:`batched_impl` when the context runs with ``engine="batched"``.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.gpusim._fastops import run_heads
from repro.gpusim.counters import KernelCounters
from repro.gpusim.device import WARP_SIZE
from repro.gpusim.memory import DeviceArray, DeviceFreeError

__all__ = [
    "BatchCounters",
    "WarpBatch",
    "register_batched",
    "batched_impl",
    "cached_arange",
]

#: per-group composite sort keys: ``group * _KEY_BASE + sector``.  Sector
#: ids fit comfortably (16 GB of device space / 32-byte sectors < 2^30);
#: group ids must stay below ``_MAX_GROUPS`` (:func:`_check_groups`).
_KEY_BITS = 45
_KEY_BASE = np.int64(1) << _KEY_BITS
_MAX_GROUPS = 1 << 18

#: batched-kernel registry: sequential kernel fn -> batched implementation
#: with signature ``impl(n_warps, sector_bytes, *launch_args)`` returning
#: a :class:`BatchCounters`.
_BATCHED_IMPLS: dict[Callable, Callable] = {}

#: the per-warp counter fields, computed once (dataclasses.fields per
#: BatchCounters construction showed up in the dispatch profile).
_COUNTER_NAMES = tuple(
    f.name
    for f in fields(KernelCounters)
    if f.name not in ("labels", "n_warps_launched")
)

#: read-only ``np.arange`` cache for the per-op word/lane index vectors —
#: the hot ops rebuild identical aranges thousands of times per sweep.
_ARANGES: dict[int, np.ndarray] = {}

#: widest arange worth caching.  The hot requests are fixed widths (k, 32,
#: word counts); data-sized requests (a task's k-mer count, a launch's
#: warps) would add one entry per distinct size for the life of the process.
_ARANGE_CACHE_MAX = 4096


def cached_arange(n: int) -> np.ndarray:
    """``np.arange(n, dtype=int64)`` that callers must never mutate.

    Widths up to ``_ARANGE_CACHE_MAX`` are cached and **read-only**; a
    larger *n* gets a fresh array each call and is never retained, so the
    cache cannot grow with the data.
    """
    if n > _ARANGE_CACHE_MAX:
        return np.arange(n, dtype=np.int64)
    a = _ARANGES.get(n)
    if a is None:
        a = np.arange(n, dtype=np.int64)
        a.setflags(write=False)
        _ARANGES[n] = a
    return a


def register_batched(kernel_fn: Callable, impl: Callable) -> None:
    """Register *impl* as the batched execution of *kernel_fn*."""
    _BATCHED_IMPLS[kernel_fn] = impl


def batched_impl(kernel_fn: Callable) -> Callable | None:
    """The batched implementation of *kernel_fn*, or None if unregistered."""
    return _BATCHED_IMPLS.get(kernel_fn)


def _check_groups(n_groups: int) -> None:
    """``group * _KEY_BASE`` overflows int64 past ``_MAX_GROUPS`` groups."""
    if n_groups > _MAX_GROUPS:
        raise ValueError(f"{n_groups} groups in one composite-key sort; at most {_MAX_GROUPS}")


@lru_cache(maxsize=None)
def _word_sector_table(sector_bytes: int, nbytes: int, word_bytes: int):
    """Key-stream sectors an entry adds to its group's count, given the
    entry before it: a word's sectors are monotone in the start, so an
    entry adds, per word, its first sector unless the entry before touched
    that one, and its last where the word straddles into a sector that
    entry did not touch.  Returns the sector distance at which nothing is
    shared and the counts, flat over (sectors apart, previous start's
    offset in its sector, this start's); ``word_bytes <= sector_bytes``."""
    S = sector_bytes
    far = (S + nbytes - 2) // S + 1
    apart = np.arange(far + 1)[:, None, None]
    prev, cur = np.arange(S)[None, :, None], np.arange(S)[None, None, :]
    table = 0
    for w in range(0, nbytes, word_bytes):
        span = min(word_bytes, nbytes - w) - 1  # to the word's last byte
        pf, pl = (prev + w) // S, (prev + w + span) // S
        cf, cl = apart + (cur + w) // S, apart + (cur + w + span) // S
        table = table + ((cf != pf) & (cf != pl)) + ((cl != cf) & (cl != pf) & (cl != pl))
    return far, table.ravel()


def _sorted_run_count(keys: np.ndarray, n_groups: int) -> np.ndarray:
    """Distinct ``group * _KEY_BASE + value`` keys per group; sorts *keys*
    in place (sort + run-heads + bincount — cheaper than ``np.unique``)."""
    _check_groups(n_groups)
    keys.sort()
    return np.bincount(
        (keys[run_heads(keys)] // _KEY_BASE).astype(np.intp, copy=False),
        minlength=n_groups,
    ).astype(np.int64, copy=False)


def _per_group_unique(n_groups: int, groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Distinct *values* per group, vectorised over all groups at once.

    This is the batched form of the sequential path's per-warp
    ``len(set(...))`` sector dedup: one global sort over composite
    ``group * base + value`` keys replaces a Python set per warp.
    """
    if groups.size == 0:
        return np.zeros(n_groups, dtype=np.int64)
    return _sorted_run_count(groups.astype(np.int64) * _KEY_BASE + values, n_groups)


class BatchCounters:
    """Per-warp counter arrays — the SoA form of :class:`KernelCounters`.

    Every integer field of :class:`KernelCounters` becomes a ``(n_warps,)``
    int64 array; :meth:`finalize` collapses them to one launch-wide counter
    set plus the ``per_warp_inst`` list, both bit-identical to what the
    sequential interpreter would have produced warp by warp.
    """

    _names = _COUNTER_NAMES

    def __init__(self, n_warps: int) -> None:
        self.n_warps = int(n_warps)
        for name in self._names:
            setattr(self, name, np.zeros(self.n_warps, dtype=np.int64))
        #: the only label the kernels emit; zero totals are dropped at
        #: finalize, matching the sequential "create on first nonzero" rule.
        self.atomic_conflicts = np.zeros(self.n_warps, dtype=np.int64)

    def finalize(self) -> tuple[KernelCounters, list[int]]:
        return self.finalize_range(0, self.n_warps)

    def finalize_range(self, lo: int, hi: int) -> tuple[KernelCounters, list[int]]:
        """Collapse warps ``[lo, hi)`` to one counter set + per-warp list.

        Sound because every WarpBatch accounting formula is *row-local*:
        a warp's issue/transaction counts depend only on its own rows'
        data, so the counters of a fused multi-batch sweep split exactly
        into the per-batch counters the unfused launches would report.
        """
        counters = KernelCounters.from_per_warp(
            {name: getattr(self, name)[lo:hi] for name in self._names},
            labels={"atomic_conflicts": self.atomic_conflicts[lo:hi]},
        )
        per_warp = [int(v) for v in self.warp_inst[lo:hi]]
        return counters, per_warp


class WarpBatch:
    """Warp-axis accounting of :class:`~repro.gpusim.warp.Warp`.

    Each primitive acts on a *row set* (``rows``: global warp ids) instead
    of a single warp and accounts exactly what the sequential method
    would, row by row.  The derived kernels fold their own memory counts
    into :attr:`counters` with the sector helpers below; what is left as
    primitives is what they issue as-is:

    ===========================  =======================================
    sequential                    batched equivalent
    ===========================  =======================================
    ``int_op``                   ``int_op`` (per-row active-lane counts)
    ``shfl`` / ``sync``          ``shuffle_op`` / ``sync_op``
    ``global_store_span``        ``store_span`` (per-row start/length)
    ``single_lane(0)`` store     ``store_lane0``
    ===========================  =======================================

    No sanitizer is attached here: a sanitized launch runs on the
    interpreter (:class:`~repro.gpusim.kernel.GpuContext`).  The strict
    index checks stay, as on ``Warp``.
    """

    def __init__(self, counters: BatchCounters, sector_bytes: int = 32) -> None:
        self.counters = counters
        self.sector_bytes = int(sector_bytes)

    # -- strict validation (parity with Warp's always-on checks) -------------

    def _strict_check(self, darr: DeviceArray, idx_flat, op: str) -> None:
        if darr.freed:
            raise DeviceFreeError(
                f"{op} on freed device array at 0x{darr.base_addr:x}"
            )
        idx_flat = np.asarray(idx_flat)
        if idx_flat.size:
            lo, hi = int(idx_flat.min()), int(idx_flat.max())
            if lo < 0 or hi >= darr.data.size:
                raise IndexError(
                    f"{op} index {lo if lo < 0 else hi} out of bounds for "
                    f"device array of {darr.data.size} elements"
                )

    def _strict_span_check(self, darr: DeviceArray, start, length, op: str) -> None:
        if darr.freed:
            raise DeviceFreeError(
                f"{op} on freed device array at 0x{darr.base_addr:x}"
            )
        start = np.asarray(start, dtype=np.int64)
        length = np.asarray(length, dtype=np.int64)
        live = length > 0
        bad = live & ((start < 0) | (start + length > darr.data.size))
        if bad.any():
            j = int(np.argmax(bad))
            s0, l0 = int(np.broadcast_to(start, bad.shape)[j]), int(
                np.broadcast_to(length, bad.shape)[j]
            )
            raise IndexError(
                f"{op} span [{s0}, {s0 + l0}) out of bounds for device "
                f"array of {darr.data.size} elements"
            )

    # -- issue bookkeeping --------------------------------------------------

    def _bulk(self, rows, n_inst, active_slots) -> None:
        c = self.counters
        c.warp_inst[rows] += n_inst
        c.thread_inst[rows] += active_slots
        c.predicated_off[rows] += n_inst * WARP_SIZE - active_slots

    def _issue(self, rows, n, active) -> None:
        self._bulk(rows, n, n * active)

    # -- arithmetic / control ------------------------------------------------

    def int_op(self, n, rows, active) -> None:
        self._issue(rows, n, active)
        self.counters.int_inst[rows] += n

    def shuffle_op(self, rows, active) -> None:
        """One shfl/ballot/match_any per row (data handled by the caller)."""
        self._issue(rows, 1, active)
        self.counters.shuffle_inst[rows] += 1

    def sync_op(self, rows, active) -> None:
        self._issue(rows, 1, active)
        self.counters.sync_inst[rows] += 1

    # -- transaction helpers ---------------------------------------------------

    def _aligned(self, darr) -> bool:
        """True when no element of *darr* can straddle a sector boundary
        (aligned base, itemsize divides the sector size)."""
        return (
            darr.base_addr % self.sector_bytes == 0
            and self.sector_bytes % darr.itemsize == 0
        )

    def _element_transactions(self, darr, idx_flat, groups, n_groups) -> np.ndarray:
        """Per-group sector count for a set of element accesses (the
        batched :func:`~repro.gpusim.memory.count_sectors`)."""
        addrs = darr.base_addr + np.asarray(idx_flat, dtype=np.int64) * darr.itemsize
        first = addrs // self.sector_bytes
        if self._aligned(darr):
            return _per_group_unique(n_groups, groups, first)
        last = (addrs + darr.itemsize - 1) // self.sector_bytes
        return _per_group_unique(
            n_groups,
            np.concatenate([groups, groups]),
            np.concatenate([first, last]),
        )

    def _single_element_transactions(self, darr, idx):
        """Per-row sector count when each row accesses exactly one element
        (the dedup in :meth:`_element_transactions` is vacuous)."""
        if self._aligned(darr):
            return 1
        addrs = darr.base_addr + idx * darr.itemsize
        first = addrs // self.sector_bytes
        last = (addrs + darr.itemsize - 1) // self.sector_bytes
        return 1 + (first != last)

    def _sorted_transactions(self, darr, s_keys, n_groups, shift: int = 0) -> np.ndarray:
        """Per-group sector count from already sorted ``group * _KEY_BASE +
        (element_index << shift)`` keys (one-sort atomics; the low *shift*
        bits may carry flags)."""
        _check_groups(n_groups)
        if not self._aligned(darr):
            s_row = s_keys // _KEY_BASE
            idx = (s_keys - s_row * _KEY_BASE) >> shift
            return self._element_transactions(darr, idx, s_row, n_groups)
        # sectors split elements evenly: element keys scaled down, still sorted
        head = run_heads((s_keys >> shift) // (self.sector_bytes // darr.itemsize))
        return np.bincount(s_keys[head] >> _KEY_BITS, minlength=n_groups)

    def _span_sectors(self, darr, start, length) -> np.ndarray:
        first = darr.base_addr + np.asarray(start, dtype=np.int64) * darr.itemsize
        last = first + np.asarray(length, dtype=np.int64) * darr.itemsize - 1
        n = last // self.sector_bytes - first // self.sector_bytes + 1
        return np.where(np.asarray(length) > 0, n, 0)

    def _word_transactions(
        self, darr, starts, groups, n_groups: int, nbytes: int, word_bytes: int = 8
    ) -> np.ndarray:
        """Per-group sector count of key-stream gathers: entry *i* reads
        ``nbytes`` from byte offset ``starts[i]`` in ``word_bytes`` words
        on behalf of group ``groups[i]``.  Per word, a group's distinct
        {first, last} sectors are counted separately (no dedup across
        words) — the sequential per-column accounting.  The reference for
        :meth:`_sorted_word_transactions` (``tests/gpusim``)."""
        n_words = (nbytes + word_bytes - 1) // word_bytes
        addrs = darr.base_addr + starts
        gkeys = groups * _KEY_BASE
        trans = np.zeros(n_groups, dtype=np.int64)
        for w in range(n_words):
            lo = addrs + word_bytes * w
            first = lo // self.sector_bytes
            lo += min(word_bytes, nbytes - word_bytes * w) - 1
            lo //= self.sector_bytes  # last sector
            # only sector-straddling words contribute a distinct second key
            cross = lo != first
            first += gkeys
            trans += _sorted_run_count(
                np.concatenate([first, lo[cross] + gkeys[cross]]), n_groups
            )
        return trans

    def _sorted_word_transactions(
        self, darr, s_keys, n_groups: int, nbytes: int, word_bytes: int = 8
    ) -> np.ndarray:
        """:meth:`_word_transactions` from entries sorted by ``group *
        _KEY_BASE + start``, without a sort (:func:`_word_sector_table`)."""
        _check_groups(n_groups)
        S = self.sector_bytes
        far, table = _word_sector_table(S, nbytes, word_bytes)
        q, off = np.divmod(s_keys + darr.base_addr, S)  # groups stay far apart
        idx = np.minimum(np.diff(q, prepend=q[:1] - far), far) * S
        idx[1:] += off[:-1]
        idx *= S
        idx += off
        return np.bincount(
            s_keys >> _KEY_BITS, weights=table[idx], minlength=n_groups
        ).astype(np.int64)

    def _lane0_span_sectors(self, darr, starts, nbytes: int, word_bytes: int = 8) -> np.ndarray:
        """Sector count of each single-lane key-stream gather: every word's
        {first, last} sectors, summed over the span's words."""
        n_words = (nbytes + word_bytes - 1) // word_bytes
        addrs = darr.base_addr + np.asarray(starts, dtype=np.int64)
        w = cached_arange(n_words)
        word_addrs = addrs[:, None] + word_bytes * w[None, :]
        word_len = np.minimum(word_bytes, nbytes - word_bytes * w)
        first = word_addrs // self.sector_bytes
        last = (word_addrs + word_len[None, :] - 1) // self.sector_bytes
        return (1 + (first != last)).sum(axis=1)

    # -- stores ---------------------------------------------------------------------

    def store_span(self, darr: DeviceArray, start, length, value, rows) -> None:
        """Per-row coalesced memset of ``darr[start:start+length]``; a
        ``value`` of None counts its instructions and sectors only and
        leaves the host array untouched."""
        start = np.asarray(start, dtype=np.int64)
        length = np.asarray(length, dtype=np.int64)
        n_inst = np.where(length > 0, (length + WARP_SIZE - 1) // WARP_SIZE, 0)
        self._bulk(rows, n_inst, np.maximum(length, 0))
        self.counters.global_st_inst[rows] += n_inst
        self.counters.global_st_transactions[rows] += self._span_sectors(
            darr, start, length
        )
        self._strict_span_check(darr, start, length, "store_span")
        if value is None:
            return
        flat = darr.data.reshape(-1)
        for s, l in zip(start.tolist(), length.tolist()):
            if l > 0:
                flat[s : s + l] = value

    def store_lane0(self, darr: DeviceArray, idx, values, rows) -> None:
        """Single-lane store per row: one active lane, 31 predicated."""
        self._issue(rows, 1, 1)
        self.counters.global_st_inst[rows] += 1
        idx = np.asarray(idx, dtype=np.int64)
        self._strict_check(darr, idx, "store_lane0")
        darr.data.reshape(-1)[idx] = values
        self.counters.global_st_transactions[rows] += self._single_element_transactions(
            darr, idx
        )
