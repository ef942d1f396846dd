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
  array; each :class:`WarpBatch` primitive replicates the sequential
  accounting formulas exactly (issue slots, predication, per-access sector
  dedup), so the per-warp totals — and therefore the merged counters and
  ``per_warp_inst`` tuples — are bit-identical to sequential execution.
* **Data** is warp-disjoint.  The paper's kernels give every warp private
  hash-table / visited / sequence / output regions, so any interleaving of
  warps yields identical memory contents.  Lanes *within* a warp that hit
  the same address serialise in ascending lane order, exactly like
  :class:`~repro.gpusim.warp.Warp`'s atomics.  Kernels with cross-warp
  write overlap are not batchable.

Batched kernel implementations register themselves against the sequential
kernel function via :func:`register_batched`;
:meth:`repro.gpusim.kernel.GpuContext.launch` dispatches through
:func:`batched_impl` when the context runs with ``engine="batched"``.
"""

from __future__ import annotations

from dataclasses import fields
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
    "set_active_sanitizer",
    "cached_arange",
]

#: sanitizer picked up by WarpBatch instances created inside a batched
#: kernel implementation.  Batched impls construct their own WarpBatch, so
#: GpuContext.launch publishes the context's sanitizer here around the
#: call instead of threading it through every impl signature.
_ACTIVE_SANITIZER = None


def set_active_sanitizer(sanitizer) -> None:
    """Publish (or clear, with None) the sanitizer for new WarpBatches."""
    global _ACTIVE_SANITIZER
    _ACTIVE_SANITIZER = sanitizer

#: per-group composite sort keys: ``group * _KEY_BASE + sector``.  Sector
#: ids fit comfortably (16 GB of device space / 32-byte sectors < 2^30)
#: and group ids stay below 2^18 for any realistic launch.
_KEY_BASE = np.int64(1) << 45

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


def _sorted_run_count(keys: np.ndarray, n_groups: int) -> np.ndarray:
    """Distinct ``group * _KEY_BASE + value`` keys per group; sorts *keys*
    in place (sort + run-heads + bincount — cheaper than ``np.unique``)."""
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


def _run_lengths(run_starts: np.ndarray, total: int) -> np.ndarray:
    """Run lengths from run-start positions over *total* sorted elements."""
    counts = np.empty(run_starts.size, dtype=np.int64)
    counts[:-1] = run_starts[1:] - run_starts[:-1]
    counts[-1] = total - run_starts[-1]
    return counts


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
    """Warp-axis generalisation of :class:`~repro.gpusim.warp.Warp`.

    Each primitive acts on a *row set* (``rows``: global warp ids, always
    the first axis of the per-call operands) instead of a single warp, with
    ``(len(rows), 32)`` lane masks replacing the sequential active mask.
    Accounting mirrors ``Warp`` method for method:

    ===========================  =======================================
    sequential                    batched equivalent
    ===========================  =======================================
    ``int_op/fp_op/control_op``  same, with per-row active-lane counts
    ``global_load/store``        ``load_gather`` / ``store_scatter``
    ``global_*_span``            ``load_span`` / ``store_span`` (per-row
                                 start/length arrays)
    ``global_gather_span``       ``gather_span`` / ``gather_span_lane0``
    ``atomic_cas/add``           ``atomic_cas`` / ``atomic_add``
    ``single_lane(0)`` ops       ``*_lane0`` variants (walk mode)
    ===========================  =======================================
    """

    def __init__(
        self, counters: BatchCounters, sector_bytes: int = 32, sanitizer=None
    ) -> None:
        self.counters = counters
        self.sector_bytes = int(sector_bytes)
        #: explicit sanitizer, or whatever GpuContext.launch published
        self.sanitizer = sanitizer if sanitizer is not None else _ACTIVE_SANITIZER

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

    def fp_op(self, n, rows, active) -> None:
        self._issue(rows, n, active)
        self.counters.fp_inst[rows] += n

    def control_op(self, n, rows, active) -> None:
        self._issue(rows, n, active)
        self.counters.control_inst[rows] += n

    def shuffle_op(self, rows, active) -> None:
        """One shfl/ballot/match_any per row (data handled by the caller)."""
        self._issue(rows, 1, active)
        self.counters.shuffle_inst[rows] += 1

    def sync_op(self, rows, active) -> None:
        self._issue(rows, 1, active)
        self.counters.sync_inst[rows] += 1
        if self.sanitizer is not None:
            self.sanitizer.warp_sync_rows(rows)

    def local_store_op(self, n, rows, active) -> None:
        self._issue(rows, n, active)
        self.counters.local_st_inst[rows] += n
        self.counters.local_transactions[rows] += n * np.maximum(
            1, np.asarray(active) // 4
        )

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

    def _sorted_transactions(self, darr, s_keys, n_groups) -> np.ndarray:
        """Per-group sector count from already row-major-sorted
        ``group * _KEY_BASE + element_index`` keys (one-sort atomics)."""
        s_row = s_keys // _KEY_BASE
        s_ai = s_keys - s_row * _KEY_BASE
        addrs = darr.base_addr + s_ai * darr.itemsize
        first = addrs // self.sector_bytes
        if not self._aligned(darr):
            last = (addrs + darr.itemsize - 1) // self.sector_bytes
            return _per_group_unique(
                n_groups,
                np.concatenate([s_row, s_row]),
                np.concatenate([first, last]),
            )
        skeys = s_row * _KEY_BASE + first  # monotone in s_keys: still sorted
        head = np.empty(skeys.size, dtype=bool)
        head[0] = True
        np.not_equal(skeys[1:], skeys[:-1], out=head[1:])
        return np.bincount(
            s_row[head].astype(np.intp, copy=False), minlength=n_groups
        ).astype(np.int64, copy=False)

    def _span_sectors(self, darr, start, length) -> np.ndarray:
        first = darr.base_addr + np.asarray(start, dtype=np.int64) * darr.itemsize
        last = first + np.asarray(length, dtype=np.int64) * darr.itemsize - 1
        n = last // self.sector_bytes - first // self.sector_bytes + 1
        return np.where(np.asarray(length) > 0, n, 0)

    # -- span loads / stores (converged-warp cooperative pattern) ----------------

    def load_span(self, darr: DeviceArray, start, length, rows) -> None:
        """Account per-row coalesced span loads (data read by the caller)."""
        length = np.asarray(length, dtype=np.int64)
        n_inst = np.where(length > 0, (length + WARP_SIZE - 1) // WARP_SIZE, 0)
        self._bulk(rows, n_inst, np.maximum(length, 0))
        self.counters.global_ld_inst[rows] += n_inst
        s = self.sanitizer
        if s is None or not s.memcheck:
            self._strict_span_check(darr, start, length, "load_span")
        if s is not None:
            rows_arr = np.asarray(rows)
            start_b = np.broadcast_to(np.asarray(start, dtype=np.int64), rows_arr.shape)
            length_b = np.broadcast_to(length, rows_arr.shape)
            for i in range(rows_arr.size):
                s.span(
                    darr, start_b[i], length_b[i], rows_arr[i],
                    write=False, op="load_span",
                )
        self.counters.global_ld_transactions[rows] += self._span_sectors(
            darr, start, length
        )

    def store_span(self, darr: DeviceArray, start, length, value, rows) -> None:
        """Per-row coalesced memset of ``darr[start:start+length]``."""
        start = np.asarray(start, dtype=np.int64)
        length = np.asarray(length, dtype=np.int64)
        n_inst = np.where(length > 0, (length + WARP_SIZE - 1) // WARP_SIZE, 0)
        self._bulk(rows, n_inst, np.maximum(length, 0))
        self.counters.global_st_inst[rows] += n_inst
        self.counters.global_st_transactions[rows] += self._span_sectors(
            darr, start, length
        )
        san = self.sanitizer
        if san is None or not san.memcheck:
            self._strict_span_check(darr, start, length, "store_span")
        rows_arr = np.asarray(rows)
        flat = darr.data.reshape(-1)
        for i, (s, l) in enumerate(zip(start.tolist(), length.tolist())):
            if l <= 0:
                continue
            if san is not None and not san.span(
                darr, s, l, rows_arr[i], write=True, op="store_span"
            ):
                continue  # memcheck suppressed the faulting span
            flat[s : s + l] = value

    # -- lane-masked global memory ------------------------------------------------

    def load_gather(
        self,
        darr: DeviceArray,
        idx,
        mask,
        rows,
        active=None,
        fuse_int: int = 0,
        fuse_control: int = 0,
    ) -> np.ndarray:
        """``global_load`` across rows: gather under per-row lane masks.

        Masked-off lanes return 0 and generate no transactions.
        ``fuse_int`` / ``fuse_control`` fold that many surrounding integer /
        control instructions (same rows/active) into this op's issue — the
        counter sums are additive, so fusing is exactly the separate
        ``int_op``/``control_op`` calls plus the load.
        """
        act = mask.sum(axis=1) if active is None else active
        self._issue(rows, 1 + fuse_int + fuse_control, act)
        if fuse_int:
            self.counters.int_inst[rows] += fuse_int
        if fuse_control:
            self.counters.control_inst[rows] += fuse_control
        self.counters.global_ld_inst[rows] += 1
        flat = darr.data.reshape(-1)
        out = np.zeros(mask.shape, dtype=darr.data.dtype)
        rloc, cloc = np.nonzero(mask)
        ai = idx[mask]
        s = self.sanitizer
        if s is None or not s.memcheck:
            self._strict_check(darr, ai, "load_gather")
        if s is not None:
            keep = s.access(
                darr, ai, np.asarray(rows)[rloc], cloc,
                write=False, op="load_gather",
            )
            if keep is not None:
                rloc, cloc, ai = rloc[keep], cloc[keep], ai[keep]
        out[rloc, cloc] = flat[ai]
        self.counters.global_ld_transactions[rows] += self._element_transactions(
            darr, ai, rloc, len(rows)
        )
        return out

    def store_scatter(self, darr: DeviceArray, idx, values, mask, rows) -> None:
        """``global_store`` across rows (row-major = ascending lane order)."""
        self._issue(rows, 1, mask.sum(axis=1))
        self.counters.global_st_inst[rows] += 1
        flat = darr.data.reshape(-1)
        rloc, cloc = np.nonzero(mask)
        ai = idx[mask]
        vals = values[mask]
        s = self.sanitizer
        if s is None or not s.memcheck:
            self._strict_check(darr, ai, "store_scatter")
        if s is not None:
            keep = s.access(
                darr, ai, np.asarray(rows)[rloc], cloc,
                write=True, op="store_scatter",
            )
            if keep is not None:
                rloc, ai, vals = rloc[keep], ai[keep], vals[keep]
        flat[ai] = vals
        self.counters.global_st_transactions[rows] += self._element_transactions(
            darr, ai, rloc, len(rows)
        )

    def gather_span(
        self,
        darr: DeviceArray,
        starts,
        mask,
        nbytes: int,
        rows,
        word_bytes: int = 8,
        active=None,
        fuse_int: int = 0,
    ) -> None:
        """``global_gather_span`` across rows: per-lane key streams.

        *starts* are byte offsets, ``(len(rows), 32)``; per word the
        distinct {first, last} sectors of each row's active lanes are
        counted separately (no dedup across words), matching the
        sequential per-column accounting.  ``fuse_int`` as in
        :meth:`load_gather`.
        """
        nbytes = int(nbytes)
        if nbytes <= 0:
            return
        n_words = (nbytes + word_bytes - 1) // word_bytes
        act = mask.sum(axis=1) if active is None else active
        self._bulk(rows, n_words + fuse_int, (n_words + fuse_int) * act)
        if fuse_int:
            self.counters.int_inst[rows] += fuse_int
        self.counters.global_ld_inst[rows] += n_words
        rloc, cloc = np.nonzero(mask)
        if rloc.size == 0:
            return
        if self.sanitizer is not None:
            self.sanitizer.byte_gather(
                darr, starts[mask].astype(np.int64), nbytes,
                np.asarray(rows)[rloc], cloc, op="gather_span",
            )
        self.counters.global_ld_transactions[rows] += self._word_transactions(
            darr, starts[mask].astype(np.int64), rloc, len(rows), nbytes, word_bytes
        )

    def _word_transactions(
        self, darr, starts, groups, n_groups: int, nbytes: int, word_bytes: int = 8
    ) -> np.ndarray:
        """Per-group sector count of key-stream gathers: entry *i* reads
        ``nbytes`` from byte offset ``starts[i]`` in ``word_bytes`` words
        on behalf of group ``groups[i]``.  Per word, a group's distinct
        {first, last} sectors are counted separately (no dedup across
        words) — the sequential per-column accounting."""
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

    # -- single-lane (walk-mode) variants -----------------------------------------
    #
    # The mer-walk masks down to lane 0, so each row's operand is a scalar:
    # one active lane, 31 predicated slots per instruction.

    def load_lane0(self, darr: DeviceArray, idx, rows, fuse_int: int = 0) -> np.ndarray:
        self._issue(rows, 1 + fuse_int, 1)
        if fuse_int:
            self.counters.int_inst[rows] += fuse_int
        self.counters.global_ld_inst[rows] += 1
        idx = np.asarray(idx, dtype=np.int64)
        self.counters.global_ld_transactions[rows] += self._single_element_transactions(
            darr, idx
        )
        s = self.sanitizer
        if s is None or not s.memcheck:
            self._strict_check(darr, idx, "load_lane0")
        if s is not None:
            keep = s.access(
                darr, idx, np.asarray(rows), 0, write=False, op="load_lane0"
            )
            if keep is not None:
                out = np.zeros(idx.shape, dtype=darr.data.dtype)
                out[keep] = darr.data.reshape(-1)[idx[keep]]
                return out
        return darr.data.reshape(-1)[idx]

    def store_lane0(
        self, darr: DeviceArray, idx, values, rows, fuse_local_store: bool = False
    ) -> None:
        self._issue(rows, 2 if fuse_local_store else 1, 1)
        if fuse_local_store:  # the walk-string bookkeeping store, fused in
            self.counters.local_st_inst[rows] += 1
            self.counters.local_transactions[rows] += 1
        self.counters.global_st_inst[rows] += 1
        idx = np.asarray(idx, dtype=np.int64)
        s = self.sanitizer
        if s is None or not s.memcheck:
            self._strict_check(darr, idx, "store_lane0")
        keep = None
        if s is not None:
            keep = s.access(
                darr, idx, np.asarray(rows), 0, write=True, op="store_lane0"
            )
        if keep is not None:
            darr.data.reshape(-1)[idx[keep]] = (
                np.asarray(values)[keep] if np.ndim(values) else values
            )
        else:
            darr.data.reshape(-1)[idx] = values
        self.counters.global_st_transactions[rows] += self._single_element_transactions(
            darr, idx
        )

    def gather_span_lane0(
        self,
        darr: DeviceArray,
        starts,
        nbytes: int,
        rows,
        word_bytes: int = 8,
        fuse_int: int = 0,
    ) -> None:
        """Single-lane key-stream gather: one span per row, byte offsets."""
        nbytes = int(nbytes)
        if nbytes <= 0:
            return
        n_words = (nbytes + word_bytes - 1) // word_bytes
        self._bulk(rows, n_words + fuse_int, n_words + fuse_int)
        if fuse_int:
            self.counters.int_inst[rows] += fuse_int
        self.counters.global_ld_inst[rows] += n_words
        if self.sanitizer is not None:
            self.sanitizer.byte_gather(
                darr, np.asarray(starts, dtype=np.int64), nbytes,
                np.asarray(rows), 0, op="gather_span_lane0",
            )
        addrs = darr.base_addr + np.asarray(starts, dtype=np.int64)
        w = cached_arange(n_words)
        word_addrs = addrs[:, None] + word_bytes * w[None, :]
        word_len = np.minimum(word_bytes, nbytes - word_bytes * w)
        first = word_addrs // self.sector_bytes
        last = (word_addrs + word_len[None, :] - 1) // self.sector_bytes
        self.counters.global_ld_transactions[rows] += (
            1 + (first != last)
        ).sum(axis=1)

    def atomic_cas_lane0(self, darr: DeviceArray, idx, compare, value, rows) -> np.ndarray:
        """Single-lane CAS per row (rows own disjoint regions; no replays)."""
        self._issue(rows, 1, 1)
        self.counters.atomic_inst[rows] += 1
        idx = np.asarray(idx, dtype=np.int64)
        flat = darr.data.reshape(-1)
        s = self.sanitizer
        keep = None
        if s is None or not s.memcheck:
            self._strict_check(darr, idx, "atomic_cas_lane0")
        if s is not None:
            keep = s.access(
                darr, idx, np.asarray(rows), 0,
                write=True, atomic=True, op="atomic_cas_lane0",
            )
        if keep is not None:
            old = np.zeros(idx.shape, dtype=darr.data.dtype)
            ik = idx[keep]
            cur = flat[ik].copy()
            old[keep] = cur
            hit = cur == compare
            flat[ik[hit]] = (
                np.asarray(value)[keep][hit] if np.ndim(value) else value
            )
        else:
            old = flat[idx].copy()
            hit = old == compare
            flat[idx[hit]] = np.asarray(value)[hit] if np.ndim(value) else value
        self.counters.atomic_transactions[rows] += self._single_element_transactions(
            darr, idx
        )
        return old

    # -- lane-masked atomics ---------------------------------------------------------

    def _sanitize_rmw(self, darr: DeviceArray, idx, mask, rows, op: str):
        """Sanitizer hook for a masked atomic RMW: strict-check, record,
        and return *mask* with memcheck-faulting lanes cleared."""
        s = self.sanitizer
        if s is None or not s.memcheck:
            self._strict_check(darr, idx[mask], op)
        if s is None:
            return mask
        rloc, cloc = np.nonzero(mask)
        if rloc.size == 0:
            return mask
        keep = s.access(
            darr, idx[mask], np.asarray(rows)[rloc], cloc,
            write=True, atomic=True, op=op,
        )
        if keep is None or keep.all():
            return mask
        mask = mask.copy()
        mask[rloc[~keep], cloc[~keep]] = False
        return mask

    def atomic_cas(
        self,
        darr: DeviceArray,
        idx,
        compare,
        value,
        mask,
        rows,
        active=None,
        fuse_shfl_sync: bool = False,
    ) -> np.ndarray:
        """``atomicCAS`` across rows, ascending-lane serialisation per warp.

        Returns the old value per lane (0 for masked-off lanes).  Rows own
        disjoint address regions, so duplicate addresses only occur within
        a row — the same thread-collision case the sequential interpreter
        resolves with a per-group serial chain.  ``fuse_shfl_sync`` folds
        the surrounding match_any shuffle + barrier (same rows/active)
        into this op's issue.
        """
        act = mask.sum(axis=1) if active is None else active
        self._issue(rows, 3 if fuse_shfl_sync else 1, act)
        self.counters.atomic_inst[rows] += 1
        if fuse_shfl_sync:
            self.counters.shuffle_inst[rows] += 1
            self.counters.sync_inst[rows] += 1
        flat = darr.data.reshape(-1)
        narrowed = self._sanitize_rmw(darr, idx, mask, rows, "atomic_cas")
        if narrowed is not mask:
            mask = narrowed
            act = mask.sum(axis=1)  # memcheck suppressed faulting lanes
        rloc, _ = np.nonzero(mask)  # row-major: ascending lane within a row
        ai = idx[mask].astype(np.int64)
        av = value[mask]
        old_flat = np.zeros(ai.size, dtype=darr.data.dtype)
        if ai.size:
            # One row-major sort serves both the duplicate grouping (rows
            # own disjoint regions, so per-(row, address) == per-address)
            # and the per-row sector dedup below.
            keys = rloc * _KEY_BASE + ai
            order = np.argsort(keys, kind="stable")
            s_keys = keys[order]
            head = np.empty(s_keys.size, dtype=bool)
            head[0] = True
            np.not_equal(s_keys[1:], s_keys[:-1], out=head[1:])
            run_starts = np.nonzero(head)[0]
            counts = _run_lengths(run_starts, s_keys.size)
            dup = np.empty(ai.size, dtype=bool)
            dup[order] = np.repeat(counts > 1, counts)
            solo = ~dup
            if solo.any():
                cur = flat[ai[solo]]
                old_flat[solo] = cur
                hit = cur == compare
                flat[ai[solo][hit]] = av[solo][hit]
            for pos in np.nonzero(dup)[0]:  # contended: serial chain, lane order
                cur = flat[ai[pos]]
                old_flat[pos] = cur
                if cur == compare:
                    flat[ai[pos]] = av[pos]
            # Address conflicts replay the atomic on hardware: active - unique,
            # attributed to each unique address's owning row.  The stable sort
            # makes order[run_starts] the first flat occurrence per address.
            n_unique = np.bincount(rloc[order[run_starts]], minlength=len(rows))
            self.counters.atomic_conflicts[rows] += act - n_unique
            self.counters.atomic_transactions[rows] += self._sorted_transactions(
                darr, s_keys, len(rows)
            )
        if fuse_shfl_sync and self.sanitizer is not None:
            self.sanitizer.warp_sync_rows(rows)
        out = np.zeros(mask.shape, dtype=darr.data.dtype)
        out[mask] = old_flat
        return out

    def atomic_add(self, darr: DeviceArray, idx, value, mask, rows) -> None:
        """Integer ``atomicAdd`` across rows (old values are not needed by
        the extension kernels, so none are materialised)."""
        self._issue(rows, 1, mask.sum(axis=1))
        self.counters.atomic_inst[rows] += 1
        flat = darr.data.reshape(-1)
        mask = self._sanitize_rmw(darr, idx, mask, rows, "atomic_add")
        rloc, _ = np.nonzero(mask)
        ai = idx[mask]
        if np.ndim(value) == 0 and ai.size:
            # np.add.at has heavy dispatch overhead; collapse duplicate
            # addresses with one row-major sort (rows own disjoint regions)
            # that also feeds the sector dedup.
            keys = rloc * _KEY_BASE + ai.astype(np.int64)
            keys.sort()
            head = np.empty(keys.size, dtype=bool)
            head[0] = True
            np.not_equal(keys[1:], keys[:-1], out=head[1:])
            run_starts = np.nonzero(head)[0]
            counts = _run_lengths(run_starts, keys.size)
            hk = keys[run_starts]
            u = hk - (hk // _KEY_BASE) * _KEY_BASE
            flat[u] = flat[u] + (counts * value).astype(flat.dtype)
            self.counters.atomic_transactions[rows] += self._sorted_transactions(
                darr, keys, len(rows)
            )
        else:
            np.add.at(flat, ai, value)
            self.counters.atomic_transactions[rows] += self._element_transactions(
                darr, ai, rloc, len(rows)
            )
