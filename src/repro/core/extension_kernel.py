"""The GPU extension kernels (simulated CUDA, §3.3-3.4 of the paper).

One warp processes one extension task (Fig 5).  Each k-shift round the warp

1. re-initialises its hash-table region (the "GPU Initialize" box, Fig 4),
2. builds the k-mer table from the task's candidate reads —

   * **v2** (the paper's contribution): all 32 lanes cooperate; lanes map
     to *contiguous* k-mer start positions of a read so the window loads
     coalesce (Fig 7); thread collisions (two lanes inserting the same
     k-mer) are resolved with ``atomicCAS`` + ``match_any_sync`` +
     ``syncwarp``; hash collisions by linear probing;
   * **v1** (the development-cycle baseline of §4.2, Fig 8's "per thread
     version"): one task *per lane*, 32 private tables per warp — the
     direct CPU port; every access is an uncoalesced gather and the warp
     issues at its slowest lane's pace (load-imbalance predication);

3. runs the mer-walk with a single lane (walks are inherently sequential,
   §3.4), looking k-mers up by content through stored *pointers* into the
   packed reads buffer (Fig 6) and detecting cycles with a second
   (visited) table;
4. broadcasts the walk status to the warp with a shuffle so all lanes
   agree on whether to rebuild with a shifted k.

All decisions reuse the pure logic of :mod:`repro.core.extension`, so a
task's extension is bit-identical to the CPU reference — the differential
tests enforce this.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.extension import (
    KShiftState,
    WalkStatus,
    classify_extension,
    kshift_next,
)
from repro.core.gpu_batch import EMPTY_PTR, DeviceBatch
from repro.hashing.murmur import murmurhash2_32, murmurhash2_rows

if TYPE_CHECKING:  # an unsanitized batched launch never loads the interpreter
    from repro.gpusim.warp import Warp

__all__ = [
    "extension_task_kernel_v1",
    "extension_task_kernel_v2",
    "build_table_v2",
    "mer_walk_gpu",
    "read_window_plan",
]

_LANES = 32


def read_window_plan(
    batch: DeviceBatch, ri: int, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Packed k-mer windows + row hashes for read *ri* at mer size *k*.

    Returns ``(win, hashes, ext, hi, valid)``, one row/entry per k-mer
    start position that has a following extension base: the ``(n, k)``
    window view into the packed reads buffer, murmur row hashes (0 where
    invalid), the extension base codes, the hi-quality flags and the
    validity mask (no ambiguous base in window or extension).

    The result is cached on ``batch.win_cache`` keyed by ``(ri, k)`` — the
    reads buffer is immutable for a batch's lifetime, so the v1/v2 build
    paths, the batched engine and k-shift retry rounds that revisit a mer
    size all share one ``sliding_window_view`` + hash computation.
    """
    key = (ri, k)
    cached = batch.win_cache.get(key)
    if cached is not None:
        return cached
    cfg = batch.config
    rb = int(batch.read_offsets[ri])
    re_ = int(batch.read_offsets[ri + 1])
    n_kmers = (re_ - rb) - k
    if n_kmers <= 0:
        z = np.zeros(0, dtype=np.int64)
        plan = (
            np.zeros((0, k), dtype=np.uint8), z, z.copy(),
            np.zeros(0, dtype=bool), np.zeros(0, dtype=bool),
        )
        batch.win_cache[key] = plan
        return plan
    data = batch.reads_buf.data[rb:re_]
    win = sliding_window_view(data, k)[:n_kmers]
    ext = data[k:].astype(np.int64)
    hi = batch.quals_buf.data[rb + k : re_] >= cfg.hi_q_thresh
    valid = (ext < 4) & ~(win >= 4).any(axis=1)
    hashes = np.zeros(n_kmers, dtype=np.int64)
    if valid.any():
        hashes[valid] = murmurhash2_rows(np.ascontiguousarray(win[valid])).astype(
            np.int64
        )
    plan = (win, hashes, ext, hi, valid)
    batch.win_cache[key] = plan
    return plan


def _hash_cost_ops(k: int) -> int:
    """Integer-op cost of one murmurhash2 over k bytes (~5 ops / 4 bytes)."""
    return 5 * ((k + 3) // 4)


def _clear_tables(warp: Warp, batch: DeviceBatch, t: int) -> None:
    """Re-initialise the task's hash-table + visited regions (coalesced)."""
    start, end = batch.ht_region(t)
    slots = end - start
    warp.global_store_span(batch.ht_ptr, start, slots, EMPTY_PTR)
    warp.global_store_span(batch.ht_hi, start * 4, slots * 4, 0)
    warp.global_store_span(batch.ht_total, start * 4, slots * 4, 0)
    vs, ve = batch.vis_region(t)
    warp.global_store_span(batch.vis_ptr, vs, ve - vs, EMPTY_PTR)


def _update_counts(warp: Warp, batch: DeviceBatch, gidx: np.ndarray, ext: np.ndarray, hi: np.ndarray) -> None:
    """Atomically add this occurrence to the entry's extension tallies."""
    cidx = gidx * 4 + ext
    _ = warp.atomic_add(batch.ht_total, cidx, 1)
    with warp.where(hi):
        if warp.any_active:
            _ = warp.atomic_add(batch.ht_hi, cidx, 1)


def _probe_insert_v2(
    warp: Warp,
    batch: DeviceBatch,
    ht_start: int,
    slots: int,
    valid: np.ndarray,
    hashes: np.ndarray,
    my_ptr: np.ndarray,
    windows: np.ndarray,
    ext: np.ndarray,
    hi: np.ndarray,
    k: int,
) -> None:
    """Warp-cooperative insert of up to 32 k-mers (the §3.3 choreography)."""
    pending = valid.copy()
    off = np.zeros(_LANES, dtype=np.int64)
    reads = batch.reads_buf
    key_words = (k + 7) // 8
    while pending.any():
        with warp.where(pending):
            warp.int_op(2)  # slot = (hash + off) % slots; address math
            slot = (hashes + off) % slots
            gidx = ht_start + slot
            ptrs = warp.global_load(batch.ht_ptr, gidx)
            empty = pending & (ptrs == EMPTY_PTR)
            won = np.zeros(_LANES, dtype=bool)
            old = np.full(_LANES, EMPTY_PTR, dtype=np.int64)
            if empty.any():
                with warp.where(empty):
                    # Thread-collision mask + CAS claim + sync (paper §3.3).
                    warp.match_any(gidx)
                    old = warp.atomic_cas(batch.ht_ptr, gidx, EMPTY_PTR, my_ptr)
                    warp.sync()
                won = empty & (old == EMPTY_PTR)
            # The pointer each non-winning lane must compare against: the
            # prior occupant, or the lane that just won the CAS race.
            occupant = np.where(won, my_ptr, np.where(empty, old, ptrs))
            contender = pending & ~won
            key_eq = np.zeros(_LANES, dtype=bool)
            if contender.any():
                with warp.where(contender):
                    warp.global_gather_span(reads, occupant, k)
                    warp.int_op(key_words)  # word-wise comparison
                c = np.nonzero(contender)[0]
                # clip: a corrupt pointer (a defect a sanitized run is
                # reporting) compares instead of aborting the run
                keys = reads.data.take(occupant[c, None] + np.arange(k), mode="clip")
                key_eq[c] = (keys == windows[c]).all(axis=1)
            resolved = won | (contender & key_eq)
            if resolved.any():
                with warp.where(resolved):
                    _update_counts(warp, batch, gidx, ext, hi)
            pending &= ~resolved
            off[pending] += 1
            warp.control_op(1)


def build_table_v2(warp: Warp, batch: DeviceBatch, t: int, k: int) -> None:
    """Warp-cooperative table construction (one warp, all 32 lanes)."""
    ht_start, ht_end = batch.ht_region(t)
    slots = ht_end - ht_start
    lanes = np.arange(_LANES)
    for ri in batch.task_reads(t):
        win_r, hash_r, ext_r, hi_r, valid_r = read_window_plan(batch, ri, k)
        n_kmers = hash_r.size
        if n_kmers <= 0:
            continue
        rb = int(batch.read_offsets[ri])
        for chunk in range(0, n_kmers, _LANES):
            n_act = min(_LANES, n_kmers - chunk)
            sl = slice(chunk, chunk + n_act)
            # Coalesced window + ext-base load (Fig 7 left-to-right lanes),
            # plus the ext-base qualities.
            warp.global_load_span(batch.reads_buf, rb + chunk, n_act + k)
            warp.global_load_span(batch.quals_buf, rb + chunk + k, n_act)
            windows = np.zeros((_LANES, k), dtype=np.uint8)
            windows[:n_act] = win_r[sl]
            ext = np.zeros(_LANES, dtype=np.int64)
            ext[:n_act] = ext_r[sl]
            hi = np.zeros(_LANES, dtype=bool)
            hi[:n_act] = hi_r[sl]
            valid = np.zeros(_LANES, dtype=bool)
            valid[:n_act] = valid_r[sl]
            hashes = np.zeros(_LANES, dtype=np.int64)
            hashes[:n_act] = hash_r[sl]
            with warp.where(lanes < n_act):
                warp.int_op(_hash_cost_ops(k))
            my_ptr = (rb + chunk + lanes).astype(np.int64)
            ext[~valid] = 0
            _probe_insert_v2(
                warp, batch, ht_start, slots, valid, hashes, my_ptr, windows, ext, hi, k
            )


# ---------------------------------------------------------------------------
# v1: the thread-per-table baseline (§4.2, Fig 8 "per thread version").
#
# One warp carries up to 32 *different* extension tasks, one per lane — the
# direct port of the CPU code.  All lanes execute in lockstep over their own
# k-mer streams, so every memory instruction gathers from 32 unrelated
# addresses (uncoalesced) and the warp issues as many iterations as its
# *slowest* lane needs: the per-warp instruction count is inflated by load
# imbalance, which is exactly the pathology §3.1's binning and §3.3's
# warp-per-table design remove.
# ---------------------------------------------------------------------------


def _lane_insert_jobs(batch: DeviceBatch, t: int, k: int):
    """Vectorised insert-job stream for one lane's task at mer size k.

    Returns ``(ptrs, hashes, ext, hi, valid)`` flat arrays — one entry per
    k-mer occurrence across the task's reads.  Shares the cached per-read
    :func:`read_window_plan` with the v2 and batched build paths (a k-mer
    with an ambiguous window *or* extension base is invalid either way:
    the v1 ``(k+1)``-window test factors into the plan's window + ext
    tests).
    """
    ptrs_list, h_list, e_list, q_list, v_list = [], [], [], [], []
    for ri in batch.task_reads(t):
        _, hashes, ext, hi, valid = read_window_plan(batch, ri, k)
        if hashes.size == 0:
            continue
        rb = int(batch.read_offsets[ri])
        ptrs_list.append(rb + np.arange(hashes.size, dtype=np.int64))
        h_list.append(hashes)
        e_list.append(ext)
        q_list.append(hi)
        v_list.append(valid)
    if not ptrs_list:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z, np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
    return (
        np.concatenate(ptrs_list),
        np.concatenate(h_list),
        np.concatenate(e_list),
        np.concatenate(q_list),
        np.concatenate(v_list),
    )


def _probe_insert_multi(
    warp: Warp,
    batch: DeviceBatch,
    pending0: np.ndarray,
    ht_start: np.ndarray,
    slots: np.ndarray,
    hashes: np.ndarray,
    my_ptr: np.ndarray,
    ext: np.ndarray,
    hi: np.ndarray,
    lane_k: np.ndarray,
) -> None:
    """Lockstep linear-probe insert where each lane owns a *private* table.

    Unlike the v2 path there are no thread collisions (tables are
    disjoint), so no ``match_any``/``syncwarp`` choreography — CAS alone
    suffices and always succeeds on an empty slot.  Lanes may be at
    different mer sizes (independent k-shift), hence the per-lane k.
    """
    reads = batch.reads_buf
    pending = pending0.copy()
    off = np.zeros(_LANES, dtype=np.int64)
    safe_slots = np.maximum(slots, 1)
    while pending.any():
        with warp.where(pending):
            warp.int_op(2)
            slot = (hashes + off) % safe_slots
            gidx = ht_start + slot
            ptrs = warp.global_load(batch.ht_ptr, gidx)
            empty = pending & (ptrs == EMPTY_PTR)
            won = np.zeros(_LANES, dtype=bool)
            old = np.full(_LANES, EMPTY_PTR, dtype=np.int64)
            if empty.any():
                with warp.where(empty):
                    old = warp.atomic_cas(batch.ht_ptr, gidx, EMPTY_PTR, my_ptr)
                won = empty & (old == EMPTY_PTR)
            occupant = np.where(won, my_ptr, np.where(empty, old, ptrs))
            contender = pending & ~won
            key_eq = np.zeros(_LANES, dtype=bool)
            if contender.any():
                kmax = int(lane_k[contender].max())
                with warp.where(contender):
                    warp.global_gather_span(reads, occupant, kmax, word_bytes=1)
                    warp.int_op(kmax)  # char-wise comparison
                rbuf = reads.data
                for lane in np.nonzero(contender)[0]:
                    kl = int(lane_k[lane])
                    p, q = int(occupant[lane]), int(my_ptr[lane])
                    key_eq[lane] = np.array_equal(rbuf[p : p + kl], rbuf[q : q + kl])
            resolved = won | (contender & key_eq)
            if resolved.any():
                with warp.where(resolved):
                    _update_counts(warp, batch, gidx, ext, hi)
            pending &= ~resolved
            off[pending] += 1
            warp.control_op(1)


def _clear_tables_v1(warp: Warp, batch: DeviceBatch, lane_tasks: np.ndarray, mask: np.ndarray) -> None:
    """Lockstep per-lane memset of the masked lanes' table regions.

    Each lane clears one of its own slots per issue, so the warp needs
    ``max(region sizes)`` iterations and the stores never coalesce across
    lanes (~1 sector per 4 consecutive int64 slots per lane).
    """
    sizes = []
    regions = []
    for lane in np.nonzero(mask)[0]:
        t = int(lane_tasks[lane])
        s, e = batch.ht_region(t)
        batch.ht_ptr.data[s:e] = EMPTY_PTR
        batch.ht_hi.data[4 * s : 4 * e] = 0
        batch.ht_total.data[4 * s : 4 * e] = 0
        vs, ve = batch.vis_region(t)
        batch.vis_ptr.data[vs:ve] = EMPTY_PTR
        sizes.append((e - s) + 8 * (e - s) // 2 + (ve - vs))
        regions.extend(
            [
                (batch.ht_ptr, s, e - s),
                (batch.ht_hi, 4 * s, 4 * (e - s)),
                (batch.ht_total, 4 * s, 4 * (e - s)),
                (batch.vis_ptr, vs, ve - vs),
            ]
        )
    if not sizes:
        return
    arr = np.asarray(sizes, dtype=np.int64)
    n_inst = int(arr.max())
    warp.account_bulk_store(
        n_inst=n_inst,
        active_slots=int(arr.sum()),
        transactions=int(arr.sum()) // 4 + len(sizes),
        regions=regions,
    )


def _mer_walks_v1(
    warp: Warp,
    batch: DeviceBatch,
    lane_tasks: np.ndarray,
    lane_k: np.ndarray,
    active: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep multi-lane DNA walks: each lane walks its own extension.

    Functionally identical to the per-task CPU walk; the warp iterates
    until its slowest lane stops (divergence across lanes shows up as
    predication, not extra time).
    """
    cfg = batch.config
    seq = batch.seq_buf
    reads = batch.reads_buf
    status = np.full(_LANES, int(WalkStatus.MAX_LEN), dtype=np.int64)
    appended = np.zeros(_LANES, dtype=np.int64)
    slen = np.zeros(_LANES, dtype=np.int64)
    seq_off = np.zeros(_LANES, dtype=np.int64)
    ht_start = np.zeros(_LANES, dtype=np.int64)
    slots = np.ones(_LANES, dtype=np.int64)
    vis_start = np.zeros(_LANES, dtype=np.int64)
    vis_slots = np.full(_LANES, batch.vis_slots, dtype=np.int64)

    walking = active.copy()
    for lane in np.nonzero(active)[0]:
        t = int(lane_tasks[lane])
        seq_off[lane] = batch.seq_offsets[t]
        slen[lane] = batch.seq_len[t]
        s, e = batch.ht_region(t)
        ht_start[lane], slots[lane] = s, e - s
        vs, _ = batch.vis_region(t)
        vis_start[lane] = vs
        if slen[lane] < lane_k[lane]:
            status[lane] = int(WalkStatus.RUNOUT)
            walking[lane] = False
    if walking.any():
        with warp.where(active):
            warp.control_op(1)

    for _ in range(cfg.max_walk_len):
        if not walking.any():
            break
        kpos = seq_off + slen - lane_k
        hashes = np.zeros(_LANES, dtype=np.int64)
        for lane in np.nonzero(walking)[0]:
            km = seq.data[kpos[lane] : kpos[lane] + lane_k[lane]]
            hashes[lane] = murmurhash2_32(km)
        with warp.where(walking):
            warp.int_op(_hash_cost_ops(int(lane_k[walking].max())))

        # -- visited-table probe (loop detection + insert) -----------------
        pending = walking.copy()
        looped = np.zeros(_LANES, dtype=bool)
        voff = np.zeros(_LANES, dtype=np.int64)
        while pending.any():
            with warp.where(pending):
                warp.int_op(2)
                vidx = vis_start + (hashes + voff) % vis_slots
                vptrs = warp.global_load(batch.vis_ptr, vidx)
                empty = pending & (vptrs == EMPTY_PTR)
                if empty.any():
                    with warp.where(empty):
                        _ = warp.atomic_cas(batch.vis_ptr, vidx, EMPTY_PTR, kpos)
                occupied = pending & ~empty
                eq = np.zeros(_LANES, dtype=bool)
                if occupied.any():
                    with warp.where(occupied):
                        kmx = int(lane_k[occupied].max())
                        warp.global_gather_span(seq, vptrs, kmx, word_bytes=1)
                        warp.int_op(kmx)
                    for lane in np.nonzero(occupied)[0]:
                        kl = int(lane_k[lane])
                        p = int(vptrs[lane])
                        eq[lane] = np.array_equal(
                            seq.data[p : p + kl],
                            seq.data[kpos[lane] : kpos[lane] + kl],
                        )
                looped |= occupied & eq
                pending &= ~(empty | (occupied & eq))
                voff[pending] += 1
                warp.control_op(1)
        status[looped] = int(WalkStatus.LOOP)
        walking &= ~looped

        # -- main-table lookup by content -----------------------------------
        pending = walking.copy()
        found = np.full(_LANES, -1, dtype=np.int64)
        absent = np.zeros(_LANES, dtype=bool)
        moff = np.zeros(_LANES, dtype=np.int64)
        while pending.any():
            with warp.where(pending):
                warp.int_op(2)
                gidx = ht_start + (hashes + moff) % np.maximum(slots, 1)
                ptrs = warp.global_load(batch.ht_ptr, gidx)
                empty = pending & (ptrs == EMPTY_PTR)
                absent |= empty
                pending &= ~empty
                occupied = pending.copy()
                eq = np.zeros(_LANES, dtype=bool)
                if occupied.any():
                    with warp.where(occupied):
                        kmx = int(lane_k[occupied].max())
                        warp.global_gather_span(reads, ptrs, kmx, word_bytes=1)
                        warp.int_op(kmx)
                    for lane in np.nonzero(occupied)[0]:
                        kl = int(lane_k[lane])
                        p = int(ptrs[lane])
                        eq[lane] = np.array_equal(
                            reads.data[p : p + kl],
                            seq.data[kpos[lane] : kpos[lane] + kl],
                        )
                newly = occupied & eq
                found[newly] = gidx[newly]
                pending &= ~newly
                moff[pending] += 1
                warp.control_op(1)
        status[absent] = int(WalkStatus.RUNOUT)
        walking &= ~absent

        # -- classify + append ------------------------------------------------
        if not walking.any():
            break
        with warp.where(walking):
            warp.global_gather_span(batch.ht_hi, found * 16, 16)
            warp.global_gather_span(batch.ht_total, found * 16, 16)
            warp.int_op(8)
        append_base = np.full(_LANES, -1, dtype=np.int64)
        for lane in np.nonzero(walking)[0]:
            g = int(found[lane])
            hi = batch.ht_hi.data[g * 4 : g * 4 + 4].tolist()
            tot = batch.ht_total.data[g * 4 : g * 4 + 4].tolist()
            verdict, base = classify_extension(
                hi, tot, cfg.min_viable, cfg.dominance_ratio
            )
            if verdict is not None:
                status[lane] = int(verdict)
                walking[lane] = False
            else:
                append_base[lane] = base
        if walking.any():
            with warp.where(walking):
                warp.global_store(seq, seq_off + slen, np.maximum(append_base, 0))
                warp.local_store(1)
            slen[walking] += 1
            appended[walking] += 1

    for lane in np.nonzero(active)[0]:
        batch.seq_len[int(lane_tasks[lane])] = slen[lane]
    return appended, status


def extension_task_kernel_v1(warp: Warp, warp_id: int, batch: DeviceBatch, task_ids) -> None:
    """The v1 baseline kernel: one extension task *per lane* (32 per warp).

    Every lane runs the full build+walk+k-shift loop on its private hash
    table; lanes proceed in lockstep, so the warp's issue count follows
    its slowest lane and every memory access is a scattered gather.
    """
    cfg = batch.config
    lane_tasks = np.full(_LANES, -1, dtype=np.int64)
    for lane in range(_LANES):
        idx = warp_id * _LANES + lane
        if idx < len(task_ids):
            lane_tasks[lane] = int(task_ids[idx])
    have_task = lane_tasks >= 0
    with warp.where(have_task):
        warp.int_op(3)  # task metadata loads / setup

    states: list[KShiftState | None] = [None] * _LANES
    totals = np.zeros(_LANES, dtype=np.int64)
    for lane in np.nonzero(have_task)[0]:
        t = int(lane_tasks[lane])
        if batch.tasks[t].n_reads == 0:
            states[lane] = None  # bin-1 lane: nothing to do
        else:
            states[lane] = KShiftState(k=cfg.k_init)

    def live_mask() -> np.ndarray:
        return np.array(
            [s is not None and not s.done for s in states], dtype=bool
        )

    while live_mask().any():
        mask = live_mask()
        lane_k = np.array(
            [s.k if (s is not None and not s.done) else cfg.k_init for s in states],
            dtype=np.int64,
        )
        _clear_tables_v1(warp, batch, lane_tasks, mask)

        # -- lockstep build over per-lane insert-job streams -----------------
        jobs = {}
        max_jobs = 0
        for lane in np.nonzero(mask)[0]:
            j = _lane_insert_jobs(batch, int(lane_tasks[lane]), int(lane_k[lane]))
            jobs[lane] = j
            max_jobs = max(max_jobs, j[0].size)
        ht_start = np.zeros(_LANES, dtype=np.int64)
        slots = np.ones(_LANES, dtype=np.int64)
        for lane in np.nonzero(mask)[0]:
            s, e = batch.ht_region(int(lane_tasks[lane]))
            ht_start[lane], slots[lane] = s, e - s
        for step in range(max_jobs):
            step_mask = mask.copy()
            ptrs = np.zeros(_LANES, dtype=np.int64)
            hashes = np.zeros(_LANES, dtype=np.int64)
            ext = np.zeros(_LANES, dtype=np.int64)
            hi = np.zeros(_LANES, dtype=bool)
            valid = np.zeros(_LANES, dtype=bool)
            for lane in np.nonzero(mask)[0]:
                jp, jh, je, jq, jv = jobs[lane]
                if step < jp.size:
                    ptrs[lane] = jp[step]
                    hashes[lane] = jh[step]
                    ext[lane] = je[step]
                    hi[lane] = jq[step]
                    valid[lane] = jv[step]
                else:
                    step_mask[lane] = False
            if not step_mask.any():
                break
            kmax = int(lane_k[step_mask].max())
            with warp.where(step_mask):
                # per-lane uncoalesced window + quality reads, char-by-char
                # (the naive CPU-port access pattern v2's Fig 7 layout fixes)
                warp.global_gather_span(batch.reads_buf, ptrs, kmax + 1, word_bytes=1)
                warp.global_gather_span(batch.quals_buf, ptrs + lane_k, 1)
                warp.int_op(_hash_cost_ops(kmax))
            _probe_insert_multi(
                warp, batch, step_mask & valid, ht_start, slots, hashes,
                ptrs, ext, hi, lane_k,
            )

        # -- lockstep walks + per-lane k-shift --------------------------------
        appended, status = _mer_walks_v1(warp, batch, lane_tasks, lane_k, mask)
        totals[mask] += appended[mask]
        with warp.where(mask):
            warp.shfl(0, 0)  # walk-state exchange analogue
            warp.int_op(4)
        for lane in np.nonzero(mask)[0]:
            states[lane] = kshift_next(
                states[lane], WalkStatus(int(status[lane])),
                cfg.k_min, cfg.k_max, cfg.k_step,
            )

    with warp.where(have_task):
        if warp.any_active:
            warp.global_store(batch.out_ext_len, np.maximum(lane_tasks, 0), totals)


def _visited_check_insert(
    warp: Warp, batch: DeviceBatch, t: int, h: int, kmer: np.ndarray, my_ptr: int, k: int
) -> bool:
    """Probe the visited table; returns True when *kmer* was seen before.

    Inserts the k-mer (as a pointer into seq_buf) when new.
    """
    vs, ve = batch.vis_region(t)
    vslots = ve - vs
    seq = batch.seq_buf
    off = 0
    while off < vslots:
        vidx = vs + (h + off) % vslots
        warp.int_op(2)
        cur = int(warp.global_load(batch.vis_ptr, vidx)[0])
        if cur == EMPTY_PTR:
            _ = warp.atomic_cas(batch.vis_ptr, vidx, EMPTY_PTR, my_ptr)
            return False
        warp.global_gather_span(seq, np.full(_LANES, cur, dtype=np.int64), k)
        warp.int_op((k + 7) // 8)
        if np.array_equal(seq.data[cur : cur + k], kmer):
            return True
        off += 1
        warp.control_op(1)
    return False  # table exhausted — cannot happen with 2x sizing


def mer_walk_gpu(warp: Warp, batch: DeviceBatch, t: int, k: int) -> tuple[int, WalkStatus]:
    """Single-lane DNA walk (Algorithm 2 / §3.4) for task *t* at mer size *k*.

    Returns (bases appended, stopping status).  The caller holds the warp;
    this function masks down to lane 0, as the hardware kernel does.
    """
    cfg = batch.config
    seq_off = int(batch.seq_offsets[t])
    slen = int(batch.seq_len[t])
    ht_start, ht_end = batch.ht_region(t)
    slots = ht_end - ht_start
    reads = batch.reads_buf
    seq = batch.seq_buf
    appended = 0
    status = WalkStatus.MAX_LEN
    with warp.single_lane(0):
        if slen < k:
            warp.control_op(1)
            return 0, WalkStatus.RUNOUT
        for _ in range(cfg.max_walk_len):
            kpos = seq_off + slen - k
            kmer = seq.data[kpos : kpos + k]
            h = murmurhash2_32(kmer)
            warp.int_op(_hash_cost_ops(k))
            if _visited_check_insert(warp, batch, t, h, kmer, kpos, k):
                status = WalkStatus.LOOP
                break
            # main-table lookup by content
            off = 0
            found = -1
            while off < slots:
                gidx = ht_start + (h + off) % slots
                warp.int_op(2)
                cur = int(warp.global_load(batch.ht_ptr, gidx)[0])
                if cur == EMPTY_PTR:
                    break
                warp.global_gather_span(reads, np.full(_LANES, cur, dtype=np.int64), k)
                warp.int_op((k + 7) // 8)
                if np.array_equal(reads.data[cur : cur + k], kmer):
                    found = gidx
                    break
                off += 1
                warp.control_op(1)
            if found < 0:
                status = WalkStatus.RUNOUT
                break
            warp.global_gather_span(
                batch.ht_hi, np.full(_LANES, found * 16, dtype=np.int64), 16
            )
            warp.global_gather_span(
                batch.ht_total, np.full(_LANES, found * 16, dtype=np.int64), 16
            )
            hi = batch.ht_hi.data[found * 4 : found * 4 + 4].tolist()
            tot = batch.ht_total.data[found * 4 : found * 4 + 4].tolist()
            verdict, base = classify_extension(
                hi, tot, cfg.min_viable, cfg.dominance_ratio
            )
            warp.int_op(8)
            if verdict is not None:
                status = verdict
                break
            warp.global_store(seq, seq_off + slen, base)
            warp.local_store(1)  # walk string bookkeeping in local memory
            slen += 1
            appended += 1
        else:
            status = WalkStatus.MAX_LEN
    batch.seq_len[t] = slen
    return appended, status


def _extension_task_kernel(warp: Warp, warp_id: int, batch: DeviceBatch, task_ids, build_fn) -> None:
    """Per-warp task loop: (clear, build, walk) under the k-shift machine."""
    t = int(task_ids[warp_id])
    task = batch.tasks[t]
    cfg = batch.config
    warp.int_op(3)  # task metadata loads / setup
    if task.n_reads == 0:
        with warp.single_lane(0):
            warp.global_store(batch.out_ext_len, t, 0)
        return
    state = KShiftState(k=cfg.k_init)
    total_appended = 0
    while not state.done:
        _clear_tables(warp, batch, t)
        build_fn(warp, batch, t, state.k)
        # Build-to-walk barrier: the walk's lane-0 reads must observe the
        # whole warp's table writes (§3.3 hand-off; racecheck-visible).
        warp.sync()
        n_app, status = mer_walk_gpu(warp, batch, t, state.k)
        total_appended += n_app
        # Broadcast walk state to the whole warp (§3.4 shuffle).
        warp.shfl(int(status), 0)
        warp.int_op(4)  # k-shift transition
        state = kshift_next(state, status, cfg.k_min, cfg.k_max, cfg.k_step)
    with warp.single_lane(0):
        warp.global_store(batch.out_ext_len, t, total_appended)


def extension_task_kernel_v2(warp: Warp, warp_id: int, batch: DeviceBatch, task_ids) -> None:
    """The paper's kernel: warp-cooperative build + single-lane walk."""
    _extension_task_kernel(warp, warp_id, batch, task_ids, build_table_v2)
