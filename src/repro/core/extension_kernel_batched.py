"""Batched SoA execution of the v2 extension kernel.

The sequential kernel (:mod:`repro.core.extension_kernel`) is a per-warp
program: ``clear → build → walk`` under the k-shift machine, one task at a
time.  This module re-expresses it as a *per-step fleet operation*: all
warps of a launch advance through the same step in lockstep, with
``(n_warps, 32)`` SoA state and per-warp predication masks instead of
Python control flow — the execution shape the paper's GPU actually uses
(§3.3–3.4: thousands of concurrent warp-local table builds and walks).

Round structure.  Each warp's k-shift state evolves independently (the
machine moves monotonically through mer sizes), so every round groups the
live warps by their *current* k; within a k-group all window/hash/probe
arrays are uniform width and every kernel step vectorises across the
group:

* **clear** — per-row span memsets of the hash-table + visited regions;
* **build** — each warp's insert stream is decomposed into 32-lane chunk
  steps (the Fig 7 layout); step *s* of every warp runs as one operation:
  window-span loads, row murmur hashes, then the ``atomicCAS`` +
  ``match_any`` insert choreography with ``(rows, 32)`` pending masks
  advancing the linear probe;
* **walk** — single-lane per warp; each walk step (visited-table probe,
  main-table lookup, fork/dead-end classification, base append) applies
  to all still-walking rows at once.

Bit-identity with the sequential interpreter holds because counters are
additive per warp (each :class:`~repro.gpusim.batched.WarpBatch` primitive
reproduces the per-warp accounting exactly) and all device regions are
warp-disjoint, so results do not depend on warp interleaving — the same
argument that makes the process-pool engine exact, checked end to end by
``tests/core/test_batched_engine.py`` and the scaling benchmark.

The v1 kernel is not batched: its per-*lane* tasking already amortises
interpretation over 32 tasks per warp, and it exists as the §4.2 baseline;
``engine="batched"`` contexts fall back to sequential interpretation
for it.
"""

from __future__ import annotations

import numpy as np

from repro.core.extension import (
    KShiftState,
    WalkStatus,
    classify_extensions,
    kshift_next,
)
from repro.core.extension_kernel import _hash_cost_ops, extension_task_kernel_v2
from repro.core.gpu_batch import EMPTY_PTR, DeviceBatch
from repro.gpusim.batched import (
    BatchCounters,
    WarpBatch,
    cached_arange,
    register_batched,
)
from repro.hashing.murmur import murmurhash2_rows

__all__ = ["run_extension_v2_batched"]

_LANES = 32


def _warp_build_stream(batch: DeviceBatch, t: int, k: int):
    """One warp's build work as step-major arrays.

    Flattens the task's per-read k-mer chunk sequence into
    ``(n_steps, 32)`` hash/ext/hi/valid arrays plus per-step load starts
    and active-lane counts — the SoA decomposition of the sequential
    per-read, per-chunk loop, computed with one window gather and one
    murmur pass over the whole task instead of per-read Python work.
    Returns None when the task has no k-mers.  Values match
    :func:`~repro.core.extension_kernel.read_window_plan` row for row.
    """
    cfg = batch.config
    rng = batch.task_reads(t)
    if len(rng) == 0:
        return None
    ro = batch.read_offsets
    rb_all = ro[rng.start : rng.stop]
    nk_all = (ro[rng.start + 1 : rng.stop + 1] - rb_all) - k
    keep = nk_all > 0
    if not keep.any():
        return None
    rb = rb_all[keep]
    nk = nk_all[keep]
    m = int(nk.sum())
    cum = np.cumsum(nk) - nk
    local = cached_arange(m) - np.repeat(cum, nk)
    starts = np.repeat(rb, nk) + local  # flat k-mer start pointers
    rdata = batch.reads_buf.data
    win = rdata[starts[:, None] + cached_arange(k)]
    ext = rdata[starts + k].astype(np.int64)
    hi = batch.quals_buf.data[starts + k] >= cfg.hi_q_thresh
    valid = (ext < 4) & ~(win >= 4).any(axis=1)
    hashes = np.zeros(m, dtype=np.int64)
    if valid.any():
        hashes[valid] = murmurhash2_rows(
            np.ascontiguousarray(win[valid])
        ).astype(np.int64)
    # pad each read's k-mer run out to whole 32-lane steps
    n_steps = (nk + _LANES - 1) // _LANES
    tot_steps = int(n_steps.sum())
    step_off = np.cumsum(n_steps) - n_steps
    pos = local + _LANES * np.repeat(step_off, nk)

    def scatter(a, dtype):
        out = np.zeros(tot_steps * _LANES, dtype=dtype)
        out[pos] = a
        return out.reshape(tot_steps, _LANES)

    step_idx = cached_arange(tot_steps) - np.repeat(step_off, n_steps)
    load_start = np.repeat(rb, n_steps) + _LANES * step_idx
    acts = np.full(tot_steps, _LANES, dtype=np.int64)
    last = step_off + n_steps - 1
    acts[last] = nk - _LANES * (n_steps - 1)
    return (
        scatter(hashes, np.int64),
        scatter(ext, np.int64),
        scatter(hi, bool),
        scatter(valid, bool),
        load_start,
        acts,
    )


def _clear_group(wb: WarpBatch, batch: DeviceBatch, rows, ht_start, slots, vis_start) -> None:
    """Re-initialise every row's table + visited regions (coalesced)."""
    wb.store_span(batch.ht_ptr, ht_start, slots, EMPTY_PTR, rows)
    wb.store_span(batch.ht_hi, ht_start * 4, slots * 4, 0, rows)
    wb.store_span(batch.ht_total, ht_start * 4, slots * 4, 0, rows)
    wb.store_span(
        batch.vis_ptr,
        vis_start,
        np.full(rows.size, batch.vis_slots, dtype=np.int64),
        EMPTY_PTR,
        rows,
    )


def _probe_insert_group(
    wb: WarpBatch,
    batch: DeviceBatch,
    rows,
    ht_start,
    slots,
    valid,
    hashes,
    my_ptr,
    ext,
    hi,
    k: int,
) -> None:
    """The §3.3 insert choreography across all rows of a build step.

    ``(len(rows), 32)`` pending masks advance the linear probe; rows drop
    out of an iteration's sub-operations (CAS, key compare, tally) exactly
    when the sequential per-warp code would skip them.
    """
    key_words = (k + 7) // 8
    pending = valid.copy()
    off = np.zeros(pending.shape, dtype=np.int64)
    rbuf = batch.reads_buf.data
    ar_k = cached_arange(k)
    while True:
        pcnt_all = pending.sum(axis=1)
        a = np.nonzero(pcnt_all)[0]
        if a.size == 0:
            break
        r = rows[a]
        P = pending[a]
        pcnt = pcnt_all[a]
        gidx = ht_start[a, None] + (hashes[a] + off[a]) % slots[a, None]
        # fuse_int=2: slot = (hash + off) % slots address math;
        # fuse_control=1: the loop-back branch, issued under the entry mask
        ptrs = wb.load_gather(
            batch.ht_ptr, gidx, P, r, active=pcnt, fuse_int=2, fuse_control=1
        )
        empty = P & (ptrs == EMPTY_PTR)
        ecnt_all = empty.sum(axis=1)
        e = np.nonzero(ecnt_all)[0]
        won = np.zeros_like(P)
        old = np.zeros_like(ptrs)
        myp = my_ptr[a]
        if e.size:
            # Thread-collision mask + CAS claim + sync (paper §3.3),
            # issued as one fused op.
            old_e = wb.atomic_cas(
                batch.ht_ptr, gidx[e], EMPTY_PTR, myp[e], empty[e], r[e],
                active=ecnt_all[e], fuse_shfl_sync=True,
            )
            old[e] = old_e
            won[e] = empty[e] & (old_e == EMPTY_PTR)
        occupant = np.where(won, myp, np.where(empty, old, ptrs))
        contender = P & ~won
        ccnt_all = contender.sum(axis=1)
        c = np.nonzero(ccnt_all)[0]
        key_eq = np.zeros_like(P)
        if c.size:
            # fuse_int: the per-word key compare
            wb.gather_span(
                batch.reads_buf, occupant[c], contender[c], k, r[c],
                active=ccnt_all[c], fuse_int=key_words,
            )
            occ_p = occupant[contender]
            mine_p = myp[contender]
            key_eq[contender] = (
                rbuf[occ_p[:, None] + ar_k] == rbuf[mine_p[:, None] + ar_k]
            ).all(axis=1)
        resolved = won | (contender & key_eq)
        u = np.nonzero(resolved.any(axis=1))[0]
        if u.size:
            cidx = gidx * 4 + ext[a]
            _ = wb.atomic_add(batch.ht_total, cidx[u], 1, resolved[u], r[u])
            hq = resolved & hi[a]
            v = np.nonzero(hq.any(axis=1))[0]
            if v.size:
                _ = wb.atomic_add(batch.ht_hi, cidx[v], 1, hq[v], r[v])
        new_pending = P & ~resolved
        pending[a] = new_pending
        off[a] += new_pending


def _build_group(wb: WarpBatch, batch: DeviceBatch, rows, tasks_g, k: int, ht_start, slots) -> None:
    """Lockstep warp-cooperative table build for one k-group."""
    streams = [_warp_build_stream(batch, int(t), k) for t in tasks_g]
    n_steps = np.array(
        [0 if s is None else s[0].shape[0] for s in streams], dtype=np.int64
    )
    max_steps = int(n_steps.max()) if n_steps.size else 0
    if max_steps == 0:
        return
    # Stack every task's stream into step-padded group arrays once, so each
    # step is a pure slice instead of a per-row copy loop.
    G = len(streams)
    H_all = np.zeros((G, max_steps, _LANES), dtype=np.int64)
    E_all = np.zeros((G, max_steps, _LANES), dtype=np.int64)
    Q_all = np.zeros((G, max_steps, _LANES), dtype=bool)
    V_all = np.zeros((G, max_steps, _LANES), dtype=bool)
    start_all = np.zeros((G, max_steps), dtype=np.int64)
    act_all = np.zeros((G, max_steps), dtype=np.int64)
    for i, s in enumerate(streams):
        if s is None:
            continue
        ns = s[0].shape[0]
        H_all[i, :ns], E_all[i, :ns], Q_all[i, :ns], V_all[i, :ns] = s[:4]
        start_all[i, :ns] = s[4]
        act_all[i, :ns] = s[5]
    lanes = cached_arange(_LANES)
    hops = _hash_cost_ops(k)
    for step in range(max_steps):
        sel = np.nonzero(n_steps > step)[0]
        r = rows[sel]
        H = H_all[sel, step]
        E = E_all[sel, step]
        Q = Q_all[sel, step]
        V = V_all[sel, step]
        load_start = start_all[sel, step]
        n_act = act_all[sel, step]
        # Coalesced window + ext-base + quality loads (Fig 7).
        wb.load_span(batch.reads_buf, load_start, n_act + k, r)
        wb.load_span(batch.quals_buf, load_start + k, n_act, r)
        wb.int_op(hops, r, n_act)  # row murmur hashes
        my_ptr = load_start[:, None] + lanes[None, :]
        E[~V] = 0
        _probe_insert_group(
            wb, batch, r, ht_start[sel], slots[sel], V, H, my_ptr, E, Q, k
        )


def _walk_group(
    wb: WarpBatch,
    batch: DeviceBatch,
    rows,
    k: int,
    seq_off,
    slen,
    ht_start,
    slots,
    vis_start,
):
    """Lockstep single-lane mer-walks for one k-group.

    Returns ``(appended, status, slen)`` per row.  Every still-walking row
    advances through the same walk step at once; rows leave the lockstep
    (loop/runout/fork/accept) exactly where the sequential walk breaks.
    """
    cfg = batch.config
    R = rows.size
    vis_slots = batch.vis_slots
    sdata = batch.seq_buf.data
    rdata = batch.reads_buf.data
    status = np.full(R, int(WalkStatus.MAX_LEN), dtype=np.int64)
    appended = np.zeros(R, dtype=np.int64)
    slen = slen.copy()
    walking = np.ones(R, dtype=bool)
    short = slen < k
    if short.any():
        wb.control_op(1, rows[short], 1)
        status[short] = int(WalkStatus.RUNOUT)
        walking[short] = False
    hops = _hash_cost_ops(k)
    key_words = (k + 7) // 8
    ar_k = cached_arange(k)
    ar_4 = cached_arange(4)
    for _ in range(cfg.max_walk_len):
        wloc = np.nonzero(walking)[0]
        if wloc.size == 0:
            break
        if wloc.size == R:  # common case: every row still walking
            kpos = seq_off + slen - k
            kmers = sdata[kpos[:, None] + ar_k]
            h = murmurhash2_rows(kmers).astype(np.int64)
        else:
            kpos = np.zeros(R, dtype=np.int64)
            kpos[wloc] = seq_off[wloc] + slen[wloc] - k
            kmers = np.zeros((R, k), dtype=np.uint8)
            kmers[wloc] = sdata[kpos[wloc, None] + ar_k]
            h = np.zeros(R, dtype=np.int64)
            h[wloc] = murmurhash2_rows(
                np.ascontiguousarray(kmers[wloc])
            ).astype(np.int64)
        wb.int_op(hops, rows[wloc], 1)

        # -- visited-table probe (loop detection + insert) -----------------
        pend = walking.copy()
        seen = np.zeros(R, dtype=bool)
        voff = np.zeros(R, dtype=np.int64)
        while True:
            pl = np.nonzero(pend)[0]
            if pl.size == 0:
                break
            vidx = vis_start[pl] + (h[pl] + voff[pl]) % vis_slots
            cur = wb.load_lane0(batch.vis_ptr, vidx, rows[pl], fuse_int=2)
            isempty = cur == EMPTY_PTR
            if isempty.any():
                e = pl[isempty]
                _ = wb.atomic_cas_lane0(
                    batch.vis_ptr, vidx[isempty], EMPTY_PTR, kpos[e], rows[e]
                )
                pend[e] = False  # inserted: first sighting
            occ = pl[~isempty]
            if occ.size:
                curo = cur[~isempty].astype(np.int64)
                wb.gather_span_lane0(
                    batch.seq_buf, curo, k, rows[occ], fuse_int=key_words
                )
                eq = (sdata[curo[:, None] + ar_k] == kmers[occ]).all(axis=1)
                seen[occ[eq]] = True
                pend[occ[eq]] = False
                cont = occ[~eq]
                if cont.size:
                    voff[cont] += 1
                    wb.control_op(1, rows[cont], 1)
                    # exhausted tables treat the k-mer as unseen (2x sizing
                    # makes this unreachable in practice)
                    pend[cont[voff[cont] >= vis_slots]] = False
        status[seen] = int(WalkStatus.LOOP)
        walking &= ~seen

        # -- main-table lookup by content -----------------------------------
        pend = walking.copy()
        found = np.full(R, -1, dtype=np.int64)
        moff = np.zeros(R, dtype=np.int64)
        while True:
            pl = np.nonzero(pend)[0]
            if pl.size == 0:
                break
            gidx = ht_start[pl] + (h[pl] + moff[pl]) % slots[pl]
            cur = wb.load_lane0(batch.ht_ptr, gidx, rows[pl], fuse_int=2)
            isempty = cur == EMPTY_PTR
            pend[pl[isempty]] = False  # absent: walk ran out
            occ = pl[~isempty]
            if occ.size:
                curo = cur[~isempty].astype(np.int64)
                gocc = gidx[~isempty]
                wb.gather_span_lane0(
                    batch.reads_buf, curo, k, rows[occ], fuse_int=key_words
                )
                eq = (rdata[curo[:, None] + ar_k] == kmers[occ]).all(axis=1)
                found[occ[eq]] = gocc[eq]
                pend[occ[eq]] = False
                cont = occ[~eq]
                if cont.size:
                    moff[cont] += 1
                    wb.control_op(1, rows[cont], 1)
                    pend[cont[moff[cont] >= slots[cont]]] = False
        absent = walking & (found < 0)
        status[absent] = int(WalkStatus.RUNOUT)
        walking &= ~absent

        # -- classify + append ------------------------------------------------
        cl = np.nonzero(walking)[0]
        if cl.size == 0:
            break
        wb.gather_span_lane0(batch.ht_hi, found[cl] * 16, 16, rows[cl])
        # fuse_int=8: the tally-compare arithmetic of classify_extension
        wb.gather_span_lane0(batch.ht_total, found[cl] * 16, 16, rows[cl], fuse_int=8)
        verdict, top_b = classify_extensions(
            batch.ht_hi.data[found[cl, None] * 4 + ar_4],
            batch.ht_total.data[found[cl, None] * 4 + ar_4],
            cfg.min_viable,
            cfg.dominance_ratio,
        )
        stopped = verdict >= 0  # RUNOUT or FORK
        status[cl[stopped]] = verdict[stopped]
        walking[cl[stopped]] = False
        st = cl[~stopped]
        if st.size:
            wb.store_lane0(
                batch.seq_buf, seq_off[st] + slen[st],
                top_b[~stopped], rows[st],
                fuse_local_store=True,  # walk string bookkeeping
            )
            slen[st] += 1
            appended[st] += 1
    return appended, status, slen


def run_extension_v2_batched(
    n_warps: int, sector_bytes: int, batch: DeviceBatch, task_ids
) -> BatchCounters:
    """Run a whole v2 extension launch as one batched SoA computation.

    The batched counterpart of driving
    :func:`~repro.core.extension_kernel.extension_task_kernel_v2` once per
    warp; returns the per-warp :class:`BatchCounters`, which finalize to
    counters bit-identical to the sequential launch loop (and split
    exactly at any warp boundary — the fused-dispatch contract).
    """
    cfg = batch.config
    counters = BatchCounters(n_warps)
    wb = WarpBatch(counters, sector_bytes)
    t_arr = np.asarray(task_ids, dtype=np.int64)[:n_warps]
    rows_all = cached_arange(n_warps)

    wb.int_op(3, rows_all, _LANES)  # task metadata loads / setup
    n_reads = np.fromiter(
        (batch.tasks[int(t)].n_reads for t in t_arr), np.int64, count=n_warps
    )
    ht_start = batch.layout.offsets[t_arr]
    slots = batch.layout.sizes[t_arr]
    vis_start = t_arr * batch.vis_slots
    seq_off = np.asarray(batch.seq_offsets, dtype=np.int64)[t_arr]
    slen = np.asarray(batch.seq_len, dtype=np.int64)[t_arr].copy()

    empty = n_reads == 0
    if empty.any():  # bin-1 rows: store a zero extension and stop
        wb.store_lane0(
            batch.out_ext_len,
            t_arr[empty],
            np.zeros(int(empty.sum()), dtype=np.int64),
            rows_all[empty],
        )
    states: list[KShiftState | None] = [
        None if empty[w] else KShiftState(k=cfg.k_init) for w in range(n_warps)
    ]
    totals = np.zeros(n_warps, dtype=np.int64)

    while True:
        live = np.array(
            [w for w, s in enumerate(states) if s is not None and not s.done],
            dtype=np.int64,
        )
        if live.size == 0:
            break
        k_live = np.array([states[w].k for w in live], dtype=np.int64)
        status = np.zeros(n_warps, dtype=np.int64)
        # Warps shift k independently; each round runs one lockstep
        # clear/build/walk per distinct live mer size.
        for kv in np.unique(k_live):
            g = live[k_live == kv]
            kv = int(kv)
            _clear_group(wb, batch, g, ht_start[g], slots[g], vis_start[g])
            _build_group(wb, batch, g, t_arr[g], kv, ht_start[g], slots[g])
            # Build-to-walk barrier, matching the sequential kernel's
            # warp.sync() between build_fn and mer_walk_gpu.
            wb.sync_op(g, _LANES)
            app, st, new_slen = _walk_group(
                wb, batch, g, kv, seq_off[g], slen[g], ht_start[g], slots[g],
                vis_start[g],
            )
            totals[g] += app
            status[g] = st
            slen[g] = new_slen
        # Broadcast walk state to each warp (§3.4 shuffle) + k-shift.
        wb.shuffle_op(live, _LANES)
        wb.int_op(4, live, _LANES)
        for w in live.tolist():
            states[w] = kshift_next(
                states[w], WalkStatus(int(status[w])),
                cfg.k_min, cfg.k_max, cfg.k_step,
            )

    batch.seq_len[t_arr] = slen
    done = rows_all[~empty]
    if done.size:
        wb.store_lane0(batch.out_ext_len, t_arr[done], totals[done], done)
    return counters


register_batched(extension_task_kernel_v2, run_extension_v2_batched)
