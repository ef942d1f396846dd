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
  steps (the Fig 7 layout).  §3.2–3.3 make insertion deterministic
  (exactly-sized warp-private tables, murmur + linear probing, lowest
  lane wins a CAS), so the table and every counter are *derived* rather
  than stepped — resolve, place, account:

  1. *resolve* (pass 1) flattens the valid lanes, accounts each step's
     window-span loads and row hashes in bulk, packs the block's reads
     once and names every warp's distinct k-mers by content with one
     :class:`~repro.sequence.kmer.SortedKmers` sort, giving one *agent*
     per distinct k-mer at its first occurrence — the only window whose
     murmur is computed.  The agents form the group's *agent table*
     (:class:`_Agents`), its one index: build and walk both chase it;
  2. *place* (phase A) runs the step/round lockstep over agents only —
     probe ``home + j``, lowest lane claims each empty slot — recording
     every k-mer's slot and the (step, round) it was claimed in;
  3. *account* (pass 2) expands each lane into the ``d + 1`` slots from
     its home to its k-mer's and classifies every visit, from which issue
     counts are per-(step, round) reductions, sector counts one composite
     sort per access kind, and both tally tables one ``bincount``.

  Four facts about the choreography carry this, each pinned by
  ``tests/core/test_batched_engine.py``: **(a)** lanes of one step holding
  the same k-mer share hash and probe offset, so they move together;
  **(b)** a claimed slot never changes occupant; **(c)** two agents reach
  the same empty slot in the same round only if they share a home slot,
  and the lowest lane wins; **(d)** a lane whose k-mer an earlier step
  placed never meets an empty slot — it walks occupied slots from home to
  its k-mer's and tallies there.  Hence a visit issues a CAS iff its slot
  was claimed in the visit's own (step, round), wins iff it is also its
  k-mer's first lane, compares keys otherwise, and resolves at distance
  ``d``.  Passes 1 and 2 run in blocks of whole warps of about
  ``_BLOCK_LANES`` lanes: their per-lane temporaries would otherwise all
  be live at once and set the process's peak RSS; results do not depend
  on the cap.

  A *sanitized* launch keeps the lockstep build
  (:func:`_build_group_lockstep`: step *s* of every warp as one
  operation, ``(rows, 32)`` pending masks advancing the probe), because
  the order of individual accesses is what a sanitizer consumes.  The
  choice is made by ``wb.sanitizer`` alone — there is no option — and the
  lockstep build doubles as a second oracle for the derivation beside the
  sequential interpreter, which stays the reference;
* **walk** — single-lane per warp, and derived too.  Every k-mer a walk
  looks up is an agent (found at its slot, ``dist + 1`` probes from home)
  or absent (the walk ends after probing the occupied run from its home),
  so each agent's verdict, base and successor agent are computed once
  (:func:`_agent_moves`) and a walk is a chain through the table: its
  start k-mer is resolved once per round, each step is
  ``cur = succ[cur]`` over integer arrays, and a revisited agent is a
  LOOP.  The visited table is replayed insert by insert — its probe
  lengths depend on the order — and every walk counter comes from the
  logged steps in one pass per access kind.  Sanitized launches keep the
  lockstep walk (:func:`_walk_group_lockstep`: each walk step — visited
  probe, main-table lookup, classification, append — applied to all
  still-walking rows at once), chosen by ``wb.sanitizer`` exactly as for
  the build.

Bit-identity with the sequential interpreter holds because counters are
additive per warp (each :class:`~repro.gpusim.batched.WarpBatch` primitive
reproduces the per-warp accounting exactly) and all device regions are
warp-disjoint, so results do not depend on warp interleaving — checked
end to end by ``tests/core/test_batched_engine.py`` and the scaling
benchmark.

The v1 kernel is not batched: its per-*lane* tasking already amortises
interpretation over 32 tasks per warp, and it exists as the §4.2 baseline;
``engine="batched"`` contexts fall back to sequential interpretation
for it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
from repro.sequence.kmer import SortedKmers, pack_kmers, successor_kmers

__all__ = ["run_extension_v2_batched"]

_LANES = 32

#: Lanes per resolve/account block of the derived build (a warp with more
#: is a block of its own).  Bounds the per-lane temporaries alive at once
#: (peak RSS); counters and tables are independent of it.
_BLOCK_LANES = 1 << 15

#: the counters a table build moves (``predicated_off`` follows from the
#: first two)
_BUILD_COUNTERS = (
    "warp_inst", "thread_inst", "int_inst", "control_inst",
    "global_ld_inst", "global_ld_transactions", "atomic_inst",
    "atomic_transactions", "shuffle_inst", "sync_inst", "atomic_conflicts",
)


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


def _build_group(wb: WarpBatch, batch: DeviceBatch, rows, tasks_g, k: int, ht_start, slots):
    """Warp-cooperative table build for one k-group: derived in closed
    form, or in lockstep when a sanitizer needs per-access order.
    Returns the derived build's agent table (None from the lockstep)."""
    if wb.sanitizer is not None:
        return _build_group_lockstep(wb, batch, rows, tasks_g, k, ht_start, slots)
    return _build_group_derived(wb, batch, rows, tasks_g, k, ht_start, slots)


def _build_group_lockstep(wb: WarpBatch, batch: DeviceBatch, rows, tasks_g, k: int, ht_start, slots) -> None:
    """Lockstep table build: every access of every probe round is issued
    through ``wb``, in program order — what a sanitizer consumes."""
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


def _fold(index, values, n: int) -> np.ndarray:
    """Per-bin integer sums of *values* (``bincount`` accumulates in
    float64, which is exact for totals this far below 2**53)."""
    return np.bincount(index, weights=values, minlength=n).astype(np.int64)


def _within(counts) -> np.ndarray:
    """``0 … c - 1`` for every count *c*, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


class _Agents(NamedTuple):
    """A k-group's agent table: one row per distinct (warp, k-mer),
    numbered block by block, each acting at its k-mer's first occurrence.
    The build fills it and the derived walk chases it."""

    first: np.ndarray  #: valid-lane index of the first occurrence
    warp: np.ndarray  #: its warp's row in the group
    base: np.ndarray  #: its warp's table start in ``ht_ptr``
    slots: np.ndarray  #: its warp's table size
    hash: np.ndarray  #: murmur of the k-mer
    home: np.ndarray  #: ``hash % slots``
    ptr: np.ndarray  #: read pointer of the first lane (the table key)
    step: np.ndarray  #: build step of the first occurrence
    lanes: np.ndarray  #: its number of valid lanes (its tallies' total)
    words: np.ndarray  #: the packed k-mer, ``(n, words_per_kmer(k))``
    # filled by phase A
    dist: np.ndarray  #: probe distance from home to the claimed slot
    slot: np.ndarray  #: the claimed slot's index in ``ht_ptr``
    # set once the build is done
    after: np.ndarray  #: agent of the valid lane after the first occurrence


def _resolve_block(batch: DeviceBatch, k: int, n_before, load_start, n_act, row_warp):
    """Pass 1 for a block of step rows: name each warp's distinct k-mers.

    Flattens the rows' valid lanes (row-major: warp, step, lane), packs
    the block's read span once and sorts the lanes' (warp, k-mer) rows
    with one :class:`~repro.sequence.kmer.SortedKmers`: each run is an
    agent, acting at its lowest lane.  Returns per valid lane its
    block-local agent id, extension base and hi-quality flag, the
    valid-lane count of every row, and per agent the block-local lane and
    row of its first occurrence, its lane count, its packed words, its
    murmur hash (the only windows hashed) and that lane's read pointer.
    ``n_before[i]`` counts the ambiguous bases ahead of read byte *i*.
    None when the block has no valid lane.
    """
    lane_row = np.repeat(np.arange(n_act.size), n_act)
    starts = load_start[lane_row] + _within(n_act)  # flat k-mer start pointers
    # valid: no ambiguous base in the window or the extension base
    v = np.nonzero(n_before[starts + k + 1] == n_before[starts])[0]
    if v.size == 0:
        return None
    starts, lane_row = starts[v], lane_row[v]
    rdata = batch.reads_buf.data
    lo = int(starts.min())
    words = pack_kmers(rdata[lo : int(starts.max()) + k], k)[0][starts - lo]
    warp = row_warp[lane_row] - row_warp[0]  # rows are warp-major
    index = SortedKmers(words, k, warp, int(warp[-1]) + 1)
    agent = np.empty(v.size, dtype=np.int64)
    agent[index.order] = index.run
    first = index.first
    a_ptr = starts[first]
    return (
        agent,
        rdata[starts + k],
        batch.quals_buf.data[starts + k] >= batch.config.hi_q_thresh,
        np.bincount(lane_row, minlength=n_act.size),
        first, lane_row[first], index.counts, words[first],
        murmurhash2_rows(sliding_window_view(rdata, k)[a_ptr]).astype(np.int64),
        a_ptr,
    )


def _place_agents(ht: np.ndarray, ag: _Agents) -> None:
    """Phase A: the step/round lockstep over agents only.

    An agent enters at its first-occurrence step and probes ``home + j``
    in round *j* until it claims an empty slot; of the agents reaching one
    empty slot in a round the lowest lane wins (fact c), and every other
    agent — its k-mer is in no earlier slot, this being its first
    occurrence — moves on.  Fills ``ag.dist`` / ``ag.slot`` and writes the
    claiming agent's *id* to ``ht``: pass 2 reads a slot's owner through
    it before :func:`_build_group_derived` stores the read pointers.
    """
    # (step, first lane) order: np.unique's first index per slot is then
    # the lowest lane of the slot's warp
    order = np.lexsort((ag.first, ag.step))
    cuts = np.searchsorted(ag.step[order], np.arange(int(ag.step.max()) + 2))
    for step in range(cuts.size - 1):
        pend = order[cuts[step] : cuts[step + 1]]
        j = 0
        while pend.size:
            g = ag.base[pend] + (ag.home[pend] + j) % ag.slots[pend]
            empty = np.nonzero(ht[g] == EMPTY_PTR)[0]
            if empty.size:
                claimed, won = np.unique(g[empty], return_index=True)
                won = empty[won]
                ht[claimed] = pend[won]
                ag.dist[pend[won]] = j
                ag.slot[pend[won]] = claimed
                pend = np.delete(pend, won)
            j += 1


def _account_block(
    wb: WarpBatch, batch: DeviceBatch, k: int, acc: dict, ag: _Agents,
    row_warp, row_step, row_valid, lane0: int, agent, ext, hi, a0: int, a1: int,
) -> None:
    """Pass 2 for one block: expand every valid lane into its probe visits
    and derive what the lockstep would have accumulated.

    A lane whose k-mer sits ``d`` slots past home visits rounds
    ``0 … d`` (fact d: nothing on the way is empty unless it is claimed
    in that very round).  A visit issues a CAS iff its slot was claimed in
    the visit's own (step, round); it wins iff it also is its k-mer's
    first lane; every other visit compares keys with the slot's occupant,
    and the round-``d`` visit resolves and tallies.  Issue counts are
    per-(row, round) *group* reductions of those classes, sector counts
    one composite sort per access kind, all folded into ``acc`` per warp.
    The block holds valid lanes ``lane0 …`` and agents ``a0 … a1``.
    """
    n = agent.size
    d = ag.dist[agent]
    n_vis = d + 1
    lane_row = np.repeat(np.arange(row_valid.size), row_valid)
    # a row probes for as many rounds as its farthest lane needs
    live = np.nonzero(row_valid)[0]
    rounds = np.zeros(row_valid.size, dtype=np.int64)
    rounds[live] = np.maximum.reduceat(n_vis, (np.cumsum(row_valid) - row_valid)[live])
    n_grp = int(rounds.sum())
    grp_warp = np.repeat(row_warp, rounds)
    lane_grp0 = (np.cumsum(rounds) - rounds)[lane_row]
    lane_step = row_step[lane_row]

    vl = np.repeat(np.arange(n), n_vis)  # visit -> lane
    j = _within(n_vis)  # visit -> probe round
    va = agent[vl]
    gidx = ag.base[va] + (ag.home[va] + j) % ag.slots[va]
    grp = lane_grp0[vl] + j
    wb._strict_check(batch.ht_ptr, gidx, "load_gather")
    owner = batch.ht_ptr.data[gidx]
    cas = (ag.step[owner] == lane_step[vl]) & (ag.dist[owner] == j)
    won = cas & (owner == va) & (ag.first[agent] == np.arange(lane0, lane0 + n))[vl]
    cont = ~won
    grp_cas = grp[cas]
    # the round-d visit of each lane resolves: one tally per lane
    res_grp = lane_grp0 + d
    cidx = ag.slot[agent] * 4 + ext
    hi_grp, hi_cidx = res_grp[hi], cidx[hi]
    wb._strict_check(batch.ht_total, cidx, "atomic_add")
    wb._strict_check(batch.ht_hi, hi_cidx, "atomic_add")

    p = np.bincount(grp, minlength=n_grp)
    e = np.bincount(grp_cas, minlength=n_grp)
    w = np.bincount(grp[won], minlength=n_grp)
    r = np.bincount(res_grp, minlength=n_grp)
    h = np.bincount(hi_grp, minlength=n_grp)
    c = p - w
    has_e, has_c, has_r, has_h = e > 0, c > 0, r > 0, h > 0
    kw = (k + 7) // 8  # key words: one gather + one compare op each
    per_group = {
        # load_gather (+2 int address math, +1 loop-back branch), fused
        # match_any + CAS + sync, key gather + compare, the two tallies
        "warp_inst": 4 + 3 * has_e + 2 * kw * has_c + has_r + has_h,
        "thread_inst": 4 * p + 3 * e + 2 * kw * c + r + h,
        "int_inst": 2 + kw * has_c,
        "control_inst": np.ones(n_grp, dtype=np.int64),
        "global_ld_inst": 1 + kw * has_c,
        "atomic_inst": has_e.astype(np.int64) + has_r + has_h,
        "shuffle_inst": has_e,
        "sync_inst": has_e,
        "global_ld_transactions": wb._element_transactions(
            batch.ht_ptr, gidx, grp, n_grp
        )
        + wb._word_transactions(
            batch.reads_buf, ag.ptr[owner[cont]], grp[cont], n_grp, k
        ),
        "atomic_transactions": wb._element_transactions(
            batch.ht_ptr, gidx[cas], grp_cas, n_grp
        )
        + wb._element_transactions(batch.ht_total, cidx, res_grp, n_grp)
        + wb._element_transactions(batch.ht_hi, hi_cidx, hi_grp, n_grp),
        # every slot CASed in a round gets exactly one winner
        "atomic_conflicts": e - w,
    }
    for name, values in per_group.items():
        acc[name] += _fold(grp_warp, values, acc[name].size)

    # both tally tables: one bincount on agent * 4 + ext (cleared to zero
    # by _clear_group, and an agent's slot belongs to this block alone)
    code = (agent - a0) * 4 + ext
    for darr, codes in ((batch.ht_total, code), (batch.ht_hi, code[hi])):
        counts = np.bincount(codes, minlength=4 * (a1 - a0))
        hit = np.nonzero(counts)[0]
        flat = darr.data.reshape(-1)
        flat[ag.slot[a0 + (hit >> 2)] * 4 + (hit & 3)] += counts[hit].astype(flat.dtype)


def _build_group_derived(wb: WarpBatch, batch: DeviceBatch, rows, tasks_g, k: int, ht_start, slots):
    """Closed-form table build — resolve, place, account (module
    docstring).  Leaves the three tables and every counter exactly as
    :func:`_build_group_lockstep` would, and returns the group's agent
    table (None when no warp has a valid lane)."""
    G = rows.size
    ro = batch.read_offsets
    trs = batch.task_read_start
    # -- step rows: one per (warp, read, 32-lane chunk), warp-major ----------
    n_reads = trs[tasks_g + 1] - trs[tasks_g]
    read_warp = np.repeat(np.arange(G), n_reads)
    rid = np.repeat(trs[tasks_g], n_reads) + _within(n_reads)
    nk = ro[rid + 1] - ro[rid] - k
    keep = nk > 0
    if not keep.any():
        return
    read_warp, rb, nk = read_warp[keep], ro[rid[keep]], nk[keep]
    n_steps = (nk + _LANES - 1) // _LANES
    chunk = _within(n_steps)
    n_rows = chunk.size
    row_warp = np.repeat(read_warp, n_steps)
    load_start = np.repeat(rb, n_steps) + _LANES * chunk
    n_act = np.minimum(_LANES, np.repeat(nk, n_steps) - _LANES * chunk)
    warp_rows = np.bincount(row_warp, minlength=G)
    row_step = _within(warp_rows)

    # Coalesced window + ext-base + quality loads (Fig 7) and the row
    # murmur hashes of every step of every warp.
    wb._strict_span_check(batch.reads_buf, load_start, n_act + k, "load_span")
    wb._strict_span_check(batch.quals_buf, load_start + k, n_act, "load_span")
    hops = _hash_cost_ops(k)
    win_inst = (n_act + k + _LANES - 1) // _LANES
    acc = {name: np.zeros(G, dtype=np.int64) for name in _BUILD_COUNTERS}
    acc["warp_inst"] += _fold(row_warp, win_inst + 1 + hops, G)
    acc["thread_inst"] += _fold(row_warp, (2 + hops) * n_act + k, G)
    acc["int_inst"] += hops * warp_rows
    acc["global_ld_inst"] += _fold(row_warp, win_inst + 1, G)
    acc["global_ld_transactions"] += _fold(
        row_warp,
        wb._span_sectors(batch.reads_buf, load_start, n_act + k)
        + wb._span_sectors(batch.quals_buf, load_start + k, n_act),
        G,
    )

    # -- pass 1 (resolve), in blocks of whole warps ---------------------------
    warp_lanes = _fold(row_warp, n_act, G)
    block_of_row = ((np.cumsum(warp_lanes) - warp_lanes) // _BLOCK_LANES)[row_warp]
    row_cuts = np.searchsorted(block_of_row, np.arange(int(block_of_row[-1]) + 2))
    n_before = np.zeros(batch.reads_buf.data.size + 1, dtype=np.int64)
    np.cumsum(batch.reads_buf.data >= 4, out=n_before[1:])
    # per valid lane, filled block by block (valid lanes <= lanes)
    n_total = int(warp_lanes.sum())
    lane_agent = np.empty(n_total, dtype=np.int64)
    lane_ext = np.empty(n_total, dtype=np.uint8)
    lane_hi = np.empty(n_total, dtype=bool)
    row_valid = np.zeros(n_rows, dtype=np.int64)
    found = []  # per block: agents' first lane, first row, lanes, words, hash, read pointer
    blocks = []  # (row_lo, row_hi, lane_lo, lane_hi, agent_lo, agent_hi)
    n_lanes = n_agents = 0
    for r0, r1 in zip(row_cuts[:-1].tolist(), row_cuts[1:].tolist()):
        res = _resolve_block(
            batch, k, n_before, load_start[r0:r1], n_act[r0:r1], row_warp[r0:r1]
        )
        if res is None:
            continue
        agent, ext, hi, row_valid[r0:r1], first, first_row, *per_agent = res
        l1, a1 = n_lanes + agent.size, n_agents + first.size
        lane_agent[n_lanes:l1] = agent + n_agents
        lane_ext[n_lanes:l1] = ext
        lane_hi[n_lanes:l1] = hi
        found.append((first + n_lanes, first_row + r0, *per_agent))
        blocks.append((r0, r1, n_lanes, l1, n_agents, a1))
        n_lanes, n_agents = l1, a1
    del n_before
    ag = None
    if blocks:
        a_first, a_row, a_lanes, a_words, a_hash, a_ptr = (
            np.concatenate(p) for p in zip(*found)
        )
        a_warp = row_warp[a_row]
        ag = _Agents(
            first=a_first, warp=a_warp, base=ht_start[a_warp], slots=slots[a_warp],
            hash=a_hash, home=a_hash % slots[a_warp], ptr=a_ptr,
            step=row_step[a_row], lanes=a_lanes, words=a_words,
            dist=np.empty(n_agents, dtype=np.int64),
            slot=np.empty(n_agents, dtype=np.int64),
            after=None,
        )
        del found, a_row  # not alive through passes A and 2
        ht = batch.ht_ptr.data
        _place_agents(ht, ag)  # phase A
        for r0, r1, l0, l1, a0, a1 in blocks:  # pass 2
            _account_block(
                wb, batch, k, acc, ag,
                row_warp[r0:r1], row_step[r0:r1], row_valid[r0:r1],
                l0, lane_agent[l0:l1], lane_ext[l0:l1], lane_hi[l0:l1], a0, a1,
            )
        ht[ag.slot] = ag.ptr
        ag = ag._replace(after=lane_agent[np.minimum(ag.first + 1, n_lanes - 1)])
    c = wb.counters
    acc["predicated_off"] = acc["warp_inst"] * _LANES - acc["thread_inst"]
    for name, total in acc.items():
        getattr(c, name)[rows] += total
    return ag


def _walk_group(wb: WarpBatch, batch: DeviceBatch, rows, k: int, seq_off, slen, ht_start, slots, vis_start, ag):
    """Single-lane mer-walks for one k-group: derived from the build's
    agent table *ag*, or in lockstep when a sanitizer needs per-access
    order.  Returns ``(appended, status, slen)`` per row."""
    if wb.sanitizer is not None:
        return _walk_group_lockstep(wb, batch, rows, k, seq_off, slen, ht_start, slots, vis_start)
    return _walk_group_derived(wb, batch, rows, k, seq_off, slen, ht_start, slots, vis_start, ag)


def _free_run(table, base, home, size) -> np.ndarray:
    """Linear probing without inserting: for every query, the occupied
    slots from ``home`` on to the first empty one in its region
    ``table[base : base + size]`` (``size`` when the region is full)."""
    size = np.broadcast_to(size, home.shape)
    run = np.zeros(home.size, dtype=np.int64)
    pend = np.nonzero(table[base + home] != EMPTY_PTR)[0]
    while pend.size:
        run[pend] += 1
        pend = pend[run[pend] < size[pend]]
        slot = base[pend] + (home[pend] + run[pend]) % size[pend]
        pend = pend[table[slot] != EMPTY_PTR]
    return run


def _agent_moves(batch: DeviceBatch, k: int, ag: _Agents, index: SortedKmers) -> np.ndarray:
    """Algorithm 2's decision at every agent, as one int per agent (the
    CPU engine's encoding): ``move >= 0`` appends base ``move & 3`` and
    goes on to agent ``(move >> 2) - 1`` of the same warp (-1: absent);
    ``move < 0`` stops the walk with status ``-1 - move``."""
    cfg = batch.config
    n = ag.slot.size
    verdict = np.full(n, int(WalkStatus.RUNOUT), dtype=np.int64)
    base = np.full(n, -1, dtype=np.int64)
    # Fewer than min_viable lanes: no viable base.  Every lane extending
    # by the first lane's base: that base, the only viable one.
    some = np.nonzero(ag.lanes >= cfg.min_viable)[0]
    ext = batch.reads_buf.data[ag.ptr[some] + k].astype(np.int64)
    same = batch.ht_total.data[ag.slot[some] * 4 + ext] == ag.lanes[some]
    verdict[some[same]] = -1
    base[some[same]] = ext[same]
    mixed = some[~same]
    verdict[mixed], base[mixed] = classify_extensions(
        batch.ht_hi.data.reshape(-1, 4)[ag.slot[mixed]],
        batch.ht_total.data.reshape(-1, 4)[ag.slot[mixed]],
        cfg.min_viable, cfg.dominance_ratio,
    )
    move = -1 - verdict
    # The successor is most often the k-mer of the lane after the first
    # one; the rest are searched for.
    go = np.nonzero(verdict < 0)[0]
    words = successor_kmers(ag.words[go], k, base[go])
    after = ag.after[go]
    hit = ag.warp[after] == ag.warp[go]
    for w in range(words.shape[1]):
        hit &= ag.words[after, w] == words[:, w]
    succ = np.where(hit, after, -1)
    miss = np.nonzero(~hit)[0]
    run = index.find(words[miss], ag.warp[go[miss]])
    succ[miss] = np.where(run >= 0, index.first[run], -1)
    move[go] = (succ + 1) * 4 + base[go]
    return move


def _walk_group_derived(wb: WarpBatch, batch: DeviceBatch, rows, k: int, seq_off, slen, ht_start, slots, vis_start, ag):
    """Closed-form single-lane mer-walks for one k-group.

    A k-mer a walk looks up is either an agent — its main-table probe
    runs from its home to its slot, ``dist + 1`` loads and key compares —
    or absent, which ends the walk after probing the occupied run from its
    home to the first empty slot.  So a walk is a chain through the agent
    table: the start k-mer is resolved once, each step is one gather of
    the agent's move (:func:`_agent_moves`), and a revisited agent is a
    LOOP.  The visited table is replayed insert by insert (its probe
    lengths depend on the order), logging each step's row, agent and
    probe length; the absent k-mer that ends a walk is hashed once, after
    the appended bases are stored.  Every counter then comes from the
    logs in one pass per access kind.  Leaves ``seq_buf``, ``vis_ptr`` and
    every counter exactly as :func:`_walk_group_lockstep` would, and
    returns the same ``(appended, status, slen)``.  The visited table has
    ``2 * max_walk_len`` slots, so it never fills.
    """
    cfg = batch.config
    R = rows.size
    V = batch.vis_slots
    sdata = batch.seq_buf.data
    kpos0 = seq_off + slen - k  # a walk's k-mer at step s starts at kpos0 + s
    status = np.full(R, int(WalkStatus.MAX_LEN), dtype=np.int64)
    short = slen < k  # one branch, no step
    status[short] = int(WalkStatus.RUNOUT)
    live = np.nonzero(~short)[0]
    vis_occ = np.full(R * V, EMPTY_PTR, dtype=np.int64)  # occupant's walk step
    vis_base = np.arange(R) * V

    # -- chase: one integer step per walking row ------------------------------
    steps = []  # per step: (rows, agents, visited-table probe length)
    loops = []  # the same, for walks back on an agent they visited
    ends = [live]  # rows whose walk meets an absent k-mer
    if ag is not None and live.size:
        index = SortedKmers(ag.words, k, ag.warp, R)
        move = _agent_moves(batch, k, ag, index)
        vis_home = ag.hash % V
        vis_len = np.full(move.size, -1, dtype=np.int64)  # -1: not visited
        words, ok = pack_kmers(sdata[kpos0[live, None] + cached_arange(k)].ravel(), k)
        run = index.find(words[::k], live)
        hit = ok[::k] & (run >= 0)
        ends = [live[~hit]]
        w, cur = live[hit], index.first[run[hit]]
        del index
        for s in range(cfg.max_walk_len):
            if w.size == 0:
                break
            vl = vis_len[cur]
            back = vl >= 0
            if back.any():
                loops.append((w[back], cur[back], vl[back]))
                status[w[back]] = int(WalkStatus.LOOP)
                w, cur = w[~back], cur[~back]
            home = vis_home[cur]
            vl = _free_run(vis_occ, vis_base[w], home, V)
            vis_occ[vis_base[w] + (home + vl) % V] = s
            vis_len[cur] = vl
            steps.append((w, cur, vl))
            m = move[cur]
            stop = m < 0
            if stop.any():
                status[w[stop]] = -1 - m[stop]
                w, m = w[~stop], m[~stop]
            cur = (m >> 2) - 1
            if s + 1 < cfg.max_walk_len:
                ends.append(w[cur < 0])
            w, cur = w[cur >= 0], cur[cur >= 0]

    # visits: (row, home, probe length, inserted) in the visited table;
    # lookups: (row, base, home, size, compares, loads, branches) in the
    # main table — an agent's probe ends on its slot, an absent k-mer's on
    # the first empty slot (none when its region is full)
    visits, lookups = [], []
    appended = np.zeros(R, dtype=np.int64)
    st_row = cls_slot = app_row = app_idx = np.zeros(0, dtype=np.int64)
    if steps:
        st_row, st_ag, st_vl = (np.concatenate(x) for x in zip(*steps))
        st_step = np.repeat(np.arange(len(steps)), [x[0].size for x in steps])
        visits.append((st_row, vis_home[st_ag], st_vl, np.ones(st_row.size, dtype=bool)))
        for lo_row, lo_ag, lo_vl in loops:
            visits.append((lo_row, vis_home[lo_ag], lo_vl, np.zeros(lo_row.size, dtype=bool)))
        d = ag.dist[st_ag]
        lookups.append((st_row, ag.base[st_ag], ag.home[st_ag], ag.slots[st_ag], d + 1, d + 1, d))
        cls_slot = ag.slot[st_ag]
        m = move[st_ag]
        app = np.nonzero(m >= 0)[0]
        app_row = st_row[app]
        appended = _fold(app_row, None, R)
        app_idx = seq_off[app_row] + slen[app_row] + st_step[app]
        wb._strict_check(batch.seq_buf, app_idx, "store_lane0")
        sdata[app_idx] = m[app] & 3
    slen = slen + appended

    # -- the absent k-mers that end walks: hash, visit, probe -----------------
    e_row = np.concatenate(ends)
    e_pos = seq_off[e_row] + slen[e_row] - k
    e_hash = murmurhash2_rows(sdata[e_pos[:, None] + cached_arange(k)]).astype(np.int64)
    e_vhome = e_hash % V
    e_vl = _free_run(vis_occ, vis_base[e_row], e_vhome, V)
    vis_occ[vis_base[e_row] + (e_vhome + e_vl) % V] = appended[e_row]
    e_home = e_hash % slots[e_row]
    e_run = _free_run(batch.ht_ptr.data, ht_start[e_row], e_home, slots[e_row])
    status[e_row] = int(WalkStatus.RUNOUT)
    visits.append((e_row, e_vhome, e_vl, np.ones(e_row.size, dtype=bool)))
    lookups.append(
        (e_row, ht_start[e_row], e_home, slots[e_row], e_run, e_run + (e_run < slots[e_row]), e_run)
    )
    taken = np.nonzero(vis_occ != EMPTY_PTR)[0]
    t_row = taken // V
    batch.vis_ptr.data[vis_start[t_row] + taken % V] = kpos0[t_row] + vis_occ[taken]

    # -- every counter from the logs, one pass per access kind ----------------
    def per_row(row_of, values=None):
        return _fold(row_of, values, R)

    def elem_sectors(darr, row_of, idx):
        one = wb._single_element_transactions(darr, idx)
        return per_row(row_of, np.broadcast_to(one, idx.shape))

    # visited table: loads up to the free (insert) or equal (LOOP) slot, and
    # a key compare against the walk k-mer held by each occupied one
    v_row, v_home, v_len, v_ins = (np.concatenate(x) for x in zip(*visits))
    n_load = v_len + 1
    j = _within(n_load)
    vl_row = np.repeat(v_row, n_load)
    vl_pos = (np.repeat(v_home, n_load) + j) % V
    vl_idx = vis_start[vl_row] + vl_pos
    vc = np.nonzero(j < np.repeat(v_len + ~v_ins, n_load))[0]
    vc_kpos = kpos0[vl_row[vc]] + vis_occ[vis_base[vl_row[vc]] + vl_pos[vc]]
    ins = np.nonzero(v_ins)[0]
    cas_idx = vis_start[v_row[ins]] + (v_home[ins] + v_len[ins]) % V
    # main table
    m_row, m_base, m_home, m_size, m_cmp, n_load, m_branch = (
        np.concatenate(x) for x in zip(*lookups)
    )
    j = _within(n_load)
    ml_row = np.repeat(m_row, n_load)
    ml_idx = np.repeat(m_base, n_load) + (np.repeat(m_home, n_load) + j) % np.repeat(m_size, n_load)
    mc = np.nonzero(j < np.repeat(m_cmp, n_load))[0]
    wb._strict_check(batch.vis_ptr, vl_idx, "load_lane0")
    wb._strict_check(batch.vis_ptr, cas_idx, "atomic_cas_lane0")
    wb._strict_check(batch.ht_ptr, ml_idx, "load_lane0")

    hashes = per_row(v_row)  # one murmur per step
    loads = per_row(vl_row) + per_row(ml_row)  # each fuses 2 address ops
    compares = per_row(vl_row[vc]) + per_row(ml_row[mc])  # kw words + kw ops
    branches = per_row(v_row, v_len) + per_row(m_row, m_branch)
    cas = per_row(v_row[ins])
    classified = per_row(st_row)  # two 16-byte tally gathers + 8 ops
    kw = (k + 7) // 8
    hops = _hash_cost_ops(k)
    inst = (
        hops * hashes + 3 * loads + 2 * kw * compares + branches + cas
        + 12 * classified + 2 * appended + short
    )
    c = wb.counters
    c.warp_inst[rows] += inst
    c.thread_inst[rows] += inst  # lane 0 only
    c.predicated_off[rows] += (_LANES - 1) * inst
    c.int_inst[rows] += hops * hashes + 2 * loads + kw * compares + 8 * classified
    c.control_inst[rows] += branches + short
    c.global_ld_inst[rows] += loads + kw * compares + 4 * classified
    c.global_ld_transactions[rows] += (
        elem_sectors(batch.vis_ptr, vl_row, vl_idx)
        + per_row(vl_row[vc], wb._lane0_span_sectors(batch.seq_buf, vc_kpos, k))
        + elem_sectors(batch.ht_ptr, ml_row, ml_idx)
        + per_row(ml_row[mc], wb._lane0_span_sectors(
            batch.reads_buf, batch.ht_ptr.data[ml_idx[mc]], k))
        + per_row(st_row, wb._lane0_span_sectors(batch.ht_hi, cls_slot * 16, 16)
                  + wb._lane0_span_sectors(batch.ht_total, cls_slot * 16, 16))
    )
    c.atomic_inst[rows] += cas
    c.atomic_transactions[rows] += elem_sectors(batch.vis_ptr, v_row[ins], cas_idx)
    c.global_st_inst[rows] += appended
    c.global_st_transactions[rows] += elem_sectors(batch.seq_buf, app_row, app_idx)
    c.local_st_inst[rows] += appended
    c.local_transactions[rows] += appended
    return appended, status, slen


def _walk_group_lockstep(
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
    """Lockstep single-lane mer-walks for one k-group: every access of
    every walk step is issued through ``wb``, in program order.
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
            agents = _build_group(wb, batch, g, t_arr[g], kv, ht_start[g], slots[g])
            # Build-to-walk barrier, matching the sequential kernel's
            # warp.sync() between build_fn and mer_walk_gpu.
            wb.sync_op(g, _LANES)
            app, st, new_slen = _walk_group(
                wb, batch, g, kv, seq_off[g], slen[g], ht_start[g], slots[g],
                vis_start[g], agents,
            )
            del agents  # not alive through the next group's build
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
