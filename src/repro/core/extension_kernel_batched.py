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
     murmur is computed.  The sort's runs are the block's agents
     (:class:`_Agents`), so it is also the block's one index: the moves
     and the walks' start k-mers are looked up in it;
  2. *place* (phase A) gives every agent the slot the kernel's step/round
     probing (probe ``home + j``, lowest lane claims each empty slot)
     would, in bulk: the filled slots follow from the homes alone, and
     only agents sharing a cluster of filled slots are placed one by one,
     every cluster at once (fact e);
  3. *account* (pass 2) expands each lane into the ``d + 1`` slots from
     its home to its k-mer's and classifies every visit, from which issue
     counts are per-(step, round) reductions, sector counts one sort per
     device array (the visits by slot, flags in the key, for the three
     tables; the key compares by pointer for the reads), and both tallies
     one ``bincount`` onto the block's agents: the dense ``ht_hi``/
     ``ht_total`` stay zero (their clears are counted, not written), as
     nothing on this engine reads them.

  Five facts about the choreography carry this, each pinned by
  ``tests/core/test_batched_engine.py`` or ``test_batched_placement.py``:
  **(a)** lanes of one step holding the same k-mer share hash and probe
  offset, so they move together; **(b)** a claimed slot never changes
  occupant; **(c)** two agents reach the same empty slot in the same
  round only if they share a home slot, and the lowest lane wins;
  **(d)** a lane whose k-mer an earlier step placed never meets an empty
  slot — it walks occupied slots from home to its k-mer's and tallies
  there; **(e)** linear probing fills the same slots in any insert order,
  and within a cluster of filled slots the kernel inserts in (step,
  home offset from the cluster's first slot descending, first lane)
  order — an agent homed further on reaches every later slot sooner.
  Hence a visit issues a CAS iff its slot was claimed in the visit's own
  (step, round), wins iff it is also its k-mer's first lane, compares
  keys otherwise, and resolves at distance ``d``.  A block of whole
  warps of about ``_BLOCK_LANES`` lanes goes through resolve, place,
  account and :func:`_agent_moves` back to back, and its tables are
  final before the next block is resolved: every phase is warp-local,
  so results do not depend on the cap, and only one block's temporaries
  are ever live.  What the walk reads of the agents (:class:`_Moves`, a
  few numbers each) is all that outlives a block.

  The sequential interpreter running the kernel as written stays the
  reference, and it is also what a sanitized launch runs
  (:class:`~repro.gpusim.kernel.GpuContext` interprets every launch with
  a sanitizer attached), so this module carries no sanitizer;
* **walk** — single-lane per warp, and derived too.  Every k-mer a walk
  looks up is an agent (found at its slot, ``dist + 1`` probes from home)
  or absent (the walk ends after probing the occupied run from its home),
  so the build decides each agent's verdict, base and successor agent
  once (:func:`_agent_moves`) and finds each warp's start agent, and a
  walk is a chain of moves: each step is ``cur = succ[cur]`` over
  integer arrays, and a revisited agent is a LOOP.  The visited table is
  replayed insert by insert — its probe lengths depend on the order —
  and the walk counters come from the logged steps one access kind at a
  time.

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
    _KEY_BASE,
    BatchCounters,
    WarpBatch,
    cached_arange,
    register_batched,
)
from repro.hashing.murmur import murmurhash2_rows
from repro.sequence.kmer import SortedKmers, pack_kmers, successor_kmers

__all__ = ["run_extension_v2_batched"]

_LANES = 32

#: Lanes per block of the derived build (a warp with more is a block of
#: its own).  Bounds the temporaries alive at once (peak RSS); counters,
#: tables and moves are independent of it.
_BLOCK_LANES = 1 << 15

#: the counters a table build moves (``predicated_off`` follows from the
#: first two)
_BUILD_COUNTERS = (
    "warp_inst", "thread_inst", "int_inst", "control_inst",
    "global_ld_inst", "global_ld_transactions", "atomic_inst",
    "atomic_transactions", "shuffle_inst", "sync_inst", "atomic_conflicts",
)


def _step_rows(batch: DeviceBatch, tasks_g, k: int):
    """A k-group's build work as step rows, one per (warp, read, 32-lane
    chunk of its k-mers), warp-major — the Fig 7 layout: each row's warp
    in the group, load start and active-lane count, or None when no read
    holds a k-mer and its extension base."""
    ro, trs = batch.read_offsets, batch.task_read_start
    n_reads = trs[tasks_g + 1] - trs[tasks_g]
    read_warp = np.repeat(np.arange(tasks_g.size, dtype=np.int32), n_reads)
    rid = np.repeat(trs[tasks_g], n_reads) + _within(n_reads)
    nk = ro[rid + 1] - ro[rid] - k
    keep = nk > 0
    if not keep.any():
        return None
    read_warp, rb, nk = read_warp[keep], ro[rid[keep]], nk[keep]
    n_steps = (nk + _LANES - 1) // _LANES
    chunk = _within(n_steps)
    return (
        np.repeat(read_warp, n_steps),
        np.repeat(rb, n_steps) + _LANES * chunk,
        np.minimum(_LANES, np.repeat(nk, n_steps) - _LANES * chunk),
    )


def _clear_group(wb: WarpBatch, batch: DeviceBatch, rows, ht_start, slots, vis_start) -> None:
    """Re-initialise every row's table + visited regions (coalesced).
    The tally memsets are counted but not written: the derived build
    keeps the tallies with its agents instead."""
    wb.store_span(batch.ht_ptr, ht_start, slots, EMPTY_PTR, rows)
    wb.store_span(batch.ht_hi, ht_start * 4, slots * 4, None, rows)
    wb.store_span(batch.ht_total, ht_start * 4, slots * 4, None, rows)
    wb.store_span(
        batch.vis_ptr,
        vis_start,
        np.full(rows.size, batch.vis_slots, dtype=np.int64),
        EMPTY_PTR,
        rows,
    )


def _fold(index, values, n: int) -> np.ndarray:
    """Per-bin integer sums of *values* (``bincount`` accumulates in
    float64, which is exact for totals this far below 2**53)."""
    return np.bincount(index, weights=values, minlength=n).astype(np.int64)


def _within(counts) -> np.ndarray:
    """``0 … c - 1`` for every count *c*, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


class _Agents(NamedTuple):
    """One block's agents: a row per distinct (warp, k-mer) of the block's
    warps, acting at its k-mer's first occurrence.  Lanes, steps, agents
    and warps are numbered within the block; ``base`` and ``slots`` are
    per block warp (index them with ``warp``)."""

    first: np.ndarray  #: valid-lane index of the first occurrence
    warp: np.ndarray  #: its warp's index in the block
    base: np.ndarray  #: per warp: its table start in ``ht_ptr``
    slots: np.ndarray  #: per warp: its table size
    home: np.ndarray  #: ``murmur % slots``
    ptr: np.ndarray  #: read pointer of the first lane (the table key)
    step: np.ndarray  #: its build step, as the step's first valid-lane index
    # filled by phase A
    dist: np.ndarray  #: probe distance from home to the claimed slot
    slot: np.ndarray  #: the claimed slot's index in ``ht_ptr``
    # filled by pass 2: the ``(n, 4)`` tallies ``ht_hi``/``ht_total`` hold
    # at ``slot`` on the device (``total`` sums to the agent's lanes)
    hi: np.ndarray
    total: np.ndarray


class _Moves(NamedTuple):
    """What the build hands the walk: per agent of the k-group (numbered
    block by block) what a walk step reads of it, and per warp where its
    walk starts."""

    move: np.ndarray  #: Algorithm 2's decision (:func:`_agent_moves`)
    vis_home: np.ndarray  #: ``murmur % vis_slots``
    home: np.ndarray  #: ``murmur % slots``
    slot: np.ndarray  #: its slot's index in ``ht_ptr``
    dist: np.ndarray  #: probe distance from home to ``slot``
    start: np.ndarray  #: per warp: its start k-mer's agent, -1 if none


def _resolve_block(batch: DeviceBatch, k: int, load_start, n_act, row_warp):
    """Pass 1 for a block of step rows: name each warp's distinct k-mers.

    Flattens the rows' valid lanes (row-major: warp, step, lane), packs
    the block's read span once and sorts the lanes' (block warp, k-mer)
    rows with one :class:`~repro.sequence.kmer.SortedKmers`: each run is
    an agent, acting at its lowest lane.  Returns per valid lane its agent,
    extension base and hi-quality flag, the valid-lane count of every row,
    per agent the lane and row of its first occurrence, its packed words,
    its murmur hash (the only windows hashed) and that lane's read
    pointer, and the sort itself, which finds an agent by (block warp,
    k-mer).  Ambiguous windows are marked from the block's own read span.
    None when no lane is valid.
    """
    lane_row = np.repeat(np.arange(n_act.size), n_act)
    starts = load_start[lane_row] + _within(n_act)  # flat k-mer start pointers
    rdata = batch.reads_buf.data
    lo = int(starts.min())
    words, ok = pack_kmers(rdata[lo : int(starts.max()) + k + 1], k)
    # valid: no ambiguous base in the window or the extension base
    v = np.nonzero((ok[:-1] & ok[1:])[starts - lo])[0]
    if v.size == 0:
        return None
    starts, lane_row = starts[v], lane_row[v]
    words = words[starts - lo]
    w0 = row_warp[0]  # rows are warp-major
    index = SortedKmers(words, k, row_warp[lane_row] - w0, int(row_warp[-1] - w0) + 1)
    agent = np.empty(v.size, dtype=np.int64)
    agent[index.order] = index.run
    first = index.first
    a_ptr = starts[first]
    return (
        agent,
        rdata[starts + k],
        batch.quals_buf.data[starts + k] >= batch.config.hi_q_thresh,
        np.bincount(lane_row, minlength=n_act.size),
        first, lane_row[first], words[first],
        murmurhash2_rows(sliding_window_view(rdata, k)[a_ptr]),
        a_ptr,
        index,
    )


def _place_agents(ht: np.ndarray, ag: _Agents) -> None:
    """Phase A in bulk (fact e): fills ``ag.dist``/``ag.slot`` and writes
    each agent's *id* to ``ht``, where pass 2 reads a slot's owner.

    Linear probing fills the same slots in any insert order — by home, a
    table's *i*-th agent fills ``max(home, previous + 1)``, and what runs
    off its end re-enters at its start — so the *clusters*, maximal runs of
    filled slots (wrapping the table end), come first.  A lone agent keeps
    its home; the agents of a shared cluster take the first free slot from
    their homes in fact (e)'s order, one of every cluster a round.
    """
    n = ag.warp.size
    b = n.bit_length()
    i = np.arange(n)

    def by_home(home, at):  # sorted homes, with the *at* of each
        key = home << b | at  # ht.size << b < 2**63
        key.sort()
        return key >> b, key & ((1 << b) - 1)

    g, order = by_home(ag.base[ag.warp] + ag.home, i)
    warp = ag.warp[order]
    lo, size = ag.base[warp], ag.slots[warp]
    tab = np.flatnonzero(np.diff(warp, prepend=-1))
    shift = np.repeat(tab * (ht.size + n), np.diff(np.r_[tab, n]))  # per-table max

    def fill(home, at):  # the filled slots, for sorted homes
        return at + np.maximum.accumulate(home - at + shift[at]) - shift[at]

    pos, end, holder = fill(g, i), lo + size, i.copy()  # holder: whose home made pos
    over = pos >= end
    if over.any():  # those tables again, their overflow homed at the start
        in_over = np.repeat(np.logical_or.reduceat(over, tab), np.diff(np.r_[tab, n]))
        at = np.flatnonzero(in_over)  # agents of a table that runs over
        home, holder[at] = by_home(np.where(over[at], lo[at], g[at]), at)
        pos[at] = fill(home, at)
    head = np.diff(pos, prepend=-2) != 1
    head[tab] = True
    run = np.cumsum(head) - 1
    start = pos[head]  # per run, its first slot; a wrapping cluster's is in its last run
    last = np.r_[tab[1:], n] - 1
    wrap = np.flatnonzero((pos[tab] == lo[tab]) & (pos[last] == end[last] - 1))
    start[run[tab[wrap]]] = start[run[last[wrap]]]  # such a table's first and last
    merge = np.arange(start.size)  # runs are one cluster
    merge[run[last[wrap]]] = run[tab[wrap]]
    cl = np.empty_like(run)
    cl[holder] = merge[run]
    off = g - start[cl]
    off[off < 0] += size[off < 0]
    members = np.bincount(cl)
    many = np.flatnonzero(members[cl] > 1)
    ag.dist[:] = 0
    if many.size:
        a = order[many]
        c, row0, lane, o = cl[many], ag.step[a], ag.first[a] - ag.step[a], off[many]
        R, M = int(row0.max()) + 1, int(members.max())
        srt = many[  # by cluster, then fact (e)'s order
            np.argsort(((c * R + row0) * M + M - 1 - o) * _LANES + lane)
            if members.size * R * M * _LANES < 2**63 else np.lexsort((lane, -o, row0, c))
        ]
        cs = np.flatnonzero(np.diff(cl[srt], prepend=-1))
        n_in = np.diff(np.r_[cs, srt.size])
        cs = cs[np.argsort(-n_in)]  # biggest clusters first: live ones are a prefix
        live = np.searchsorted(np.sort(-n_in), -np.arange(M))
        home, dist = off[srt], np.zeros(srt.size, dtype=np.int64)
        free = np.ones((cs.size, M), dtype=bool)
        for r in range(M):
            at = cs[: live[r]] + r
            p = np.argmax(free[: at.size] & (cached_arange(M) >= home[at, None]), axis=1)
            free[cached_arange(at.size), p] = False
            dist[at] = p - home[at]
        slot = g[srt] + dist
        g[srt] = slot - size[srt] * (slot >= end[srt])
        ag.dist[order[srt]] = dist
    ag.slot[order] = g
    ht[g] = order


def _account_block(
    wb: WarpBatch, batch: DeviceBatch, k: int, acc: dict, ag: _Agents,
    row_warp, row_lane0, row_valid, agent, ext, hi,
) -> None:
    """Pass 2 for one block: expand every valid lane into its probe visits
    and derive what the interpreted build would have accumulated.

    A lane whose k-mer sits ``d`` slots past home visits rounds
    ``0 … d`` (fact d: nothing on the way is empty unless it is claimed
    in that very round).  Round ``d`` resolves at its k-mer's slot: a CAS
    iff the lane is in its agent's step, won iff it is the agent's first
    lane.  Rounds ``0 … d - 1`` pass slots other agents hold: a CAS iff
    that agent was claimed in the visit's own (step, round).  Every visit
    not won compares keys.  Issue counts are per-(row, round) *group*
    bincounts, sector counts one sort per device array — the visits by
    (group, slot), flags in the low bits, for the three tables, the key
    compares by (group, pointer) for the reads — folded into ``acc`` per
    warp (``row_warp``: each row's warp in the k-group).
    """
    n = agent.size
    d = ag.dist[agent]
    lane_row = np.repeat(np.arange(row_valid.size), row_valid)
    # a row probes for as many rounds as its farthest lane needs
    live = np.nonzero(row_valid)[0]
    rounds = np.zeros(row_valid.size, dtype=np.int64)
    rounds[live] = np.maximum.reduceat(d, (np.cumsum(row_valid) - row_valid)[live]) + 1
    n_grp = int(rounds.sum())
    grp_warp = np.repeat(row_warp, rounds)
    lane_grp0 = (np.cumsum(rounds) - rounds)[lane_row]
    lane_step = row_lane0[lane_row]
    res = lane_grp0 + d  # the group of each lane's resolving visit
    slot = ag.slot[agent]
    # an agent first occurs in the step of one of its lanes, or earlier
    cas = ag.first[agent] >= lane_step
    won = np.zeros(n, dtype=bool)
    won[ag.first] = True
    far = np.nonzero(d)[0]
    vl = np.repeat(far, d[far])  # passing visit -> lane
    j = _within(d[far])  # its round
    va = agent[vl]
    vw = ag.warp[va]
    gidx = ag.base[vw] + (ag.home[va] + j) % ag.slots[vw]
    grp = lane_grp0[vl] + j
    wb._strict_check(batch.ht_ptr, gidx, "load_gather")  # resolving slots: placed in bounds
    owner = batch.ht_ptr.data[gidx]
    passing_cas = (ag.first[owner] >= lane_step[vl]) & (ag.dist[owner] == j)
    cidx = slot * 4 + ext
    wb._strict_check(batch.ht_total, cidx, "atomic_add")
    wb._strict_check(batch.ht_hi, cidx, "atomic_add")

    # resolving visits per group by flags: plain, CAS, hi, CAS + hi
    by_flag = np.bincount(res * 4 + cas + 2 * hi, minlength=4 * n_grp).reshape(-1, 4)
    r, h = by_flag.sum(axis=1), by_flag[:, 2] + by_flag[:, 3]
    p = r + np.bincount(grp, minlength=n_grp)
    e = by_flag[:, 1] + by_flag[:, 3] + np.bincount(grp[passing_cas], minlength=n_grp)
    w = np.bincount(res[won], minlength=n_grp)
    c = p - w
    # the visits by (group, slot), flags 1 resolves (then 8 * ext), 2 CAS, 4 hi
    flags = ext << 3 | hi.view(np.uint8) << 2 | cas.view(np.uint8) << 1 | 1
    res_key, grp_key = res * _KEY_BASE, grp * _KEY_BASE
    vis = np.concatenate([
        res_key + (slot << 5 | flags), grp_key + (gidx << 5 | passing_cas.view(np.uint8) << 1)
    ])
    vis.sort()
    tally = vis[vis & 1 == 1]  # group * _KEY_BASE + (tally index << 3 | flags)
    cmp = np.concatenate([res_key[~won] + ag.ptr[agent[~won]], grp_key + ag.ptr[owner]])
    cmp.sort()
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
        "global_ld_transactions": wb._sorted_transactions(batch.ht_ptr, vis, n_grp, 5)
        + wb._sorted_word_transactions(batch.reads_buf, cmp, n_grp, k),
        "atomic_transactions": wb._sorted_transactions(batch.ht_ptr, vis[vis & 2 == 2], n_grp, 5)
        + wb._sorted_transactions(batch.ht_total, tally, n_grp, 3)
        + wb._sorted_transactions(batch.ht_hi, tally[tally & 4 == 4], n_grp, 3),
        # every slot CASed in a round gets exactly one winner
        "atomic_conflicts": e - w,
    }
    for name, values in per_group.items():
        acc[name] += _fold(grp_warp, values, acc[name].size)

    # both tallies of the block's agents: one bincount on agent * 4 + ext
    code = agent * 4 + ext
    for tally, codes in ((ag.total, code), (ag.hi, code[hi])):
        tally[:] = np.bincount(codes, minlength=tally.size).reshape(-1, 4)


def _agent_moves(
    batch: DeviceBatch, k: int, ag: _Agents, words, after, index: SortedKmers
) -> np.ndarray:
    """Algorithm 2's decision at every agent of a block, as one int per
    agent (the CPU engine's encoding): ``move >= 0`` appends base
    ``move & 3`` and goes on to agent ``(move >> 2) - 1`` of the same warp
    (-1: absent); ``move < 0`` stops the walk with status ``-1 - move``.
    *words* are the agents' packed k-mers, *after* the agent of the valid
    lane after each first occurrence (the block's last lane's own), and
    *index* the block's lanes by (warp, k-mer), whose runs are its agents.
    """
    cfg = batch.config
    n = ag.slot.size
    verdict = np.full(n, int(WalkStatus.RUNOUT), dtype=np.int64)
    base = np.full(n, -1, dtype=np.int64)
    # Fewer than min_viable lanes: no viable base.  Every lane extending
    # by the first lane's base: that base, the only viable one.
    lanes = ag.total.sum(axis=1)
    some = np.nonzero(lanes >= cfg.min_viable)[0]
    ext = batch.reads_buf.data[ag.ptr[some] + k].astype(np.int64)
    same = ag.total[some, ext] == lanes[some]
    verdict[some[same]] = -1
    base[some[same]] = ext[same]
    mixed = some[~same]
    verdict[mixed], base[mixed] = classify_extensions(
        ag.hi[mixed], ag.total[mixed], cfg.min_viable, cfg.dominance_ratio
    )
    move = -1 - verdict
    # The successor is most often the k-mer of the lane after the first
    # one; the rest are searched for.
    go = np.nonzero(verdict < 0)[0]
    succ_words = successor_kmers(words[go], k, base[go])
    nxt = after[go]
    hit = ag.warp[nxt] == ag.warp[go]
    for w in range(succ_words.shape[1]):
        hit &= words[nxt, w] == succ_words[:, w]
    succ = np.where(hit, nxt, -1).astype(np.int64)  # packed into move below
    miss = np.nonzero(~hit)[0]
    succ[miss] = index.find(succ_words[miss], ag.warp[go[miss]])
    move[go] = (succ + 1) * 4 + base[go]
    return move


def _start_agents(batch: DeviceBatch, k: int, index: SortedKmers, kpos0, warp, a0: int):
    """The agent of each walk's start k-mer ``seq_buf[kpos0 : kpos0 + k]``
    in block warp *warp*, looked up in the block's *index* and numbered
    from the block's first agent *a0*; -1 when it is absent or holds an N."""
    kmers, ok = pack_kmers(batch.seq_buf.data[kpos0[:, None] + cached_arange(k)].ravel(), k)
    run = index.find(kmers[::k], warp)
    return np.where(ok[::k] & (run >= 0), run + a0, -1)


def _build_group_derived(
    wb: WarpBatch, batch: DeviceBatch, rows, tasks_g, k: int, ht_start, slots, seq_off, slen,
):
    """Closed-form table build — resolve, place, account (module
    docstring) — and each agent's move, block by block.  Leaves
    ``ht_ptr`` and every counter exactly as
    :func:`~repro.core.extension_kernel.build_table_v2` would and returns
    what the walk reads (:class:`_Moves`; None when no warp has a valid
    lane).  Blocks are whole warps, so each block's tables are final and
    its agents decided before the next block is resolved."""
    G = rows.size
    plan = _step_rows(batch, tasks_g, k)
    if plan is None:
        return None
    row_warp, load_start, n_act = plan
    warp_rows = np.bincount(row_warp, minlength=G)

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

    warp_lanes = _fold(row_warp, n_act, G)
    block_of_row = ((np.cumsum(warp_lanes) - warp_lanes) // _BLOCK_LANES)[row_warp]
    row_cuts = np.flatnonzero(np.diff(block_of_row, prepend=-1, append=-1))
    ht = batch.ht_ptr.data
    V = batch.vis_slots
    # slots, probe distances and homes are below the widest table
    idx = np.int32 if max(int(slots.max()), V) < 2**31 else np.int64
    start = np.full(G, -1, dtype=np.int64)  # a walk's start agent; -1: none
    kpos0 = seq_off + slen - k  # where each warp's start k-mer begins
    columns = [[] for _ in _Moves._fields[:-1]]  # per block: move, vis_home, home, slot, dist
    n_agents = 0
    for r0, r1 in zip(row_cuts[:-1].tolist(), row_cuts[1:].tolist()):
        rw = row_warp[r0:r1]
        res = _resolve_block(batch, k, load_start[r0:r1], n_act[r0:r1], rw)  # pass 1
        if res is None:
            continue
        agent, ext, hi, row_valid, first, first_row, words, murmur, ptr, index = res
        w0, w1 = int(rw[0]), int(rw[-1]) + 1
        warp = rw[first_row] - w0
        n = first.size
        row_lane0 = np.cumsum(row_valid) - row_valid
        ag = _Agents(
            first=first, warp=warp, base=ht_start[w0:w1], slots=slots[w0:w1],
            home=(murmur % slots[w0:w1][warp]).astype(idx), ptr=ptr,
            step=row_lane0[first_row], dist=np.empty(n, dtype=idx),
            slot=np.empty(n, dtype=np.int64),
            hi=np.empty((n, 4), dtype=np.uint32), total=np.empty((n, 4), dtype=np.uint32),
        )
        _place_agents(ht, ag)  # phase A
        _account_block(wb, batch, k, acc, ag, rw, row_lane0, row_valid, agent, ext, hi)  # pass 2
        ht[ag.slot] = ag.ptr
        after = agent[np.minimum(first + 1, agent.size - 1)]
        move = _agent_moves(batch, k, ag, words, after, index)
        move[move >= 4] += 4 * n_agents  # successors numbered k-group wide
        walks = np.arange(w0, w1)[slen[w0:w1] >= k]
        if walks.size:
            start[walks] = _start_agents(batch, k, index, kpos0[walks], walks - w0, n_agents)
        for col, piece in zip(columns, (move, (murmur % V).astype(idx), ag.home, ag.slot, ag.dist)):
            col.append(piece)
        n_agents += n
    c = wb.counters
    acc["predicated_off"] = acc["warp_inst"] * _LANES - acc["thread_inst"]
    for name, total in acc.items():
        getattr(c, name)[rows] += total
    if not n_agents:
        return None

    def joined(pieces):  # each column's pieces go before the next is joined
        out = np.concatenate(pieces)
        pieces.clear()
        return out

    return _Moves(*map(joined, columns), start=start)


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




def _walk_group_derived(
    wb: WarpBatch, batch: DeviceBatch, rows, k: int, seq_off, slen, ht_start, slots, vis_start,
    moves,
):
    """Closed-form single-lane mer-walks for one k-group.

    A k-mer a walk looks up is either an agent — its main-table probe
    runs from its home to its slot, ``dist + 1`` loads and key compares —
    or absent, which ends the walk after probing the occupied run from its
    home to the first empty slot.  The build has decided every agent and
    found every warp's start agent (*moves*, :class:`_Moves`), so a walk
    is a chain of integer gathers, ``cur = succ[cur]``, and a revisited
    agent is a LOOP.  The visited table is replayed insert by insert (its
    probe lengths depend on the order), logging each step's row, agent,
    visited-table home and probe length; the absent k-mer that ends a
    walk is hashed once, after the appended bases are stored.  The
    counters then come from the logs one access kind at a time — visited
    table, main table, tally gathers — each kind's per-load expansion
    folded into per-row sums and dropped before the next kind is
    expanded.  Leaves ``seq_buf``, ``vis_ptr`` and
    every counter exactly as :func:`~repro.core.extension_kernel.mer_walk_gpu`
    would, and returns its ``(appended, status)`` and the new ``slen``.
    The visited table has ``2 * max_walk_len`` slots, so it never fills.
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
    steps = []  # per step: (rows, agents, visited-table home, probe length)
    loops = []  # the same but agents, for walks back on an agent they visited
    ends = [live]  # rows whose walk meets an absent k-mer
    if moves is not None and live.size:
        move, vis_home = moves.move, moves.vis_home
        vis_len = np.full(move.size, -1, dtype=np.int64)  # -1: not visited
        cur = moves.start[live]
        ends = [live[cur < 0]]
        w, cur = live[cur >= 0], cur[cur >= 0]
        for s in range(cfg.max_walk_len):
            if w.size == 0:
                break
            home = vis_home[cur]
            vl = vis_len[cur]
            back = vl >= 0
            if back.any():
                loops.append((w[back], home[back], vl[back]))
                status[w[back]] = int(WalkStatus.LOOP)
                w, cur, home = w[~back], cur[~back], home[~back]
            vl = _free_run(vis_occ, vis_base[w], home, V)
            vis_occ[vis_base[w] + (home + vl) % V] = s
            vis_len[cur] = vl
            steps.append((w, cur, home, vl))
            m = move[cur]
            stop = m < 0
            if stop.any():
                status[w[stop]] = -1 - m[stop]
                w, m = w[~stop], m[~stop]
            cur = (m >> 2) - 1
            if s + 1 < cfg.max_walk_len:
                ends.append(w[cur < 0])
            w, cur = w[cur >= 0], cur[cur >= 0]
        del vis_len

    def logged(log, width):  # a log's columns, concatenated
        return [np.concatenate(x) for x in zip(*log)] if log else [np.zeros(0, dtype=np.int64)] * width

    st_row, st_ag, st_vhome, st_vl = logged(steps, 4)
    st_step = np.repeat(np.arange(len(steps)), [x[0].size for x in steps])
    lo_row, lo_vhome, lo_vl = logged(loops, 3)
    del steps, loops
    appended = np.zeros(R, dtype=np.int64)
    app_row = app_idx = np.zeros(0, dtype=np.int64)
    st_home = st_dist = st_slot = np.zeros(0, dtype=np.int64)
    if st_row.size:
        st_home, st_dist, st_slot = moves.home[st_ag], moves.dist[st_ag], moves.slot[st_ag]
        m = moves.move[st_ag]
        app = np.nonzero(m >= 0)[0]
        app_row = st_row[app]
        appended = _fold(app_row, None, R)
        app_idx = seq_off[app_row] + slen[app_row] + st_step[app]
        wb._strict_check(batch.seq_buf, app_idx, "store_lane0")
        sdata[app_idx] = m[app] & 3
    del st_ag, st_step
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
    taken = np.nonzero(vis_occ != EMPTY_PTR)[0]
    t_row = taken // V
    batch.vis_ptr.data[vis_start[t_row] + taken % V] = kpos0[t_row] + vis_occ[taken]
    del taken, t_row

    # -- every counter, one access kind at a time -----------------------------
    def per_row(row_of, values=None):
        return _fold(row_of, values, R)

    def elem_sectors(darr, row_of, idx):
        one = wb._single_element_transactions(darr, idx)
        return per_row(row_of, np.broadcast_to(one, idx.shape))

    def probes(darr, row, base, home, size, n_load, n_cmp, keys, key_ptr):
        """Per row: the loads of ``n_load`` slots from each probe's home
        in ``darr[base : base + size]``, the key compares at the first
        ``n_cmp`` of them, and their sectors (the keys' in *keys*).  The
        per-load expansion lives only inside this call."""
        j = _within(n_load)
        l_row = np.repeat(row, n_load)
        pos = (np.repeat(home, n_load) + j) % np.repeat(size, n_load)
        l_idx = np.repeat(base, n_load) + pos
        wb._strict_check(darr, l_idx, "load_lane0")
        cmp = np.nonzero(j < np.repeat(n_cmp, n_load))[0]
        c_row = l_row[cmp]
        c_sectors = wb._lane0_span_sectors(keys, key_ptr(c_row, pos[cmp], l_idx[cmp]), k)
        return (
            per_row(l_row), per_row(c_row),
            elem_sectors(darr, l_row, l_idx) + per_row(c_row, c_sectors),
        )

    # visited table: walk steps and ends insert (the first n_ins visits), a
    # LOOP finds its agent; each loads up to the free or equal slot and
    # compares keys with the walk k-mer each occupied one holds (a LOOP's
    # last compare is the equal one), and an insert is one CAS
    v_row = np.concatenate([st_row, e_row, lo_row])
    v_home = np.concatenate([st_vhome, e_vhome, lo_vhome])
    v_len = np.concatenate([st_vl, e_vl, lo_vl])
    n_ins = st_row.size + e_row.size
    v_loads, v_cmp, v_sectors = probes(
        batch.vis_ptr, v_row, vis_start[v_row], v_home, np.broadcast_to(V, v_row.shape),
        v_len + 1, v_len + (np.arange(v_row.size) >= n_ins), batch.seq_buf,
        lambda r, pos, _: kpos0[r] + vis_occ[vis_base[r] + pos],
    )
    ins = v_row[:n_ins]
    cas_idx = vis_start[ins] + (v_home[:n_ins] + v_len[:n_ins]) % V
    wb._strict_check(batch.vis_ptr, cas_idx, "atomic_cas_lane0")
    hashes, v_branch, cas = per_row(v_row), per_row(v_row, v_len), per_row(ins)
    cas_sectors = elem_sectors(batch.vis_ptr, ins, cas_idx)
    del vis_occ, v_row, v_home, v_len, ins, cas_idx
    # main table: an agent's probe ends on its slot, dist + 1 loads and
    # compares; an absent k-mer's compares at each occupied slot and loads
    # the first empty one (none when its region is full)
    m_row = np.concatenate([st_row, e_row])
    m_loads, m_cmp, m_sectors = probes(
        batch.ht_ptr, m_row, ht_start[m_row], np.concatenate([st_home, e_home]), slots[m_row],
        np.concatenate([st_dist + 1, e_run + (e_run < slots[e_row])]),
        np.concatenate([st_dist + 1, e_run]), batch.reads_buf,
        lambda r, pos, idx: batch.ht_ptr.data[idx],
    )
    m_branch = per_row(st_row, st_dist) + per_row(e_row, e_run)
    # the tally gathers: two 16-byte rows + 8 ops per classified step
    classified = per_row(st_row)
    t_sectors = per_row(
        st_row,
        wb._lane0_span_sectors(batch.ht_hi, st_slot * 16, 16)
        + wb._lane0_span_sectors(batch.ht_total, st_slot * 16, 16),
    )
    loads, compares, branches = v_loads + m_loads, v_cmp + m_cmp, v_branch + m_branch
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
    c.global_ld_transactions[rows] += v_sectors + m_sectors + t_sectors
    c.atomic_inst[rows] += cas
    c.atomic_transactions[rows] += cas_sectors
    c.global_st_inst[rows] += appended
    c.global_st_transactions[rows] += elem_sectors(batch.seq_buf, app_row, app_idx)
    c.local_st_inst[rows] += appended
    c.local_transactions[rows] += appended
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
        # Warps shift k independently; each round runs one batched
        # clear/build/walk per distinct live mer size.  (A bare np.unique
        # would import numpy.ma into the run.)
        for kv in sorted(set(k_live.tolist())):
            g = live[k_live == kv]
            _clear_group(wb, batch, g, ht_start[g], slots[g], vis_start[g])
            moves = _build_group_derived(
                wb, batch, g, t_arr[g], kv, ht_start[g], slots[g], seq_off[g], slen[g]
            )
            # Build-to-walk barrier, matching the sequential kernel's
            # warp.sync() between build_fn and mer_walk_gpu.
            wb.sync_op(g, _LANES)
            app, st, new_slen = _walk_group_derived(
                wb, batch, g, kv, seq_off[g], slen[g], ht_start[g], slots[g],
                vis_start[g], moves,
            )
            del moves  # not alive through the next group's build
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
