"""Alignment stage: map reads onto contigs, recruit contig-end candidates.

This stage feeds the paper's local assembly: "the reads that align to the
ends of contigs are then used for extending the contigs in both directions"
(§2.2).  It also produces the per-read placements the scaffolder uses.

Method (seed-and-extend, as in MHM2's klign) — fully batched:

1. pack every ``seed_len``-mer of every contig into sorted uint64 rows
   (:class:`PackedSeedIndex`, the same 2-bit layout as
   :class:`~repro.pipeline.kmer_counts.KmerSpectrum`);
2. extract all seeds of all reads — both strands — in **one** windowing
   pass over the concatenated base array, look them up with one
   ``searchsorted`` pair, and expand the hit ranges to
   ``(read, strand, contig, diagonal)`` candidates;
3. dedup candidates per (read, strand) diagonal with one ``lexsort`` and
   score every survivor with the batched ungapped kernel
   (:func:`repro.pipeline.aln_kernel.ungapped_align_batch`); keep
   alignments above identity and overlap thresholds;
4. a read whose projection hangs off a contig edge becomes a *candidate
   read* for that end, stored pre-oriented so local assembly can treat
   every extension as "extend rightward":

   * right end: read oriented to contig strand;
   * left end: reverse complement of that (because local assembly extends
     the left end by walking right on the reverse-complemented contig).

Each end keeps at most ``max_reads_per_end`` candidates — the paper's
empirical cap of 3000 (§3.1).

The result stays arrays from seed index to extension task
(:class:`AlignmentResult`): the winner rows, a per-(contig, end) CSR of
recruited oriented reads and one gather of their bases and quals, which
each end's :class:`CandidateReads` slices as the packed triple local
assembly stages.  No step builds an object per alignment row.

The per-read scalar aligner this replaced (``align_reads_scalar`` with its
dict ``SeedIndex``) and the per-row object path after it live in
``tests/pipeline/reference.py``: the batched path must match them **bit for
bit** — same alignments, same ``n_seed_hits``, same candidate reads in the
same order, same best placements — which
``tests/pipeline/test_alignment_batched.py`` and
``tests/pipeline/test_alignment_arrays.py`` enforce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.perf import HostProfiler
from repro.pipeline.aln_kernel import ungapped_align_batch
from repro.sequence.contigs import ContigSet
from repro.sequence.dna import revcomp_codes
from repro.sequence.kmer import pack_kmers, rows_as_keys, words_per_kmer
from repro.sequence.read import ReadBatch

__all__ = [
    "ReadAlignment",
    "CandidateReads",
    "ContigCandidates",
    "AlignmentResult",
    "BestPlacements",
    "PackedSeedIndex",
    "AlnRows",
    "align_reads",
    "align_core",
    "materialise_alignment",
    "recruit_flags",
]

#: The paper's empirical upper limit on candidate reads per contig end.
MAX_READS_PER_END = 3000

#: shared disabled profiler — `with _NULL_PROFILER.phase(...)` is a no-op.
_NULL_PROFILER = HostProfiler(enabled=False)


@dataclass(frozen=True)
class ReadAlignment:
    """One alignment row as an object, as the lazy
    :attr:`AlignmentResult.alignments` view lists them."""

    read_idx: int
    cid: int
    #: contig coordinate of oriented-read position 0 (may be negative)
    offset: int
    #: True when the read aligned as its reverse complement
    is_rc: bool
    matches: int
    mismatches: int
    ov_len: int

    @property
    def identity(self) -> float:
        return self.matches / self.ov_len if self.ov_len else 0.0


@dataclass(eq=False, slots=True)
class CandidateReads:
    """Candidate reads of one contig end, pre-oriented for extension.

    Packed as ``(bases, quals, lengths)`` — the triple
    :meth:`~repro.core.tasks.ExtensionTask.packed_reads` returns: read *i*
    is the next ``lengths[i]`` entries of ``bases``/``quals``.
    """

    bases: np.ndarray
    quals: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return int(self.lengths.size)


@dataclass(eq=False, slots=True)
class ContigCandidates:
    """Per-contig recruitment for local assembly."""

    cid: int
    left: CandidateReads
    right: CandidateReads

    @property
    def n_reads(self) -> int:
        return len(self.left) + len(self.right)


@dataclass(frozen=True, eq=False)
class BestPlacements:
    """Each read's best placement, as per-read columns.

    The best row of a read has the highest ``matches``, ties going to the
    first row in emission order.  ``row`` is its index in the source rows;
    a read that did not align has ``row`` and ``cid`` -1.  The consumers
    (:func:`~repro.pipeline.insert_size.estimate_insert_size`,
    :func:`~repro.pipeline.scaffolding.build_scaffolds`) read mate pairs
    ``(2p, 2p+1)`` through :meth:`mates`.
    """

    row: np.ndarray
    cid: np.ndarray
    offset: np.ndarray
    is_rc: np.ndarray

    def __len__(self) -> int:
        return int(self.row.size)

    @classmethod
    def from_rows(cls, rows: "AlnRows", n_reads: int) -> "BestPlacements":
        """Per-read winners of emission-ordered *rows*, one reduction pass."""
        row = np.full(n_reads, -1, dtype=np.int64)
        if len(rows):
            head = np.ones(len(rows), dtype=bool)
            head[1:] = rows.read[1:] != rows.read[:-1]
            start = np.nonzero(head)[0]
            run_len = np.diff(np.append(start, head.size))
            at_max = rows.matches == np.repeat(
                np.maximum.reduceat(rows.matches, start), run_len
            )
            idx = np.arange(head.size, dtype=np.int64)
            row[rows.read[start]] = np.minimum.reduceat(
                np.where(at_max, idx, head.size), start
            )
        placed = row >= 0
        at = row[placed]
        cid = np.full(n_reads, -1, dtype=np.int64)
        offset = np.zeros(n_reads, dtype=np.int64)
        is_rc = np.zeros(n_reads, dtype=bool)
        cid[placed] = rows.cid[at]
        offset[placed] = rows.offset[at]
        is_rc[placed] = rows.is_rc[at]
        return cls(row, cid, offset, is_rc)

    def mates(self, n_pairs: int) -> tuple[np.ndarray, ...]:
        """``(cid_a, cid_b, offset_a, offset_b, rc_a, rc_b)`` of the mates
        ``2p`` (a) and ``2p + 1`` (b) of every pair ``p < n_pairs``."""
        out: list[np.ndarray] = []
        for col in (self.cid, self.offset, self.is_rc):
            pairs = col[: 2 * n_pairs].reshape(n_pairs, 2)
            out += [pairs[:, 0], pairs[:, 1]]
        return tuple(out)


@dataclass(eq=False)
class AlignmentResult:
    """The alignment stage's output as flat arrays.

    * ``rows`` — every winner alignment, in emission order;
    * ``end_start`` — a CSR over contig ends: end ``e = 2 * s + side`` of
      contig slot *s* (``cids[s]``; side 0 = left, 1 = right) owns
      candidates ``end_start[e] : end_start[e + 1]``, in row order;
    * ``cand_read`` — each candidate's oriented read id, ``2 * read +
      flip`` (``flip`` = stored reverse-complemented);
    * ``cand_bases`` / ``cand_quals`` / ``cand_lengths`` — one gather of
      every candidate's oriented bases and quals, in CSR order.

    ``candidates`` views the CSR one contig at a time, which is what local
    assembly consumes; ``alignments`` is a per-row object list for tests.
    """

    rows: "AlnRows"
    n_reads: int
    cids: np.ndarray
    end_start: np.ndarray
    cand_read: np.ndarray
    cand_bases: np.ndarray
    cand_quals: np.ndarray
    cand_lengths: np.ndarray
    candidates: dict[int, ContigCandidates] = field(init=False)

    def __post_init__(self) -> None:
        bstart = np.zeros(self.cand_lengths.size + 1, dtype=np.int64)
        np.cumsum(self.cand_lengths, out=bstart[1:])
        e = self.end_start.tolist()
        b = bstart[self.end_start].tolist()

        def end(i: int) -> CandidateReads:
            return CandidateReads(
                self.cand_bases[b[i] : b[i + 1]],
                self.cand_quals[b[i] : b[i + 1]],
                self.cand_lengths[e[i] : e[i + 1]],
            )

        self.candidates = {
            cid: ContigCandidates(cid, end(2 * s), end(2 * s + 1))
            for s, cid in enumerate(self.cids.tolist())
        }

    @property
    def n_reads_aligned(self) -> int:
        return self.rows.n_reads_aligned

    @property
    def n_seed_hits(self) -> int:
        return self.rows.n_seed_hits

    @property
    def alignments(self) -> list[ReadAlignment]:
        """Every row as a :class:`ReadAlignment`, built on each access."""
        r = self.rows
        return [
            ReadAlignment(*t)
            for t in zip(
                r.read.tolist(),
                r.cid.tolist(),
                r.offset.tolist(),
                r.is_rc.tolist(),
                r.matches.tolist(),
                r.mismatches.tolist(),
                r.ov_len.tolist(),
            )
        ]

    def best_by_read(self) -> BestPlacements:
        """Best placement per read (highest matches, ties to the first row)."""
        return BestPlacements.from_rows(self.rows, self.n_reads)


#: Bits of the seed key used for the direct-address bucket table.
_BUCKET_BITS = 16
_BUCKET_BITS_MAX = 22


def _run_ends(keys: np.ndarray) -> np.ndarray:
    """For sorted *keys*, the one-past-the-end index of each row's run."""
    t = keys.size
    if t == 0:
        return np.empty(0, dtype=np.int64)
    head = np.ones(t, dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    starts = np.nonzero(head)[0]
    ends = np.append(starts[1:], t)
    return np.repeat(ends, np.diff(np.append(starts, t)))


class PackedSeedIndex:
    """Sorted packed-word seed table over a contig set.

    Every valid ``seed_len``-window of every contig becomes one row of a
    ``(n_seeds, words_per_kmer(seed_len))`` uint64 table (2-bit packed,
    the :class:`~repro.pipeline.kmer_counts.KmerSpectrum` layout), sorted
    by (seed, contig slot, position).  Lookups are two ``searchsorted``
    calls over the whole query block; the hit list of a seed is a
    contiguous slice enumerating (contig insertion order, position
    ascending) — exactly the order the legacy dict produced.

    The index is five flat arrays (``words``, ``slot``, ``pos``,
    ``cbases``, ``coff``) plus the slot→cid map; the last two and the map
    are the contig set's own ``codes``, ``offsets`` and ``cids``.
    Alignment ranks never rebuild or receive it: they are forked after it
    is built and read the parent's copy.
    """

    def __init__(self, contigs: ContigSet, seed_len: int = 17) -> None:
        if seed_len < 8:
            raise ValueError("seed_len must be >= 8")
        self.seed_len = seed_len
        self.cids = contigs.cids
        self.cbases = contigs.codes
        self.coff = contigs.offsets
        nw = words_per_kmer(seed_len)
        n_win = self.cbases.size - seed_len + 1
        if n_win <= 0 or self.cids.size == 0:
            self.words = np.empty((0, nw), dtype=np.uint64)
            self.slot = np.empty(0, dtype=np.int32)
            self.pos = np.empty(0, dtype=np.int32)
            self._keys = rows_as_keys(self.words)
            self._run_end = np.empty(0, dtype=np.int64)
            self._build_buckets()
            return
        words, no_n = pack_kmers(self.cbases, seed_len)
        slot_of_base = np.repeat(
            np.arange(self.cids.size, dtype=np.int64), np.diff(self.coff)
        )
        win_slot = slot_of_base[:n_win]
        same = win_slot == slot_of_base[seed_len - 1 :]
        pos = np.arange(n_win, dtype=np.int64) - self.coff[win_slot]
        sel = np.nonzero(no_n & same)[0]
        # Windows arrive in (slot, pos) order, so one stable sort on the
        # seed alone leaves every run of equal seeds in (slot, pos) order.
        picked = sel[np.argsort(rows_as_keys(words[sel]), kind="stable")]
        self.words = np.ascontiguousarray(words[picked])
        # int32 columns: seed hits gather these per hit, and the narrower
        # rows halve the expansion phase's memory traffic.
        self.slot = win_slot[picked].astype(np.int32)
        self.pos = pos[picked].astype(np.int32)
        self._keys = rows_as_keys(self.words)
        self._run_end = _run_ends(self._keys)
        self._build_buckets()

    def _build_buckets(self) -> None:
        """Distinct-key table + direct-address buckets over its top bits.

        The searchable array holds each *distinct* seed once
        (``_dkeys``, sentinel-padded), with ``_dstart[i]`` the start of
        key *i*'s run in the full table (``_dstart[i+1]`` its end).
        ``_bstart[b]`` bounds bucket *b* of the distinct array, so a
        query binary-searches only the handful of distinct keys sharing
        its top ``_BUCKET_BITS`` bits — ~3 probe levels on cache-warm
        rows instead of ~19 over the whole table.  Only built for
        single-word keys; multi-word (S-dtype) keys fall back to full
        ``searchsorted``.
        """
        if self._keys.dtype != np.uint64:
            self._bstart = None
            return
        t = self._keys.size
        if t == 0:
            dkeys = np.empty(0, dtype=np.uint64)
            dstart = np.zeros(1, dtype=np.int64)
        else:
            head = np.ones(t, dtype=bool)
            head[1:] = self._keys[1:] != self._keys[:-1]
            start = np.nonzero(head)[0]
            dkeys = self._keys[start]
            dstart = np.append(start, t)
        self._dkeys = np.append(dkeys, np.uint64(0xFFFFFFFFFFFFFFFF))
        # One pad entry beyond the sentinel slot so ``_dstart[pos + 1]``
        # is in bounds even when a query lands on the sentinel.  int32
        # bounds (the table always fits): the per-query gathers below are
        # random-access, so narrower rows mean fewer cache misses.
        self._dstart = np.append(dstart, dstart[-1]).astype(np.int32)
        self._n_distinct = int(dkeys.size)
        # Oversubscribe buckets ~8x over the distinct keys (capped) so the
        # expected bucket holds 0-1 keys and the search needs ~1-2 rounds.
        bits = _BUCKET_BITS
        while bits < _BUCKET_BITS_MAX and (1 << bits) < 8 * dkeys.size:
            bits += 1
        self._bucket_bits = bits
        # bucket b starts after every distinct key whose top bits are < b
        top = (dkeys >> np.uint64(64 - bits)).astype(np.int64)
        widths = np.bincount(top, minlength=1 << bits)
        self._bstart = np.zeros(widths.size + 1, dtype=np.int32)
        np.cumsum(widths, out=self._bstart[1:])
        self._bucket_width = int(widths.max(initial=0))
        self._bucket_rounds = max(self._bucket_width, 1).bit_length()

    def lookup_ranges(self, qwords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) table ranges of each query row; hits are
        ``slot[lo:hi]`` / ``pos[lo:hi]`` in canonical order.

        Each query resolves to its run start (bucketed search for
        single-word keys, plain left-``searchsorted`` otherwise); the run
        *end* is a precomputed gather (``_run_end``), so misses fall out
        as ``hi == lo`` without a second binary search.
        """
        qkeys = rows_as_keys(qwords)
        t = self._keys.size
        if t == 0:
            z = np.zeros(qkeys.size, dtype=np.int64)
            return z, z
        if self._bstart is None:
            lo = np.searchsorted(self._keys, qkeys, side="left")
            at = np.minimum(lo, t - 1)
            hit = self._keys[at] == qkeys
            return lo, np.where(hit, self._run_end[at], lo)
        # Bucketed search over the distinct keys, bounded per query by its
        # direct-address bucket, with no per-round activity mask (the
        # sentinel pad makes converged lanes self-stabilising).  The two
        # scratch buffers are reused across rounds — fresh query-sized
        # temporaries cost a page-fault sweep each at this size.
        dkeys = self._dkeys
        qb = (qkeys >> np.uint64(64 - self._bucket_bits)).view(np.int64)
        pos = self._bstart[qb]
        kbuf = np.empty(qkeys.size, dtype=np.uint64)
        cbuf = np.empty(qkeys.size, dtype=bool)
        if self._bucket_width <= 6:
            # Narrow buckets: advance while dkeys[pos] < q — no hi bound
            # needed (the next bucket's keys exceed q's bucket prefix, so
            # the walk self-terminates).  Buckets are ~8x oversubscribed,
            # so the first probe settles almost every lane: its equality
            # doubles as the hit test, and only the still-less lanes are
            # compressed to a dense subset that finishes the walk (and
            # redoes its equality) at subset cost.
            np.take(dkeys, pos, out=kbuf)
            np.less(kbuf, qkeys, out=cbuf)
            eq = kbuf == qkeys
            if self._bucket_width > 1 and cbuf.any():
                act = np.nonzero(cbuf)[0]
                qa = qkeys[act]
                pa = pos[act]
                pa += 1
                for _ in range(self._bucket_width - 1):
                    adv = dkeys[pa] < qa
                    if not adv.any():
                        break
                    pa += adv
                pos[act] = pa
                eq[act] = dkeys[pa] == qa
            cbuf = eq
        else:
            qb += 1
            hi = self._bstart[qb]
            for _ in range(self._bucket_rounds):
                mid = (pos + hi) >> 1
                np.take(dkeys, mid, out=kbuf)
                np.less(kbuf, qkeys, out=cbuf)
                pos = np.where(cbuf, mid + 1, pos)
                hi = np.where(cbuf, hi, mid)
            np.take(dkeys, pos, out=kbuf)
            np.equal(kbuf, qkeys, out=cbuf)
        if self.seed_len == 32:
            # Only a 32-mer can pack to the all-ones sentinel value; for
            # shorter seeds the low pad bits are zero and the extra guard
            # pass is dead weight.
            cbuf &= pos < self._n_distinct
        # Gather run bounds for hit lanes only; misses report the empty
        # range (0, 0), which is all any caller consumes (``hi - lo``).
        hit = np.nonzero(cbuf)[0]
        lo = np.zeros(qkeys.size, dtype=np.int64)
        hi = np.zeros(qkeys.size, dtype=np.int64)
        ph = pos[hit]
        lo[hit] = self._dstart[ph]
        ph += 1
        hi[hit] = self._dstart[ph]
        return lo, hi

    def __len__(self) -> int:
        return int(self.slot.size)


# --------------------------------------------------------------------------
# Batched path
# --------------------------------------------------------------------------


@dataclass
class AlnRows:
    """Winner alignments as flat arrays, in global emission order.

    One row per (read, contig) winner, sorted by (``read`` ascending,
    ``seq_in_read`` ascending) — the exact order the scalar reference
    emits :class:`ReadAlignment` objects.  ``seq_in_read`` is the rank of
    the row within its read's emission (0, 1, 2, …), which makes the
    order reconstructible after rows have been scattered across ranks
    and merged back.
    """

    read: np.ndarray
    seq_in_read: np.ndarray
    cid: np.ndarray
    offset: np.ndarray
    is_rc: np.ndarray
    matches: np.ndarray
    mismatches: np.ndarray
    ov_len: np.ndarray
    n_seed_hits: int
    n_reads_aligned: int

    def __len__(self) -> int:
        return int(self.read.size)

    @staticmethod
    def empty(n_seed_hits: int = 0) -> "AlnRows":
        z = np.empty(0, dtype=np.int64)
        return AlnRows(z, z, z, z, z.astype(bool), z, z, z, n_seed_hits, 0)


def _oriented_layout(reads: ReadBatch) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated oriented bases plus per-unit offsets.

    Unit ``u < n`` is read *u* forward; the reverse-complement section is
    one global ``revcomp_codes`` of the whole base array, which reverses
    read order — unit ``n + j`` is the rc of read ``n - 1 - j``, i.e. the
    rc of read *i* is unit ``2n - 1 - i``.  The same global reversal of
    the quals gives every unit its oriented quals.
    """
    off = reads.offsets.astype(np.int64)
    nb = int(off[-1])
    big = np.concatenate([reads.bases, revcomp_codes(reads.bases)])
    uoff = np.concatenate([off[:-1], nb + nb - off[::-1]])
    return big, uoff


def align_core(
    index: PackedSeedIndex,
    reads: ReadBatch,
    read_seed_stride: int = 8,
    min_identity: float = 0.9,
    min_overlap: int = 30,
    read_base: int = 0,
    profile: "HostProfiler | None" = None,
) -> AlnRows:
    """Seed, dedup, score and select winners — all as array passes.

    *read_base* is added to every emitted read index, so a rank holding a
    contiguous shard of a larger batch reports global read ids.
    *profile*, if given, records the :data:`repro.perf.ALN_PHASES` phase
    breakdown.
    """
    prof = profile if profile is not None else _NULL_PROFILER
    n = len(reads)
    seed_len = index.seed_len
    big, uoff = _oriented_layout(reads)
    if n == 0 or big.size < seed_len or len(index) == 0:
        return AlnRows.empty()

    # 1) every seed of every read, both strands, one windowing pass
    with prof.phase("aln_seed"):
        words, no_n = pack_kmers(big, seed_len)
        ulens = np.diff(uoff)
        # int32 unit ids: halves the repeat/compare traffic of the three
        # n_win-sized passes below (2n units always fit)
        unit_of_base = np.repeat(np.arange(2 * n, dtype=np.int32), ulens)
        n_win = big.size - seed_len + 1
        win_unit = unit_of_base[:n_win]
        same_unit = win_unit == unit_of_base[seed_len - 1 :]
        # int32 window positions (repeat of unit starts — no gather)
        rpos = np.arange(n_win, dtype=np.int32)
        rpos -= np.repeat(uoff.astype(np.int32)[:-1], ulens)[:n_win]
        valid = no_n & same_unit
        if read_seed_stride > 1:
            valid &= rpos % read_seed_stride == 0
        n_valid = int(np.count_nonzero(valid))
    if n_valid == 0:
        return AlnRows.empty()

    # 2) batched lookup + range expansion to individual hits
    with prof.phase("aln_lookup"):
        dense = n_valid * 10 >= n_win * 9
        if dense:
            # Nearly every window is a query (stride 1) — look them all
            # up and mask, instead of paying the index build + big gather
            # of words[widx] (widx itself is a 3M-row temporary here).
            lo, hi = index.lookup_ranges(words)
            cnt = hi - lo
            if n_valid != n_win:
                cnt *= valid
        else:
            widx = np.nonzero(valid)[0]
            lo, hi = index.lookup_ranges(words[widx])
            cnt = hi - lo
        m = int(cnt.sum())
    if m == 0:
        return AlnRows.empty()
    with prof.phase("aln_expand"):
        whit = np.nonzero(cnt)[0]
        cnt_h = cnt[whit]
        hit_w = whit if dense else widx[whit]
        w_unit = win_unit[hit_w]
        w_rpos = rpos[hit_w]
        w_of_hit = np.repeat(np.arange(cnt_h.size, dtype=np.int64), cnt_h)
        ends = np.cumsum(cnt_h)
        # one fused repeat: table start minus run start, then +arange
        hit_idx = np.repeat(lo[whit] - ends + cnt_h, cnt_h)
        hit_idx += np.arange(m, dtype=np.int64)
        h_slot = index.slot[hit_idx]
        h_cpos = index.pos[hit_idx]
        h_unit = w_unit[w_of_hit]
        h_rpos = w_rpos[w_of_hit]
        diag = h_cpos - h_rpos

        # Encounter rank of every hit — O(m), no sort.  The scalar loops
        # visit hits as (read asc, fwd before rc, rpos asc, table order).
        # Natural hit order here is unit-ascending (fwd units are reads
        # ascending; rc units are reads DESCENDING) with the within-unit
        # order (rpos asc, table order) already equal to the encounter
        # order, so the rank is a per-unit encounter base plus the
        # within-unit position.
        cnt_u = np.bincount(h_unit, minlength=2 * n)
        ustart = np.cumsum(cnt_u) - cnt_u  # natural start of each unit
        units = np.arange(2 * n, dtype=np.int64)
        g_of_unit = np.where(units < n, 2 * units, 2 * (2 * n - 1 - units) + 1)
        s_g = np.zeros(2 * n, dtype=np.int64)
        s_g[g_of_unit] = cnt_u
        enc_base = (np.cumsum(s_g) - s_g)[g_of_unit]  # encounter start
        enc = (enc_base - ustart)[h_unit] + np.arange(m, dtype=np.int64)

    # 3) dedup: first encounter of each (read, strand, contig, diagonal).
    # Each dedup group lives inside one oriented unit, and within a unit
    # the natural order IS the encounter order — so one stable sort on a
    # composite (unit, slot, diagonal) key leaves the scalar's "first
    # kept" hit as each run head.
    with prof.phase("aln_dedup"):
        dmin = int(diag.min())
        dspan = int(diag.max()) - dmin
        ubits = max(2 * n - 1, 1).bit_length()
        sbits = max(int(h_slot.max(initial=0)), 1).bit_length()
        dbits = max(dspan, 1).bit_length()
        if ubits + sbits + dbits <= 63:
            key = (
                (h_unit.astype(np.uint64) << np.uint64(sbits + dbits))
                | (h_slot.astype(np.uint64) << np.uint64(dbits))
                | (diag - dmin).astype(np.uint64)
            )
            ord2 = np.argsort(key, kind="stable")
            k2 = key[ord2]
            head = np.ones(m, dtype=bool)
            head[1:] = k2[1:] != k2[:-1]
        else:  # composite key would overflow — sort the columns
            ord2 = np.lexsort((diag, h_slot, h_unit))
            un2, sl2, dg2 = h_unit[ord2], h_slot[ord2], diag[ord2]
            head = np.ones(m, dtype=bool)
            head[1:] = (
                (un2[1:] != un2[:-1])
                | (sl2[1:] != sl2[:-1])
                | (dg2[1:] != dg2[:-1])
            )
        idx_d = ord2[head]  # surviving hits, as natural indices

    # 4) score all surviving diagonals in one batch
    with prof.phase("aln_score"):
        slot_d = h_slot[idx_d]
        unit_d = h_unit[idx_d]
        diag_d = diag[idx_d]
        enc_d = enc[idx_d]
        ov_start, ov_end, matches = ungapped_align_batch(
            index.cbases, index.coff, big, uoff, slot_d, unit_d, diag_d
        )
        ov_len = ov_end - ov_start
        identity = np.where(ov_len > 0, matches / np.maximum(ov_len, 1), 0.0)
        ok = (ov_len >= min_overlap) & (identity >= min_identity)
    if not np.any(ok):
        return AlnRows.empty(n_seed_hits=m)

    with prof.phase("aln_select"):
        p_enc = enc_d[ok]
        p_unit = unit_d[ok]
        p_read = np.where(p_unit < n, p_unit, 2 * n - 1 - p_unit)
        p_rc = p_unit >= n
        p_slot = slot_d[ok]
        p_diag = diag_d[ok]
        p_match = matches[ok]
        p_ov = ov_len[ok]

        # winner per (read, contig): max matches, ties to earliest
        # encounter (the scalar dict replaces only on strictly-greater)
        ord3 = np.lexsort((p_enc, p_slot, p_read))
        r3, s3, e3, m3 = p_read[ord3], p_slot[ord3], p_enc[ord3], p_match[ord3]
        ghead = np.ones(r3.size, dtype=bool)
        ghead[1:] = (r3[1:] != r3[:-1]) | (s3[1:] != s3[:-1])
        gstart = np.nonzero(ghead)[0]
        gid = np.cumsum(ghead) - 1
        gmax = np.maximum.reduceat(m3, gstart)
        at_max = np.where(m3 == gmax[gid], np.arange(r3.size), r3.size)
        gwin = np.minimum.reduceat(at_max, gstart)

        # emission order: reads ascending, then by the first *passing*
        # encounter per contig (scalar dict insertion order)
        first_enc = e3[gstart]
        g_read = r3[gstart]
        gorder = np.lexsort((first_enc, g_read))
        win = gwin[gorder]
        gr = g_read[gorder]
        rhead = np.ones(gr.size, dtype=bool)
        rhead[1:] = gr[1:] != gr[:-1]
        rstart = np.nonzero(rhead)[0]
        run_len = np.diff(np.append(rstart, gr.size))
        seq_in_read = np.arange(gr.size, dtype=np.int64) - np.repeat(rstart, run_len)

    win_ov = p_ov[ord3][win]
    win_match = m3[win]
    return AlnRows(
        read=gr.astype(np.int64) + read_base,
        seq_in_read=seq_in_read,
        cid=index.cids[s3[win]],
        offset=p_diag[ord3][win].astype(np.int64),
        is_rc=p_rc[ord3][win],
        matches=win_match,
        mismatches=win_ov - win_match,
        ov_len=win_ov,
        n_seed_hits=m,
        n_reads_aligned=int(rhead.sum()),
    )


def _cap_mask(cids: np.ndarray, want: np.ndarray, cap: int) -> np.ndarray:
    """Keep the first *cap* wanted rows per cid, in row order."""
    keep = np.zeros(cids.size, dtype=bool)
    idx = np.nonzero(want)[0]
    if idx.size == 0 or cap <= 0:
        return keep
    order = np.argsort(cids[idx], kind="stable")
    c = cids[idx][order]
    head = np.ones(c.size, dtype=bool)
    head[1:] = c[1:] != c[:-1]
    start = np.nonzero(head)[0]
    run_len = np.diff(np.append(start, c.size))
    nth = np.arange(c.size, dtype=np.int64) - np.repeat(start, run_len)
    keep[idx[order[nth < cap]]] = True
    return keep


def recruit_flags(
    rows: AlnRows,
    read_lengths: np.ndarray,
    contig_len_of: np.ndarray,
    max_reads_per_end: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Which emission rows become left/right end candidates.

    *rows* must be in emission order (as :func:`align_core` returns, or a
    merge sorted by ``(read, seq_in_read)``); ``contig_len_of`` is a dense
    cid→length array.  Exactness of the per-end cap requires the caller
    to hold *all* rows of each cid it flags — true for the single-process
    path and for the owner rank of a cid in the ranked exchange.
    """
    rlen = read_lengths[rows.read]
    clen = contig_len_of[rows.cid]
    want_left = rows.offset < 0
    want_right = rows.offset + rlen > clen
    return (
        _cap_mask(rows.cid, want_left, max_reads_per_end),
        _cap_mask(rows.cid, want_right, max_reads_per_end),
    )


def _gather_oriented(
    reads: ReadBatch, read: np.ndarray, flip: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bases, quals and lengths of reads *read*, concatenated in order;
    where *flip* is set a read is reverse-complemented (quals reversed).

    Each is one unit of the oriented layout, so the gather is one index
    pass.  When every read has one length — true of every fixed-length
    sequencing run, so of every benchmark workload — the layout is a 2-D
    array and the gather copies whole rows instead: on the seed-7
    ``arctic_cpu`` run that halves ``materialise`` (see EXPERIMENTS.md).
    """
    n = len(reads)
    big, uoff = _oriented_layout(reads)
    big_quals = np.concatenate([reads.quals, reads.quals[::-1]])
    unit = np.where(flip, 2 * n - 1 - read, read)
    ulen = np.diff(uoff)
    lengths = ulen[unit]
    if n and (ulen == ulen[0]).all():
        shape = (2 * n, int(ulen[0]))
        return (
            big.reshape(shape)[unit].ravel(),
            big_quals.reshape(shape)[unit].ravel(),
            lengths,
        )
    idx = np.repeat(uoff[unit] - (np.cumsum(lengths) - lengths), lengths)
    idx += np.arange(idx.size, dtype=np.int64)
    return big[idx], big_quals[idx], lengths


def materialise_alignment(
    rows: AlnRows,
    contigs: ContigSet,
    reads: ReadBatch,
    max_reads_per_end: int = MAX_READS_PER_END,
    recruit_left: np.ndarray | None = None,
    recruit_right: np.ndarray | None = None,
) -> AlignmentResult:
    """Turn emission-ordered winner rows into an :class:`AlignmentResult`.

    Recruited rows are filed under their contig end in row order, and every
    candidate's oriented bases and quals come out of one gather from
    *reads*: a right-end candidate is the read as aligned, a left-end one
    its reverse complement.  When *recruit_left*/*recruit_right* are given
    (the ranked path, where owner ranks applied the caps), they are used
    as-is.
    """
    cids = contigs.cids
    if recruit_left is None or recruit_right is None:
        recruit_left, recruit_right = recruit_flags(
            rows, reads.lengths(), contigs.lengths_by_cid(), max_reads_per_end
        )
    slot_of = np.zeros(int(cids.max(initial=-1)) + 1, dtype=np.int64)
    slot_of[cids] = np.arange(cids.size, dtype=np.int64)
    left = np.nonzero(recruit_left)[0]
    right = np.nonzero(recruit_right)[0]
    row = np.concatenate([left, right])
    is_left = np.arange(row.size) < left.size
    end = 2 * slot_of[rows.cid[row]] + ~is_left
    order = np.argsort(end, kind="stable")
    row, end, is_left = row[order], end[order], is_left[order]
    end_start = np.zeros(2 * cids.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(end, minlength=2 * cids.size), out=end_start[1:])
    read = rows.read[row]
    # a left-end candidate is the reverse complement of the aligned read
    flip = rows.is_rc[row] != is_left
    bases, quals, lengths = _gather_oriented(reads, read, flip)
    # every end's candidates, and every task built from them, are views of
    # these buffers: a stray write must raise, not corrupt a neighbour
    for a in (bases, quals, lengths):
        a.setflags(write=False)
    return AlignmentResult(
        rows=rows,
        n_reads=len(reads),
        cids=cids,
        end_start=end_start,
        cand_read=2 * read + flip,
        cand_bases=bases,
        cand_quals=quals,
        cand_lengths=lengths,
    )


def align_reads(
    contigs: ContigSet,
    reads: ReadBatch,
    seed_len: int = 17,
    read_seed_stride: int = 8,
    min_identity: float = 0.9,
    min_overlap: int = 30,
    max_reads_per_end: int = MAX_READS_PER_END,
) -> AlignmentResult:
    """Align every read against the contig set (batched).

    Returns per-read placements plus per-contig-end candidate reads.
    Every contig gets a :class:`ContigCandidates` entry (possibly with zero
    reads) — the zero-read population is what the paper's bin 1 holds.
    Output is bit-identical to the scalar reference in the tests tree.
    """
    index = PackedSeedIndex(contigs, seed_len=seed_len)
    rows = align_core(
        index,
        reads,
        read_seed_stride=read_seed_stride,
        min_identity=min_identity,
        min_overlap=min_overlap,
    )
    return materialise_alignment(rows, contigs, reads, max_reads_per_end)
