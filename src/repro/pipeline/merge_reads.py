"""Merge-reads stage: join overlapping paired-end mates.

The first stage of the MetaHipMer2 pipeline (Fig 1).  For short inserts the
two 150 bp mates of a pair overlap in the middle; merging them yields one
longer, lower-error pseudo-read, which improves k-mer analysis and contig
generation.  Algorithm (as in MHM2's ``merge_reads``):

1. reverse-complement read 2 so both mates are on the same strand;
2. scan candidate overlap lengths from longest to shortest;
3. accept the first overlap with at most ``max_mismatch_frac`` mismatches
   (minimum ``min_overlap`` bases);
4. merge with per-base consensus — on disagreement the higher-quality base
   wins and its quality is reduced by the loser's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sequence.dna import N_CODE
from repro.sequence.read import ReadBatch

__all__ = ["MergeStats", "merge_read_pairs", "find_overlap"]

#: Cells per scoring matrix (pairs x longest read of the batch): a block of
#: ~1700 pairs of 150 bp reads, small enough for the per-overlap-length
#: comparison temporaries to stay in cache.
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class MergeStats:
    """Outcome of the merge stage."""

    n_pairs: int
    n_merged: int
    mean_merged_length: float

    @property
    def merge_rate(self) -> float:
        return self.n_merged / self.n_pairs if self.n_pairs else 0.0


def find_overlap(
    a: np.ndarray,
    b: np.ndarray,
    min_overlap: int = 12,
    max_mismatch_frac: float = 0.1,
) -> int:
    """Length of the best suffix(a)/prefix(b) overlap, or 0 if none.

    Scans from the longest plausible overlap down so that dovetailing
    mates (insert < read length) merge over their true overlap.
    """
    max_olap = min(a.size, b.size)
    for olap in range(max_olap, min_overlap - 1, -1):
        mism = int(np.count_nonzero(a[a.size - olap :] != b[:olap]))
        if mism <= max_mismatch_frac * olap:
            return olap
    return 0


def _overlap_lengths(
    batch: ReadBatch, min_overlap: int, max_mismatch_frac: float
) -> np.ndarray:
    """:func:`find_overlap` of every interleaved pair, as array passes.

    Per block of pairs, mate 1 is laid out right-aligned and rc(mate 2)
    left-aligned, so the candidate overlap of length ``o`` is the last
    ``o`` columns of one matrix against the first ``o`` of the other for
    every pair at once: one ``count_nonzero(axis=1)`` per overlap length.
    Lengths are scanned top-down and a pair keeps the first acceptable
    one, exactly as the one-pair scan does.  Blocks hold at most
    ``_BLOCK_CELLS`` matrix cells, so memory does not grow with the batch.
    """
    bases, offsets, lengths = batch.bases, batch.offsets, batch.lengths()
    len1, len2 = lengths[0::2], lengths[1::2]
    n_pairs = len1.size
    olap = np.zeros(n_pairs, dtype=np.int64)
    if n_pairs == 0:
        return olap
    per_block = max(1, _BLOCK_CELLS // max(1, int(lengths.max())))
    for p0 in range(0, n_pairs, per_block):
        p1 = min(p0 + per_block, n_pairs)
        l1, l2 = len1[p0:p1], len2[p0:p1]
        w1, w2 = int(l1.max()), int(l2.max())
        block = bases[offsets[2 * p0] : offsets[2 * p1]]
        is_mate2 = np.repeat(np.arange(2 * (p1 - p0)) & 1, lengths[2 * p0 : 2 * p1]).astype(bool)
        # Right-aligned fills: row-major order of the mask is read order.
        m1 = np.zeros((p1 - p0, w1), dtype=np.uint8)
        m1[np.arange(w1) >= (w1 - l1)[:, None]] = block[~is_mate2]
        m2 = np.zeros((p1 - p0, w2), dtype=np.uint8)
        m2[np.arange(w2) >= (w2 - l2)[:, None]] = block[is_mate2]
        # rc(mate 2), left-aligned; N stays N as in revcomp_codes.
        m2 = np.where(m2 == N_CODE, N_CODE, 3 - m2)[:, ::-1]

        shorter = np.minimum(l1, l2)
        found = olap[p0:p1]
        for o in range(int(shorter.max()), max(min_overlap, 1) - 1, -1):
            mism = np.count_nonzero(m1[:, w1 - o :] != m2[:, :o], axis=1)
            ok = (mism <= max_mismatch_frac * o) & (shorter >= o) & (found == 0)
            found[ok] = o
    return olap


def merge_read_pairs(
    batch: ReadBatch,
    min_overlap: int = 12,
    max_mismatch_frac: float = 0.1,
) -> tuple[ReadBatch, MergeStats]:
    """Merge overlapping mates of an interleaved paired batch.

    Returns a new (unpaired) batch in which each merged pair is replaced by
    one consensus read and unmerged pairs are kept as two reads, plus
    statistics.  Order is preserved (pair i's outputs precede pair i+1's),
    which keeps downstream runs deterministic.

    Overlaps are scored for all pairs at once (:func:`_overlap_lengths`,
    equal to :func:`find_overlap` pair by pair); unmerged pairs are copied
    through as one masked pass, and the consensus is built for the merged
    pairs only, all of them together over one flat position array.
    """
    if not batch.paired:
        raise ValueError("merge_read_pairs requires an interleaved paired batch")
    offsets = batch.offsets
    lengths = batch.lengths()
    len1, len2 = lengths[0::2], lengths[1::2]
    n_pairs = len1.size

    olap = _overlap_lengths(batch, min_overlap, max_mismatch_frac)
    is_merged = olap > 0
    merged = np.nonzero(is_merged)[0]
    n_merged = merged.size
    merged_len = (len1 + len2 - olap)[merged]

    # Output layout: one read per merged pair, two per unmerged pair.
    out_is_merged = np.repeat(is_merged, np.where(is_merged, 1, 2))
    out_lengths = np.empty(out_is_merged.size, dtype=np.int64)
    out_lengths[~out_is_merged] = lengths[np.repeat(~is_merged, 2)]
    out_lengths[out_is_merged] = merged_len
    out_offsets = np.zeros(out_lengths.size + 1, dtype=np.int64)
    np.cumsum(out_lengths, out=out_offsets[1:])
    out_bases = np.empty(int(out_offsets[-1]), dtype=np.uint8)
    out_quals = np.empty(int(out_offsets[-1]), dtype=np.uint8)

    # Unmerged pairs pass through untouched.
    src_unmerged = np.repeat(~is_merged, len1 + len2)
    dst_unmerged = np.repeat(~out_is_merged, out_lengths)
    out_bases[dst_unmerged] = batch.bases[src_unmerged]
    out_quals[dst_unmerged] = batch.quals[src_unmerged]

    # Every position j of every merged read: mate 1 covers j < len1,
    # rc(mate 2) covers j >= len1 - olap; the overlap is where both do.
    pair = np.repeat(np.arange(n_merged), merged_len)
    starts = np.zeros(n_merged, dtype=np.int64)
    np.cumsum(merged_len[:-1], out=starts[1:])
    j = np.arange(pair.size) - starts[pair]
    l1 = len1[merged][pair]
    jb = j - (l1 - olap[merged][pair])
    has_a, has_b = j < l1, jb >= 0
    # rc(mate 2)[jb] reads mate 2 back to front.
    src_a = np.where(has_a, offsets[2 * merged][pair] + j, 0)
    src_b = np.where(has_b, offsets[2 * merged + 2][pair] - 1 - jb, 0)
    a, aq = batch.bases[src_a], batch.quals[src_a].astype(np.int64)
    b, bq = batch.bases[src_b], batch.quals[src_b].astype(np.int64)
    b = np.where(b == N_CODE, N_CODE, 3 - b)

    both = has_a & has_b
    agree = a == b
    take_a = ~has_b | (both & (agree | (aq >= bq)))
    # Agreement boosts confidence (capped); disagreement costs the
    # loser's quality — the standard merge heuristic.
    ov_q = np.where(agree, np.minimum(aq + bq, 41), np.abs(aq - bq))
    dst_merged = ~dst_unmerged
    out_bases[dst_merged] = np.where(take_a, a, b)
    out_quals[dst_merged] = np.where(both, ov_q, np.where(has_a, aq, bq))

    # Names: unmerged runs are list slices; Python runs once per merged pair.
    names = batch.names
    if names is None:
        names = np.char.add("read_", np.arange(len(batch)).astype(str)).tolist()
    out_names: list[str] = []
    done = 0
    for p in merged.tolist():
        out_names += names[done : 2 * p]
        out_names.append(names[2 * p].removesuffix("/1") + "/merged")
        done = 2 * p + 2
    out_names += names[done:]

    merged_batch = ReadBatch(out_bases, out_quals, out_offsets, out_names, paired=False)
    stats = MergeStats(
        n_pairs=n_pairs,
        n_merged=n_merged,
        mean_merged_length=int(merged_len.sum()) / n_merged if n_merged else 0.0,
    )
    return merged_batch, stats
