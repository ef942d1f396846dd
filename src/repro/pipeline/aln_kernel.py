"""Alignment kernel: batched ungapped seed extension.

MetaHipMer's alignment stage uses a GPU Smith-Waterman kernel (ADEPT, Awan
et al. 2020 — the "aln kernel" slice of the paper's pie charts).  Our
pipeline aligns short Illumina-model reads (substitution errors only), so
the kernel is the *ungapped* seed-and-extend scorer, NumPy-vectorised
over every candidate diagonal of a read batch at once.  The one-candidate
scalar form it must match is ``ungapped_align`` in
``tests/pipeline/reference.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ungapped_align_batch", "segment_match_counts"]


def segment_match_counts(
    a: np.ndarray,
    b: np.ndarray,
    a_start: np.ndarray,
    b_start: np.ndarray,
    span: np.ndarray,
) -> np.ndarray:
    """Per-segment equal-base counts: for segment *i*, compare
    ``a[a_start[i]:a_start[i]+span[i]]`` with the same-length slice of
    *b* at ``b_start[i]`` and count equal positions.

    Vectorised as one flat gather: segment lengths are expanded with
    ``repeat``, within-segment offsets recovered from a cumsum, and the
    per-segment sums taken as cumsum differences.
    """
    span = np.asarray(span, dtype=np.int64)
    n = span.size
    out = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out
    total = int(span.sum())
    if total == 0:
        return out
    ends = np.cumsum(span)
    starts = ends - span
    # Fused flat gather indices: a_start[seg] + local collapses to one
    # repeat of (a_start - seg_start) plus the flat arange — no per-base
    # segment-id array, no separate local-offset array.
    pos = np.arange(total, dtype=np.int64)
    idx = np.repeat(np.asarray(a_start, dtype=np.int64) - starts, span)
    idx += pos
    ga = a[idx]
    idx = np.repeat(np.asarray(b_start, dtype=np.int64) - starts, span)
    idx += pos
    eq = ga == b[idx]
    # int32 prefix sums are safe (< 2^31 compared bases per call) and
    # halve the traffic of the two heaviest passes.
    cdtype = np.int32 if total < 2**31 else np.int64
    cs = np.empty(total + 1, dtype=cdtype)
    cs[0] = 0
    np.cumsum(eq, dtype=cdtype, out=cs[1:])
    out[:] = cs[ends] - cs[starts]
    return out


def ungapped_align_batch(
    contig_bases: np.ndarray,
    contig_off: np.ndarray,
    read_bases: np.ndarray,
    read_off: np.ndarray,
    cseq: np.ndarray,
    rseq: np.ndarray,
    offset: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score many (contig, read, diagonal) candidates in one pass.

    Sequences live concatenated:
    contig *c* spans ``contig_bases[contig_off[c]:contig_off[c+1]]`` and
    read *r* spans ``read_bases[read_off[r]:read_off[r+1]]`` (for the
    aligner, "read" rows are oriented — forward and reverse-complement
    copies are separate rows).  Candidate *i* aligns read ``rseq[i]``
    against contig ``cseq[i]`` with read base 0 anchored at contig
    coordinate ``offset[i]``.

    Returns ``(ov_start, ov_end, matches)`` per candidate, with the exact
    clamping semantics of the scalar kernel (``ov_end <= ov_start`` rows
    report ``ov_end == ov_start`` and 0 matches).  The inner per-segment
    comparison runs through :func:`segment_match_counts`, one
    cumsum-offset NumPy gather over all candidates.
    """
    cseq = np.asarray(cseq, dtype=np.int64)
    rseq = np.asarray(rseq, dtype=np.int64)
    offset = np.asarray(offset, dtype=np.int64)
    contig_off = np.asarray(contig_off, dtype=np.int64)
    read_off = np.asarray(read_off, dtype=np.int64)

    clen = contig_off[cseq + 1] - contig_off[cseq]
    rlen = read_off[rseq + 1] - read_off[rseq]
    ov_start = np.maximum(offset, 0)
    ov_end = np.minimum(offset + rlen, clen)
    span = np.maximum(ov_end - ov_start, 0)
    # Degenerate overlaps report [ov_start, ov_start) like the scalar path.
    ov_end = ov_start + span
    matches = segment_match_counts(
        contig_bases,
        read_bases,
        contig_off[cseq] + ov_start,
        read_off[rseq] + (ov_start - offset),
        span,
    )
    return ov_start, ov_end, matches
