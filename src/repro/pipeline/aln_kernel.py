"""Alignment kernels: ungapped seed extension and banded Smith-Waterman.

MetaHipMer's alignment stage uses a GPU Smith-Waterman kernel (ADEPT, Awan
et al. 2020 — the "aln kernel" slice of the paper's pie charts).  Our
pipeline aligns short Illumina-model reads (substitution errors only), so
the workhorse is the *ungapped* seed-and-extend scorer; the banded
Smith-Waterman is provided as the faithful ADEPT analogue and is used for
verification and for divergent cases in tests.

Both kernels are NumPy-vectorised along the sequence dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlnScore",
    "ungapped_align",
    "ungapped_align_batch",
    "smith_waterman_banded",
    "SWResult",
]


@dataclass(frozen=True)
class AlnScore:
    """Result of anchoring a read to a contig at a fixed diagonal.

    ``offset`` is the contig coordinate of (oriented) read position 0 —
    possibly negative when the read hangs off the contig's left edge.
    The aligned (overlap) region is ``[ov_start, ov_end)`` in contig
    coordinates.
    """

    offset: int
    ov_start: int
    ov_end: int
    matches: int
    mismatches: int

    @property
    def ov_len(self) -> int:
        return self.ov_end - self.ov_start

    @property
    def identity(self) -> float:
        return self.matches / self.ov_len if self.ov_len else 0.0


def ungapped_align(
    contig: np.ndarray, read: np.ndarray, contig_pos: int, read_pos: int
) -> AlnScore:
    """Score the full ungapped overlap implied by one seed match.

    The seed anchors read position *read_pos* to contig position
    *contig_pos*; every read base on that diagonal that falls inside the
    contig is compared in one vectorised pass.
    """
    offset = int(contig_pos) - int(read_pos)
    ov_start = max(offset, 0)
    ov_end = min(offset + read.size, contig.size)
    if ov_end <= ov_start:
        return AlnScore(offset, ov_start, ov_start, 0, 0)
    c = contig[ov_start:ov_end]
    r = read[ov_start - offset : ov_end - offset]
    matches = int(np.count_nonzero(c == r))
    return AlnScore(offset, ov_start, ov_end, matches, c.size - matches)


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

    Batch form of :func:`ungapped_align`.  Sequences live concatenated:
    contig *c* spans ``contig_bases[contig_off[c]:contig_off[c+1]]`` and
    read *r* spans ``read_bases[read_off[r]:read_off[r+1]]`` (for the
    aligner, "read" rows are oriented — forward and reverse-complement
    copies are separate rows).  Candidate *i* aligns read ``rseq[i]``
    against contig ``cseq[i]`` with read base 0 anchored at contig
    coordinate ``offset[i]``.

    Returns ``(ov_start, ov_end, matches)`` per candidate, with the exact
    clamping semantics of the scalar kernel (``ov_end <= ov_start`` rows
    report ``ov_end == ov_start`` and 0 matches).  The inner per-segment
    comparison runs through :func:`repro.gpusim._fastops.segment_match_counts`,
    one cumsum-offset NumPy gather over all candidates.
    """
    from repro.gpusim._fastops import segment_match_counts

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


@dataclass(frozen=True)
class SWResult:
    """Banded Smith-Waterman outcome."""

    score: int
    end_a: int  # exclusive end in sequence a
    end_b: int  # exclusive end in sequence b


def smith_waterman_banded(
    a: np.ndarray,
    b: np.ndarray,
    band: int = 16,
    match: int = 1,
    mismatch: int = -1,
    gap: int = -2,
) -> SWResult:
    """Banded local alignment of code arrays *a* (rows) vs *b* (columns).

    The band is centred on the main diagonal (callers shift sequences so
    the expected diagonal is the main one).  Each DP row is computed with
    vectorised NumPy ops; the scan dependency of in-row gaps is
    approximated by one extra relaxation pass, which is exact for
    affine-free single gaps and sufficient for seed verification.
    """
    n, m = a.size, b.size
    if n == 0 or m == 0:
        return SWResult(0, 0, 0)
    # Two DP rows, allocated once and swapped — the per-row np.zeros /
    # np.zeros_like of the original formulation dominated small-band runs.
    rows = np.zeros((2, m + 1), dtype=np.int32)
    prev, cur = rows[0], rows[1]
    best, best_i, best_j = 0, 0, 0
    for i in range(1, n + 1):
        lo = max(1, i - band)
        hi = min(m, i + band)
        cur.fill(0)
        sub = np.where(b[lo - 1 : hi] == a[i - 1], match, mismatch).astype(np.int32)
        diag = prev[lo - 1 : hi] + sub
        up = prev[lo : hi + 1] + gap
        h = np.maximum(diag, up)
        np.maximum(h, 0, out=h)
        # left-gap relaxation (two passes handle the common short gaps)
        for _ in range(2):
            left = np.concatenate(([prev[lo - 1]], h[:-1])) + gap
            h = np.maximum(h, left)
        cur[lo : hi + 1] = h
        row_best = int(h.max()) if h.size else 0
        if row_best > best:
            best = row_best
            best_i = i
            best_j = lo + int(np.argmax(h))
        prev, cur = cur, prev
    return SWResult(best, best_i, best_j)
