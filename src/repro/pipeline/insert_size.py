"""Empirical insert-size estimation from read-pair placements.

MetaHipMer estimates the library's insert-size distribution from pairs
whose two reads land on the *same* contig (their separation is directly
observable) and feeds it to scaffolding, instead of trusting a
user-supplied value.  Same here: :func:`estimate_insert_size` consumes the
alignment stage's best placements and returns robust (median/MAD-based)
statistics; the pipeline uses them for gap estimates when enabled.  The
pair scan is one array pass over the best-placement table's mate columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pipeline.alignment import BestPlacements

__all__ = ["InsertSizeEstimate", "estimate_insert_size", "median"]


@dataclass(frozen=True)
class InsertSizeEstimate:
    """Robust insert-size statistics from same-contig pairs."""

    n_pairs_used: int
    mean: float
    sd: float
    median: float

    @property
    def reliable(self) -> bool:
        """Enough observations to trust over a configured default."""
        return self.n_pairs_used >= 20


def median(values) -> float:
    """Median of a non-empty sequence, the float64 ``np.median`` returns.

    ``np.median``'s NaN check imports ``numpy.ma`` on first use (~14 ms
    inside the run clock); the two middle elements of one sort need
    nothing NumPy has not already loaded.
    """
    s = np.sort(values)
    n = s.size
    return float((s[(n - 1) // 2] + s[n // 2]) / 2)


def estimate_insert_size(
    best_alignments: BestPlacements,
    read_lengths: np.ndarray,
    max_insert: int = 5000,
) -> InsertSizeEstimate:
    """Estimate the insert size from pairs mapped to one contig.

    A proper pair has its two mates on the same contig in opposite
    orientations; the insert is the outer distance between the forward
    mate's start and the reverse mate's end.  Discordant or absurd
    (> *max_insert*) observations are discarded.  Statistics are robust:
    median and 1.4826 x MAD (the Gaussian-consistent scale), with the
    mean over the inlier window reported as ``mean``.
    """
    n_pairs = int(read_lengths.size) // 2
    cid_a, cid_b, off_a, off_b, rc_a, rc_b = best_alignments.mates(n_pairs)
    len_a, len_b = read_lengths[: 2 * n_pairs].reshape(n_pairs, 2).T
    # the reverse mate's end minus the forward mate's start
    insert = np.where(rc_a, off_a + len_a - off_b, off_b + len_b - off_a)
    proper = (cid_a >= 0) & (cid_a == cid_b) & (rc_a != rc_b)
    inserts = insert[proper & (insert > 0) & (insert <= max_insert)]

    if not inserts.size:
        return InsertSizeEstimate(n_pairs_used=0, mean=0.0, sd=0.0, median=0.0)
    arr = inserts.astype(np.float64)
    mid = median(arr)
    mad = median(np.abs(arr - mid))
    sd = 1.4826 * mad
    # inlier mean within 3 robust sigmas (guards against chimeric pairs);
    # a zero MAD (most observations identical) keeps only the mode.
    window = 3 * sd if sd > 0 else 0.5
    inliers = arr[np.abs(arr - mid) <= window]
    return InsertSizeEstimate(
        n_pairs_used=int(arr.size),
        mean=float(inliers.mean()),
        sd=sd if sd > 0 else float(inliers.std()),
        median=mid,
    )
