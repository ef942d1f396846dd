"""The batched engine's and the aligner's shared scan primitives.

The batched SoA engine spends its host time in a handful of tiny
primitives — run-head detection over sorted key arrays is the one every
transaction-dedup path shares (``_per_group_unique``,
``_sorted_transactions``, the atomic duplicate grouping) — and the
batched aligner scores every candidate diagonal through one segmented
equal-base count.  All three are plain NumPy passes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["run_heads", "run_head_positions", "segment_match_counts"]


def run_heads(keys: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first element of each run in sorted *keys*."""
    head = np.empty(keys.size, dtype=np.bool_)
    if keys.size:
        head[0] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return head


def run_head_positions(keys: np.ndarray) -> np.ndarray:
    """Indices of run starts in sorted *keys* (``nonzero`` of
    :func:`run_heads`, the shape the atomic grouping wants)."""
    return np.nonzero(run_heads(keys))[0]


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
