"""The batched engine's shared scan primitive.

The batched SoA engine spends its host time in a handful of tiny
primitives — run-head detection over sorted key arrays is the one every
transaction-dedup path shares (``_per_group_unique``,
``_sorted_transactions``, the atomic duplicate grouping).
"""

from __future__ import annotations

import numpy as np

__all__ = ["run_heads"]


def run_heads(keys: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first element of each run in sorted *keys*."""
    head = np.empty(keys.size, dtype=np.bool_)
    if keys.size:
        head[0] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return head
