"""Exact hash-table sizing and the §3.2 memory math.

The GPU cannot grow a hash table, so the paper sizes every per-extension
table exactly, up front, and packs all tables into one allocation:

* an upper bound on distinct k-mers in a task's reads is
  ``(l - k + 1) * r`` (every k-mer distinct);
* the table is over-provisioned to ``l * r`` slots, bounding the load
  factor by ``(l - k + 1) / l`` — at the worst case (l = 300, k = 21)
  about **0.93**, the number the paper derives;
* the per-task sizes live in an ``ht_sizes`` array whose exclusive prefix
  sum gives each table's offset inside the single device allocation.

Also here: the Fig 6 memory comparison (full k-mer entries vs
pointer+length entries, ~15x for k = 77) and batch planning under the
device memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.tasks import ExtensionTask, TaskSet

__all__ = [
    "load_factor_bound",
    "worst_case_load_factor",
    "table_slots",
    "ht_sizes",
    "HashTableLayout",
    "plan_layout",
    "kmer_entry_bytes",
    "pointer_entry_bytes",
    "compression_factor",
    "plan_batches",
]


def load_factor_bound(read_len: int, k: int) -> float:
    """Maximum load factor of an ``l * r``-slot table: ``(l-k+1)/l``."""
    if read_len <= 0:
        return 0.0
    if k > read_len:
        return 0.0
    return (read_len - k + 1) / read_len


def worst_case_load_factor(max_read_len: int = 300, min_k: int = 21) -> float:
    """The paper's worst case: l = 300, k = 21 → ~0.93."""
    return load_factor_bound(max_read_len, min_k)


def table_slots(task: ExtensionTask) -> int:
    """Slots for one task's k-mer table: total read bases (= l * r for
    uniform-length reads), independent of k so one sizing pass serves all
    k-shift rounds."""
    return max(task.total_read_bases, 1)


def ht_sizes(tasks: TaskSet) -> np.ndarray:
    """The per-extension table sizes array of §3.2."""
    return np.array([table_slots(t) for t in tasks], dtype=np.int64)


@dataclass(frozen=True)
class HashTableLayout:
    """Offsets of each task's table inside the packed allocation."""

    sizes: np.ndarray
    offsets: np.ndarray  # exclusive prefix sum, length n_tasks + 1

    @property
    def total_slots(self) -> int:
        return int(self.offsets[-1])

    def region(self, i: int) -> tuple[int, int]:
        """(start, end) slot range of task *i*'s table."""
        return int(self.offsets[i]), int(self.offsets[i + 1])


def plan_layout(tasks: TaskSet) -> HashTableLayout:
    """Compute ``ht_sizes`` and their prefix-sum offsets."""
    sizes = ht_sizes(tasks)
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return HashTableLayout(sizes=sizes, offsets=offsets)


def kmer_entry_bytes(k: int, value_bytes: int = 8) -> int:
    """Bytes per entry when the full k-mer string is stored as the key."""
    return k + value_bytes


def pointer_entry_bytes(value_bytes: int = 8) -> int:
    """Bytes per entry with the Fig 6 scheme: a 4-byte pointer into the
    packed reads plus a 1-byte length."""
    return 4 + 1 + value_bytes


def compression_factor(k: int) -> float:
    """Key-storage saving of pointer entries over full k-mers.

    The paper quotes ~15x for a 77-mer (77 bytes vs 5); this compares key
    bytes only, as the paper does.
    """
    return k / 5.0


#: Bytes of device memory per table slot in our simulated layout:
#: pointer (8) + 4 x hi counts (4 each) + 4 x total counts (4 each).
SLOT_BYTES = 8 + 4 * 4 + 4 * 4

__all__.append("SLOT_BYTES")


def plan_batches(
    tasks: Sequence[ExtensionTask],
    device_mem_bytes: int,
    slot_bytes: int = SLOT_BYTES,
    reserve_fraction: float = 0.25,
) -> list[list[int]]:
    """Split task indices into batches that fit the device memory budget.

    A fraction of memory is reserved for packed reads, contigs and output
    buffers; the remainder holds hash tables.  Greedy first-fit in task
    order keeps batches contiguous and deterministic.  A single oversized
    task gets its own batch (and will fail loudly at allocation, rather
    than silently corrupting neighbours).
    """
    budget = int(device_mem_bytes * (1.0 - reserve_fraction))
    batches: list[list[int]] = []
    current: list[int] = []
    used = 0
    for i, task in enumerate(tasks):
        need = table_slots(task) * slot_bytes
        if current and used + need > budget:
            batches.append(current)
            current = []
            used = 0
        current.append(i)
        used += need
    if current:
        batches.append(current)
    return batches
