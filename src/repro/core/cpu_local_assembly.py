"""CPU local assembly (the paper's baseline) as blocked array passes.

Same algorithm as §2.3 / Algorithms 1-2 — per extension task, a k-mer table
built from the candidate reads (keys: k-mers, values: extension-base
tallies split by quality), a mer-walk from the contig end until a dead
end, fork, loop or the step cap, and the k-shift machine rebuilding the
table at a longer/shorter k from the already-extended end — but no table
is ever a Python object.  All tasks of a block advance together:

* **Waves and groups.**  A wave is one round of the k-shift machine for
  every still-live task of the block.  Tasks shift k independently, so a
  wave groups them by their current k (the round structure of
  ``run_extension_v2_batched``): one build and one set of walks per
  distinct k, ``kshift_next`` once per task per wave.
* **One sort per group.**  The group's ``packed_reads()`` are
  concatenated, valid windows (k-mer plus following base inside one read,
  no N) masked in one pass and packed with ``pack_kmers``; one
  :class:`~repro.sequence.kmer.SortedKmers` over the ``(task, k-mer)``
  rows brings equal k-mers of a task together — the same sorted-k-mer
  type that counts, merges and looks up the global spectrum: one folded
  ``uint64`` key per row and one ``argsort``.  Nothing reads the order of
  equal keys.
* **Offset-prefix tables.**  The sorted runs are the distinct
  entries; task *j*'s table is the slice ``offsets[j]:offsets[j + 1]`` of
  one flat allocation — §3.2's ``ht_sizes`` prefix, in host form.  Tallies
  ``[hi x4, total x4]`` come from ``np.bincount``.
* **Index-chased walks.**  Every entry is classified in one
  ``classify_extensions`` pass and every extending entry's successor
  k-mer resolved to its entry index in one search, so a walk is an integer
  chase ``cur = succ[cur]`` with a visited-index set: absent is RUNOUT, a
  revisit is LOOP (before the entry is classified again), the cap is
  MAX_LEN.
* **Blocks.**  Task sets are consumed in consecutive blocks of at most
  ``_BLOCK_BASES`` read bases (a larger task is its own block).  The cap
  exists for peak memory only — the per-window arrays of a whole task set
  would otherwise be live at once — and results do not depend on it.

This is also the *oracle* for the GPU path: the differential tests require
``gpu_extension == cpu_extension`` for every task.  Its own oracle is the
scalar dict/bytearray implementation it replaced, kept in
``tests/core/la_reference.py``; extensions (one packed
:class:`~repro.core.tasks.ExtensionSet` in task order, never a string),
every ``CpuAssemblyStats`` field and every ``WalkRound`` are
bit-identical.
Workload statistics (inserts, walk steps, rounds) are collected because
the Summit-scale model consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from repro.core.config import LocalAssemblyConfig
from repro.core.extension import (
    KShiftState,
    WalkStatus,
    classify_extensions,
    kshift_next,
)
from repro.core.tasks import ExtensionSet, ExtensionTask, TaskSet
from repro.sequence.dna import N_CODE, decode
from repro.sequence.kmer import SortedKmers, pack_kmers, successor_kmers, valid_kmer_mask

__all__ = [
    "WalkRound",
    "TaskResult",
    "CpuAssemblyStats",
    "KmerTables",
    "extend_task_cpu",
    "run_local_assembly_cpu",
]

#: Read bases per block.  Bounds the per-window arrays alive at once (peak
#: RSS); speed is flat around it and results are independent of it.
_BLOCK_BASES = 1 << 17


@dataclass(frozen=True)
class WalkRound:
    """One table-build + walk attempt within a task."""

    k: int
    status: WalkStatus
    n_steps: int
    table_entries: int


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one extension task."""

    cid: int
    side: int
    extension: str
    rounds: tuple[WalkRound, ...]

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


@dataclass
class CpuAssemblyStats:
    """Aggregate workload statistics across a task set."""

    n_tasks: int = 0
    n_tasks_with_reads: int = 0
    n_inserts: int = 0
    n_walk_steps: int = 0
    n_rounds: int = 0


@dataclass(frozen=True)
class KmerTables:
    """The k-mer tables of a group of tasks at one k, as one allocation.

    Entries are the distinct ``(task, k-mer)`` pairs in that order; task
    *j* owns ``offsets[j]:offsets[j + 1]`` (§3.2's ``ht_sizes`` prefix).
    """

    k: int
    offsets: np.ndarray  # (n_tasks + 1,) entry offset prefix
    words: np.ndarray  # (n_entries, words_per_kmer(k)) packed k-mers
    tallies: np.ndarray  # (n_entries, 8): [hiA..hiT, totA..totT] of the next base
    n_inserts: int  # valid windows over all tasks (Algorithm 1's inserts)
    index: SortedKmers  # the sorted (task, k-mer) windows; run j is entry j

    @property
    def sizes(self) -> np.ndarray:
        """Distinct k-mers per task."""
        return np.diff(self.offsets)

    @classmethod
    def build(
        cls, tasks: Sequence[ExtensionTask], k: int, hi_q_thresh: int
    ) -> "KmerTables":
        """Algorithm 1 for a whole group: insert every k-mer of every
        candidate read of every task.

        A window counts when the k-mer and its following base lie inside
        one read and hold no N (such k-mers cannot guide a walk).
        """
        packed = [t.packed_reads() for t in tasks]
        bases = np.concatenate([p[0] for p in packed])
        quals = np.concatenate([p[1] for p in packed])
        lengths = np.concatenate([p[2] for p in packed])
        n_tasks = len(tasks)

        read_end = np.repeat(np.cumsum(lengths), lengths)
        starts = np.flatnonzero(np.arange(bases.size) + k < read_end)
        starts = starts[valid_kmer_mask(bases, k + 1)[starts]]
        task_of_base = np.repeat(
            np.arange(n_tasks), np.fromiter((p[0].size for p in packed), np.int64, n_tasks)
        )
        task = task_of_base[starts]
        words = pack_kmers(bases, k)[0][starts]
        nxt = bases[starts + k].astype(np.int64)
        hi = quals[starts + k] >= hi_q_thresh

        index = SortedKmers(words, k, task, n_tasks)
        n_entries = len(index)
        slot = index.run * 8 + nxt[index.order]
        tallies = np.bincount(slot + 4, minlength=8 * n_entries)
        tallies += np.bincount(slot[hi[index.order]], minlength=8 * n_entries)
        return cls(
            k=k,
            offsets=index.offsets,
            words=words[index.first],
            tallies=tallies.reshape(n_entries, 8),
            n_inserts=int(starts.size),
            index=index,
        )


def _walk_steps(tables: KmerTables, config: LocalAssemblyConfig) -> np.ndarray:
    """Algorithm 2's decision at every entry, as one int per entry.

    ``step[e] >= 0`` — the walk appends base ``step & 3`` and moves to entry
    ``(step >> 2) - 1`` (-1: the successor k-mer is not in the task's table);
    ``step[e] < 0`` — the walk stops with status ``-1 - step``.
    """
    verdict, base = classify_extensions(
        tables.tallies[:, :4], tables.tallies[:, 4:],
        config.min_viable, config.dominance_ratio,
    )
    step = -1 - verdict
    ext = np.flatnonzero(verdict < 0)
    sizes = tables.sizes
    task = np.repeat(np.arange(sizes.size), sizes)[ext]
    succ = tables.index.find(successor_kmers(tables.words[ext], tables.k, base[ext]), task)
    step[ext] = (succ + 1) * 4 + base[ext]
    return step


def _start_entries(
    tables: KmerTables, seqs: Sequence[tuple[np.ndarray, list[int]]]
) -> np.ndarray:
    """Entry index of every task's start k-mer — the last k bases of its
    ``(contig, extension so far)``; -1 when that sequence is shorter than
    k, the k-mer holds an N, or the task's table lacks it."""
    k = tables.k
    codes = np.full((len(seqs), k), N_CODE, dtype=np.uint8)
    for row, (contig, ext) in zip(codes, seqs):
        tail = np.concatenate([contig[-k:], np.array(ext, dtype=np.uint8)])[-k:]
        if tail.size == k:
            row[:] = tail
    words, valid = pack_kmers(codes.ravel(), k)
    found = tables.index.find(words[::k], np.arange(len(seqs)))
    return np.where(valid[::k], found, -1)


def _chase(step: np.ndarray, start: int, max_len: int) -> tuple[list[int], WalkStatus]:
    """One mer-walk over the linked entries; the visited-index set is the
    paper's second hash table."""
    walk: list[int] = []
    visited: set[int] = set()
    cur = start
    while len(walk) < max_len:
        if cur < 0:
            return walk, WalkStatus.RUNOUT
        if cur in visited:
            return walk, WalkStatus.LOOP
        visited.add(cur)
        s = int(step[cur])
        if s < 0:
            return walk, WalkStatus(-1 - s)
        walk.append(s & 3)
        cur = (s >> 2) - 1
    return walk, WalkStatus.MAX_LEN


def _extend_block(
    tasks: Sequence[ExtensionTask],
    config: LocalAssemblyConfig,
    stats: CpuAssemblyStats | None = None,
) -> tuple[list[list[int]], list[list[WalkRound]]]:
    """Run the k-shift machine for every task of one block, wave by wave;
    returns every task's extension codes and rounds."""
    if stats is None:
        stats = CpuAssemblyStats()
    ext: list[list[int]] = [[] for _ in tasks]
    rounds: list[list[WalkRound]] = [[] for _ in tasks]
    states = {
        i: KShiftState(k=config.k_init) for i, t in enumerate(tasks) if t.n_reads
    }
    while states:
        by_k: dict[int, list[int]] = {}
        for i, state in states.items():
            by_k.setdefault(state.k, []).append(i)
        for k, members in by_k.items():
            tables = KmerTables.build([tasks[i] for i in members], k, config.hi_q_thresh)
            step = _walk_steps(tables, config)
            starts = _start_entries(tables, [(tasks[i].contig, ext[i]) for i in members])
            sizes = tables.sizes
            stats.n_inserts += tables.n_inserts
            stats.n_rounds += len(members)
            for j, i in enumerate(members):
                walk, status = _chase(step, int(starts[j]), config.max_walk_len)
                ext[i].extend(walk)
                stats.n_walk_steps += len(walk)
                rounds[i].append(
                    WalkRound(k=k, status=status, n_steps=len(walk), table_entries=int(sizes[j]))
                )
                state = kshift_next(states[i], status, config.k_min, config.k_max, config.k_step)
                if state.done:
                    del states[i]
                else:
                    states[i] = state
    return ext, rounds


def _blocks(tasks: TaskSet) -> Iterator[list[ExtensionTask]]:
    """Consecutive runs of tasks holding at most ``_BLOCK_BASES`` read
    bases; a task larger than the cap is a block of its own."""
    block: list[ExtensionTask] = []
    held = 0
    for task in tasks:
        n = task.packed_reads()[0].size
        if block and held + n > _BLOCK_BASES:
            yield block
            block, held = [], 0
        block.append(task)
        held += n
    if block:
        yield block


def extend_task_cpu(
    task: ExtensionTask,
    config: LocalAssemblyConfig,
    stats: CpuAssemblyStats | None = None,
) -> TaskResult:
    """Run the full k-shift loop for one task (a block of one)."""
    (ext,), (rounds,) = _extend_block([task], config, stats)
    return TaskResult(task.cid, task.side, decode(np.array(ext, np.uint8)), tuple(rounds))


def run_local_assembly_cpu(
    tasks: TaskSet, config: LocalAssemblyConfig | None = None
) -> tuple[ExtensionSet, CpuAssemblyStats]:
    """Extend every task; returns the extensions (row *i* is task *i*) and
    the workload statistics."""
    config = config or LocalAssemblyConfig()
    stats = CpuAssemblyStats(n_tasks=len(tasks))
    walks: list[list[int]] = []
    for block in _blocks(tasks):
        walks += _extend_block(block, config, stats)[0]
    stats.n_tasks_with_reads = sum(1 for t in tasks if t.n_reads)
    lengths = np.fromiter(map(len, walks), np.int64, len(walks))
    codes = np.fromiter(chain.from_iterable(walks), np.uint8, int(lengths.sum()))
    return ExtensionSet.of(tasks, codes, lengths), stats
