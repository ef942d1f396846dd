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
  no N) masked in one pass and packed with ``pack_kmers``; one ``argsort``
  of a composite ``(task, k-mer)`` key brings equal k-mers of a task
  together.  The key is always ONE ``uint64`` — a multi-key ``lexsort`` is
  an order of magnitude slower than a single-word ``argsort`` here.  While
  ``task_bits + 2k <= 64`` the task id sits above the k-mer bits; past
  that (k >= 29 with hundreds of tasks, every two-word k >= 33) each key
  word that does not fit is first replaced by its dense rank among the
  group's values (argsort + diff + cumsum), which needs only
  ``log2(windows)`` bits, and the ranks are packed instead.  Nothing reads
  the order of equal keys.
* **Offset-prefix tables.**  The sorted run boundaries are the distinct
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
``tests/core/la_reference.py``; extensions (and their dict order), every
``CpuAssemblyStats`` field and every ``WalkRound`` are bit-identical.
Workload statistics (inserts, walk steps, rounds) are collected because
the Summit-scale model consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.config import LocalAssemblyConfig
from repro.core.extension import (
    KShiftState,
    WalkStatus,
    classify_extensions,
    kshift_next,
)
from repro.core.tasks import ExtensionTask, TaskSet
from repro.sequence.dna import N_CODE, decode
from repro.sequence.kmer import pack_kmers, successor_kmers, valid_kmer_mask

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
    n_extended: int = 0
    total_extension_bases: int = 0
    walk_lengths: list[int] = field(default_factory=list)

    def mean_walk_length(self) -> float:
        return float(np.mean(self.walk_lengths)) if self.walk_lengths else 0.0


class _Ranks:
    """Dense ranks of a ``uint64`` column among its own distinct values.

    Order-preserving and at most ``log2(len)`` bits wide (``np.unique`` is
    argsort + diff + cumsum); equal values share a rank whatever order the
    sort leaves them in.
    """

    def __init__(self, col: np.ndarray) -> None:
        self.distinct, ranks = np.unique(col, return_inverse=True)
        self.ranks = ranks.astype(np.uint64)
        self.bits = max(1, int(self.distinct.size - 1).bit_length())

    def of(self, col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rank, present)`` of query values; absent values get a junk rank."""
        pos = np.minimum(np.searchsorted(self.distinct, col), self.distinct.size - 1)
        return pos.astype(np.uint64), self.distinct[pos] == col


class _CompositeKey:
    """Order-preserving packing of ``(task, k-mer)`` rows into one ``uint64``.

    Columns are folded most-significant first: the task id (omitted for a
    single task), then each k-mer word right-justified to its used bits.
    A column that no longer fits is replaced by its :class:`_Ranks`; if the
    pair still does not fit the key folded so far is ranked too, which
    always suffices (two ranks need ``2 * log2(rows)`` bits).  The rankers
    are kept so query rows can be packed into the same key space.
    """

    def __init__(self, task: np.ndarray, words: np.ndarray, n_tasks: int, k: int) -> None:
        self._task_bits = int(n_tasks - 1).bit_length()
        self._k = k
        self._rankers: dict[tuple[str, int], _Ranks] = {}
        self.keys = self._fold(task, words, learn=True)[0]

    def _columns(self, task: np.ndarray, words: np.ndarray):
        if self._task_bits:
            yield task.astype(np.uint64), self._task_bits
        for w in range(words.shape[1]):
            bits = min(64, 2 * self._k - 64 * w)
            yield words[:, w] >> np.uint64(64 - bits), bits

    def _fold(
        self, task: np.ndarray, words: np.ndarray, learn: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        present = np.ones(task.size, dtype=bool)

        def squeeze(slot: tuple[str, int], col: np.ndarray) -> tuple[np.ndarray, int]:
            if learn:
                ranker = self._rankers[slot] = _Ranks(col)
                return ranker.ranks, ranker.bits
            ranker = self._rankers[slot]
            ranks, hit = ranker.of(col)
            np.logical_and(present, hit, out=present)
            return ranks, ranker.bits

        columns = self._columns(task, words)
        key, key_bits = next(columns)
        for i, (col, bits) in enumerate(columns):
            if key_bits + bits > 64:
                col, bits = squeeze(("word", i), col)
            if key_bits + bits > 64:
                key, key_bits = squeeze(("prefix", i), key)
            key = (key << np.uint64(bits)) | col
            key_bits += bits
        return key, present

    def of(self, task: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(key, present)`` of query rows; a row holding a word value the
        build never saw cannot equal any built row and is marked absent."""
        return self._fold(task, words)


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
    _key: _CompositeKey
    _entry_keys: np.ndarray  # (n_entries,) sorted composite keys

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

        key = _CompositeKey(task, words, n_tasks, k)
        order = np.argsort(key.keys)
        sorted_keys = key.keys[order]
        first = np.ones(sorted_keys.size, dtype=bool)  # starts of equal-key runs
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        lead = order[first]  # one window per distinct entry
        n_entries = lead.size
        slot = (np.cumsum(first) - 1) * 8 + nxt[order]
        tallies = np.bincount(slot + 4, minlength=8 * n_entries)
        tallies += np.bincount(slot[hi[order]], minlength=8 * n_entries)
        offsets = np.zeros(n_tasks + 1, dtype=np.int64)
        np.cumsum(np.bincount(task[lead], minlength=n_tasks), out=offsets[1:])
        return cls(
            k=k,
            offsets=offsets,
            words=words[lead],
            tallies=tallies.reshape(n_entries, 8),
            n_inserts=int(starts.size),
            _key=key,
            _entry_keys=sorted_keys[first],
        )

    def find(self, task: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Entry index of every ``(task, k-mer)`` row; -1 where the task's
        table does not hold the k-mer."""
        if self._entry_keys.size == 0:
            return np.full(task.size, -1, dtype=np.int64)
        keys, present = self._key.of(task, words)
        pos = np.minimum(
            np.searchsorted(self._entry_keys, keys), self._entry_keys.size - 1
        )
        return np.where(present & (self._entry_keys[pos] == keys), pos, -1)


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
    succ = tables.find(task, successor_kmers(tables.words[ext], tables.k, base[ext]))
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
    found = tables.find(np.arange(len(seqs)), words[::k])
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
) -> list[TaskResult]:
    """Run the k-shift machine for every task of one block, wave by wave."""
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
    return [
        TaskResult(
            cid=t.cid,
            side=t.side,
            extension=decode(np.array(e, dtype=np.uint8)) if e else "",
            rounds=tuple(r),
        )
        for t, e, r in zip(tasks, ext, rounds)
    ]


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
    return _extend_block([task], config, stats)[0]


def run_local_assembly_cpu(
    tasks: TaskSet, config: LocalAssemblyConfig | None = None
) -> tuple[dict[tuple[int, int], str], CpuAssemblyStats]:
    """Extend every task; returns ``{(cid, side): extension}`` + stats."""
    config = config or LocalAssemblyConfig()
    stats = CpuAssemblyStats(n_tasks=len(tasks))
    extensions: dict[tuple[int, int], str] = {}
    for block in _blocks(tasks):
        for task, result in zip(block, _extend_block(block, config, stats)):
            extensions[(task.cid, task.side)] = result.extension
            if task.n_reads:
                stats.n_tasks_with_reads += 1
            if result.extension:
                stats.n_extended += 1
                stats.total_extension_bases += len(result.extension)
                stats.walk_lengths.append(len(result.extension))
    return extensions, stats
