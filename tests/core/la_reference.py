"""Scalar reference for CPU local assembly.

The dict-backed table build, the bytearray mer-walk, the per-task k-shift
loop and the per-task driver, moved here verbatim from
``repro.core.cpu_local_assembly`` when that module was rebuilt as blocked
array passes.  They define the contract: the array engine must reproduce
these bit for bit (``extensions`` row for row in task order — compare
through :func:`as_extension_set` — every ``CpuAssemblyStats`` field,
every task's ``WalkRound`` tuple).

Named ``la_reference`` rather than ``reference``: ``tests/pipeline/
reference.py`` exists, neither directory is a package, and under pytest's
prepend import mode a second ``import reference`` would silently get the
first module.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.config import LocalAssemblyConfig
from repro.core.cpu_local_assembly import CpuAssemblyStats, TaskResult, WalkRound
from repro.core.extension import (
    KShiftState,
    WalkStatus,
    classify_extension,
    kshift_next,
)
from repro.core.tasks import ExtensionSet, ExtensionTask, TaskSet
from repro.sequence.dna import decode, encode

__all__ = [
    "build_kmer_table",
    "mer_walk",
    "extend_task_reference",
    "run_local_assembly_reference",
    "as_extension_set",
]


def build_kmer_table(
    task: ExtensionTask, k: int, hi_q_thresh: int
) -> dict[bytes, list[int]]:
    """Algorithm 1: insert every k-mer of every candidate read.

    The value is ``[hiA,hiC,hiG,hiT, totA,totC,totG,totT]`` tallies for the
    base *following* each k-mer occurrence.  K-mers containing N or whose
    following base is N are skipped (they cannot guide a walk).

    Vectorised: all reads are concatenated, every window is grouped with
    one ``np.unique`` pass and tallies are accumulated with ``np.add.at``
    — no per-k-mer Python loop.  Keys are the raw k-byte code strings, the
    same content keys the walk and the GPU kernels use.
    """
    if not task.reads:
        return {}
    bases = np.concatenate(task.reads)
    quals = np.concatenate(task.quals)
    n = bases.size
    if n <= k:
        return {}
    # Window start positions that stay inside one read and have a next base.
    read_lens = np.fromiter((r.size for r in task.reads), dtype=np.int64)
    rid = np.repeat(np.arange(read_lens.size), read_lens)
    starts_all = np.arange(n - k)
    same_read = rid[starts_all] == rid[starts_all + k]
    win = sliding_window_view(bases, k + 1)  # window + its next base
    has_n = (win >= 4).any(axis=1)
    valid = same_read & ~has_n[: n - k]
    starts = starts_all[valid]
    if starts.size == 0:
        return {}

    keys = np.ascontiguousarray(win[starts, :k])
    nxt = win[starts, k].astype(np.int64)
    hi = quals[starts + k] >= hi_q_thresh

    void_keys = keys.view(np.dtype((np.void, k))).ravel()
    uniq, inverse = np.unique(void_keys, return_inverse=True)
    tallies = np.zeros((uniq.size, 8), dtype=np.int64)
    np.add.at(tallies, (inverse, 4 + nxt), 1)
    np.add.at(tallies, (inverse[hi], nxt[hi]), 1)

    return {uniq[i].tobytes(): tallies[i].tolist() for i in range(uniq.size)}


def mer_walk(
    seq: np.ndarray,
    table: dict[bytes, list[int]],
    k: int,
    config: LocalAssemblyConfig,
) -> tuple[list[int], WalkStatus]:
    """Algorithm 2: walk rightward from the last k bases of *seq*.

    Returns the appended base codes and the stopping status.  A visited
    set (the paper's second hash table) detects loops.
    """
    if seq.size < k:
        return [], WalkStatus.RUNOUT
    kmer = bytearray(seq[-k:].tobytes())
    visited: set[bytes] = set()
    walk: list[int] = []
    for _ in range(config.max_walk_len):
        key = bytes(kmer)
        if key in visited:
            return walk, WalkStatus.LOOP
        visited.add(key)
        entry = table.get(key)
        if entry is None:
            return walk, WalkStatus.RUNOUT
        status, base = classify_extension(
            entry[:4], entry[4:], config.min_viable, config.dominance_ratio
        )
        if status is not None:
            return walk, status
        walk.append(base)
        del kmer[0]
        kmer.append(base)
    return walk, WalkStatus.MAX_LEN


def extend_task_reference(
    task: ExtensionTask,
    config: LocalAssemblyConfig,
    stats: CpuAssemblyStats | None = None,
) -> TaskResult:
    """Run the full k-shift loop for one task."""
    if task.n_reads == 0:
        return TaskResult(cid=task.cid, side=task.side, extension="", rounds=())

    ext: list[int] = []
    rounds: list[WalkRound] = []
    state = KShiftState(k=config.k_init)
    while not state.done:
        k = state.k
        table = build_kmer_table(task, k, config.hi_q_thresh)
        if stats is not None:
            stats.n_inserts += sum(sum(v[4:]) for v in table.values())
        seq = np.concatenate([task.contig, np.array(ext, dtype=np.uint8)])
        walk, status = mer_walk(seq, table, k, config)
        ext.extend(walk)
        rounds.append(
            WalkRound(k=k, status=status, n_steps=len(walk), table_entries=len(table))
        )
        if stats is not None:
            stats.n_walk_steps += len(walk)
            stats.n_rounds += 1
        state = kshift_next(state, status, config.k_min, config.k_max, config.k_step)

    extension = decode(np.array(ext, dtype=np.uint8)) if ext else ""
    return TaskResult(cid=task.cid, side=task.side, extension=extension, rounds=tuple(rounds))


def run_local_assembly_reference(
    tasks: TaskSet, config: LocalAssemblyConfig | None = None
) -> tuple[dict[tuple[int, int], str], CpuAssemblyStats]:
    """Extend every task; returns ``{(cid, side): extension}`` + stats."""
    config = config or LocalAssemblyConfig()
    stats = CpuAssemblyStats(n_tasks=len(tasks))
    extensions: dict[tuple[int, int], str] = {}
    for task in tasks:
        result = extend_task_reference(task, config, stats)
        extensions[(task.cid, task.side)] = result.extension
        if task.n_reads:
            stats.n_tasks_with_reads += 1
    return extensions, stats


def as_extension_set(extensions: dict[tuple[int, int], str], keys=None) -> ExtensionSet:
    """The reference's ``{(cid, side): extension}`` as the engines' packed
    set, one row per ``(cid, side)`` of *keys* (default: the dict's own, in
    its order); a key without an entry is extended by ``""``."""
    keys = list(extensions if keys is None else keys)
    exts = [extensions.get(key, "") for key in keys]
    offsets = np.cumsum([0] + [len(e) for e in exts])
    cids = [cid for cid, _ in keys]
    sides = [side for _, side in keys]
    return ExtensionSet(cids, sides, encode("".join(exts)), offsets)
