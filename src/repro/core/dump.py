"""Local-assembly input dumps (the paper's §4.1 standalone methodology).

"For standalone runs we used the arcticsynth dataset and processed it
through the MetaHipMer pipeline to dump the contigs and their candidate
reads that are input to the local assembly module.  This data dump was
then used to evaluate the performance of the GPU local-assembly kernels."

:func:`save_tasks` / :func:`load_tasks` persist a :class:`TaskSet` to one
``.npz`` file (flat packed arrays — the exact structure-of-arrays layout
the device batches use), so kernel studies can be decoupled from pipeline
runs and reproduced bit-for-bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.tasks import ExtensionTask, TaskSet, _concat

__all__ = ["save_tasks", "load_tasks", "DUMP_FORMAT_VERSION"]

DUMP_FORMAT_VERSION = 1


def save_tasks(path: str | Path, tasks: TaskSet) -> None:
    """Serialise a task set to a compressed ``.npz`` dump."""
    tasks = list(tasks)
    read_lens = _concat([t.read_lengths for t in tasks], np.int64)
    contig_lens = np.array([t.contig.size for t in tasks], dtype=np.int64)
    n_reads = np.array([t.n_reads for t in tasks], dtype=np.int64)
    contig_offsets, task_read_start, read_offsets = (
        np.concatenate(([0], np.cumsum(x))) for x in (contig_lens, n_reads, read_lens)
    )
    np.savez_compressed(
        path,
        version=np.int64(DUMP_FORMAT_VERSION),
        cids=np.array([t.cid for t in tasks], dtype=np.int64),
        sides=np.array([t.side for t in tasks], dtype=np.int8),
        contig_offsets=contig_offsets,
        contigs=_concat([t.contig for t in tasks]),
        task_read_start=task_read_start,
        read_offsets=read_offsets,
        reads=_concat([t.read_bases for t in tasks]),
        quals=_concat([t.read_quals for t in tasks]),
    )


def load_tasks(path: str | Path) -> TaskSet:
    """Load a task set saved by :func:`save_tasks`; every task's arrays
    are read-only slices of the dump's flat arrays."""
    with np.load(path) as data:
        version = int(data["version"])
        if version != DUMP_FORMAT_VERSION:
            raise ValueError(
                f"unsupported dump version {version} "
                f"(expected {DUMP_FORMAT_VERSION})"
            )
        cids = data["cids"].tolist()
        sides = data["sides"].tolist()
        contig_offsets = data["contig_offsets"].tolist()
        contigs = data["contigs"]
        task_read_start = data["task_read_start"].tolist()
        read_offsets = data["read_offsets"]
        reads = data["reads"]
        quals = data["quals"]

    read_lens = np.diff(read_offsets)
    for a in (contigs, reads, quals, read_lens):
        a.setflags(write=False)
    base_at = read_offsets[task_read_start].tolist()
    return TaskSet(
        [
            ExtensionTask(
                cid,
                side,
                contigs[contig_offsets[i] : contig_offsets[i + 1]],
                reads[base_at[i] : base_at[i + 1]],
                quals[base_at[i] : base_at[i + 1]],
                read_lens[task_read_start[i] : task_read_start[i + 1]],
            )
            for i, (cid, side) in enumerate(zip(cids, sides))
        ]
    )
