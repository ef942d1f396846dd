"""Extension tasks: the unit of work of local assembly.

An :class:`ExtensionTask` is one (contig, side) extension problem with its
candidate reads, *pre-oriented* so that every task is "extend rightward":

* right side — contig and reads as aligned;
* left side — reverse-complemented contig and reads (extending the left
  end of C equals extending the right end of rc(C); the final sequence is
  reassembled by :func:`apply_extensions`).

Tasks are deliberately independent of the pipeline's alignment types so
``repro.core`` has no dependency on ``repro.pipeline``; the orchestrator
converts via :func:`tasks_from_candidates` (duck-typed on the candidate
container's ``left``/``right``/``cid`` attributes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.sequence.dna import encode, revcomp, revcomp_codes

__all__ = [
    "LEFT",
    "RIGHT",
    "ExtensionTask",
    "TaskSet",
    "tasks_from_candidates",
    "apply_extensions",
]

LEFT = 0
RIGHT = 1


@dataclass(frozen=True)
class ExtensionTask:
    """One contig-end extension problem (already oriented rightward)."""

    cid: int
    side: int  # LEFT or RIGHT
    contig: np.ndarray  # uint8 codes, oriented
    reads: tuple[np.ndarray, ...]  # candidate reads, oriented
    quals: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.side not in (LEFT, RIGHT):
            raise ValueError(f"side must be LEFT/RIGHT, got {self.side}")
        if len(self.reads) != len(self.quals):
            raise ValueError("reads and quals must pair up")
        # Reads of many tasks are concatenated and indexed by one offset
        # table; one short quality array would shift every later task's.
        for i, (read, qual) in enumerate(zip(self.reads, self.quals)):
            if read.size != qual.size:
                raise ValueError(
                    f"task (cid={self.cid}, side={self.side}): read {i} has "
                    f"{read.size} bases but {qual.size} quals"
                )

    @property
    def n_reads(self) -> int:
        return len(self.reads)

    def packed_reads(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(reads_cat, quals_cat, lengths)`` — the task's candidate reads
        flattened into contiguous arrays, computed once and cached.

        Staging a batch is then a concatenation of per-*task* blocks
        instead of per-*read* arrays (the MHM2-style pack-once layout);
        the cache is sound because tasks are frozen and their read arrays
        are never mutated.
        """
        cached = self.__dict__.get("_packed_reads")
        if cached is None:
            lengths = np.fromiter(
                (r.size for r in self.reads), np.int64, count=len(self.reads)
            )
            reads_cat = (
                np.concatenate(self.reads)
                if self.reads
                else np.empty(0, dtype=np.uint8)
            )
            quals_cat = (
                np.concatenate(self.quals)
                if self.quals
                else np.empty(0, dtype=np.uint8)
            )
            cached = (reads_cat, quals_cat, lengths)
            object.__setattr__(self, "_packed_reads", cached)
        return cached

    @property
    def total_read_bases(self) -> int:
        return int(sum(r.size for r in self.reads))

    @property
    def max_read_length(self) -> int:
        return max((r.size for r in self.reads), default=0)


class TaskSet:
    """All extension tasks of one local-assembly round, grouped by contig."""

    def __init__(self, tasks: Sequence[ExtensionTask]) -> None:
        self.tasks = list(tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def __getitem__(self, i: int) -> ExtensionTask:
        return self.tasks[i]

    def reads_per_contig(self) -> dict[int, int]:
        """Total candidate reads per contig (both sides) — the §3.1
        binning key."""
        out: dict[int, int] = {}
        for t in self.tasks:
            out[t.cid] = out.get(t.cid, 0) + t.n_reads
        return out

    def contig_ids(self) -> list[int]:
        seen: list[int] = []
        prev: set[int] = set()
        for t in self.tasks:
            if t.cid not in prev:
                prev.add(t.cid)
                seen.append(t.cid)
        return seen


def tasks_from_candidates(
    contig_seqs: Mapping[int, str],
    candidates: Iterable,
) -> TaskSet:
    """Build oriented tasks from per-contig candidate containers.

    *candidates* is any iterable of objects with ``cid``, ``left`` and
    ``right`` attributes, where each side exposes ``seqs``/``quals`` lists
    of code/quality arrays already oriented by the alignment stage
    (:class:`repro.pipeline.alignment.ContigCandidates` fits).
    """
    tasks: list[ExtensionTask] = []
    for cand in candidates:
        seq = contig_seqs[cand.cid]
        codes = encode(seq)
        tasks.append(
            ExtensionTask(
                cid=cand.cid,
                side=LEFT,
                contig=revcomp_codes(codes),
                reads=tuple(cand.left.seqs),
                quals=tuple(cand.left.quals),
            )
        )
        tasks.append(
            ExtensionTask(
                cid=cand.cid,
                side=RIGHT,
                contig=codes,
                reads=tuple(cand.right.seqs),
                quals=tuple(cand.right.quals),
            )
        )
    return TaskSet(tasks)


def apply_extensions(
    contig_seqs: Mapping[int, str],
    extensions: Mapping[tuple[int, int], str],
) -> dict[int, str]:
    """Assemble final sequences from per-(cid, side) extension strings.

    A left-side extension was produced walking right on rc(contig), so it
    is reverse-complemented and prepended::

        final = revcomp(ext_left) + contig + ext_right
    """
    out: dict[int, str] = {}
    for cid, seq in contig_seqs.items():
        ext_l = extensions.get((cid, LEFT), "")
        ext_r = extensions.get((cid, RIGHT), "")
        out[cid] = revcomp(ext_l) + seq + ext_r
    return out
