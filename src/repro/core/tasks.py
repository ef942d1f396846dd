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


def _concat(arrays, dtype=np.uint8) -> np.ndarray:
    return np.concatenate(arrays) if len(arrays) else np.empty(0, dtype=dtype)


@dataclass(eq=False, slots=True)
class ExtensionTask:
    """One contig-end extension problem (already oriented rightward).

    The candidate reads are packed: read *i* is the next
    ``read_lengths[i]`` entries of ``read_bases``/``read_quals`` — the
    flat layout device batches stage.  The alignment stage hands every
    task its slices as they are; :meth:`from_reads` packs per-read arrays.
    Tasks built by :func:`tasks_from_candidates` or loaded from a dump
    share read-only buffers, so a write into one raises.
    """

    cid: int
    side: int  # LEFT or RIGHT
    contig: np.ndarray  # uint8 codes, oriented
    read_bases: np.ndarray  # candidate reads, oriented, concatenated
    read_quals: np.ndarray
    read_lengths: np.ndarray  # int64, one per read

    def __post_init__(self) -> None:
        if self.side not in (LEFT, RIGHT):
            raise ValueError(f"side must be LEFT/RIGHT, got {self.side}")
        # Reads of many tasks are concatenated and indexed by one offset
        # table, so the lengths must cover the bases and quals exactly.  A
        # Python sum: for a task's few reads NumPy's reduction costs more.
        n = sum(self.read_lengths.tolist())
        if not self.read_bases.size == self.read_quals.size == n:
            raise ValueError(
                f"task (cid={self.cid}, side={self.side}): {n} read bases by "
                f"length, {self.read_bases.size} bases, "
                f"{self.read_quals.size} quals"
            )

    @classmethod
    def from_reads(
        cls,
        cid: int,
        side: int,
        contig: np.ndarray,
        reads: Sequence[np.ndarray],
        quals: Sequence[np.ndarray],
    ) -> "ExtensionTask":
        """A task from per-read code and quality arrays."""
        if len(reads) != len(quals):
            raise ValueError("reads and quals must pair up")
        lengths = np.fromiter((r.size for r in reads), np.int64, count=len(reads))
        qlens = np.fromiter((q.size for q in quals), np.int64, count=len(quals))
        bad = np.nonzero(lengths != qlens)[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"task (cid={cid}, side={side}): read {i} has "
                f"{lengths[i]} bases but {qlens[i]} quals"
            )
        return cls(cid, side, contig, _concat(reads), _concat(quals), lengths)

    @property
    def n_reads(self) -> int:
        return int(self.read_lengths.size)

    def packed_reads(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(read_bases, read_quals, read_lengths)``: staging a batch is a
        concatenation of per-*task* blocks, not per-*read* arrays (the
        MHM2-style pack-once layout)."""
        return self.read_bases, self.read_quals, self.read_lengths

    def _split(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(np.split(flat, np.cumsum(self.read_lengths)[:-1]))

    @property
    def reads(self) -> tuple[np.ndarray, ...]:
        """Per-read views of ``read_bases``."""
        return self._split(self.read_bases) if self.n_reads else ()

    @property
    def quals(self) -> tuple[np.ndarray, ...]:
        """Per-read views of ``read_quals``."""
        return self._split(self.read_quals) if self.n_reads else ()

    @property
    def total_read_bases(self) -> int:
        return int(self.read_bases.size)

    @property
    def max_read_length(self) -> int:
        return int(self.read_lengths.max(initial=0))


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
    ``right`` attributes, where each side exposes packed ``bases``,
    ``quals`` and ``lengths`` arrays already oriented by the alignment
    stage (:class:`repro.pipeline.alignment.ContigCandidates` fits).  Each
    task takes its side's arrays as they are.
    """
    cands = list(candidates)
    seqs = [contig_seqs[c.cid] for c in cands]
    # one encode and one reverse complement for the whole contig set; the
    # revcomp of the concatenation holds contig i at the mirrored offsets
    codes = encode("".join(seqs))
    rc = revcomp_codes(codes)
    codes.setflags(write=False)
    rc.setflags(write=False)
    end = np.cumsum([len(s) for s in seqs]).tolist()
    total = end[-1] if end else 0
    tasks: list[ExtensionTask] = []
    for cand, start, stop in zip(cands, [0] + end, end):
        left, right = cand.left, cand.right
        tasks.append(
            ExtensionTask(
                cand.cid, LEFT, rc[total - stop : total - start],
                left.bases, left.quals, left.lengths,
            )
        )
        tasks.append(
            ExtensionTask(
                cand.cid, RIGHT, codes[start:stop],
                right.bases, right.quals, right.lengths,
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
