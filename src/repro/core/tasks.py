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
container's ``left``/``right``/``cid`` attributes).  Contigs come and go
as one packed :class:`~repro.sequence.contigs.ContigSet`, and the
extensions both engines return as one packed :class:`ExtensionSet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.sequence.contigs import Contig, ContigSet
from repro.sequence.dna import revcomp_codes
from repro.sequence.read import check_offsets

__all__ = [
    "LEFT",
    "RIGHT",
    "ExtensionTask",
    "TaskSet",
    "ExtensionSet",
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
        """Contig ids in order of first appearance."""
        return list(self.reads_per_contig())


def _as_contig_set(contigs: ContigSet | Mapping[int, str]) -> ContigSet:
    """benchmarks/e2e/trace.py passes ``{cid: seq}`` dicts (packed here at
    depth 1.0) to both functions below; ROADMAP 1(c) deletes it."""
    if isinstance(contigs, ContigSet):
        return contigs
    return ContigSet(Contig(cid, seq) for cid, seq in contigs.items())


def tasks_from_candidates(contigs: ContigSet, candidates: Iterable) -> TaskSet:
    """Build oriented tasks from per-contig candidate containers.

    *candidates* is any iterable of objects with ``cid``, ``left`` and
    ``right`` attributes, where each side exposes packed ``bases``,
    ``quals`` and ``lengths`` arrays already oriented by the alignment
    stage (:class:`repro.pipeline.alignment.ContigCandidates` fits).  Each
    task takes its side's arrays as they are, and a read-only slice of the
    contig codes (right) or of their reverse complement (left; contig *i*
    at the mirrored offsets).
    """
    contigs = _as_contig_set(contigs)
    codes = contigs.codes.view()
    rc = revcomp_codes(codes)
    codes.setflags(write=False)
    rc.setflags(write=False)
    total, bounds = codes.size, contigs.offsets.tolist()
    slot = dict(zip(contigs.cids.tolist(), range(len(contigs))))
    tasks: list[ExtensionTask] = []
    for cand in candidates:
        start, stop = bounds[slot[cand.cid]], bounds[slot[cand.cid] + 1]
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


class ExtensionSet:
    """Every task's extension in one packed code buffer: row *i*, for task
    *i* of the :class:`TaskSet` that was run, extends the ``sides[i]`` end
    of contig ``cids[i]`` by ``codes[offsets[i]:offsets[i + 1]]``, oriented
    like its task.  Raises ``ValueError`` unless the offsets are a prefix
    table of ``codes``, every side is LEFT or RIGHT, no ``(cid, side)``
    repeats and every code is a base."""

    __slots__ = ("cids", "sides", "codes", "offsets")

    def __init__(self, cids, sides, codes, offsets) -> None:
        cids = np.ascontiguousarray(cids, dtype=np.int64)
        sides = np.ascontiguousarray(sides, dtype=np.int8)
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        n = cids.size
        if (cids.ndim, sides.shape, codes.ndim, offsets.shape) != (1, (n,), 1, (n + 1,)):
            raise ValueError(f"{n} extensions need n sides, 1-D codes and n + 1 offsets")
        check_offsets(offsets, codes.size)
        if np.any((sides != LEFT) & (sides != RIGHT)):
            raise ValueError("sides must be LEFT or RIGHT")
        keys = np.sort(2 * cids + sides)
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("(cid, side) pairs must be unique")
        if codes.max(initial=0) > 3:
            raise ValueError(f"extension code {codes.max()} is not one of ACGT")
        self.cids, self.sides, self.codes, self.offsets = cids, sides, codes, offsets

    @classmethod
    def of(cls, tasks: Sequence[ExtensionTask], codes, lengths) -> "ExtensionSet":
        """Task *i* of *tasks* extended by the next ``lengths[i]`` codes."""
        ids = np.array([(t.cid, t.side) for t in tasks], dtype=np.int64).reshape(-1, 2)
        offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        return cls(ids[:, 0], ids[:, 1], codes, offsets)

    def __len__(self) -> int:
        return self.cids.size

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtensionSet) and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in self.__slots__
        )


def apply_extensions(contigs: ContigSet, extensions: ExtensionSet) -> ContigSet:
    """The extended contigs, in *contigs*' order with their cids and depths.

    A left-side extension was produced walking right on rc(contig), so it
    is reverse-complemented and prepended::

        final = revcomp(ext_left) + contig + ext_right

    Each row finds its contig by cid (a missing row is an empty
    extension; a cid that is not a contig raises ``ValueError``), and the
    new codes are one gather of the three pieces per contig.
    """
    contigs = _as_contig_set(contigs)
    by_cid = np.argsort(contigs.cids)
    at = np.searchsorted(contigs.cids, extensions.cids, sorter=by_cid)
    slot = by_cid[at[at < len(contigs)]]
    if slot.size < at.size or np.any(contigs.cids[slot] != extensions.cids):
        raise ValueError("an extension's cid is not one of the contigs")
    lens = np.zeros((2, len(contigs)), dtype=np.int64)
    first = np.zeros_like(lens)
    lens[extensions.sides, slot] = extensions.lengths()
    first[extensions.sides, slot] = extensions.offsets[:-1]
    # the pieces' source: the contig codes, the reverse complement of the
    # extension codes (row i at the mirrored offsets), the extension codes
    total, m = contigs.codes.size, extensions.codes.size
    src = np.concatenate([contigs.codes, revcomp_codes(extensions.codes), extensions.codes])
    piece_start = np.stack(
        [total + m - first[0] - lens[0], contigs.offsets[:-1], total + m + first[1]]
    )
    piece_len = np.stack([lens[0], contigs.lengths(), lens[1]])
    offsets = np.zeros(len(contigs) + 1, dtype=np.int64)
    np.cumsum(piece_len.sum(axis=0), out=offsets[1:])
    # contig by contig, piece by piece
    piece_start, piece_len = piece_start.T.ravel(), piece_len.T.ravel()
    idx = np.repeat(piece_start - (np.cumsum(piece_len) - piece_len), piece_len)
    idx += np.arange(idx.size, dtype=np.int64)
    return ContigSet.from_arrays(src[idx], offsets, contigs.cids, contigs.depths)
