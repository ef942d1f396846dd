"""Reads, Phred qualities and the packed structure-of-arrays read batch.

A :class:`Read` is the friendly per-object API; a :class:`ReadBatch` is the
hot-path container: all bases of all reads concatenated into one ``uint8``
code array plus an offsets array, mirroring how MetaHipMer (and our GPU
driver) packs candidate reads into flat device buffers.

Paired-end convention (same as MetaHipMer's interleaved files): read ``2*i``
and read ``2*i + 1`` are mates; a read's mate index is ``i ^ 1`` within its
pair block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.sequence.dna import decode, encode, revcomp

__all__ = ["Read", "ReadBatch", "PHRED_OFFSET", "DEFAULT_QUAL", "check_offsets"]

#: FASTQ Phred+33 encoding offset.
PHRED_OFFSET = 33

#: Quality assigned when a read is constructed without explicit qualities.
DEFAULT_QUAL = 40


def check_offsets(offsets: np.ndarray, end: int, name: str = "offsets") -> None:
    """Raise ``ValueError`` unless *offsets* is a 1-D prefix table of a
    packed store: it starts at 0, never decreases and ends at *end*."""
    if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0 or offsets[-1] != end:
        raise ValueError(f"{name} must be 1-D, start at 0 and end at len(data) = {end}")
    if np.any(offsets[1:] < offsets[:-1]):
        raise ValueError(f"{name} must be non-decreasing")


@dataclass(frozen=True)
class Read:
    """A single sequencing read.

    Attributes
    ----------
    name:
        Read identifier (FASTQ header without the leading ``@``).
    seq:
        Base string over ``ACGTN``.
    quals:
        Per-base Phred scores; always the same length as ``seq``.
    """

    name: str
    seq: str
    quals: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.quals:
            object.__setattr__(self, "quals", (DEFAULT_QUAL,) * len(self.seq))
        elif len(self.quals) != len(self.seq):
            raise ValueError(
                f"read {self.name!r}: {len(self.quals)} quals for "
                f"{len(self.seq)} bases"
            )

    def __len__(self) -> int:
        return len(self.seq)

    def reverse_complement(self) -> "Read":
        """Mate-strand view of this read (qualities reversed too)."""
        return Read(self.name, revcomp(self.seq), tuple(reversed(self.quals)))

    def qual_string(self) -> str:
        """Phred+33 encoded quality string as it appears in FASTQ."""
        return "".join(chr(q + PHRED_OFFSET) for q in self.quals)

    @classmethod
    def from_qual_string(cls, name: str, seq: str, qstr: str) -> "Read":
        """Build a read from a FASTQ record's quality line."""
        return cls(name, seq, tuple(ord(c) - PHRED_OFFSET for c in qstr))


class ReadBatch:
    """Packed, immutable batch of reads (structure-of-arrays).

    Parameters
    ----------
    bases:
        ``uint8`` code array holding every read's bases back to back.
    quals:
        ``uint8`` Phred scores, same length/layout as ``bases``.
    offsets:
        ``int64`` array of length ``n_reads + 1``; read ``i`` occupies
        ``bases[offsets[i]:offsets[i+1]]``.
    names:
        Optional read names (kept out of hot paths).
    paired:
        Whether reads are interleaved mate pairs.
    """

    __slots__ = ("bases", "quals", "offsets", "names", "paired")

    def __init__(
        self,
        bases: np.ndarray,
        quals: np.ndarray,
        offsets: np.ndarray,
        names: Sequence[str] | None = None,
        paired: bool = False,
    ) -> None:
        self.bases = np.ascontiguousarray(bases, dtype=np.uint8)
        self.quals = np.ascontiguousarray(quals, dtype=np.uint8)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        check_offsets(self.offsets, self.bases.size)
        if self.quals.size != self.bases.size:
            raise ValueError("quals must align with bases")
        if paired and (self.offsets.size - 1) % 2 != 0:
            raise ValueError("paired batch must hold an even number of reads")
        self.names = list(names) if names is not None else None
        if self.names is not None and len(self.names) != self.offsets.size - 1:
            raise ValueError("names length must equal number of reads")
        self.paired = paired

    # -- construction -----------------------------------------------------

    @classmethod
    def from_reads(cls, reads: Iterable[Read], paired: bool = False) -> "ReadBatch":
        """Pack an iterable of :class:`Read` objects: one ``encode`` of the
        joined sequences, one byte string of the chained qualities."""
        reads = list(reads)
        offsets = np.zeros(len(reads) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, reads), np.int64, len(reads)), out=offsets[1:])
        bases = encode("".join(r.seq for r in reads))
        # a bytearray, not bytes: the array viewing it stays writable
        quals = bytearray(itertools.chain.from_iterable(r.quals for r in reads))
        return cls(
            bases,
            np.frombuffer(quals, dtype=np.uint8),
            offsets,
            [r.name for r in reads],
            paired=paired,
        )

    @classmethod
    def from_strings(
        cls, seqs: Iterable[str], qual: int = DEFAULT_QUAL, paired: bool = False
    ) -> "ReadBatch":
        """Pack plain strings with a constant quality — test convenience."""
        return cls.from_reads(
            (Read(f"r{i}", s, (qual,) * len(s)) for i, s in enumerate(seqs)),
            paired=paired,
        )

    @classmethod
    def empty(cls) -> "ReadBatch":
        return cls(
            np.empty(0, dtype=np.uint8),
            np.empty(0, dtype=np.uint8),
            np.zeros(1, dtype=np.int64),
            [],
        )

    # -- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        return self.offsets.size - 1

    @property
    def n_bases(self) -> int:
        return int(self.bases.size)

    def lengths(self) -> np.ndarray:
        """Per-read lengths as an ``int64`` array."""
        return np.diff(self.offsets)

    def max_read_length(self) -> int:
        """Longest read in the batch (0 for an empty batch)."""
        return int(self.lengths().max()) if len(self) else 0

    def codes(self, i: int) -> np.ndarray:
        """Code-array *view* of read ``i``."""
        return self.bases[self.offsets[i] : self.offsets[i + 1]]

    def qual_codes(self, i: int) -> np.ndarray:
        """Quality *view* of read ``i``."""
        return self.quals[self.offsets[i] : self.offsets[i + 1]]

    def seq(self, i: int) -> str:
        """Base string of read ``i``."""
        return decode(self.codes(i))

    def name(self, i: int) -> str:
        return self.names[i] if self.names is not None else f"read_{i}"

    def read(self, i: int) -> Read:
        """Materialise read ``i`` as a :class:`Read`."""
        return Read(self.name(i), self.seq(i), tuple(int(q) for q in self.qual_codes(i)))

    def mate_index(self, i: int) -> int:
        """Index of the mate of read ``i`` (paired batches only)."""
        if not self.paired:
            raise ValueError("not a paired batch")
        return i ^ 1

    def __iter__(self) -> Iterator[Read]:
        for i in range(len(self)):
            yield self.read(i)

    # -- manipulation -------------------------------------------------------

    def subset(self, indices: np.ndarray | Sequence[int]) -> "ReadBatch":
        """New batch containing the given reads, in the given order.

        Subsetting drops pairedness unless indices preserve full interleaved
        pairs — callers that need mate info should subset pair blocks.
        """
        idx = np.asarray(indices, dtype=np.int64)
        lengths = self.lengths()[idx]
        offsets = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        # source position of every output base: one gather for both arrays
        src = np.repeat(self.offsets[idx] - offsets[:-1], lengths)
        src += np.arange(offsets[-1])
        names = [self.names[i] for i in idx.tolist()] if self.names is not None else None
        return ReadBatch(self.bases[src], self.quals[src], offsets, names, paired=False)

    @classmethod
    def concat(cls, batches: Sequence["ReadBatch"]) -> "ReadBatch":
        """Concatenate batches; preserves pairedness iff all inputs agree."""
        if not batches:
            return cls.empty()
        bases = np.concatenate([b.bases for b in batches])
        quals = np.concatenate([b.quals for b in batches])
        sizes = [b.offsets[1:] for b in batches]
        shifts = np.cumsum([0] + [b.n_bases for b in batches[:-1]])
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64)] + [s + sh for s, sh in zip(sizes, shifts)]
        )
        names: list[str] | None = []
        for b in batches:
            if b.names is None:
                names = None
                break
            names.extend(b.names)
        paired = all(b.paired for b in batches)
        return cls(bases, quals, offsets, names, paired=paired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReadBatch(n_reads={len(self)}, n_bases={self.n_bases}, "
            f"paired={self.paired})"
        )
