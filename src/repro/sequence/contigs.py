"""Contigs as one packed store (the :class:`~repro.sequence.read.ReadBatch`
layout), from the de Bruijn graph to FASTA; a :class:`Contig` is the
per-record view that iteration and indexing yield, for tests and output."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.sequence.dna import N_CODE, decode, encode
from repro.sequence.read import check_offsets

__all__ = ["Contig", "ContigSet"]


@dataclass(frozen=True)
class Contig:
    """One contig: a stable ``cid`` (kept across local-assembly extension),
    its bases and its mean k-mer depth."""

    cid: int
    seq: str
    depth: float = 1.0

    def __len__(self) -> int:
        return len(self.seq)


class ContigSet:
    """Contig ``i`` is ``codes[offsets[i]:offsets[i + 1]]`` (``uint8``;
    ``int64`` offsets, n + 1) with id ``cids[i]`` (``int64``) and depth
    ``depths[i]`` (``float64``).  ``ContigSet(records)`` packs records,
    :meth:`from_arrays` takes arrays as they are; both raise ``ValueError``
    unless the offsets run from 0 to ``codes.size`` without decreasing,
    every code is ACGTN and the cids are unique and non-negative."""

    __slots__ = ("codes", "offsets", "cids", "depths")

    def __init__(self, contigs: Iterable[Contig] = ()) -> None:
        contigs = list(contigs)
        n = len(contigs)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, contigs), np.int64, n), out=offsets[1:])
        cids = np.fromiter((c.cid for c in contigs), np.int64, n)
        depths = np.fromiter((c.depth for c in contigs), np.float64, n)
        self._set(encode("".join(c.seq for c in contigs)), offsets, cids, depths)

    @classmethod
    def from_arrays(cls, codes, offsets, cids, depths) -> "ContigSet":
        """The set over packed arrays, not copied when of the right dtype."""
        self = cls.__new__(cls)
        self._set(codes, offsets, cids, depths)
        return self

    def _set(self, codes, offsets, cids, depths) -> None:
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        cids = np.ascontiguousarray(cids, dtype=np.int64)
        depths = np.ascontiguousarray(depths, dtype=np.float64)
        n = cids.size
        if (codes.ndim, cids.ndim, offsets.shape, depths.shape) != (1, 1, (n + 1,), (n,)):
            raise ValueError(f"{n} contigs need 1-D codes, n + 1 offsets and n depths")
        check_offsets(offsets, codes.size)
        if codes.max(initial=0) > N_CODE:
            raise ValueError(f"base code {codes.max()} is not one of ACGTN")
        ordered = np.sort(cids)
        if n and (ordered[0] < 0 or np.any(ordered[1:] == ordered[:-1])):
            raise ValueError("cids must be unique and non-negative")
        self.codes, self.offsets, self.cids, self.depths = codes, offsets, cids, depths

    def __len__(self) -> int:
        return self.cids.size

    def __iter__(self) -> Iterator[Contig]:
        for record in zip(self.cids.tolist(), self.sequences(), self.depths.tolist()):
            yield Contig(*record)

    def __getitem__(self, i: int) -> Contig:
        i = range(len(self))[i]
        a, b = self.offsets[i : i + 2].tolist()
        return Contig(int(self.cids[i]), decode(self.codes[a:b]), float(self.depths[i]))

    def items(self) -> Iterator[tuple[int, str]]:
        """``(cid, seq)`` pairs.  benchmarks/e2e/trace.py reads
        ``apply_extensions(...).items()``; ROADMAP 1(c) deletes it."""
        return zip(self.cids.tolist(), self.sequences())

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def lengths_by_cid(self) -> np.ndarray:
        """Dense cid → length array (cids are small non-negative ints)."""
        out = np.zeros(int(self.cids.max(initial=-1)) + 1, dtype=np.int64)
        out[self.cids] = self.lengths()
        return out

    def total_bases(self) -> int:
        return int(self.codes.size)

    def sequences(self) -> list[str]:
        """Every contig's bases as a string: one decode of the buffer."""
        text, bounds = decode(self.codes), self.offsets.tolist()
        return [text[a:b] for a, b in zip(bounds, bounds[1:])]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ContigSet(n={len(self)}, bases={self.total_bases()})"
