"""Per-record references for the array-built input path.

The line-oriented FASTQ parser, moved here from ``repro.sequence.fastq``
when that module became one byte-level scanner, and the per-read packing
loops that ``ReadBatch.from_reads``, ``ReadBatch.subset`` and
``partition_part`` used before they became single array passes.  They
define the contract: the scanner must produce the same ``bases``,
``quals``, ``offsets``, ``names`` and ``paired`` as
``pack_reads_reference(read_fastq_reference(path))`` and raise the same
exception class with the same record number.

Two fixes were made to the parser on the move, so that it states the
contract rather than the old bugs: a header that is just ``@`` (plus
whitespace) and a quality character below ``!`` now raise
:class:`FastqFormatError` with the record number instead of ``IndexError``
and NumPy's ``OverflowError``.

Not named ``reference.py``: under prepend import mode that would collide
with ``tests/pipeline/reference.py``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.distributed.rank import _partition_bounds
from repro.sequence.dna import encode
from repro.sequence.fastq import FastqFormatError, _open
from repro.sequence.read import PHRED_OFFSET, Read, ReadBatch

__all__ = [
    "parse_fastq_reference",
    "read_fastq_reference",
    "load_read_batch_reference",
    "pack_reads_reference",
    "subset_reference",
    "partition_part_reference",
]


def parse_fastq_reference(fh: Iterable[str]) -> Iterator[Read]:
    """Parse an open FASTQ text stream, one record at a time."""
    record = 0
    it = iter(fh)
    while True:
        header = next(it, None)
        if header is None:
            return
        header = header.rstrip("\n")
        if not header:  # tolerate blank lines where a header is due
            continue
        record += 1
        if not header.startswith("@"):
            raise FastqFormatError(f"record {record}: header must start with '@'")
        try:
            seq = next(it).rstrip("\n")
            plus = next(it).rstrip("\n")
            qual = next(it).rstrip("\n")
        except StopIteration:
            raise FastqFormatError(f"record {record}: truncated record") from None
        if not plus.startswith("+"):
            raise FastqFormatError(f"record {record}: missing '+' separator line")
        if len(qual) != len(seq):
            raise FastqFormatError(
                f"record {record}: quality length {len(qual)} != "
                f"sequence length {len(seq)}"
            )
        name = header[1:].split()
        if not name:
            raise FastqFormatError(f"record {record}: header holds no read name")
        if qual and min(qual) < chr(PHRED_OFFSET):
            raise FastqFormatError(f"record {record}: quality below '!'")
        yield Read.from_qual_string(name[0], seq.upper(), qual)


def read_fastq_reference(path: str | Path) -> Iterator[Read]:
    """Yield reads from a FASTQ file through a text stream."""
    with _open(path, "r") as fh:
        yield from parse_fastq_reference(fh)


def pack_reads_reference(reads: Iterable[Read], paired: bool = False) -> ReadBatch:
    """Pack :class:`Read` objects one read at a time."""
    reads = list(reads)
    lengths = np.fromiter((len(r) for r in reads), dtype=np.int64, count=len(reads))
    offsets = np.zeros(len(reads) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    bases = np.empty(int(offsets[-1]), dtype=np.uint8)
    quals = np.empty(int(offsets[-1]), dtype=np.uint8)
    for i, r in enumerate(reads):
        sl = slice(offsets[i], offsets[i + 1])
        bases[sl] = encode(r.seq)
        quals[sl] = np.asarray(r.quals, dtype=np.uint8)
    return ReadBatch(bases, quals, offsets, [r.name for r in reads], paired=paired)


def load_read_batch_reference(path: str | Path, paired: bool = True) -> ReadBatch:
    return pack_reads_reference(read_fastq_reference(path), paired=paired)


def subset_reference(batch: ReadBatch, indices) -> ReadBatch:
    """``ReadBatch.subset`` as a per-read copy loop."""
    idx = np.asarray(indices, dtype=np.int64)
    lengths = batch.lengths()[idx]
    offsets = np.zeros(idx.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    bases = np.empty(int(offsets[-1]), dtype=np.uint8)
    quals = np.empty(int(offsets[-1]), dtype=np.uint8)
    for j, i in enumerate(idx):
        sl = slice(offsets[j], offsets[j + 1])
        bases[sl] = batch.codes(int(i))
        quals[sl] = batch.qual_codes(int(i))
    names = [batch.name(int(i)) for i in idx] if batch.names is not None else None
    return ReadBatch(bases, quals, offsets, names, paired=False)


def partition_part_reference(batch: ReadBatch, n_ranks: int, rank: int) -> ReadBatch:
    """``partition_part`` as a per-read subset of the rank's block."""
    bounds = _partition_bounds(batch, n_ranks)
    part = subset_reference(batch, np.arange(bounds[rank], bounds[rank + 1]))
    return ReadBatch(part.bases, part.quals, part.offsets, part.names, paired=batch.paired)
