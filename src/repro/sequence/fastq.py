"""FASTQ / FASTA parsing and writing.

MetaHipMer2 consumes interleaved paired-end FASTQ; we support plain and
gzip-compressed files for both formats.

FASTQ input has one parser, the byte-level scanner :func:`scan_fastq`, and
it never makes a per-read object:

* the file is read once (``.gz`` decompressed whole) and split into lines
  once; ``\\n``, ``\\r\\n`` and a lone ``\\r`` all end a line;
* records are four lines each; a blank line where a header is due is
  skipped, anywhere else it is an empty field (an empty read has an empty
  sequence and an empty quality line);
* every record is checked at once, and the first malformed record in file
  order raises :class:`FastqFormatError` with its record number — silently
  skipping corrupt records would bias assemblies.  In check order: header
  without ``@``, truncated record, missing ``+`` line, quality length !=
  sequence length, header without a name or not UTF-8, non-ASCII sequence
  byte, quality byte outside ``!``..``\\x7f``;
* the :class:`ReadBatch` is one ``BASE_TO_CODE`` lookup over the joined
  sequence lines (lower case maps like upper case, any other letter to
  ``N``), one ``- PHRED_OFFSET`` over the joined quality lines and one
  ``cumsum`` of the sequence lengths.  A read's name is its header up to
  the first whitespace.

That is the packed, flat read buffer the source paper's GPU path is built
on (§3.3), made straight from the file bytes.  :func:`load_read_batch`
returns it; :func:`read_fastq` and :func:`parse_fastq` iterate over it, so
the ``Read.seq`` they yield is over ``ACGTN``.
"""

from __future__ import annotations

import gzip
import io
import re
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from repro.sequence.dna import BASE_TO_CODE
from repro.sequence.read import PHRED_OFFSET, Read, ReadBatch

__all__ = [
    "FastqFormatError",
    "scan_fastq",
    "read_fastq",
    "parse_fastq",
    "write_fastq",
    "read_fasta",
    "write_fasta",
    "load_read_batch",
    "save_read_batch",
]


class FastqFormatError(ValueError):
    """Raised when a FASTQ/FASTA stream violates the format."""


def _open(path: str | Path, mode: str) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, mode + "b"))  # type: ignore[arg-type]
    return open(path, mode + "t")


def _read_bytes(path: str | Path) -> bytes:
    path = Path(path)
    data = path.read_bytes()
    return gzip.decompress(data) if path.suffix == ".gz" else data


#: header text after the ``@`` (any first character), up to the first
#: whitespace: ``header[1:].split()[0]``, one match per line
_NAME = re.compile(r"^.[^\S\n]*(\S*)", re.MULTILINE)

#: largest valid quality code: byte 0x7f
_MAX_QUAL = 0x7F - PHRED_OFFSET

#: ``BASE_TO_CODE`` as a ``bytes.translate`` table
_BASE_TO_CODE_TABLE = BASE_TO_CODE.tobytes()


def _without_skipped_blanks(lines: list[bytes]) -> list[bytes]:
    """*lines* without the blank lines that stand where a header is due."""
    kept: list[bytes] = []
    i = 0
    while i < len(lines):
        if lines[i]:
            kept += lines[i : i + 4]
            i += 4
        else:
            i += 1
    return kept


def _lengths(lines: list[bytes]) -> np.ndarray:
    return np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))


def _first_without(lines: list[bytes], lead: bytes) -> int | None:
    """Index of the first line that does not start with *lead*, if any."""
    # lines hold no b"\n", so each b"\n" + lead marks one line starting with it
    if (b"\n" + b"\n".join(lines)).count(b"\n" + lead) == len(lines):
        return None
    return next(i for i, line in enumerate(lines) if not line.startswith(lead))


def _record_of(pos: int, lengths: np.ndarray) -> int:
    """Record holding byte *pos* of lines of *lengths* joined back to back."""
    return int(np.searchsorted(np.cumsum(lengths), pos, side="right"))


def scan_fastq(data: bytes, paired: bool = False) -> ReadBatch:
    """Parse FASTQ bytes into a packed :class:`ReadBatch` (rules above)."""
    lines = data.splitlines()
    if not all(lines[0::4]):
        lines = _without_skipped_blanks(lines)
    heads = lines[0::4]
    quals = lines[3::4]
    n = len(quals)  # complete records; only the last one can be cut short
    seqs, plus = lines[1::4][:n], lines[2::4][:n]

    # (record index, check rank, message): the first in file order is raised
    found: list[tuple[int, int, str]] = []

    def flag(i: int | None, rank: int, message: str) -> None:
        if i is not None:
            found.append((i, rank, message))

    flag(_first_without(heads, b"@"), 0, "header must start with '@'")
    flag(n if n < len(heads) else None, 1, "truncated record")
    flag(_first_without(plus, b"+"), 2, "missing '+' separator line")
    seq_len, qual_len = _lengths(seqs), _lengths(quals)
    unequal = np.flatnonzero(seq_len != qual_len)
    if unequal.size:
        i = int(unequal[0])
        flag(i, 3, f"quality length {qual_len[i]} != sequence length {seq_len[i]}")

    joined = b"\n".join(heads)
    try:
        text = joined.decode()
    except UnicodeDecodeError as exc:
        flag(joined.count(b"\n", 0, exc.start), 4, "header is not UTF-8")
        # an undecodable byte is not whitespace: every other name still reads
        text = joined.decode(errors="surrogateescape")
    names = _NAME.findall(text)
    flag(names.index("") if "" in names else None, 4, "header holds no read name")

    seq_bytes = b"".join(seqs)
    if not seq_bytes.isascii():
        pos = int(np.argmax(np.frombuffer(seq_bytes, dtype=np.uint8) >= 0x80))
        flag(_record_of(pos, seq_len), 5, "non-ASCII byte in sequence")
    q = np.frombuffer(b"".join(quals), dtype=np.uint8) - np.uint8(PHRED_OFFSET)
    if q.size and q.max() > _MAX_QUAL:
        pos = int(np.argmax(q > _MAX_QUAL))
        byte = bytes([(int(q[pos]) + PHRED_OFFSET) & 0xFF])
        flag(_record_of(pos, qual_len), 6, f"quality byte {byte!r} is not Phred+33")

    if found:
        i, _, message = min(found)
        raise FastqFormatError(f"record {i + 1}: {message}")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(seq_len, out=offsets[1:])
    # a bytearray keeps the code array writable
    bases = bytearray(seq_bytes).translate(_BASE_TO_CODE_TABLE)
    return ReadBatch(
        np.frombuffer(bases, dtype=np.uint8), q, offsets, names, paired=paired
    )


def load_read_batch(path: str | Path, paired: bool = True) -> ReadBatch:
    """Load a FASTQ file (``.gz`` transparently) into a packed :class:`ReadBatch`."""
    return scan_fastq(_read_bytes(path), paired=paired)


def read_fastq(path: str | Path) -> Iterator[Read]:
    """Yield reads from a FASTQ file (``.gz`` transparently supported)."""
    yield from load_read_batch(path, paired=False)


def parse_fastq(fh: Iterable[str]) -> Iterator[Read]:
    """Yield the reads of FASTQ text given as lines (an open text stream)."""
    yield from scan_fastq("".join(fh).encode())


def write_fastq(path: str | Path, reads: Iterable[Read]) -> int:
    """Write reads as FASTQ; returns the number of records written."""
    n = 0
    with _open(path, "w") as fh:
        for r in reads:
            fh.write(f"@{r.name}\n{r.seq}\n+\n{r.qual_string()}\n")
            n += 1
    return n


def read_fasta(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield ``(name, sequence)`` pairs from a FASTA file."""
    with _open(path, "r") as fh:
        name: str | None = None
        chunks: list[str] = []
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    yield name, "".join(chunks).upper()
                name = line[1:].split()[0]
                chunks = []
            else:
                if name is None:
                    raise FastqFormatError("FASTA data before first '>' header")
                chunks.append(line)
        if name is not None:
            yield name, "".join(chunks).upper()


def write_fasta(path: str | Path, records: Iterable[tuple[str, str]], width: int = 80) -> int:
    """Write ``(name, sequence)`` records as FASTA with wrapped lines."""
    n = 0
    with _open(path, "w") as fh:
        for name, seq in records:
            fh.write(f">{name}\n")
            for i in range(0, len(seq), width):
                fh.write(seq[i : i + width] + "\n")
            n += 1
    return n


def save_read_batch(path: str | Path, batch: ReadBatch) -> int:
    """Write a :class:`ReadBatch` out as FASTQ."""
    return write_fastq(path, iter(batch))
