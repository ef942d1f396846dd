"""Tests for Read and the packed ReadBatch container."""

import numpy as np
import pytest
from fastq_reference import (
    pack_reads_reference,
    partition_part_reference,
    subset_reference,
)

from repro.distributed.rank import partition_part
from repro.sequence.read import DEFAULT_QUAL, Read, ReadBatch


class TestRead:
    def test_default_quals(self):
        r = Read("r", "ACGT")
        assert r.quals == (DEFAULT_QUAL,) * 4

    def test_qual_length_mismatch(self):
        with pytest.raises(ValueError):
            Read("r", "ACGT", (30, 30))

    def test_len(self):
        assert len(Read("r", "ACGTA")) == 5

    def test_reverse_complement(self):
        r = Read("r", "AACG", (10, 20, 30, 40))
        rc = r.reverse_complement()
        assert rc.seq == "CGTT"
        assert rc.quals == (40, 30, 20, 10)

    def test_qual_string_roundtrip(self):
        r = Read("r", "ACG", (0, 20, 41))
        r2 = Read.from_qual_string("r", "ACG", r.qual_string())
        assert r2.quals == r.quals


class TestReadBatch:
    def test_from_reads_accessors(self):
        reads = [Read("a", "ACGT"), Read("b", "GG"), Read("c", "TTTAA")]
        b = ReadBatch.from_reads(reads)
        assert len(b) == 3
        assert b.n_bases == 11
        assert b.seq(0) == "ACGT"
        assert b.seq(1) == "GG"
        assert b.seq(2) == "TTTAA"
        assert b.name(1) == "b"
        assert b.lengths().tolist() == [4, 2, 5]
        assert b.max_read_length() == 5

    def test_from_strings(self):
        b = ReadBatch.from_strings(["AC", "GT"], qual=30)
        assert b.qual_codes(0).tolist() == [30, 30]

    def test_empty(self):
        b = ReadBatch.empty()
        assert len(b) == 0
        assert b.max_read_length() == 0

    def test_read_roundtrip(self):
        reads = [Read("a", "ACGT", (1, 2, 3, 4))]
        b = ReadBatch.from_reads(reads)
        assert b.read(0) == reads[0]

    def test_iter(self):
        b = ReadBatch.from_strings(["AC", "GT", "AA"])
        assert [r.seq for r in b] == ["AC", "GT", "AA"]

    def test_offsets_validation(self):
        bases = np.zeros(4, dtype=np.uint8)
        quals = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ValueError):
            ReadBatch(bases, quals, np.array([0, 2], dtype=np.int64))  # end != 4
        with pytest.raises(ValueError):
            ReadBatch(bases, quals, np.array([0, 3, 2, 4], dtype=np.int64))
        with pytest.raises(ValueError):
            ReadBatch(bases, np.zeros(3, dtype=np.uint8), np.array([0, 4]))

    def test_paired_requires_even(self):
        b = ReadBatch.from_strings(["AC", "GT"], paired=False)
        with pytest.raises(ValueError):
            ReadBatch(b.bases, b.quals, np.array([0, 4], dtype=np.int64), paired=True)

    def test_mate_index(self):
        b = ReadBatch.from_strings(["AC", "GT"], paired=True)
        assert b.mate_index(0) == 1
        assert b.mate_index(1) == 0
        single = ReadBatch.from_strings(["AC"])
        with pytest.raises(ValueError):
            single.mate_index(0)

    def test_subset(self):
        b = ReadBatch.from_strings(["AC", "GGG", "TT", "AAAA"])
        s = b.subset([2, 0])
        assert [r.seq for r in s] == ["TT", "AC"]
        assert s.names == ["r2", "r0"]

    def test_concat(self):
        a = ReadBatch.from_strings(["AC"], paired=False)
        b = ReadBatch.from_strings(["GT", "AA"], paired=True)
        c = ReadBatch.concat([a, b])
        assert [r.seq for r in c] == ["AC", "GT", "AA"]
        assert not c.paired  # mixed pairedness drops the flag

    def test_concat_empty_list(self):
        assert len(ReadBatch.concat([])) == 0

    def test_views_not_copies(self):
        b = ReadBatch.from_strings(["ACGT"])
        v = b.codes(0)
        assert v.base is b.bases or v.base is not None


def _fields(b: ReadBatch) -> tuple:
    return (b.bases.tolist(), b.quals.tolist(), b.offsets.tolist(), b.names, b.paired)


def _ragged_batch(n_reads: int, paired: bool, named: bool = True) -> ReadBatch:
    """Reads of lengths 0..9 (every fifth empty) with distinct bytes."""
    rng = np.random.default_rng(n_reads)
    lengths = (np.arange(n_reads) * 7 + 3) % 10 * (np.arange(n_reads) % 5 != 4)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    bases = rng.integers(0, 5, offsets[-1]).astype(np.uint8)
    quals = rng.integers(0, 94, offsets[-1]).astype(np.uint8)
    names = [f"q{i}" for i in range(n_reads)] if named else None
    return ReadBatch(bases, quals, offsets, names, paired=paired)


class TestAgainstPerReadReference:
    """``from_reads``, ``subset`` and ``partition_part`` equal the per-read
    loops they replaced (``fastq_reference.py``)."""

    def test_from_reads(self):
        reads = [Read("a", "acgTN", (0, 1, 2, 93, 255)), Read("b", ""), Read("c", "RYG")]
        assert _fields(ReadBatch.from_reads(reads)) == _fields(pack_reads_reference(reads))
        pair = reads[:2]
        assert _fields(ReadBatch.from_reads(pair, paired=True)) == _fields(
            pack_reads_reference(pair, paired=True)
        )
        assert _fields(ReadBatch.from_reads([])) == _fields(pack_reads_reference([]))

    def test_from_reads_rejects_quality_outside_a_byte(self):
        for q in (-2, 256):
            with pytest.raises(ValueError):
                ReadBatch.from_reads([Read("a", "A", (q,))])

    def test_from_reads_arrays_are_writable(self):
        b = ReadBatch.from_reads([Read("a", "ACG")])
        assert b.bases.flags.writeable and b.quals.flags.writeable

    @pytest.mark.parametrize("named", [True, False])
    @pytest.mark.parametrize("n_reads", [0, 1, 7, 12])
    def test_subset(self, n_reads, named):
        b = _ragged_batch(n_reads, paired=False, named=named)
        rng = np.random.default_rng(5)
        for idx in ([], list(range(n_reads))[::-1], rng.integers(0, max(n_reads, 1), 9)):
            if n_reads == 0 and len(idx):
                continue
            assert _fields(b.subset(idx)) == _fields(subset_reference(b, idx))

    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "n_reads, paired", [(0, False), (7, False), (12, False), (10, True), (12, True)]
    )
    def test_partition_part(self, n_reads, paired, n_ranks):
        b = _ragged_batch(n_reads, paired)
        parts = [partition_part(b, n_ranks, r) for r in range(n_ranks)]
        for r, part in enumerate(parts):
            assert _fields(part) == _fields(partition_part_reference(b, n_ranks, r))
        assert _fields(ReadBatch.concat(parts)) == _fields(b)

    def test_partition_part_shares_the_parent_buffers(self):
        b = _ragged_batch(12, paired=True)
        part = partition_part(b, 2, 1)
        assert np.shares_memory(part.bases, b.bases)
        assert np.shares_memory(part.quals, b.quals)
