"""FASTQ/FASTA I/O tests, including gzip and malformed inputs.

The scanner is checked against the per-record line parser in
``fastq_reference.py``: same batch on every valid file, same exception
class and record number on every malformed one.
"""

import gzip
import re

import pytest
from fastq_reference import load_read_batch_reference
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sequence.fastq import (
    FastqFormatError,
    load_read_batch,
    parse_fastq,
    read_fasta,
    read_fastq,
    save_read_batch,
    scan_fastq,
    write_fasta,
    write_fastq,
)
from repro.sequence.read import Read, ReadBatch


@pytest.fixture
def reads():
    return [
        Read("r1/1", "ACGTACGT", (30,) * 8),
        Read("r1/2", "TTGGCCAA", (20,) * 8),
    ]


class TestFastq:
    def test_roundtrip(self, tmp_path, reads):
        p = tmp_path / "x.fastq"
        assert write_fastq(p, reads) == 2
        back = list(read_fastq(p))
        assert back == reads

    def test_gzip_roundtrip(self, tmp_path, reads):
        p = tmp_path / "x.fastq.gz"
        write_fastq(p, reads)
        assert list(read_fastq(p)) == reads

    def test_batch_roundtrip(self, tmp_path, reads):
        p = tmp_path / "b.fastq"
        save_read_batch(p, ReadBatch.from_reads(reads, paired=True))
        b = load_read_batch(p)
        assert b.paired and len(b) == 2 and b.seq(0) == "ACGTACGT"

    def test_header_name_truncated_at_space(self):
        rec = "@name extra stuff\nACGT\n+\nIIII\n"
        (r,) = list(parse_fastq(rec.splitlines(True)))
        assert r.name == "name"

    def test_lowercase_uppercased(self):
        rec = "@n\nacgt\n+\nIIII\n"
        (r,) = list(parse_fastq(rec.splitlines(True)))
        assert r.seq == "ACGT"

    def test_bad_header(self):
        with pytest.raises(FastqFormatError, match="header"):
            list(parse_fastq("ACGT\nACGT\n+\nIIII\n".splitlines(True)))

    def test_truncated_record(self):
        with pytest.raises(FastqFormatError, match="truncated"):
            list(parse_fastq("@n\nACGT\n".splitlines(True)))

    def test_missing_plus(self):
        with pytest.raises(FastqFormatError, match=r"\+"):
            list(parse_fastq("@n\nACGT\nIIII\nIIII\n".splitlines(True)))

    def test_qual_length_mismatch(self):
        with pytest.raises(FastqFormatError, match="length"):
            list(parse_fastq("@n\nACGT\n+\nII\n".splitlines(True)))

    def test_trailing_blank_lines_ok(self):
        recs = list(parse_fastq("@n\nACGT\n+\nIIII\n\n\n".splitlines(True)))
        assert len(recs) == 1


def _batch_fields(b: ReadBatch) -> tuple:
    return (b.bases.tolist(), b.quals.tolist(), b.offsets.tolist(), b.names, b.paired)


def _load_both_ways(path) -> tuple[ReadBatch, list[Read]]:
    return load_read_batch(path, paired=False), list(read_fastq(path))


class TestEdgeRecords:
    """Each case through both ``load_read_batch`` and ``read_fastq``."""

    @pytest.mark.parametrize(
        "text, record, match",
        [
            ("@a\nAC\n+\nII\n@\nAC\n+\nII\n", 2, "name"),
            ("@a\nAC\n+\nII\n@  \t\nAC\n+\nII\n", 2, "name"),
            ("@a\nAC\n+\nII\n@b\nAC\n+\nI \n", 2, "Phred"),
            ("@a\nACG\n+\nII\x1f\n", 1, "Phred"),
            ("@a\nA\n+\nI\n@\nA\n+\nI\n@c\xff\nA\n+\nI\n", 2, "name"),
        ],
        ids=[
            "at-only-header",
            "blank-name-header",
            "quality-space",
            "quality-control-byte",
            "nameless-before-non-utf8-header",
        ],
    )
    def test_malformed_raises_with_record_number(self, tmp_path, text, record, match):
        p = tmp_path / "bad.fastq"
        # latin-1 writes each code point below 0x100 as that one byte
        p.write_bytes(text.encode("latin-1"))
        for load in (load_read_batch, lambda q: list(read_fastq(q))):
            with pytest.raises(FastqFormatError, match=rf"^record {record}: .*{match}"):
                load(p)

    def test_crlf(self, tmp_path):
        p = tmp_path / "crlf.fastq"
        p.write_bytes(b"@a x\r\nACGT\r\n+\r\nIIII\r\n@b\r\nTT\r\n+\r\n#5\r\n")
        batch, reads = _load_both_ways(p)
        assert batch.names == ["a", "b"]
        assert batch.offsets.tolist() == [0, 4, 6]
        assert batch.quals.tolist() == [40] * 4 + [2, 20]
        assert reads == [Read("a", "ACGT", (40,) * 4), Read("b", "TT", (2, 20))]

    def test_blank_lines_between_records(self, tmp_path):
        p = tmp_path / "gaps.fastq"
        p.write_bytes(b"\n@a\nACGT\n+\nIIII\n\n\n@b\n\n+\n\n\n@c\nG\n+\nI\n")
        batch, reads = _load_both_ways(p)
        assert batch.names == ["a", "b", "c"]
        assert batch.lengths().tolist() == [4, 0, 1]
        assert [r.seq for r in reads] == ["ACGT", "", "G"]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.fastq"
        p.write_bytes(b"")
        batch, reads = _load_both_ways(p)
        assert len(batch) == 0 and batch.names == [] and reads == []

    def test_non_ascii_sequence_raises(self):
        with pytest.raises(FastqFormatError, match="^record 2: non-ASCII"):
            scan_fastq("@a\nA\n+\nI\n@b\nAé\n+\nIII\n".encode())  # é is two bytes

    def test_header_not_utf8_raises(self):
        with pytest.raises(FastqFormatError, match="^record 2: header is not UTF-8"):
            scan_fastq(b"@a\nA\n+\nI\n@b\xff\nA\n+\nI\n")

    def test_first_malformed_record_wins(self):
        # record 2's quality is checked after record 1's missing '+' line
        with pytest.raises(FastqFormatError, match=r"^record 1: missing '\+'"):
            scan_fastq(b"@a\nA\n-\nI\n@b\nA\n+\n \n")

    def test_odd_count_cannot_be_paired(self):
        with pytest.raises(ValueError, match="even"):
            scan_fastq(b"@a\nA\n+\nI\n", paired=True)


# -- the scanner against the per-record reference -----------------------------

_NAME_CHARS = st.characters(min_codepoint=0x21, max_codepoint=0x7E)
_SEQ_CHARS = st.sampled_from("ACGTNacgtnRYKMSWBDHVrykmswbdhv")


@st.composite
def _fastq_records(draw):
    """(name, seq, qual) triples; names may carry spaces and tabs."""
    n = draw(st.integers(0, 8))
    records = []
    for _ in range(n):
        token = draw(st.text(_NAME_CHARS, min_size=1, max_size=6))
        rest = draw(st.text(st.sampled_from("ab \t"), max_size=4))
        seq = draw(st.text(_SEQ_CHARS, max_size=24))
        qual = "".join(
            draw(st.lists(st.sampled_from("!#+5?I~\x7f"), min_size=len(seq), max_size=len(seq)))
        )
        records.append((draw(st.sampled_from(["", " ", "\t"])) + token + rest, seq, qual))
    return records


def _render(records, newline: str, gaps: list[int]) -> bytes:
    out = []
    for (name, seq, qual), gap in zip(records, gaps):
        out.append(newline * gap)
        out.append(newline.join([f"@{name}", seq, "+", qual]) + newline)
    out.append(newline * gaps[-1])
    return "".join(out).encode()


def _record_number(exc: Exception) -> int | None:
    m = re.match(r"record (\d+):", str(exc))
    return int(m.group(1)) if m else None


class TestAgainstReference:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        records=_fastq_records(),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        gaps=st.lists(st.integers(0, 2), min_size=9, max_size=9),
        gz=st.booleans(),
    )
    def test_round_trip_equals_reference(self, tmp_path, records, newline, gaps, gz):
        data = _render(records, newline, gaps[: len(records)] + gaps[-1:])
        p = tmp_path / ("r.fastq.gz" if gz else "r.fastq")
        p.write_bytes(gzip.compress(data) if gz else data)
        paired = len(records) % 2 == 0
        want = load_read_batch_reference(p, paired=paired)
        got = load_read_batch(p, paired=paired)
        assert _batch_fields(got) == _batch_fields(want)
        assert list(read_fastq(p)) == list(want)
        assert _batch_fields(scan_fastq(data, paired)) == _batch_fields(want)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        records=_fastq_records().filter(bool),
        newline=st.sampled_from(["\n", "\r\n"]),
        where=st.floats(0, 1, exclude_max=True),
        byte=st.integers(0, 0x7F) | st.none(),  # None deletes the byte
    )
    def test_single_byte_mutation_error_parity(self, tmp_path, records, newline, where, byte):
        data = bytearray(_render(records, newline, [0] * (len(records) + 1)))
        pos = int(where * len(data))
        if byte is None:
            del data[pos]
        else:
            data[pos] = byte
        p = tmp_path / "m.fastq"
        p.write_bytes(bytes(data))
        outcomes = []
        for load in (load_read_batch_reference, load_read_batch):
            try:
                outcomes.append(_batch_fields(load(p, paired=False)))
            except Exception as exc:  # noqa: BLE001 - the class is compared
                outcomes.append((type(exc), _record_number(exc)))
        assert outcomes[0] == outcomes[1]

    def test_benchmark_shaped_file_equals_reference(self, tmp_path, small_reads):
        p = tmp_path / "pairs.fastq"
        save_read_batch(p, small_reads)
        got = load_read_batch(p)
        assert _batch_fields(got) == _batch_fields(load_read_batch_reference(p))
        assert _batch_fields(got) == _batch_fields(small_reads)


class TestFasta:
    def test_roundtrip_with_wrapping(self, tmp_path):
        p = tmp_path / "x.fasta"
        seq = "ACGT" * 50
        write_fasta(p, [("g1", seq), ("g2", "TTTT")], width=13)
        back = list(read_fasta(p))
        assert back == [("g1", seq), ("g2", "TTTT")]

    def test_data_before_header(self, tmp_path):
        p = tmp_path / "bad.fasta"
        p.write_text("ACGT\n>x\nACGT\n")
        with pytest.raises(FastqFormatError):
            list(read_fasta(p))

    def test_gz(self, tmp_path):
        p = tmp_path / "x.fasta.gz"
        write_fasta(p, [("g", "ACGT")])
        assert list(read_fasta(p)) == [("g", "ACGT")]
