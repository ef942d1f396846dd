"""Tests for the scalar ungapped kernel the batched one must match."""

from reference import ungapped_align

from repro.sequence.dna import encode


class TestUngapped:
    def test_read_inside_contig(self):
        contig = encode("AAAACGTACGTTTT")
        read = encode("ACGTACG")  # matches contig[3:10]
        aln = ungapped_align(contig, read, contig_pos=3, read_pos=0)
        assert aln.offset == 3
        assert aln.ov_len == 7
        assert aln.mismatches == 0
        assert aln.identity == 1.0

    def test_read_hangs_off_right(self):
        contig = encode("AAAACGTA")
        read = encode("CGTACCCC")
        aln = ungapped_align(contig, read, contig_pos=4, read_pos=0)
        assert aln.offset == 4
        assert aln.ov_end == 8 and aln.ov_len == 4

    def test_read_hangs_off_left(self):
        contig = encode("CGTAAAAA")
        read = encode("TTTTCGTA")
        aln = ungapped_align(contig, read, contig_pos=0, read_pos=4)
        assert aln.offset == -4
        assert aln.ov_start == 0 and aln.ov_len == 4
        assert aln.mismatches == 0

    def test_mismatches_counted(self):
        contig = encode("ACGTACGT")
        read = encode("ACGAACGT")
        aln = ungapped_align(contig, read, 0, 0)
        assert aln.mismatches == 1
        assert aln.matches == 7

    def test_disjoint_is_empty(self):
        contig = encode("ACGT")
        read = encode("ACGT")
        aln = ungapped_align(contig, read, contig_pos=10, read_pos=0)
        assert aln.ov_len == 0 and aln.identity == 0.0
