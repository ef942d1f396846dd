"""Tests for the alignment stage, esp. candidate-read recruitment.

The orientation conventions checked here are the load-bearing ones: local
assembly trusts that every candidate read is stored so that "extend
rightward" is correct for its contig end.
"""

import numpy as np
import pytest
from reference import SeedIndex

from repro.pipeline.alignment import align_reads
from repro.sequence.contigs import Contig, ContigSet
from repro.sequence.dna import decode, random_dna, revcomp
from repro.sequence.read import ReadBatch


@pytest.fixture
def genome(rng):
    return random_dna(600, rng)


@pytest.fixture
def contig_set(genome):
    # contig covering the middle of the genome
    return ContigSet([Contig(cid=0, seq=genome[200:400], depth=10.0)])


def _batch(seqs):
    return ReadBatch.from_strings(seqs, qual=40)


class TestSeedIndex:
    def test_hits(self, contig_set):
        idx = SeedIndex(contig_set, seed_len=17)
        from repro.sequence.dna import encode

        seed = encode(contig_set[0].seq[10:27])
        assert (0, 10) in idx.hits(seed)

    def test_seed_len_validation(self, contig_set):
        with pytest.raises(ValueError):
            SeedIndex(contig_set, seed_len=4)


class TestAlignment:
    def test_interior_read_aligns(self, genome, contig_set):
        read = genome[250:330]
        res = align_reads(contig_set, _batch([read]))
        assert res.n_reads_aligned == 1
        (aln,) = res.alignments
        assert aln.cid == 0 and not aln.is_rc
        assert aln.offset == 50
        assert aln.identity == 1.0

    def test_rc_read_aligns(self, genome, contig_set):
        read = revcomp(genome[250:330])
        res = align_reads(contig_set, _batch([read]))
        (aln,) = res.alignments
        assert aln.is_rc and aln.offset == 50

    def test_unrelated_read_ignored(self, contig_set, rng):
        res = align_reads(contig_set, _batch([random_dna(100, rng)]))
        assert res.n_reads_aligned == 0

    def test_min_identity(self, genome, contig_set):
        read = list(genome[250:330])
        for i in range(0, 80, 4):  # 25% corruption
            read[i] = "A" if read[i] != "A" else "C"
        res = align_reads(contig_set, _batch(["".join(read)]), min_identity=0.95)
        assert res.n_reads_aligned == 0

    def test_best_by_read_picks_max(self, genome):
        contigs = ContigSet(
            [Contig(0, genome[200:400]), Contig(1, genome[200:280])]
        )
        read = genome[210:310]
        res = align_reads(contigs, _batch([read]))
        best = res.best_by_read()
        assert best.cid[0] == 0  # longer overlap wins


class TestRecruitment:
    def test_right_end_candidate_oriented_forward(self, genome, contig_set):
        """A forward read hanging off the right end is stored as-is."""
        read = genome[350:450]  # 50 inside, 50 beyond the right end
        res = align_reads(contig_set, _batch([read]))
        cand = res.candidates[0]
        assert len(cand.right) == 1 and len(cand.left) == 0
        assert decode(cand.right.bases) == read

    def test_right_end_rc_read_flipped(self, genome, contig_set):
        read = revcomp(genome[350:450])
        res = align_reads(contig_set, _batch([read]))
        cand = res.candidates[0]
        assert len(cand.right) == 1
        assert decode(cand.right.bases) == genome[350:450]

    def test_left_end_candidate_revcomped(self, genome, contig_set):
        """A read hanging off the left end is stored reverse-complemented
        (so it extends rc(contig) rightward)."""
        read = genome[150:250]  # hangs off the left end
        res = align_reads(contig_set, _batch([read]))
        cand = res.candidates[0]
        assert len(cand.left) == 1 and len(cand.right) == 0
        assert decode(cand.left.bases) == revcomp(read)

    def test_left_candidate_quals_reversed(self, genome, contig_set):
        read = genome[150:250]
        quals = np.arange(100, dtype=np.uint8)
        from repro.sequence.read import Read

        batch = ReadBatch.from_reads([Read("r", read, tuple(int(q) for q in quals))])
        res = align_reads(contig_set, batch)
        cand = res.candidates[0]
        assert cand.left.quals.tolist() == quals[::-1].tolist()

    def test_interior_read_not_recruited(self, genome, contig_set):
        read = genome[250:330]
        res = align_reads(contig_set, _batch([read]))
        cand = res.candidates[0]
        assert cand.n_reads == 0

    def test_read_spanning_both_ends(self, genome):
        """A read longer than a short contig recruits to both ends."""
        contigs = ContigSet([Contig(0, genome[300:340])])
        read = genome[280:360]
        res = align_reads(contigs, _batch([read]), min_overlap=20)
        cand = res.candidates[0]
        assert len(cand.left) == 1 and len(cand.right) == 1

    def test_cap_max_reads_per_end(self, genome, contig_set):
        reads = [genome[350:450]] * 10
        res = align_reads(contig_set, _batch(reads), max_reads_per_end=3)
        assert len(res.candidates[0].right) == 3

    def test_every_contig_gets_entry(self, genome, rng):
        contigs = ContigSet([Contig(0, genome[200:400]), Contig(1, random_dna(150, rng))])
        res = align_reads(contigs, _batch([genome[250:330]]))
        assert set(res.candidates) == {0, 1}
        assert res.candidates[1].n_reads == 0
