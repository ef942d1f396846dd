"""The batched aligner's contract: bit-identical to the scalar reference.

:func:`repro.pipeline.alignment.align_reads` (PackedSeedIndex +
``align_core`` + ``materialise_alignment``) must reproduce
``align_reads_scalar`` of ``tests/pipeline/reference.py`` exactly — same
alignment list in the same order, same ``n_seed_hits``, same candidate
reads per contig end — across seed lengths (single- and multi-word
packing, the 32-mer sentinel edge), read-seed strides (including the
dense stride-1 lookup path) and threshold settings.  Downstream local
assembly and scaffolding consume this output, so "close enough" is not
a property the rewrite is allowed to have.
"""

import numpy as np
import pytest
from reference import SeedIndex, align_reads_scalar

from repro.pipeline.alignment import (
    AlnRows,
    PackedSeedIndex,
    align_core,
    align_reads,
)
from repro.pipeline.contig_generation import generate_contigs
from repro.pipeline.contigs import Contig, ContigSet
from repro.pipeline.kmer_analysis import analyze_kmers
from repro.pipeline.merge_reads import merge_read_pairs
from repro.sequence.community import arcticsynth_like, sample_paired_reads
from repro.sequence.dna import encode, random_dna
from repro.sequence.kmer import pack_kmers, valid_kmer_mask
from repro.sequence.read import ReadBatch


def assert_same_result(a, b) -> None:
    """Full structural equality of two AlignmentResults."""
    assert a.n_seed_hits == b.n_seed_hits
    assert a.n_reads_aligned == b.n_reads_aligned
    assert a.alignments == b.alignments
    assert set(a.candidates) == set(b.candidates)
    for cid in a.candidates:
        ca, cb = a.candidates[cid], b.candidates[cid]
        for side in ("left", "right"):
            sa, sb = getattr(ca, side), getattr(cb, side)
            assert len(sa) == len(sb), (cid, side)
            for f in ("bases", "quals", "lengths"):
                assert np.array_equal(getattr(sa, f), getattr(sb, f)), (cid, side, f)


@pytest.fixture(scope="module")
def workload():
    """Realistic contigs + reads: a small assembled community."""
    rng = np.random.default_rng(4242)
    community = arcticsynth_like(rng, n_genomes=3, genome_length=6_000)
    reads = sample_paired_reads(community, 900, rng)
    merged, _ = merge_read_pairs(reads)
    classified = analyze_kmers(merged, 21, min_count=2, min_depth=2)
    contigs = generate_contigs(classified)
    assert len(contigs) > 10  # the sweep needs a non-trivial index
    return contigs, reads


class TestPackedSeedIndex:
    def test_hits_match_dict_index_in_order(self, rng):
        genome = random_dna(800, rng)
        contigs = ContigSet(
            [Contig(0, genome[:500]), Contig(1, genome[300:])]
        )
        legacy = SeedIndex(contigs, seed_len=17)
        packed = PackedSeedIndex(contigs, seed_len=17)
        codes = encode(genome[100:160])
        words, _ = pack_kmers(codes, 17)
        valid = valid_kmer_mask(codes, 17)
        lo, hi = packed.lookup_ranges(words)
        for i in np.nonzero(valid)[0]:
            expect = legacy.hits(codes[i : i + 17])
            got = [
                (int(packed.cids[packed.slot[j]]), int(packed.pos[j]))
                for j in range(int(lo[i]), int(hi[i]))
            ]
            assert got == expect  # same hits, same enumeration order

    def test_missing_seed_has_empty_range(self, rng):
        contigs = ContigSet([Contig(0, random_dna(300, rng))])
        packed = PackedSeedIndex(contigs, seed_len=17)
        probe = encode("A" * 17)
        words, _ = pack_kmers(probe, 17)
        lo, hi = packed.lookup_ranges(words)
        # "A"*17 may exist; probe a seed that cannot (contig has no N,
        # but a miss is guaranteed for at least one of these patterns)
        assert np.all(hi >= lo)

    def test_empty_contigs(self):
        packed = PackedSeedIndex(ContigSet(), seed_len=17)
        assert len(packed) == 0
        words, _ = pack_kmers(encode("ACGT" * 10), 17)
        lo, hi = packed.lookup_ranges(words)
        assert np.all(lo == hi)

    def test_multi_word_seed_falls_back(self, rng):
        contigs = ContigSet([Contig(0, random_dna(400, rng))])
        packed = PackedSeedIndex(contigs, seed_len=33)
        assert packed._bstart is None  # S-dtype keys: no bucket table
        seq = contigs[0].seq[50:120]
        words, _ = pack_kmers(encode(seq), 33)
        lo, hi = packed.lookup_ranges(words)
        assert np.all(hi - lo >= 1)  # every window of the contig is indexed

    def test_seed_len_validation(self):
        with pytest.raises(ValueError):
            PackedSeedIndex(ContigSet(), seed_len=4)


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize(
        "seed_len,stride",
        [(13, 8), (17, 1), (17, 4), (17, 8), (21, 8), (32, 4), (33, 8)],
    )
    def test_sweep(self, workload, seed_len, stride):
        contigs, reads = workload
        ref = align_reads_scalar(
            contigs, reads, seed_len=seed_len, read_seed_stride=stride
        )
        got = align_reads(
            contigs, reads, seed_len=seed_len, read_seed_stride=stride
        )
        assert_same_result(ref, got)

    def test_thresholds(self, workload):
        contigs, reads = workload
        ref = align_reads_scalar(
            contigs, reads, min_identity=0.8, min_overlap=50
        )
        got = align_reads(contigs, reads, min_identity=0.8, min_overlap=50)
        assert_same_result(ref, got)

    def test_small_cap(self, workload):
        contigs, reads = workload
        ref = align_reads_scalar(contigs, reads, max_reads_per_end=3)
        got = align_reads(contigs, reads, max_reads_per_end=3)
        assert_same_result(ref, got)

    def test_no_reads(self, workload):
        contigs, _ = workload
        got = align_reads(contigs, ReadBatch.from_strings([]))
        assert got.n_reads_aligned == 0 and got.alignments == []
        assert set(got.candidates) == {c.cid for c in contigs}

    def test_no_contigs(self, workload):
        _, reads = workload
        got = align_reads(ContigSet(), reads)
        assert got.alignments == [] and got.candidates == {}

    def test_reads_shorter_than_seed(self):
        contigs = ContigSet([Contig(0, "ACGTACGTACGTACGTACGTACGT" * 4)])
        reads = ReadBatch.from_strings(["ACGTACGT"])  # < seed_len
        ref = align_reads_scalar(contigs, reads)
        got = align_reads(contigs, reads)
        assert_same_result(ref, got)


@pytest.mark.bench_smoke
def test_batched_aligner_smoke(workload):
    """CI miniature of ``benchmarks/bench_aln_stage.py``: the batched
    stage reproduces the scalar reference bit-for-bit at the bench's
    dense stride on a small community."""
    contigs, reads = workload
    ref = align_reads_scalar(contigs, reads, read_seed_stride=1)
    got = align_reads(contigs, reads, read_seed_stride=1)
    assert_same_result(ref, got)


class TestAlnRowsEmission:
    def test_emission_order_invariants(self, workload):
        contigs, reads = workload
        index = PackedSeedIndex(contigs, seed_len=17)
        rows = align_core(index, reads)
        # sorted by (read, seq_in_read), seq_in_read dense per read
        order = np.lexsort((rows.seq_in_read, rows.read))
        assert np.array_equal(order, np.arange(len(rows)))
        heads = np.ones(len(rows), dtype=bool)
        heads[1:] = rows.read[1:] != rows.read[:-1]
        assert np.all(rows.seq_in_read[heads] == 0)
        steps = rows.seq_in_read[1:][~heads[1:]] - rows.seq_in_read[:-1][~heads[1:]]
        assert np.all(steps == 1)
        assert rows.n_reads_aligned == int(heads.sum())

    def test_read_base_offsets_read_ids(self, workload):
        contigs, reads = workload
        index = PackedSeedIndex(contigs, seed_len=17)
        base = align_core(index, reads)
        shifted = align_core(index, reads, read_base=1000)
        assert np.array_equal(base.read + 1000, shifted.read)
        assert np.array_equal(base.cid, shifted.cid)
        assert np.array_equal(base.matches, shifted.matches)

    def test_empty_rows(self):
        rows = AlnRows.empty(n_seed_hits=7)
        assert len(rows) == 0
        assert rows.n_seed_hits == 7 and rows.n_reads_aligned == 0
