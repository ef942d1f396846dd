"""Tests for the merge-reads stage."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import merge_read_pairs_reference

from repro.pipeline import merge_reads
from repro.pipeline.merge_reads import find_overlap, merge_read_pairs
from repro.sequence.dna import encode, random_dna, revcomp, revcomp_codes
from repro.sequence.read import Read, ReadBatch


class TestFindOverlap:
    def test_exact_overlap(self):
        a = encode("AAAACGTACGT")
        b = encode("CGTACGTTTTT")
        assert find_overlap(a, b, min_overlap=5) == 7

    def test_no_overlap(self):
        a = encode("AAAAAAAAAA")
        b = encode("CCCCCCCCCC")
        assert find_overlap(a, b, min_overlap=4) == 0

    def test_min_overlap_respected(self):
        a = encode("AAAACG")
        b = encode("CGTTTT")
        assert find_overlap(a, b, min_overlap=3) == 0
        assert find_overlap(a, b, min_overlap=2) == 2

    def test_mismatch_tolerance(self):
        a = encode("AAAA" + "ACGTACGTAC")
        b_clean = "ACGTACGTAC" + "TTTT"
        b_noisy = "ACGAACGTAC" + "TTTT"  # 1 mismatch in 10
        assert find_overlap(a, encode(b_clean), min_overlap=5) == 10
        assert find_overlap(a, encode(b_noisy), min_overlap=5, max_mismatch_frac=0.15) == 10
        assert find_overlap(a, encode(b_noisy), min_overlap=5, max_mismatch_frac=0.05) == 0

    def test_takes_longest(self):
        """Prefers the longest acceptable overlap (scans top-down)."""
        a = encode("ACAC")
        b = encode("ACAC")
        assert find_overlap(a, b, min_overlap=2) == 4


def _pair_batch(r1: str, r2_fragment_oriented: str) -> ReadBatch:
    """Build an interleaved pair; read 2 is stored reverse-complemented,
    as sequencers emit it."""
    return ReadBatch.from_reads(
        [Read("p/1", r1), Read("p/2", revcomp(r2_fragment_oriented))],
        paired=True,
    )


class TestMergePairs:
    def test_overlapping_pair_merges(self, rng):
        frag = random_dna(160, rng)
        batch = _pair_batch(frag[:100], frag[60:160])
        merged, stats = merge_read_pairs(batch)
        assert stats.n_merged == 1
        assert len(merged) == 1
        assert merged.seq(0) == frag

    def test_non_overlapping_pair_kept(self, rng):
        frag = random_dna(400, rng)
        batch = _pair_batch(frag[:100], frag[300:400])
        merged, stats = merge_read_pairs(batch)
        assert stats.n_merged == 0
        assert len(merged) == 2
        assert merged.seq(0) == frag[:100]

    def test_consensus_prefers_higher_quality(self, rng):
        frag = random_dna(150, rng)
        r1 = frag[:100]
        r2 = frag[50:150]
        # corrupt r1's base at fragment position 60 with low quality
        r1_bad = r1[:60] + ("A" if r1[60] != "A" else "C") + r1[61:]
        batch = ReadBatch.from_reads(
            [
                Read("p/1", r1_bad, tuple([40] * 60 + [2] + [40] * 39)),
                Read("p/2", revcomp(r2), (40,) * 100),
            ],
            paired=True,
        )
        merged, stats = merge_read_pairs(batch)
        assert stats.n_merged == 1
        assert merged.seq(0) == frag  # high-quality mate base won

    def test_merged_stats(self, rng):
        frag = random_dna(160, rng)
        batch = _pair_batch(frag[:100], frag[60:160])
        _, stats = merge_read_pairs(batch)
        assert stats.merge_rate == 1.0
        assert stats.mean_merged_length == 160

    def test_requires_paired(self):
        with pytest.raises(ValueError):
            merge_read_pairs(ReadBatch.from_strings(["ACGT"]))

    def test_order_preserved(self, rng):
        f1, f2 = random_dna(160, rng), random_dna(400, rng)
        b = ReadBatch.concat(
            [_pair_batch(f1[:100], f1[60:160]), _pair_batch(f2[:100], f2[300:])]
        )
        b = ReadBatch(b.bases, b.quals, b.offsets, b.names, paired=True)
        merged, stats = merge_read_pairs(b)
        assert stats.n_merged == 1
        assert merged.seq(0) == f1  # merged pair first
        assert merged.seq(1) == f2[:100]

    def test_quality_boost_capped(self, rng):
        frag = random_dna(150, rng)
        batch = _pair_batch(frag[:100], frag[50:150])
        merged, _ = merge_read_pairs(batch)
        assert merged.quals.max() <= 41


# -- the batch scorer against the per-pair loop --------------------------------

FRACS = (0.0, 0.05, 0.1, 0.2)


def assert_same(batch: ReadBatch, min_overlap: int = 12, frac: float = 0.1) -> int:
    """Reference == array on every field of the batch and the stats."""
    want, want_stats = merge_read_pairs_reference(batch, min_overlap, frac)
    got, got_stats = merge_read_pairs(batch, min_overlap, frac)
    assert got_stats == want_stats
    for field in ("bases", "quals", "offsets"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert got.names == want.names
    assert got.paired is want.paired is False
    return got_stats.n_merged


def noisy_pair(rng, alphabet: str, name: str) -> list[Read]:
    """Two mates cut from one fragment with independent lengths (possibly
    zero, possibly the whole fragment), substitution noise and random
    qualities — mate 2 stored reverse-complemented, as sequencers emit it."""
    letters = list(alphabet)
    frag = "".join(rng.choice(letters, int(rng.integers(1, 90))))
    len1, len2 = (int(n) for n in rng.integers(0, len(frag) + 1, 2))
    mates = [frag[:len1], frag[len(frag) - len2 :]]
    reads = []
    for tag, seq in zip(("/1", "/2"), mates):
        seq = "".join(str(rng.choice(letters)) if rng.random() < 0.05 else c for c in seq)
        seq = revcomp(seq) if tag == "/2" else seq
        quals = tuple(int(q) for q in rng.integers(0, 42, len(seq)))
        reads.append(Read(name + tag, seq, quals))
    return reads


@st.composite
def pair_batches(draw):
    alphabet = draw(st.sampled_from(["ACGT", "AC", "ACGTN", "AN"]))
    reads = []
    for p in range(draw(st.integers(0, 6))):
        frag = draw(st.text(alphabet=alphabet, min_size=1, max_size=70))
        r1 = frag[: draw(st.integers(0, len(frag)))]
        r2 = revcomp(frag[len(frag) - draw(st.integers(0, len(frag))) :])
        for tag, seq in (("/1", r1), ("/2", r2)):
            quals = tuple(draw(st.lists(st.integers(0, 41), min_size=len(seq), max_size=len(seq))))
            reads.append(Read(f"p{p}{tag}", seq, quals))
    return ReadBatch.from_reads(reads, paired=True)


class TestMatchesReference:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(pair_batches(), st.sampled_from([1, 3, 12, 40, 200]), st.sampled_from(FRACS))
    def test_property(self, batch, min_overlap, frac):
        assert_same(batch, min_overlap, frac)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_fuzz(self, seed, monkeypatch):
        """Unequal and empty mates, N bases, noise, named and unnamed
        batches, every threshold, and block sizes down to one pair."""
        rng = np.random.default_rng(seed)
        n_merged = 0
        for _ in range(120):
            monkeypatch.setattr(merge_reads, "_BLOCK_CELLS", int(rng.choice([1, 60, 500, 1 << 18])))
            alphabet = str(rng.choice(["ACGT", "AC", "ACGTN", "AN"]))
            reads = [
                r
                for p in range(int(rng.integers(0, 12)))
                for r in noisy_pair(rng, alphabet, str(rng.choice([f"p{p}", "x/1", ""])))
            ]
            batch = ReadBatch.from_reads(reads, paired=True)
            if rng.random() < 0.3:
                batch = ReadBatch(batch.bases, batch.quals, batch.offsets, None, paired=True)
            n_merged += assert_same(
                batch, int(rng.choice([1, 2, 5, 12, 40, 200])), float(rng.choice(FRACS))
            )
        assert n_merged > 100  # the sweep merges, it does not just copy

    def test_overlap_lengths_equal_find_overlap(self, rng, monkeypatch):
        monkeypatch.setattr(merge_reads, "_BLOCK_CELLS", 300)  # several blocks
        reads = [r for p in range(40) for r in noisy_pair(rng, "ACGTN", f"p{p}")]
        batch = ReadBatch.from_reads(reads, paired=True)
        for min_overlap in (1, 12, 200):
            for frac in FRACS:
                want = [
                    find_overlap(
                        batch.codes(2 * p), revcomp_codes(batch.codes(2 * p + 1)), min_overlap, frac
                    )
                    for p in range(40)
                ]
                got = merge_reads._overlap_lengths(batch, min_overlap, frac)
                assert got.tolist() == want

    def test_threshold_is_the_same_float_comparison(self):
        """3 mismatches in 30 sit exactly on ``0.1 * 30``: whether the pair
        merges is decided by the float product, for both implementations."""
        frag = "ACGTTGCATGCCATGGATCCAAGCTTGGTA" + "TTTTTTTTTT"
        r1 = frag[:30]
        r2 = "ACGTTGCATGCCATGGATCCAAGCTTGGTA".replace("GCC", "TAA", 1) + "TTTTTTTTTT"
        batch = ReadBatch.from_reads([Read("p/1", r1), Read("p/2", revcomp(r2))], paired=True)
        for frac in FRACS:
            assert_same(batch, 12, frac)
        assert merge_read_pairs(batch, 30, 0.1)[1].n_merged == (3 <= 0.1 * 30)

    def test_n_matches_n(self):
        frag = "ACGTNNACGTTGCANNGT"
        batch = _pair_batch(frag[:14], frag[4:])
        merged, stats = merge_read_pairs(batch, min_overlap=10, max_mismatch_frac=0.0)
        assert stats.n_merged == 1 and merged.seq(0) == frag
        assert_same(batch, 10, 0.0)

    def test_min_overlap_longer_than_both_mates(self, rng):
        frag = random_dna(60, rng)
        batch = _pair_batch(frag[:40], frag[20:])
        assert merge_read_pairs(batch, min_overlap=41)[1].n_merged == 0
        assert_same(batch, 41)

    def test_zero_pairs(self):
        batch = ReadBatch(
            np.empty(0, np.uint8), np.empty(0, np.uint8), np.zeros(1, np.int64), [], paired=True
        )
        merged, stats = merge_read_pairs(batch)
        assert len(merged) == 0 and merged.names == [] and stats.merge_rate == 0.0
        assert_same(batch)

    def test_unnamed_batch_gets_positional_names(self, rng):
        f1, f2 = random_dna(160, rng), random_dna(400, rng)
        named = ReadBatch.concat(
            [_pair_batch(f2[:100], f2[300:]), _pair_batch(f1[:100], f1[60:160])]
        )
        batch = ReadBatch(named.bases, named.quals, named.offsets, None, paired=True)
        merged, _ = merge_read_pairs(batch)
        assert merged.names == ["read_0", "read_1", "read_2/merged"]
        assert_same(batch)
