"""Tests for k-mer extraction and 2-bit packing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sequence.dna import encode, revcomp
from repro.sequence.kmer import (
    canonical,
    count_distinct_kmers,
    iter_kmers,
    kmer_window,
    kmers_of,
    pack_kmer,
    pack_kmers,
    predecessor_kmers,
    revcomp_packed,
    rows_less,
    successor_kmers,
    unpack_kmer,
    valid_kmer_mask,
    words_per_kmer,
)

dna = st.text(alphabet="ACGT", min_size=1, max_size=150)


class TestExtraction:
    def test_kmers_of(self):
        assert kmers_of("ACGTA", 3) == ["ACG", "CGT", "GTA"]

    def test_kmers_skip_n(self):
        assert kmers_of("ACNGT", 2) == ["AC", "GT"]

    def test_short_seq(self):
        assert kmers_of("AC", 3) == []

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            list(iter_kmers("ACGT", 0))

    def test_canonical(self):
        assert canonical("AAC") == "AAC"  # revcomp is GTT
        assert canonical("GTT") == "AAC"

    @given(dna.filter(lambda s: len(s) >= 5))
    def test_canonical_strand_invariant(self, s):
        k = 5
        fwd = {canonical(m) for m in kmers_of(s, k)}
        rev = {canonical(m) for m in kmers_of(revcomp(s), k)}
        assert fwd == rev

    def test_count_distinct(self):
        assert count_distinct_kmers("AAAA", 2) == 1
        assert count_distinct_kmers("ACGT", 2, canonicalise=True) == 2  # AC~GT, CG~CG


class TestWindows:
    def test_window_shape_and_view(self):
        codes = encode("ACGTACG")
        w = kmer_window(codes, 3)
        assert w.shape == (5, 3)
        assert w[0].tolist() == [0, 1, 2]

    def test_window_too_short(self):
        assert kmer_window(encode("AC"), 3).shape == (0, 3)

    def test_valid_mask(self):
        codes = encode("ACNGT")
        mask = valid_kmer_mask(codes, 2)
        assert mask.tolist() == [True, False, False, True]

    def test_valid_mask_all_valid(self):
        assert valid_kmer_mask(encode("ACGT"), 2).all()

    def test_valid_mask_empty(self):
        assert valid_kmer_mask(encode("A"), 3).size == 0


class TestPacking:
    def test_words_per_kmer(self):
        assert words_per_kmer(21) == 1
        assert words_per_kmer(32) == 1
        assert words_per_kmer(33) == 2
        assert words_per_kmer(99) == 4

    @pytest.mark.parametrize("k", [1, 5, 21, 31, 32, 33, 55, 64, 77, 99])
    def test_roundtrip(self, k):
        rng = np.random.default_rng(k)
        from repro.sequence.dna import random_dna

        s = random_dna(k, rng)
        assert unpack_kmer(pack_kmer(s), k) == s

    @given(dna.filter(lambda s: len(s) >= 21))
    def test_pack_kmers_matches_scalar(self, s):
        k = 21
        words, valid = pack_kmers(encode(s), k)
        assert valid.all()
        for i, km in enumerate(kmers_of(s, k)):
            assert np.array_equal(words[i], pack_kmer(km))

    def test_pack_rejects_n(self):
        with pytest.raises(ValueError):
            pack_kmer("ACNGT")

    def test_pack_preserves_order(self):
        """Packed words sort like the underlying strings (word-major)."""
        kmers = sorted({"ACGTA", "AAAAA", "TTTTT", "CGTAC", "GGGGG"})
        packed = [tuple(pack_kmer(m).tolist()) for m in kmers]
        assert packed == sorted(packed)

    def test_pack_kmers_masks_n_windows(self):
        codes = encode("ACGTNACGT")
        _, valid = pack_kmers(codes, 3)
        # windows overlapping index 4 (N) are invalid
        assert valid.tolist() == [True, True, False, False, False, True, True]


class TestWordSpaceNeighbours:
    """The packed de Bruijn moves equal their string definitions for every
    word count and pad width (k = 1..99 covers 1-4 words, pad 0..62)."""

    @staticmethod
    def _kmers(k: int) -> list[str]:
        from repro.sequence.dna import random_dna

        rng = np.random.default_rng(k)
        return [random_dna(k, rng) for _ in range(12)] + ["A" * k, "C" * k, "G" * k, "T" * k]

    @pytest.mark.parametrize("k", range(1, 100))
    def test_successor_predecessor_revcomp(self, k):
        kmers = self._kmers(k)
        words = np.stack([pack_kmer(m) for m in kmers])
        base = np.arange(len(kmers)) % 4
        succ = successor_kmers(words, k, base)
        pred = predecessor_kmers(words, k, base)
        rc = revcomp_packed(words, k)
        for i, m in enumerate(kmers):
            b = "ACGT"[base[i]]
            assert np.array_equal(succ[i], pack_kmer(m[1:] + b))
            assert np.array_equal(pred[i], pack_kmer(b + m[:-1]))
            assert np.array_equal(rc[i], pack_kmer(revcomp(m)))
        assert np.array_equal(revcomp_packed(rc, k), words)

    @pytest.mark.parametrize("k", [1, 21, 32, 33, 64, 65, 99])
    def test_rows_less_is_string_order(self, k):
        kmers = self._kmers(k)
        a = np.stack([pack_kmer(m) for m in kmers])
        b = np.roll(a, 1, axis=0)
        expect = [x < y for x, y in zip(kmers, kmers[-1:] + kmers[:-1])]
        assert rows_less(a, b).tolist() == expect
        assert not rows_less(a, a).any()
