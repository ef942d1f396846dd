"""Tests for k-mer extraction, 2-bit packing and the sorted-k-mer type."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sequence.dna import encode, revcomp
from repro.sequence.kmer import (
    SortedKmers,
    canonical,
    canonical_rows,
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
    unpack_kmers,
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

    @pytest.mark.parametrize("k", [1, 2, 21, 31, 32, 33, 47, 63, 64, 65, 99])
    def test_pack_kmers_every_window_every_width(self, k):
        """Each word of each window is the packed run of its own bases (the
        doubling builds every word from the same runs, offset by 32 bases);
        N windows are flagged."""
        rng = np.random.default_rng(k)
        codes = rng.integers(0, 4, size=3 * k + 40).astype(np.uint8)
        codes[rng.integers(codes.size, size=3)] = 4
        words, valid = pack_kmers(codes, k)
        windows = kmer_window(codes, k)
        assert words.shape == (codes.size - k + 1, words_per_kmer(k))
        assert valid.tolist() == (windows < 4).all(axis=1).tolist()
        assert np.array_equal(unpack_kmers(words[valid], k), windows[valid])

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


class TestCanonicalRows:
    @pytest.mark.parametrize("k", [1, 3, 21, 31, 33, 63, 65])
    def test_lesser_strand_and_flag(self, k):
        kmers = TestWordSpaceNeighbours._kmers(k)
        words = np.stack([pack_kmer(m) for m in kmers])
        canon, is_rc = canonical_rows(words, k)
        for i, m in enumerate(kmers):
            assert unpack_kmer(canon[i], k) == canonical(m)
            assert is_rc[i] == (revcomp(m) < m)


def _sorted_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows in lexicographic order and the mask of each run's first row."""
    ordered = rows[np.lexsort(rows.T[::-1])]
    is_start = np.ones(len(rows), dtype=bool)
    is_start[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered, is_start


class TestSortedKmers:
    @pytest.mark.parametrize("n_groups", [1, 2, 70, 300])
    @pytest.mark.parametrize("k", [3, 27, 28, 29, 32, 33, 45, 61, 64, 65, 99])
    def test_orders_like_the_rows_and_finds_only_what_was_built(self, rng, n_groups, k):
        """Runs are the distinct ``(group, k-mer)`` rows in row order,
        whichever of the shifted / ranked-word / ranked-prefix key packings
        the widths call for; ``find`` maps query rows into the same key
        space and reports unseen rows (a k-mer of another group included)
        absent."""
        n = 400
        nw = words_per_kmer(k)
        # few distinct values per word, so rows collide and order matters
        pool = rng.integers(0, 1 << 62, size=(6, nw), dtype=np.uint64) << np.uint64(2)
        pool[:, -1] &= ~np.uint64(0) << np.uint64(64 * nw - 2 * k)  # zero pad bits
        words = np.stack([pool[rng.integers(6, size=n), w] for w in range(nw)], axis=1)
        group = rng.integers(n_groups, size=n)
        index = SortedKmers(words, k, group, n_groups)

        rows = np.column_stack([group.astype(np.uint64), words])
        ordered, is_start = _sorted_rows(rows)
        distinct = ordered[is_start]
        assert len(index) == len(distinct)
        assert np.array_equal(rows[index.order], ordered)
        assert np.array_equal(index.run, np.cumsum(is_start) - 1)
        assert np.array_equal(index.starts, np.flatnonzero(is_start))
        assert np.array_equal(rows[index.first], distinct)
        assert np.array_equal(index.counts, np.diff(np.flatnonzero(is_start), append=n))
        assert np.array_equal(
            index.offsets, np.searchsorted(distinct[:, 0], np.arange(n_groups + 1))
        )
        assert np.array_equal(distinct[index.find(words, group)], rows)

        fresh = words.copy()
        fresh[:, 0] ^= np.uint64(1) << np.uint64(63)  # another first base
        built = {r.tobytes() for r in rows}
        queries = np.concatenate([fresh, words])
        query_group = np.concatenate([group, (group + 1) % n_groups])
        query_rows = np.column_stack([query_group.astype(np.uint64), queries])
        unseen = np.array([r.tobytes() not in built for r in query_rows])
        assert unseen.any()
        found = index.find(queries, query_group)
        assert (found[unseen] == -1).all()
        assert np.array_equal(distinct[found[~unseen]], query_rows[~unseen])

    def test_empty(self):
        index = SortedKmers(np.empty((0, 2), dtype=np.uint64), 33, np.zeros(0, int), 3)
        assert len(index) == 0 and index.offsets.tolist() == [0, 0, 0, 0]
        probe = np.ones((2, 2), dtype=np.uint64)
        assert index.find(probe, np.array([0, 2])).tolist() == [-1, -1]

    def test_rows_of_the_wrong_width_are_rejected(self):
        words = np.stack([pack_kmer(m) for m in ["ACG", "GGT"]])
        index = SortedKmers(words, 3)
        with pytest.raises(ValueError, match="shape"):
            index.find(np.concatenate([words, words], axis=1))
        with pytest.raises(ValueError, match="shape"):
            SortedKmers(words, 33)

    def test_find_within_a_group(self):
        words = np.stack([pack_kmer(m) for m in ["ACG", "GGT"]])
        index = SortedKmers(words, 3, np.array([0, 1]), 2)
        assert index.find(words, np.array([1, 0])).tolist() == [-1, -1]
        assert index.find(words, np.array([0, 1])).tolist() == [0, 1]
