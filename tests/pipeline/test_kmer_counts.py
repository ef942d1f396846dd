"""Tests for the vectorised k-mer counting engine."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.kmer_counts import NO_EXT, count_kmers
from repro.sequence.dna import revcomp
from repro.sequence.kmer import canonical, iter_kmers
from repro.sequence.read import ReadBatch


def naive_counts(seqs: list[str], k: int) -> Counter:
    """Reference canonical k-mer counter."""
    c: Counter = Counter()
    for s in seqs:
        for km in iter_kmers(s, k):
            c[canonical(km)] += 1
    return c


def spectrum_as_dict(spec) -> dict[str, int]:
    return {spec.kmer(i): int(spec.counts[i]) for i in range(len(spec))}


class TestCounting:
    def test_single_read(self):
        b = ReadBatch.from_strings(["ACGTAC"])
        spec = count_kmers(b, 3)
        assert spectrum_as_dict(spec) == naive_counts(["ACGTAC"], 3)

    def test_strands_merge(self):
        s = "ACGTACGTTT"
        b = ReadBatch.from_strings([s, revcomp(s)])
        spec = count_kmers(b, 5)
        expect = naive_counts([s], 5)
        assert spectrum_as_dict(spec) == {k: 2 * v for k, v in expect.items()}

    def test_no_cross_read_kmers(self):
        b = ReadBatch.from_strings(["AAAA", "TTTT"])
        spec = count_kmers(b, 3)
        # AAA (canonical of both AAA and TTT) counted 2+2=4; no k-mer spans
        # the read boundary.
        assert spectrum_as_dict(spec) == {"AAA": 4}

    def test_n_masked(self):
        b = ReadBatch.from_strings(["AANAA"])
        spec = count_kmers(b, 3)
        assert len(spec) == 0

    def test_min_count_filter(self):
        b = ReadBatch.from_strings(["ACGTT", "ACGAA"])
        spec = count_kmers(b, 5, min_count=2)
        assert len(spec) == 0  # each read's single 5-mer is a singleton
        spec1 = count_kmers(b, 3, min_count=2)
        assert "ACG" in spectrum_as_dict(spec1)

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            count_kmers(ReadBatch.from_strings(["ACGT"]), 4)

    @pytest.mark.parametrize("k", [-1, 0, -3])
    def test_k_below_one_rejected(self, k):
        """A negative odd k used to pass the parity check and fail inside
        numpy's window view."""
        with pytest.raises(ValueError, match="k must be odd and >= 1"):
            count_kmers(ReadBatch.from_strings(["ACGTACGT"]), k)

    def test_short_reads_empty(self):
        spec = count_kmers(ReadBatch.from_strings(["AC"]), 21)
        assert len(spec) == 0

    def test_words_sorted(self):
        b = ReadBatch.from_strings(["ACGTACGTAGGCTTACG" * 3])
        spec = count_kmers(b, 5)
        w = spec.words
        order = np.lexsort(tuple(w[:, i] for i in range(w.shape[1] - 1, -1, -1)))
        assert (order == np.arange(len(spec))).all()

    def test_lookup(self):
        b = ReadBatch.from_strings(["ACGTACGGTTAAC"])
        spec = count_kmers(b, 5)
        from repro.sequence.kmer import pack_kmer

        for i in range(len(spec)):
            assert spec.lookup(spec.words[i]) == i
        absent = pack_kmer("GGGGG")
        if spec.lookup(absent) != -1:
            assert spec.kmer(spec.lookup(absent)) == "GGGGG"

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.text(alphabet="ACGTN", min_size=1, max_size=60), min_size=1, max_size=8),
        st.sampled_from([3, 5, 7, 21, 33]),
    )
    def test_matches_naive(self, seqs, k):
        b = ReadBatch.from_strings(seqs)
        spec = count_kmers(b, k)
        assert spectrum_as_dict(spec) == dict(naive_counts(seqs, k))


class TestLookupMany:
    def test_matches_per_row_lookup(self):
        b = ReadBatch.from_strings(["ACGTACGGTTAACGGATC", "TTGGCCAATT"])
        spec = count_kmers(b, 5)
        queries = spec.words[::2]
        got = spec.lookup_many(queries)
        expect = np.array(
            [spec.lookup(q) for q in queries], dtype=np.int64
        )
        assert got.dtype == np.int64
        assert np.array_equal(got, expect)

    def test_absent_rows_are_minus_one(self):
        from repro.sequence.kmer import pack_kmer

        spec = count_kmers(ReadBatch.from_strings(["ACGTACGGT"]), 5)
        present = spec.words[0]
        absent = np.asarray(pack_kmer("GGGGG"), dtype=np.uint64).reshape(
            present.shape
        )
        if spec.lookup(absent) != -1:
            pytest.skip("probe k-mer happens to be present")
        got = spec.lookup_many(np.stack([present, absent, present]))
        assert got[0] == 0 and got[2] == 0 and got[1] == -1

    def test_empty_spectrum_and_empty_query(self):
        spec = count_kmers(ReadBatch.from_strings(["AC"]), 21)
        assert len(spec) == 0
        got = spec.lookup_many(np.zeros((3, 1), dtype=np.uint64))
        assert np.array_equal(got, np.full(3, -1, dtype=np.int64))
        full = count_kmers(ReadBatch.from_strings(["ACGTACG"]), 3)
        nw = full.words.shape[1]
        assert full.lookup_many(np.zeros((0, nw), dtype=np.uint64)).size == 0

    def test_multi_word_kmers(self):
        # k=33 packs into two 64-bit words per row
        b = ReadBatch.from_strings(["ACGTACGGTTAACGGATCCATGGCAATCGGATCCAT"])
        spec = count_kmers(b, 33)
        assert spec.words.shape[1] == 2
        got = spec.lookup_many(spec.words)
        assert np.array_equal(got, np.arange(len(spec), dtype=np.int64))

    def test_rows_of_the_wrong_width_are_rejected(self):
        """Two-word rows against a one-word spectrum used to report false
        hits (rows 0 and 6 here)."""
        spec = count_kmers(ReadBatch.from_strings(["ACGTACGTAC", "GGGGGTTTAC"]), 3)
        w = spec.words[:, 0]
        with pytest.raises(ValueError, match="shape"):
            spec.lookup_many(np.stack([w, w], 1))
        with pytest.raises(ValueError, match="shape"):
            spec.lookup(np.array([w[0], w[0]]))

    def test_one_dim_input_promoted(self):
        spec = count_kmers(ReadBatch.from_strings(["ACGTACGGT"]), 5)
        flat = spec.words[1]  # 1-D row
        got = spec.lookup_many(flat)
        assert got.shape == (1,) and got[0] == 1


class TestExtensions:
    def test_extension_tallies(self):
        # AAC is canonical; in "AACG" it is followed by G and preceded by
        # nothing; in "TAACG" preceded by T, followed by G.
        b = ReadBatch.from_strings(["AACG", "TAACG"])
        spec = count_kmers(b, 3)
        d = {spec.kmer(i): i for i in range(len(spec))}
        i = d["AAC"]
        assert spec.right_ext[i, 2] == 2  # G twice
        assert spec.left_ext[i, NO_EXT] == 1  # once at read start
        assert spec.left_ext[i, 3] == 1  # once preceded by T

    def test_rc_extension_swap(self):
        # GTT's canonical form is AAC.  In read "GTTA": GTT followed by A.
        # In canonical space that is: AAC preceded by T.
        b = ReadBatch.from_strings(["GTTA"])
        spec = count_kmers(b, 3)
        d = {spec.kmer(i): i for i in range(len(spec))}
        i = d["AAC"]
        assert spec.left_ext[i, 3] == 1  # T before AAC
        assert spec.right_ext[i, NO_EXT] == 1

    def test_extension_counts_sum_to_count(self):
        b = ReadBatch.from_strings(["ACGTACGGCTA", "GGTACCA"])
        spec = count_kmers(b, 3)
        assert (spec.left_ext.sum(axis=1) == spec.counts).all()
        assert (spec.right_ext.sum(axis=1) == spec.counts).all()
