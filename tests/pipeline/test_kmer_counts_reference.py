"""Differential tests: k-mer counting and spectrum merging equal the
pre-``SortedKmers`` code kept in ``reference.py``, array for array.

The reference packs every base twice, groups with a ``lexsort`` over word
columns and tallies with ``np.add.at``; the engine packs once,
canonicalises in word space, sorts one folded key and tallies with
``np.bincount`` after dropping runs below ``min_count``.  Equal ``words``,
``counts``, ``left_ext`` and ``right_ext`` (values and dtypes) mean every
downstream stage sees the same spectrum.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import count_kmers_reference, merge_spectra_reference

from repro.distributed import harness
from repro.distributed.procrank import distributed_count_proc
from repro.distributed.rank import merge_spectra, partition_reads
from repro.distributed.shmem import shared_memory_available
from repro.pipeline import kmer_counts
from repro.pipeline.kmer_counts import KmerSpectrum, count_kmers
from repro.sequence.community import arcticsynth_like, sample_paired_reads
from repro.sequence.dna import encode, revcomp
from repro.sequence.read import ReadBatch

K_VALUES = [1, 3, 21, 31, 33, 63, 65]


def assert_same_spectrum(got: KmerSpectrum, want: KmerSpectrum) -> None:
    assert got.k == want.k
    for name in ("words", "counts", "left_ext", "right_ext"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def _batch(seqs: list[str], quals: list[int] | None = None) -> ReadBatch:
    offsets = np.zeros(len(seqs) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in seqs], out=offsets[1:])
    bases = encode("".join(seqs))
    if quals is None:
        qual_codes = np.full(bases.size, 30, dtype=np.uint8)
    else:
        qual_codes = np.resize(np.array(quals or [30], dtype=np.uint8), bases.size)
    return ReadBatch(bases, qual_codes, offsets, [f"r{i}" for i in range(len(seqs))])


def _shards(batch: ReadBatch, n: int, rng: np.random.Generator) -> list[ReadBatch]:
    """*n* overlapping read ranges of *batch* (each read in at least one)."""
    n_reads = len(batch)
    out = []
    for i in range(n):
        lo = i * n_reads // n
        hi = min(n_reads, (i + 1) * n_reads // n + int(rng.integers(0, 3)))
        out.append(batch.subset(np.arange(max(0, lo - 1), hi)))
    return out


@pytest.fixture(scope="module")
def community_batch() -> ReadBatch:
    rng = np.random.default_rng(2021)
    community = arcticsynth_like(rng, n_genomes=2, genome_length=3000)
    return sample_paired_reads(community, 300, rng)


class TestNamedCases:
    @pytest.mark.parametrize("k", K_VALUES)
    def test_empty_batch(self, k):
        assert len(count_kmers(ReadBatch.empty(), k)) == 0
        assert_same_spectrum(
            count_kmers(ReadBatch.empty(), k), count_kmers_reference(ReadBatch.empty(), k)
        )

    @pytest.mark.parametrize("k", [3, 21, 33, 65])
    def test_reads_shorter_than_k(self, k):
        batch = _batch(["A" * (k - 1), "ACGT"[: k - 1], "C"])
        assert len(count_kmers(batch, k)) == 0
        assert_same_spectrum(count_kmers(batch, k), count_kmers_reference(batch, k))

    @pytest.mark.parametrize("k", [1, 3, 21])
    def test_all_n_reads(self, k):
        batch = _batch(["N" * 40, "NNNN", "N" * 25])
        assert len(count_kmers(batch, k)) == 0
        assert_same_spectrum(count_kmers(batch, k), count_kmers_reference(batch, k))

    @pytest.mark.parametrize("k", K_VALUES)
    @pytest.mark.parametrize("min_count", [1, 2, 3])
    def test_community_reads(self, community_batch, k, min_count):
        want = count_kmers_reference(community_batch, k, min_count=min_count)
        assert len(want) > 0
        assert_same_spectrum(count_kmers(community_batch, k, min_count=min_count), want)

    @pytest.mark.parametrize("k", [21, 33])
    @pytest.mark.parametrize("min_count", [1, 2])
    def test_quality_masking(self, community_batch, k, min_count):
        rng = np.random.default_rng(k)
        low = rng.random(community_batch.n_bases) < 0.01  # ~1 masked base per read
        quals = np.where(low, 5, 35).astype(np.uint8)
        batch = ReadBatch(community_batch.bases, quals, community_batch.offsets)
        want = count_kmers_reference(batch, k, min_count=min_count, min_qual=20)
        assert len(want) < len(count_kmers_reference(batch, k, min_count=min_count))
        got = count_kmers(batch, k, min_count=min_count, min_qual=20)
        assert_same_spectrum(got, want)

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [21, 33])
    def test_merge_overlapping_shards(self, community_batch, n_shards, k):
        rng = np.random.default_rng(n_shards)
        spectra = [count_kmers(s, k) for s in _shards(community_batch, n_shards, rng)]
        want = merge_spectra_reference(spectra, k)
        assert_same_spectrum(merge_spectra(spectra, k), want)
        # a shard's unsorted, repeated wire rows merge the same way
        rows = [s.filtered(1) for s in spectra]
        rows.append(merge_spectra_reference(spectra[:1], k))
        assert_same_spectrum(merge_spectra(rows, k), merge_spectra_reference(rows, k))

    @pytest.mark.parametrize("k", [1, 21, 33])
    def test_merge_of_nothing(self, k):
        empty = KmerSpectrum.empty(k)
        for shards in ([], [empty], [empty, empty]):
            assert_same_spectrum(merge_spectra(shards, k), merge_spectra_reference(shards, k))


@pytest.mark.skipif(not shared_memory_available(), reason="no shared memory on this host")
class TestRanked:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    @pytest.mark.parametrize("transport", ["procrank", "list"])
    def test_ranked_count_equals_reference(
        self, community_batch, monkeypatch, n_ranks, transport
    ):
        def segments() -> set[str]:
            return {n for n in os.listdir("/dev/shm") if n.startswith("repro-")}

        before = segments()
        if transport == "list":
            monkeypatch.setattr(harness, "procrank_available", lambda: False)
        spec, _, report = distributed_count_proc(community_batch, 21, n_ranks, min_count=2)
        forked = transport == "procrank" and n_ranks > 1
        assert report.mode == ("procrank" if forked else "inproc")
        assert_same_spectrum(spec, count_kmers_reference(community_batch, 21, min_count=2))
        assert segments() == before

    @pytest.fixture(scope="class")
    def edge_pairs(self) -> ReadBatch:
        """Three pairs, so four ranks leave one partition empty: two
        overlapping pairs (one read with an N inside, every 38th base below
        Q20, bases 80-150 in three reads) and a pair of a read shorter
        than k and an all-N read."""
        rng = np.random.default_rng(38)
        genome = "".join(rng.choice(list("ACGT"), size=400))
        b1 = genome[50:60] + "N" + genome[61:200]
        seqs = [
            genome[0:150], revcomp(genome[200:350]),
            b1, revcomp(genome[80:230]),
            genome[100:115], "N" * 80,
        ]
        batch = _batch(seqs, [30] * 37 + [10])
        return ReadBatch(batch.bases, batch.quals, batch.offsets, batch.names, paired=True)

    @pytest.mark.parametrize("k", [21, 33, 55])
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
    @pytest.mark.parametrize("transport", ["procrank", "list"])
    @pytest.mark.parametrize("data", ["community", "edges"])
    def test_ranked_spectrum_equals_count_kmers(
        self, community_batch, edge_pairs, monkeypatch, data, transport, n_ranks, k
    ):
        """Windows shipped to their owners and tallied once there give
        ``count_kmers``' spectrum: multi-word rows (k = 33, 55), every
        ``min_count`` the pipeline uses, quality masking, reads shorter
        than k, all-N reads and (edges at four ranks) an empty partition."""
        batch = community_batch if data == "community" else edge_pairs
        if transport == "list":
            monkeypatch.setattr(harness, "procrank_available", lambda: False)
        forked = transport == "procrank" and n_ranks > 1
        if data == "edges" and n_ranks == 4:
            assert len(partition_reads(batch, n_ranks)[0]) == 0
        for min_count, min_qual in ((1, 0), (2, 20), (3, 0), (3, 20)):
            want = count_kmers(batch, k, min_count=min_count, min_qual=min_qual)
            spec, _, report = distributed_count_proc(
                batch, k, n_ranks, min_count=min_count, min_qual=min_qual
            )
            assert_same_spectrum(spec, want)
            assert report.mode == ("procrank" if forked else "inproc")
            if min_qual == 0:  # the cut leaves something to compare
                assert len(want) > 0


class TestTallyPass:
    """``count_kmers`` is the tally pass over the window pass, and the tally
    does not depend on the order of its windows."""

    @pytest.mark.parametrize("k", [1, 21, 33, 55])
    @pytest.mark.parametrize("min_count", [1, 2, 3])
    def test_shuffled_windows_tally_the_same(self, community_batch, k, min_count):
        words, ext = kmer_counts.kmer_windows(community_batch, k, min_qual=20)
        want = count_kmers(community_batch, k, min_count=min_count, min_qual=20)
        rng = np.random.default_rng(k * 10 + min_count)
        for _ in range(3):
            perm = rng.permutation(len(ext))
            got = kmer_counts.tally_windows(words[perm], ext[perm], k, min_count)
            assert_same_spectrum(got, want)

    @pytest.mark.parametrize("k", [21, 33])
    def test_windows_of_parts_tally_as_the_whole(self, community_batch, k):
        """What an owner sees: windows of several partitions, concatenated
        in any source order."""
        parts = [kmer_counts.kmer_windows(p, k) for p in partition_reads(community_batch, 3)]
        words = np.concatenate([w for w, _ in parts[::-1]])
        ext = np.concatenate([e for _, e in parts[::-1]])
        assert_same_spectrum(
            kmer_counts.tally_windows(words, ext, k, 2), count_kmers(community_batch, k, 2)
        )

    def test_extension_slots_are_packed_in_one_byte(self, community_batch):
        words, ext = kmer_counts.kmer_windows(community_batch, 21)
        assert ext.dtype == np.uint8 and words.shape == (ext.size, 1)
        left, right = ext >> 3, ext & 7
        assert left.max() <= kmer_counts.NO_EXT and right.max() <= kmer_counts.NO_EXT


reads = st.lists(st.text(alphabet="ACGTN", min_size=0, max_size=80), min_size=0, max_size=10)


class TestProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        reads,
        st.lists(st.integers(0, 41), max_size=20),
        st.sampled_from(K_VALUES),
        st.integers(1, 3),
        st.sampled_from([0, 20]),
    )
    def test_count_equals_reference(self, seqs, quals, k, min_count, min_qual):
        batch = _batch(seqs, quals)
        want = count_kmers_reference(batch, k, min_count=min_count, min_qual=min_qual)
        assert_same_spectrum(count_kmers(batch, k, min_count=min_count, min_qual=min_qual), want)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(reads, st.sampled_from([1, 3, 21, 33]), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_merge_equals_reference(self, seqs, k, n_shards, seed):
        batch = _batch(seqs)
        rng = np.random.default_rng(seed)
        spectra = [count_kmers(s, k) for s in _shards(batch, n_shards, rng)]
        want = merge_spectra_reference(spectra, k)
        assert_same_spectrum(merge_spectra(spectra, k), want)
        ranked = [count_kmers(p, k) for p in partition_reads(batch, n_shards)]
        assert_same_spectrum(merge_spectra(ranked, k), count_kmers_reference(batch, k))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5), st.text(alphabet="ACGT", max_size=40), st.integers(0, 5)
            ).map(lambda t: "N" * t[0] + t[1] + "N" * t[2]),
            max_size=12,
        ),
        st.lists(st.integers(0, 41), max_size=30),
        st.sampled_from([1, 3, 5, 21, 33]),
        st.integers(1, 2),
        st.sampled_from([0, 20]),
    )
    def test_boundary_mask_equals_reference(self, seqs, quals, k, min_count, min_qual):
        """The read-end marks clear exactly the windows whose first and
        last base lie in different reads: reads shorter than k, empty
        reads and N runs at read edges included."""
        batch = _batch(seqs, quals)
        n_win = max(batch.n_bases - k + 1, 0)
        read_of = np.repeat(np.arange(len(batch)), batch.lengths())
        want = read_of[:n_win] == read_of[k - 1 :]
        assert np.array_equal(kmer_counts._inside_reads(batch.offsets, k, n_win), want)
        assert_same_spectrum(
            count_kmers(batch, k, min_count=min_count, min_qual=min_qual),
            count_kmers_reference(batch, k, min_count=min_count, min_qual=min_qual),
        )
