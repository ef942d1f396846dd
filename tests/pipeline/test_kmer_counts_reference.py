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
from repro.pipeline.kmer_counts import KmerSpectrum, count_kmers
from repro.sequence.community import arcticsynth_like, sample_paired_reads
from repro.sequence.dna import encode
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
