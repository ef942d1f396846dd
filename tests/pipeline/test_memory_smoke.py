"""Tier-1 memory gates for the two read-proportional stages.

``align_core`` runs over read blocks and ``count_kmers`` in one lean pass,
so neither stage's temporaries may grow back to input-sized copies
unnoticed.  ``tracemalloc`` sees every NumPy buffer, and its byte counts
depend only on the input, not on the box: a *transient* here is the
call's peak minus what it leaves allocated (its result).
"""

import tracemalloc

import numpy as np
import pytest

from repro.pipeline.alignment import align_reads
from repro.pipeline.contig_generation import generate_contigs
from repro.pipeline.kmer_analysis import analyze_kmers
from repro.pipeline.kmer_counts import count_kmers
from repro.pipeline.merge_reads import merge_read_pairs
from repro.sequence.community import arcticsynth_like, sample_paired_reads

#: ``count_kmers`` transient bytes per counted window (``min_count=2``).
#: Measured on this input: 35 (k = 21) and 79 (k = 33) since the window
#: and tally passes split (36 and 80 before, in one pass); before the lean
#: pass 150 and 175, with an n-sized int64 read-end array, int64
#: extension columns and a gather after the ``argsort``.  An out-of-place
#: ``revcomp_packed`` alone reads 44 and 88.
COUNT_BYTES_PER_WINDOW = {21: 40, 33: 90}


def _transient(fn):
    tracemalloc.start()
    try:
        fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current


@pytest.fixture(scope="module")
def library():
    """1 000 pairs of one community; contigs from the first 500."""
    rng = np.random.default_rng(2021)
    community = arcticsynth_like(rng, n_genomes=3, genome_length=5000)
    reads = sample_paired_reads(community, 1000, rng)
    half = reads.read_range(0, 1000)
    merged, _ = merge_read_pairs(half)
    return generate_contigs(analyze_kmers(merged, 21)), half, reads


@pytest.mark.bench_smoke
def test_alignment_transient_does_not_grow_with_the_reads(library):
    contigs, half, reads = library
    assert half.n_bases == 150_000 and reads.n_bases == 300_000
    one = _transient(lambda: align_reads(contigs, half))
    two = _transient(lambda: align_reads(contigs, reads))
    assert two <= 1.10 * one, f"2x reads: {two / 2**20:.1f} MiB vs {one / 2**20:.1f} MiB"


@pytest.mark.bench_smoke
@pytest.mark.parametrize("k", sorted(COUNT_BYTES_PER_WINDOW))
def test_count_transient_per_window(library, k):
    _, half, _ = library
    merged, _ = merge_read_pairs(half)
    windows = int(np.maximum(merged.lengths() - k + 1, 0).sum())
    per_window = _transient(lambda: count_kmers(merged, k, min_count=2)) / windows
    assert per_window <= COUNT_BYTES_PER_WINDOW[k], f"{per_window:.0f} B per window"
