"""``align_core`` over read blocks: the cap bounds memory, nothing else.

The aligner runs its array passes over contiguous, pair-aligned blocks of
at most ``_BLOCK_BASES`` read bases.  Every step is per read, so any cap
must give the rows, tallies and profiled phase names of one pass over the
whole batch.  Caps here cut at one pair, one read, inside a pair unit and
below one read's length, on paired, unpaired and odd-sized batches, and
through the ranked aligner on both transports.
"""

import numpy as np
import pytest

from repro.distributed import harness
from repro.distributed.procrank import procrank_available, ranked_align
from repro.perf import ALN_PHASES, HostProfiler
from repro.pipeline import alignment
from repro.pipeline.alignment import PackedSeedIndex, align_core, align_reads
from repro.pipeline.contig_generation import generate_contigs
from repro.pipeline.kmer_analysis import analyze_kmers
from repro.pipeline.merge_reads import merge_read_pairs
from repro.sequence.community import arcticsynth_like, sample_paired_reads
from repro.sequence.read import ReadBatch

#: every column of an ``AlnRows``
_FIELDS = ("read", "seq_in_read", "cid", "offset", "is_rc", "matches",
           "mismatches", "ov_len")
READ_LEN = 150

#: caps in read bases: one pair, one read, between one and two pairs (a
#: greedy cut would split the second pair), below one read
CAPS = {
    "one_pair": 2 * READ_LEN,
    "one_read": READ_LEN,
    "splits_a_pair": 3 * READ_LEN,
    "below_one_read": READ_LEN // 3,
}


@pytest.fixture(scope="module")
def library():
    """Contigs and a paired library with every read ``READ_LEN`` long."""
    rng = np.random.default_rng(23)
    community = arcticsynth_like(rng, n_genomes=2, genome_length=4000)
    reads = sample_paired_reads(community, 240, rng)
    assert (reads.lengths() == READ_LEN).all() and reads.paired
    merged, _ = merge_read_pairs(reads)
    contigs = generate_contigs(analyze_kmers(merged, 21))
    return PackedSeedIndex(contigs), contigs, reads


def _unpaired(reads, n):
    """The first *n* reads as an unpaired batch (odd *n*: a lone mate)."""
    part = reads.read_range(0, n)
    return ReadBatch(part.bases, part.quals, part.offsets)


def _run(index, reads, **kwargs):
    prof = HostProfiler()
    rows = align_core(index, reads, profile=prof, **kwargs)
    return rows, {r.phase for r in prof.snapshot()}


def assert_same_rows(got, want):
    assert (got.n_seed_hits, got.n_reads_aligned) == (want.n_seed_hits, want.n_reads_aligned)
    for f in _FIELDS:
        a, b = getattr(got, f), getattr(want, f)
        assert a.dtype == b.dtype and np.array_equal(a, b), f


@pytest.mark.parametrize("cap", list(CAPS.values()), ids=list(CAPS))
@pytest.mark.parametrize("batch", ["paired", "unpaired_even", "unpaired_odd"])
def test_block_cap_changes_nothing(library, monkeypatch, cap, batch):
    index, _, reads = library
    if batch != "paired":
        reads = _unpaired(reads, len(reads) - (batch == "unpaired_odd"))
    for kwargs in ({}, {"read_seed_stride": 1, "read_base": 7}):
        monkeypatch.setattr(alignment, "_BLOCK_BASES", 1 << 62)
        want, want_phases = _run(index, reads, **kwargs)
        assert len(alignment._read_blocks(reads)) == 1
        monkeypatch.setattr(alignment, "_BLOCK_BASES", cap)
        got, got_phases = _run(index, reads, **kwargs)
        assert len(want) > 100 and want.n_reads_aligned > 100
        assert_same_rows(got, want)
        assert got_phases == want_phases == set(ALN_PHASES)


@pytest.mark.parametrize("cap", list(CAPS.values()), ids=list(CAPS))
def test_blocks_cover_whole_units_in_order(library, monkeypatch, cap):
    _, _, reads = library
    monkeypatch.setattr(alignment, "_BLOCK_BASES", cap)
    for batch, unit in ((reads, 2), (_unpaired(reads, 101), 1)):
        blocks = alignment._read_blocks(batch)
        assert blocks[0][0] == 0 and blocks[-1][1] == len(batch)
        for (lo, hi), (nxt, _) in zip(blocks, blocks[1:] + [(len(batch), None)]):
            assert hi == nxt and lo % unit == 0 and hi > lo
            held = batch.offsets[hi] - batch.offsets[lo]
            assert held <= cap or hi - lo <= unit


def test_blocks_that_find_nothing_still_add_their_seed_hits(library, monkeypatch):
    """Blocks whose rows all fail the thresholds still count their seed
    hits, and blocks with no row at all concatenate to the empty rows."""
    index, _, reads = library
    monkeypatch.setattr(alignment, "_BLOCK_BASES", 1 << 62)
    want, _ = _run(index, reads, min_overlap=10_000)
    monkeypatch.setattr(alignment, "_BLOCK_BASES", CAPS["one_pair"])
    got, _ = _run(index, reads, min_overlap=10_000)
    assert len(got) == 0 and got.n_seed_hits == want.n_seed_hits > 0
    assert_same_rows(got, want)


@pytest.mark.parametrize("transport", ["procrank", "inproc"])
def test_ranked_align_with_small_blocks(library, monkeypatch, transport):
    """Two ranks, each blocking its shard one pair at a time, equal the
    unblocked single-process aligner."""
    _, contigs, reads = library
    monkeypatch.setattr(alignment, "_BLOCK_BASES", 1 << 62)
    want = align_reads(contigs, reads)
    if transport == "inproc":
        monkeypatch.setattr(harness, "procrank_available", lambda: False)
    elif not procrank_available():
        pytest.skip("needs fork + shared memory")
    monkeypatch.setattr(alignment, "_BLOCK_BASES", CAPS["one_pair"])
    got, _, report = ranked_align(contigs, reads, 2)
    assert report.mode == ("procrank" if transport == "procrank" else "inproc")
    assert_same_rows(got.rows, want.rows)
    for f in ("cids", "end_start", "cand_read", "cand_bases", "cand_quals", "cand_lengths"):
        assert np.array_equal(getattr(got, f), getattr(want, f)), f
