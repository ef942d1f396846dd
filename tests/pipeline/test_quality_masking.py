"""Tests for quality-aware k-mer counting (min_qual masking)."""

import numpy as np
import pytest

from repro.pipeline.kmer_analysis import analyze_kmers
from repro.pipeline.kmer_counts import count_kmers
from repro.sequence.read import Read, ReadBatch


def _batch_with_quals(seq: str, quals: list[int], copies: int = 3) -> ReadBatch:
    return ReadBatch.from_reads(
        Read(f"r{i}", seq, tuple(quals)) for i in range(copies)
    )


class TestMinQual:
    def test_disabled_by_default(self):
        b = _batch_with_quals("ACGTACGTAC", [2] * 10)
        spec = count_kmers(b, 5, min_count=2)
        assert len(spec) > 0

    def test_low_quality_base_masks_kmers(self):
        quals = [40] * 10
        quals[5] = 3  # one bad base in the middle
        b = _batch_with_quals("ACGTACGTAC", quals)
        full = count_kmers(b, 5, min_count=2)
        masked = count_kmers(b, 5, min_count=2, min_qual=10)
        # every 5-mer overlapping position 5 disappears
        assert len(masked) < len(full)
        kept = {masked.kmer(i) for i in range(len(masked))}
        from repro.sequence.kmer import canonical

        assert canonical("ACGTA") in kept  # positions 0-4: untouched
        # the k-mer covering positions 1..5 includes the masked base
        assert canonical("CGTAC") not in kept

    def test_all_high_quality_unchanged(self):
        b = _batch_with_quals("ACGTACGTAC", [40] * 10)
        a = count_kmers(b, 5, min_count=2)
        m = count_kmers(b, 5, min_count=2, min_qual=10)
        assert np.array_equal(a.words, m.words)
        assert np.array_equal(a.counts, m.counts)

    def test_masked_base_never_votes_as_extension(self):
        quals = [40] * 10
        quals[9] = 3  # last base unreliable
        b = _batch_with_quals("ACGTACGTAC", quals)
        ck = analyze_kmers(b, 5, min_count=2, min_depth=2, min_qual=10)
        from repro.sequence.kmer import canonical

        kmers = {ck.spectrum.kmer(i): i for i in range(len(ck))}
        key = canonical("TACGT")  # positions 3..7; next base (8) is fine,
        assert key in kmers
        # but the k-mer at 4..8 whose next base is the masked one: its
        # extension tally for that occurrence is "none", not the base.
        i = kmers[canonical("ACGTA")]
        total_ext = ck.spectrum.left_ext[i].sum() + ck.spectrum.right_ext[i].sum()
        assert total_ext == 2 * ck.spectrum.counts[i]

    def test_pipeline_config_accepts_min_qual(self, small_reads):
        from repro.pipeline.pipeline import PipelineConfig, run_pipeline

        res = run_pipeline(
            small_reads,
            PipelineConfig(min_kmer_qual=10, run_scaffolding=False),
        )
        assert len(res.contigs) > 0
