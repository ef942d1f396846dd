"""Tests for the iterative de Bruijn rounds (MHM2's k-series)."""

import numpy as np
import pytest

from repro.analysis.stats import assembly_stats
from repro.pipeline.pipeline import PipelineConfig, run_pipeline
from repro.sequence.community import Community, CommunityDesign, sample_paired_reads
from repro.sequence.error_model import IlluminaErrorModel
from repro.sequence.genomes import GenomeSpec


@pytest.fixture(scope="module")
def low_coverage_reads():
    """A dataset where single-k assembly fragments (low, uneven coverage)."""
    rng = np.random.default_rng(2024)
    design = CommunityDesign(
        n_genomes=2,
        genome_spec=GenomeSpec(length=12_000, repeat_fraction=0.02, shared_fraction=0.0),
        abundance_sigma=0.4,
        error_model=IlluminaErrorModel(rate_start=0.002, rate_end=0.008),
    )
    comm = Community.generate(design, rng)
    return sample_paired_reads(comm, 1200, rng)  # ~15x mean


class TestIterativeRounds:
    def test_multi_round_no_worse_contiguity(self, low_coverage_reads):
        """Feeding round-1 contigs into a larger-k round must not hurt
        (and normally helps) contiguity."""
        single = run_pipeline(
            low_coverage_reads,
            PipelineConfig(k_series=(21,), run_scaffolding=False),
        )
        multi = run_pipeline(
            low_coverage_reads,
            PipelineConfig(k_series=(21, 33), run_scaffolding=False),
        )
        s1 = assembly_stats(single.contigs.sequences())
        s2 = assembly_stats(multi.contigs.sequences())
        assert s2.n50 >= 0.8 * s1.n50  # never collapses
        assert s2.total_bases > 0.5 * s1.total_bases

    def test_three_rounds_run(self, low_coverage_reads):
        res = run_pipeline(
            low_coverage_reads,
            PipelineConfig(k_series=(21, 33, 45), run_scaffolding=False),
        )
        assert len(res.contigs) > 0

    def test_rounds_accumulate_kmer_stage_time(self, low_coverage_reads):
        res = run_pipeline(
            low_coverage_reads,
            PipelineConfig(k_series=(21, 33), run_scaffolding=False),
        )
        single = run_pipeline(
            low_coverage_reads,
            PipelineConfig(k_series=(21,), run_scaffolding=False),
        )
        assert res.times.seconds["k-mer analysis"] > single.times.seconds["k-mer analysis"]
