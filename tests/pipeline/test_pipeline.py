"""End-to-end pipeline integration tests."""

import numpy as np
import pytest

from repro.analysis.stats import assembly_stats, genome_fraction
from repro.pipeline.pipeline import PipelineConfig, run_pipeline
from repro.pipeline.stages import STAGES
from repro.sequence.community import Community, CommunityDesign, sample_paired_reads
from repro.sequence.error_model import PERFECT
from repro.sequence.genomes import GenomeSpec


class TestSmallAssembly:
    def test_contigs_produced(self, small_assembly):
        assert len(small_assembly.contigs) > 0
        assert small_assembly.contigs.total_bases() > 5000

    def test_stage_times_recorded(self, small_assembly):
        recorded = set(small_assembly.times.seconds)
        assert {"merge reads", "k-mer analysis", "contig generation",
                "alignment", "local assembly"} <= recorded
        assert all(v >= 0 for v in small_assembly.times.seconds.values())
        assert set(recorded) <= set(STAGES)

    def test_local_assembly_extended_contigs(self, small_assembly):
        assert small_assembly.local_assembly.n_extended > 0
        assert small_assembly.local_assembly.total_extension_bases > 0

    def test_scaffolds_cover_contigs(self, small_assembly):
        sc = small_assembly.scaffolds
        assert sc is not None
        ids = sorted(cid for s in sc.scaffolds for cid in s.contig_ids)
        assert ids == sorted(c.cid for c in small_assembly.contigs)

    def test_summary_renders(self, small_assembly):
        text = small_assembly.summary()
        assert "contigs:" in text and "stage times:" in text

    def test_genomes_recovered(self, small_assembly, small_community):
        contigs = small_assembly.contigs.sequences()
        fractions = [
            genome_fraction(contigs, g.seq, k=31) for g in small_community.genomes
        ]
        # abundant genomes should be mostly recovered
        assert max(fractions) > 0.7

    def test_n50_reasonable(self, small_assembly):
        stats = assembly_stats(small_assembly.contigs.sequences())
        assert stats.n50 > 100


class TestGpuCpuEquivalence:
    def test_gpu_pipeline_matches_cpu(self):
        """The headline invariant: swapping local assembly to the GPU
        changes nothing about the assembly itself."""
        rng = np.random.default_rng(4242)
        design = CommunityDesign(
            n_genomes=2,
            genome_spec=GenomeSpec(length=5000, repeat_fraction=0.02, shared_fraction=0.0),
            abundance_sigma=0.3,
        )
        comm = Community.generate(design, rng)
        reads = sample_paired_reads(comm, 1200, rng)
        cpu = run_pipeline(reads, PipelineConfig(local_assembly_mode="cpu"))
        gpu = run_pipeline(reads, PipelineConfig(local_assembly_mode="gpu"))
        assert [c.seq for c in cpu.contigs] == [c.seq for c in gpu.contigs]
        assert gpu.local_assembly.gpu_report is not None
        assert gpu.local_assembly.gpu_report.kernel_time_s > 0


class TestPerfectData:
    def test_clean_community_assembles_well(self):
        rng = np.random.default_rng(99)
        design = CommunityDesign(
            n_genomes=1,
            genome_spec=GenomeSpec(length=6000, repeat_fraction=0.0, shared_fraction=0.0),
            abundance_sigma=0.0,
            error_model=PERFECT,
        )
        comm = Community.generate(design, rng)
        reads = sample_paired_reads(comm, 1500, rng)
        res = run_pipeline(reads, PipelineConfig())
        assert genome_fraction(res.contigs.sequences(), comm.genomes[0].seq) > 0.95
        stats = assembly_stats(res.contigs.sequences())
        assert stats.n50 > 1000


class TestConfig:
    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(k_series=(22,))

    def test_empty_k_series_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(k_series=())

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(local_assembly_mode="tpu")

    @pytest.mark.parametrize(
        "field",
        [
            "local_assembly_engine",
            "local_assembly_overlap",
            "local_assembly_sanitize",
            "kmer_sanitize",
        ],
    )
    def test_bad_mode_string_rejected_in_cpu_mode(self, field):
        # the GPU-only knobs are checked whatever the mode: a bad job.json
        # must fail at admission, not when someone flips the mode to gpu
        with pytest.raises(ValueError, match=field):
            PipelineConfig(local_assembly_mode="cpu", **{field: "bogus"})

    def test_multi_round_runs(self):
        rng = np.random.default_rng(5)
        design = CommunityDesign(
            n_genomes=1,
            genome_spec=GenomeSpec(length=4000, repeat_fraction=0, shared_fraction=0),
            error_model=PERFECT,
        )
        comm = Community.generate(design, rng)
        reads = sample_paired_reads(comm, 800, rng)
        res = run_pipeline(reads, PipelineConfig(k_series=(21, 33), run_scaffolding=False))
        assert len(res.contigs) >= 1

    def test_scaffolding_can_be_disabled(self, small_reads):
        res = run_pipeline(small_reads, PipelineConfig(run_scaffolding=False))
        assert res.scaffolds is None
