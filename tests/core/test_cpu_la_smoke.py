"""Tier-1 miniature of the end-to-end claim for CPU local assembly.

The e2e benchmark shows the array engine's gain on whole runs; this keeps a
silent fall back to per-entry Python from passing CI.
"""

import numpy as np
import pytest
from la_reference import (
    as_extension_set,
    extend_task_reference,
    run_local_assembly_reference,
)

from repro.core.config import LocalAssemblyConfig
from repro.core.cpu_local_assembly import extend_task_cpu, run_local_assembly_cpu
from repro.core.tasks import tasks_from_candidates
from repro.pipeline.alignment import align_reads
from repro.pipeline.contig_generation import generate_contigs
from repro.pipeline.kmer_analysis import analyze_kmers
from repro.pipeline.merge_reads import merge_read_pairs
from repro.sequence.community import arcticsynth_like, sample_paired_reads


@pytest.mark.bench_smoke
def test_array_engine_matches_reference_and_is_2_5x_cheaper(paired_cpu_ratio):
    rng = np.random.default_rng(17)
    community = arcticsynth_like(rng, n_genomes=3, genome_length=5000)
    reads = sample_paired_reads(community, 500, rng)
    merged, _ = merge_read_pairs(reads)
    contigs = generate_contigs(analyze_kmers(merged, 21))
    candidates = align_reads(contigs, reads).candidates
    tasks = tasks_from_candidates(contigs, candidates.values())
    assert sum(1 for t in tasks if t.n_reads) >= 100

    want, want_stats = run_local_assembly_reference(tasks)
    got, got_stats = run_local_assembly_cpu(tasks)
    assert got == as_extension_set(want, ((t.cid, t.side) for t in tasks))
    assert got_stats == want_stats
    assert np.count_nonzero(got.lengths()) >= 50 and got_stats.n_rounds > got_stats.n_tasks_with_reads
    config = LocalAssemblyConfig()
    assert [extend_task_cpu(t, config) for t in tasks] == [
        extend_task_reference(t, config) for t in tasks
    ]

    ratio = paired_cpu_ratio(
        lambda: run_local_assembly_reference(tasks), lambda: run_local_assembly_cpu(tasks)
    )
    assert ratio >= 2.5, f"run_local_assembly_cpu only {ratio:.1f}x its reference"
