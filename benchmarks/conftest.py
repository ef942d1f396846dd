"""Shared fixtures for the figure-reproduction benches.

The session-scoped ``workload`` fixture mirrors the paper's methodology
for the standalone kernel studies (§4.1): run the pipeline on an
arcticsynth-like dataset up to the alignment stage, then *dump* the local
assembly inputs (contigs + per-end candidate reads) and evaluate the
kernels on that dump.

Every bench writes its paper-vs-reproduced table to
``benchmarks/results/<name>.txt`` (and stdout), which EXPERIMENTS.md
indexes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def record(name: str, text: str) -> None:
    """Persist a bench's report and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


@pytest.fixture(scope="session")
def workload():
    """Laptop-scale arcticsynth-like local-assembly dump.

    Returns a dict with the community, reads, contigs, alignment result
    and the oriented extension task set.
    """
    from repro.core.tasks import tasks_from_candidates
    from repro.pipeline.alignment import align_reads
    from repro.pipeline.contig_generation import generate_contigs
    from repro.pipeline.kmer_analysis import analyze_kmers
    from repro.pipeline.merge_reads import merge_read_pairs
    from repro.sequence.community import arcticsynth_like, sample_paired_reads

    rng = np.random.default_rng(2021)
    community = arcticsynth_like(rng, n_genomes=4, genome_length=15_000)
    reads = sample_paired_reads(community, 5_000, rng)
    merged, _ = merge_read_pairs(reads)
    classified = analyze_kmers(merged, 21, min_count=2, min_depth=2)
    contigs = generate_contigs(classified)
    aln = align_reads(contigs, reads)
    tasks = tasks_from_candidates(
        {c.cid: c.seq for c in contigs}, aln.candidates.values()
    )
    return {
        "rng_seed": 2021,
        "community": community,
        "reads": reads,
        "merged": merged,
        "contigs": contigs,
        "alignment": aln,
        "tasks": tasks,
    }


@pytest.fixture(scope="session")
def fig3_workload():
    """Low-coverage, skewed community in the paper's Fig 3 regime.

    Most contigs terminate at coverage gaps (no overhanging reads ->
    bin 1), a minority recruit a few reads (bin 2) and a small tail of
    high-coverage contigs carries most of the work (bin 3).  Candidate
    recruitment requires 100 bp of aligned read (2/3 of a read), matching
    MetaHipMer's near-full-length read placements.
    """
    from repro.pipeline.merge_reads import merge_read_pairs
    from repro.sequence.community import sample_paired_reads, wa_like

    rng = np.random.default_rng(11)
    community = wa_like(rng, n_genomes=30, genome_length=12_000)
    reads = sample_paired_reads(community, 2_000, rng)
    merged, _ = merge_read_pairs(reads)
    return {"reads": reads, "merged": merged, "min_overlap": 100}


@pytest.fixture(scope="session")
def driver_workload(workload):
    """A ~150-task mixed subsample for the GPU-driver benches.

    Keeps every bin represented (all of bin 3's heavy hitters, a slice of
    bin 2 and bin 1) while holding simulated-kernel wall time down.
    """
    from repro.core.binning import bin_contigs
    from repro.core.tasks import TaskSet

    tasks = workload["tasks"]
    bins = bin_contigs(tasks)
    keep_cids = set(bins.bin3[:40]) | set(bins.bin2[:60]) | set(bins.bin1[:50])
    return TaskSet([t for t in tasks if t.cid in keep_cids])


@pytest.fixture(scope="session")
def kernel_workload(workload):
    """A smaller task subset for the expensive v1-vs-v2 kernel studies.

    v1 simulates one insert per Python iteration, so the roofline benches
    use the busiest tasks only (which is also what dominates the paper's
    measurements — bin 3 carries most of the work), with the read count
    per task capped to bound v1's simulation cost.
    """
    from repro.core.tasks import ExtensionTask, TaskSet

    tasks = sorted(workload["tasks"], key=lambda t: -t.n_reads)[:8]
    capped = [
        ExtensionTask.from_reads(
            cid=t.cid, side=t.side, contig=t.contig,
            reads=t.reads[:40], quals=t.quals[:40],
        )
        for t in tasks
    ]
    return TaskSet(capped)
