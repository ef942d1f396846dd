"""Shared fixtures: deterministic RNGs and small reusable workloads.

Session-scoped fixtures cache the expensive artefacts (a small community
pipeline run) so the full suite stays fast.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np
import pytest

from repro.core.config import LocalAssemblyConfig
from repro.sequence.community import Community, CommunityDesign, sample_paired_reads
from repro.sequence.error_model import IlluminaErrorModel
from repro.sequence.genomes import GenomeSpec


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_community() -> Community:
    rng = np.random.default_rng(777)
    design = CommunityDesign(
        n_genomes=3,
        genome_spec=GenomeSpec(length=8000, repeat_fraction=0.02, shared_fraction=0.02),
        abundance_sigma=0.5,
        error_model=IlluminaErrorModel(rate_start=0.001, rate_end=0.005),
    )
    return Community.generate(design, rng)


@pytest.fixture(scope="session")
def small_reads(small_community):
    rng = np.random.default_rng(778)
    # ~25x coverage over 3x8kb genomes
    return sample_paired_reads(small_community, 2000, rng)


@pytest.fixture(scope="session")
def small_assembly(small_reads):
    """One CPU-mode pipeline run shared by integration tests."""
    from repro.pipeline.pipeline import PipelineConfig, run_pipeline

    cfg = PipelineConfig(local_assembly_mode="cpu")
    return run_pipeline(small_reads, cfg)


@pytest.fixture
def la_config() -> LocalAssemblyConfig:
    return LocalAssemblyConfig(k_init=21, max_walk_len=150)


@pytest.fixture
def paired_cpu_ratio():
    """Measure how many times cheaper an array stage is than its reference."""

    def timed(fn) -> float:
        gc.collect()  # no other call's garbage on this call's clock
        t0 = time.process_time()
        fn()
        return time.process_time() - t0

    def measure(reference, array, rounds: int = 5) -> float:
        """Median of *rounds* back-to-back reference/array CPU-time ratios:
        both sides of a ratio share whatever else the box is doing, and
        the side that runs first alternates from pair to pair."""
        ratios = []
        for i in range(rounds):
            if i % 2:
                t_array, t_ref = timed(array), timed(reference)
            else:
                t_ref, t_array = timed(reference), timed(array)
            ratios.append(t_ref / max(t_array, 1e-9))
        return statistics.median(ratios)

    return measure


@pytest.fixture(scope="session")
def shm_snapshot():
    """``shm_snapshot()``: the live shared-memory names of this process's
    launches — diff two snapshots to prove a launch leaked nothing."""
    from repro.sanitize.rankcheck import SegmentLedger

    return SegmentLedger().snapshot


@pytest.fixture(scope="session")
def ranked_stages():
    """The three ranked stages over one small workload, for tests that
    drive ``run_ranks`` directly: ``{name: (build, same)}`` where
    ``build(n_ranks)`` is the stage's ``(stage, finish)`` pair and
    ``same(a, b)`` says two finished results are bit-identical."""
    from repro.core.tasks import tasks_from_candidates
    from repro.distributed.procrank import align_stage, kmer_stage, la_stage
    from repro.pipeline.alignment import align_reads
    from repro.pipeline.contig_generation import generate_contigs
    from repro.pipeline.kmer_analysis import analyze_kmers
    from repro.pipeline.merge_reads import merge_read_pairs
    from repro.sequence.community import arcticsynth_like

    rng = np.random.default_rng(31)
    comm = arcticsynth_like(rng, n_genomes=2, genome_length=4000)
    reads = sample_paired_reads(comm, 400, rng)
    merged, _ = merge_read_pairs(reads)
    contigs = generate_contigs(analyze_kmers(merged, 21, min_count=2, min_depth=2))
    candidates = align_reads(contigs, reads).candidates
    tasks = list(
        tasks_from_candidates(contigs, candidates.values())
    )

    def same_spectrum(a, b):
        return all(
            np.array_equal(getattr(a, f), getattr(b, f))
            for f in ("words", "counts", "left_ext", "right_ext")
        )

    def same_alignment(a, b):
        return (
            a.alignments == b.alignments
            and a.n_seed_hits == b.n_seed_hits
            and {c: (len(v.left), len(v.right)) for c, v in a.candidates.items()}
            == {c: (len(v.left), len(v.right)) for c, v in b.candidates.items()}
        )

    return {
        "kmer": (lambda r: kmer_stage(reads, 21, r, min_count=2), same_spectrum),
        "aln": (lambda r: align_stage(contigs, reads, r), same_alignment),
        "la": (lambda r: la_stage(tasks, r, mode="cpu"), lambda a, b: a == b),
    }


@pytest.fixture(scope="session")
def seed17_tasks():
    """The seed-17 pipeline-built task set: 3 x 5 kb genomes, 500 pairs."""
    from repro.core.tasks import tasks_from_candidates
    from repro.pipeline.alignment import align_reads
    from repro.pipeline.contig_generation import generate_contigs
    from repro.pipeline.kmer_analysis import analyze_kmers
    from repro.pipeline.merge_reads import merge_read_pairs
    from repro.sequence.community import arcticsynth_like

    rng = np.random.default_rng(17)
    community = arcticsynth_like(rng, n_genomes=3, genome_length=5000)
    reads = sample_paired_reads(community, 500, rng)
    merged, _ = merge_read_pairs(reads)
    contigs = generate_contigs(analyze_kmers(merged, 21))
    candidates = align_reads(contigs, reads).candidates
    return tasks_from_candidates(contigs, candidates.values())


def _v2_launch(tasks, sanitize="off", stale=None):
    """A packed batch and a thunk running one v2 launch over every task;
    *stale* prefills the dense tallies."""
    import repro.core.extension_kernel_batched  # noqa: F401  (registers the batched v2 impl)
    from repro.core.extension_kernel import extension_task_kernel_v2
    from repro.core.gpu_batch import pack_batch
    from repro.gpusim.kernel import GpuContext

    ctx = GpuContext(sanitize=sanitize)
    batch = pack_batch(ctx, tasks, LocalAssemblyConfig())
    if stale is not None:
        batch.ht_hi.data[:] = batch.ht_total.data[:] = stale
    n = len(tasks)

    def launch():
        result = ctx.launch("extension_v2", extension_task_kernel_v2, n, batch, np.arange(n))
        assert sanitize == "off" or ctx.sanitizer_report().clean
        return result

    return batch, launch


@pytest.fixture(scope="session")
def v2_launch():
    """``v2_launch(tasks, sanitize="off", stale=None)`` -> ``(batch,
    thunk)``: one v2 launch over every task, on a fresh context."""
    return _v2_launch


@pytest.fixture(scope="session")
def seed17_interpreted(seed17_tasks):
    """``(batch, result)`` of one memcheck launch — which runs on the
    interpreter — over every seed-17 task with reads: the slow reference
    the derived launch is held to, computed once."""
    batch, launch = _v2_launch([t for t in seed17_tasks if t.n_reads], sanitize="memcheck")
    return batch, launch()
