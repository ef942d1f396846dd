"""Tier-1 miniatures of the end-to-end claims for local assembly.

The e2e benchmark shows the CPU array engine's and the derived GPU walk's
gains on whole runs; these keep a silent fall back to per-entry Python or
to the lockstep walk from passing CI.
"""

import numpy as np
import pytest
from la_reference import (
    as_extension_set,
    extend_task_reference,
    run_local_assembly_reference,
)

import repro.core.extension_kernel_batched as ekb
from repro.core.config import LocalAssemblyConfig
from repro.core.cpu_local_assembly import extend_task_cpu, run_local_assembly_cpu
from repro.core.driver import GpuLocalAssembler
from repro.core.gpu_batch import EMPTY_PTR, pack_batch
from repro.core.tasks import tasks_from_candidates
from repro.gpusim.batched import BatchCounters, WarpBatch
from repro.gpusim.kernel import GpuContext
from repro.pipeline.alignment import align_reads
from repro.pipeline.contig_generation import generate_contigs
from repro.pipeline.kmer_analysis import analyze_kmers
from repro.pipeline.merge_reads import merge_read_pairs
from repro.sequence.community import arcticsynth_like, sample_paired_reads


@pytest.fixture(scope="module")
def tasks():
    """The seed-17 pipeline-built task set: 3 x 5 kb genomes, 500 pairs."""
    rng = np.random.default_rng(17)
    community = arcticsynth_like(rng, n_genomes=3, genome_length=5000)
    reads = sample_paired_reads(community, 500, rng)
    merged, _ = merge_read_pairs(reads)
    contigs = generate_contigs(analyze_kmers(merged, 21))
    candidates = align_reads(contigs, reads).candidates
    tasks = tasks_from_candidates(contigs, candidates.values())
    assert sum(1 for t in tasks if t.n_reads) >= 100
    return tasks


@pytest.mark.bench_smoke
def test_array_engine_matches_reference_and_is_2_5x_cheaper(tasks, paired_cpu_ratio):
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


@pytest.mark.bench_smoke
def test_derived_walk_matches_lockstep_and_is_3x_cheaper(tasks, paired_cpu_ratio):
    """Unsanitized batched launches derive the mer-walk from the build's
    agent table; sanitized ones step it in lockstep.  Same extensions and
    per-warp counters, and the walk itself >= 3x cheaper."""
    config = LocalAssemblyConfig()
    derived = GpuLocalAssembler(config, engine="batched").run(tasks)
    lockstep = GpuLocalAssembler(config, engine="batched", sanitize="memcheck").run(tasks)
    assert derived.extensions == lockstep.extensions
    assert np.count_nonzero(derived.extensions.lengths()) >= 50
    assert [(la.per_warp_inst, la.counters) for la in derived.launches] == [
        (la.per_warp_inst, la.counters) for la in lockstep.launches
    ]

    # one k_init walk of every task with reads, over one derived build
    ctx = GpuContext()
    batch = pack_batch(ctx, [t for t in tasks if t.n_reads], config)
    n, k = len(batch.tasks), config.k_init
    rows = np.arange(n)
    ht_start, slots = batch.layout.offsets[rows], batch.layout.sizes[rows]
    vis_start = rows * batch.vis_slots
    wb = WarpBatch(BatchCounters(n), ctx.device.sector_bytes)
    ekb._clear_group(wb, batch, rows, ht_start, slots, vis_start)
    agents = ekb._build_group_derived(wb, batch, rows, rows, k, ht_start, slots)
    # the lockstep walk reads the dense tallies, which the derived build
    # keeps on its agent table: put them where the lockstep build would
    batch.ht_hi.data.reshape(-1, 4)[agents.slot] = agents.hi
    batch.ht_total.data.reshape(-1, 4)[agents.slot] = agents.total

    def walk(fn, *agent_table):
        def run():
            batch.vis_ptr.data[:] = EMPTY_PTR
            return fn(
                WarpBatch(BatchCounters(n), ctx.device.sector_bytes), batch, rows, k,
                batch.seq_offsets[:n], batch.seq_len, ht_start, slots, vis_start,
                *agent_table,
            )
        return run

    reference = walk(ekb._walk_group_lockstep)
    array = walk(ekb._walk_group_derived, agents)
    for want, got in zip(reference(), array()):
        np.testing.assert_array_equal(got, want)
    ratio = paired_cpu_ratio(reference, array)
    assert ratio >= 3, f"derived walk only {ratio:.1f}x the lockstep walk"
