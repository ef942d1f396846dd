"""Tier-1 memory gate for simulated-GPU local assembly.

The device tables are host arrays in the simulator, so an unsanitized
batched launch must not write what nothing reads: the derived build keeps
each agent's tallies on its agent table, and the dense ``ht_hi`` /
``ht_total`` stay untouched zero pages.  Its own temporaries are sized by
the lanes it resolves, not by the reads buffer.  ``tracemalloc`` sees
every NumPy buffer and its counts depend only on the input: a *transient*
is the launch's peak minus what it leaves allocated.
"""

import tracemalloc

import numpy as np
import pytest

import repro.core.extension_kernel_batched  # noqa: F401  (registers the batched v2 impl)
from repro.core.config import LocalAssemblyConfig
from repro.core.extension_kernel import extension_task_kernel_v2
from repro.core.gpu_batch import pack_batch
from repro.core.tasks import tasks_from_candidates
from repro.gpusim.kernel import GpuContext
from repro.pipeline.alignment import align_reads
from repro.pipeline.contig_generation import generate_contigs
from repro.pipeline.kmer_analysis import analyze_kmers
from repro.pipeline.merge_reads import merge_read_pairs
from repro.sequence.community import arcticsynth_like, sample_paired_reads

#: Transient bytes of one unsanitized launch per valid ``k_init`` lane.
#: Measured on this input: 106, most of it one pass-2 block's probe
#: visits.  Before the tallies moved to the agent table it read 117: an
#: int64 ambiguity prefix over the whole reads buffer, int64 lane and
#: agent ids, per-agent copies of per-warp table bounds, and the resolve
#: blocks' per-agent pieces alive next to their concatenation.
LAUNCH_BYTES_PER_LANE = 112


@pytest.fixture(scope="module")
def tasks():
    """A pipeline-built task set: 3 x 5 kb genomes, 500 pairs (seed 17)."""
    rng = np.random.default_rng(17)
    community = arcticsynth_like(rng, n_genomes=3, genome_length=5000)
    reads = sample_paired_reads(community, 500, rng)
    merged, _ = merge_read_pairs(reads)
    contigs = generate_contigs(analyze_kmers(merged, 21))
    candidates = align_reads(contigs, reads).candidates
    return [t for t in tasks_from_candidates(contigs, candidates.values()) if t.n_reads]


def _launch(tasks, sanitize="off", stale=None):
    """A packed batch and a thunk running one v2 launch over every task;
    *stale* prefills the dense tallies."""
    ctx = GpuContext(sanitize=sanitize)
    batch = pack_batch(ctx, tasks, LocalAssemblyConfig())
    if stale is not None:
        batch.ht_hi.data[:] = batch.ht_total.data[:] = stale
    n = len(tasks)
    return batch, lambda: ctx.launch(
        "extension_v2", extension_task_kernel_v2, n, batch, np.arange(n)
    )


def _valid_lanes(tasks, k):
    """Windows of *k* bases plus an extension base, none ambiguous."""
    n = 0
    for t in tasks:
        for read in t.reads:
            bad = np.convolve(read >= 4, np.ones(k + 1, dtype=int), "valid")
            n += int(np.count_nonzero(bad == 0))
    return n


@pytest.mark.bench_smoke
def test_unsanitized_launch_leaves_dense_tallies_zero(tasks):
    """Same extensions and per-warp counters as a memcheck launch, whose
    lockstep build fills the dense tallies; the unsanitized launch leaves
    them zero, and stale values in them untouched (no host write at all)."""
    batch, launch = _launch(tasks)
    derived = launch()
    checked, memcheck = _launch(tasks, sanitize="memcheck")
    lockstep = memcheck()
    stale, relaunch = _launch(tasks, stale=7)
    again = relaunch()
    assert not batch.ht_hi.data.any() and not batch.ht_total.data.any()
    assert checked.ht_total.data.any() and checked.ht_hi.data.any()
    assert (stale.ht_hi.data == 7).all() and (stale.ht_total.data == 7).all()
    for other in (checked, stale):
        for name in ("out_ext_len", "seq_buf"):
            assert np.array_equal(getattr(batch, name).data, getattr(other, name).data)
    assert batch.out_ext_len.data.sum() >= 500
    for other in (lockstep, again):
        np.testing.assert_array_equal(derived.per_warp_inst, other.per_warp_inst)
        assert derived.counters == other.counters


@pytest.mark.bench_smoke
def test_launch_transient_per_valid_lane(tasks):
    _, launch = _launch(tasks)
    tracemalloc.start()
    try:
        launch()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_lane = (peak - current) / _valid_lanes(tasks, LocalAssemblyConfig().k_init)
    assert per_lane <= LAUNCH_BYTES_PER_LANE, f"{per_lane:.1f} B per valid lane"
