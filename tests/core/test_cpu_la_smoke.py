"""Tier-1 miniatures of the end-to-end claims for local assembly.

The e2e benchmark shows the CPU array engine's and the derived GPU walk's
gains on whole runs; these keep a silent fall back to per-entry Python
from passing CI and pin the derived walk to the interpreted kernel.
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


@pytest.fixture(scope="module")
def tasks(seed17_tasks):
    """The seed-17 pipeline-built task set: 3 x 5 kb genomes, 500 pairs."""
    assert sum(1 for t in seed17_tasks if t.n_reads) >= 100
    return seed17_tasks


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
def test_derived_walk_matches_the_interpreter(tasks, v2_launch, seed17_interpreted):
    """Batched launches derive the build and the mer-walk from the agent
    table; a sanitized launch interprets the kernel as written.  Same
    extensions, walk buffers and per-warp counters."""
    batch, launch = v2_launch([t for t in tasks if t.n_reads])
    derived = launch()
    checked, interpreted = seed17_interpreted
    for name in ("out_ext_len", "seq_buf", "vis_ptr"):
        assert np.array_equal(getattr(batch, name).data, getattr(checked, name).data), name
    assert np.count_nonzero(batch.out_ext_len.data) >= 50
    assert derived.per_warp_inst == interpreted.per_warp_inst
    assert derived.counters == interpreted.counters
