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

from repro.core.config import LocalAssemblyConfig

#: Transient bytes of one unsanitized launch per valid ``k_init`` lane.
#: Measured on this input: 106, most of it one pass-2 block's probe
#: visits.  Before the tallies moved to the agent table it read 117: an
#: int64 ambiguity prefix over the whole reads buffer, int64 lane and
#: agent ids, per-agent copies of per-warp table bounds, and the resolve
#: blocks' per-agent pieces alive next to their concatenation.
LAUNCH_BYTES_PER_LANE = 112


@pytest.fixture(scope="module")
def tasks(seed17_tasks):
    """A pipeline-built task set: 3 x 5 kb genomes, 500 pairs (seed 17)."""
    return [t for t in seed17_tasks if t.n_reads]


def _valid_lanes(tasks, k):
    """Windows of *k* bases plus an extension base, none ambiguous."""
    n = 0
    for t in tasks:
        for read in t.reads:
            bad = np.convolve(read >= 4, np.ones(k + 1, dtype=int), "valid")
            n += int(np.count_nonzero(bad == 0))
    return n


@pytest.mark.bench_smoke
def test_unsanitized_launch_leaves_dense_tallies_zero(tasks, v2_launch, seed17_interpreted):
    """Same extensions and per-warp counters as a memcheck launch, which
    runs on the interpreter and fills the dense tallies; the unsanitized
    launch leaves them zero, and stale values in them untouched (no host
    write at all)."""
    batch, launch = v2_launch(tasks)
    derived = launch()
    checked, interpreted = seed17_interpreted
    stale, relaunch = v2_launch(tasks, stale=7)
    again = relaunch()
    assert not batch.ht_hi.data.any() and not batch.ht_total.data.any()
    assert checked.ht_total.data.any() and checked.ht_hi.data.any()
    assert (stale.ht_hi.data == 7).all() and (stale.ht_total.data == 7).all()
    for other in (checked, stale):
        for name in ("out_ext_len", "seq_buf"):
            assert np.array_equal(getattr(batch, name).data, getattr(other, name).data)
    assert batch.out_ext_len.data.sum() >= 500
    for other in (interpreted, again):
        np.testing.assert_array_equal(derived.per_warp_inst, other.per_warp_inst)
        assert derived.counters == other.counters


@pytest.mark.bench_smoke
def test_launch_transient_per_valid_lane(tasks, v2_launch):
    _, launch = v2_launch(tasks)
    tracemalloc.start()
    try:
        launch()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_lane = (peak - current) / _valid_lanes(tasks, LocalAssemblyConfig().k_init)
    assert per_lane <= LAUNCH_BYTES_PER_LANE, f"{per_lane:.1f} B per valid lane"
