"""Tier-1 memory gate for simulated-GPU local assembly.

The device tables are host arrays in the simulator, so an unsanitized
batched launch must not write what nothing reads: the derived build keeps
each agent's tallies with the agent, and the dense ``ht_hi`` /
``ht_total`` stay untouched zero pages.  Its own temporaries are sized by
one block of the lanes it resolves, not by the reads buffer, and what it
hands the walk is a few numbers per agent.  ``tracemalloc`` sees every
NumPy buffer and its counts depend only on the input: a *transient* is
the launch's peak minus what it leaves allocated.
"""

import tracemalloc

import numpy as np
import pytest

import repro.core.extension_kernel_batched as ekb
from repro.core.config import LocalAssemblyConfig

#: Transient bytes of one unsanitized launch per valid ``k_init`` lane.
#: Measured on this input: 83, most of it one pass-2 block's probe
#: visits.  It read 104 while the build kept every lane's agent, base and
#: flag and every agent's words, tallies and first occurrence for the
#: walk, which sorted the agents again; and 117 before the tallies moved
#: to the agents (an int64 ambiguity prefix over the whole reads buffer,
#: int64 lane and agent ids, per-agent copies of per-warp table bounds).
LAUNCH_BYTES_PER_LANE = 88

#: Bytes per agent of what the build hands the walk (``_Moves``): the
#: move, both homes, the slot and the probe distance.
MOVE_BYTES_PER_AGENT = 40


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


def test_build_hands_the_walk_a_slim_move_table(tasks, v2_launch, monkeypatch):
    """Per agent, the walk gets its move, homes, slot and probe distance
    and nothing else of the build; per warp, its start agent."""
    handed = []
    walk = ekb._walk_group_derived

    def spy(*args):
        handed.append((args[2].size, args[-1]))
        return walk(*args)

    monkeypatch.setattr(ekb, "_walk_group_derived", spy)
    _, launch = v2_launch(tasks)
    launch()
    groups = [(n_warps, moves) for n_warps, moves in handed if moves is not None]
    assert groups
    for n_warps, moves in groups:
        per_agent = [getattr(moves, f) for f in moves._fields if f != "start"]
        assert {a.shape for a in per_agent} == {moves.move.shape}
        assert moves.start.shape == (n_warps,)
        per = sum(a.nbytes for a in per_agent) / moves.move.size
        assert per <= MOVE_BYTES_PER_AGENT, f"{per:.1f} B per agent"
