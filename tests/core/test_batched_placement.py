"""Phase A of the derived table build: bulk placement against the lockstep.

``_place_agents`` places every agent of a block of warps at once: the occupied
slots from the agents' homes alone, then each cluster of occupied slots in
fact (e)'s order.  The reference below is the step/round lockstep it
replaced, kept verbatim: per step, every pending agent probes ``home + j``
in round *j* and the lowest lane claims each empty slot.  Both must give
the same ``dist``, ``slot`` and table bytes on any agent table the build
can produce — loads up to ~95%, homes shared within and across steps,
clusters wrapping the table end, one-slot tables and one-agent warps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.extension_kernel_batched as ekb
from repro.core.gpu_batch import EMPTY_PTR


def _place_agents_reference(ht: np.ndarray, ag) -> None:
    """The step/round lockstep over agents only (the pre-bulk phase A)."""
    # (step, first lane) order: np.unique's first index per slot is then
    # the lowest lane of the slot's warp
    order = np.lexsort((ag.first, ag.step))
    cuts = np.searchsorted(ag.step[order], np.arange(int(ag.step.max()) + 2))
    for step in range(cuts.size - 1):
        pend = order[cuts[step] : cuts[step + 1]]
        j = 0
        while pend.size:
            w = ag.warp[pend]
            g = ag.base[w] + (ag.home[pend] + j) % ag.slots[w]
            empty = np.nonzero(ht[g] == EMPTY_PTR)[0]
            if empty.size:
                claimed, won = np.unique(g[empty], return_index=True)
                won = empty[won]
                ht[claimed] = pend[won]
                ag.dist[pend[won]] = j
                ag.slot[pend[won]] = claimed
                pend = np.delete(pend, won)
            j += 1


def _agents(warps, table_order=None, lane0=0):
    """A block's agents and its empty ``ht`` for warps given as ``(slots,
    [(home, step, lane), ...])``: agents numbered warp-major, each first
    occurring at *lane* of its warp's 32-lane *step*, valid lanes counted
    from *lane0*, the tables laid out in *table_order* (default: warp
    order)."""
    sizes = np.array([slots for slots, _ in warps], dtype=np.int64)
    table_order = np.arange(len(warps)) if table_order is None else np.asarray(table_order)
    base = np.zeros(len(warps), dtype=np.int64)
    base[table_order] = np.cumsum(sizes[table_order]) - sizes[table_order]
    warp, home, step, first = [], [], [], []
    for w, (_, agents) in enumerate(warps):
        for h, s, lane in agents:
            warp.append(w)
            home.append(h)
            step.append(lane0 + 32 * s)  # the step's first valid-lane index
            first.append(lane0 + 32 * s + lane)
        lane0 += 32 * (1 + max((s for _, s, _ in agents), default=0))
    n = len(warp)
    ag = ekb._Agents(
        first=np.array(first, dtype=np.int64), warp=np.array(warp, dtype=np.int64),
        base=base, slots=sizes, home=np.array(home, dtype=np.int32), ptr=None,
        step=np.array(step, dtype=np.int64), dist=np.full(n, -1, dtype=np.int32),
        slot=np.full(n, -1, dtype=np.int64), hi=None, total=None,
    )
    return np.full(int(sizes.sum()), EMPTY_PTR, dtype=np.int64), ag


def _assert_places_like_the_lockstep(warps, table_order=None):
    ht, ag = _agents(warps, table_order)
    ref_ht, ref = _agents(warps, table_order)
    _place_agents_reference(ref_ht, ref)
    ekb._place_agents(ht, ag)
    np.testing.assert_array_equal(ag.dist, ref.dist, err_msg="dist")
    np.testing.assert_array_equal(ag.slot, ref.slot, err_msg="slot")
    assert ht.tobytes() == ref_ht.tobytes()
    return ag


def _linear_probe(slots: int, homes) -> set[int]:
    """Slots filled by inserting *homes* one by one into a circular table."""
    taken: set[int] = set()
    for h in homes:
        while h in taken:
            h = (h + 1) % slots
        taken.add(h)
    return taken


@st.composite
def warp_tables(draw):
    """Warps of agents the derived build can produce: fewer agents than
    slots (one in a one-slot table), up to ~95% full, homes drawn from a
    window that may be narrow (shared homes) and may run past the table
    end (wrapping clusters), (step, lane) distinct within a warp."""
    warps = []
    for _ in range(draw(st.integers(1, 4))):
        slots = draw(st.integers(1, 48))
        n = draw(st.integers(1, 1 if slots == 1 else max(1, min(slots - 1, round(0.95 * slots)))))
        lo = draw(st.integers(0, slots - 1))
        width = draw(st.integers(1, slots))
        homes = [(lo + draw(st.integers(0, width - 1))) % slots for _ in range(n)]
        n_steps = draw(st.integers(max(1, -(-n // 32)), 3 + n // 32))
        cells = draw(st.lists(st.integers(0, 32 * n_steps - 1), min_size=n, max_size=n, unique=True))
        warps.append((slots, [(h, c // 32, c % 32) for h, c in zip(homes, cells)]))
    return warps


@settings(max_examples=300, deadline=None, derandomize=True)
@given(warp_tables(), st.data())
def test_bulk_placement_equals_the_lockstep(warps, data):
    table_order = data.draw(st.permutations(range(len(warps))))
    _assert_places_like_the_lockstep(warps, table_order)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(warp_tables(), st.randoms(use_true_random=False))
def test_filled_slots_do_not_depend_on_insert_order(warps, rnd):
    ht, ag = _agents(warps)
    ekb._place_agents(ht, ag)
    for w, (slots, agents) in enumerate(warps):
        homes = [h for h, _, _ in agents]
        shuffled = rnd.sample(homes, len(homes))
        placed = set((ag.slot[ag.warp == w] - ag.base[w]).tolist())
        assert _linear_probe(slots, homes) == _linear_probe(slots, shuffled) == placed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(warp_tables())
def test_lane_indices_too_large_for_one_order_key(warps):
    """Valid-lane indices past 2^55 overflow the packed int64 order of a
    shared cluster's agents; the lexsort that replaces it places alike."""
    ht, ag = _agents(warps)
    far_ht, far = _agents(warps, lane0=2**55)
    ekb._place_agents(ht, ag)
    ekb._place_agents(far_ht, far)
    np.testing.assert_array_equal(far.dist, ag.dist)
    np.testing.assert_array_equal(far.slot, ag.slot)
    assert far_ht.tobytes() == ht.tobytes()


@pytest.mark.parametrize(
    "warps",
    [
        pytest.param([(1, [(0, 0, 0)])], id="one-slot table"),
        pytest.param([(5, [(3, 2, 7)]), (1, [(0, 0, 9)])], id="one-agent warps"),
        pytest.param([(6, [(2, 0, 5), (2, 0, 1), (2, 0, 3)])], id="home shared in a step"),
        pytest.param([(6, [(2, 1, 0), (2, 0, 1), (3, 0, 0)])], id="home shared across steps"),
        pytest.param(
            [(8, [(6, 0, 0), (7, 0, 1), (6, 0, 2), (0, 0, 3), (7, 1, 0), (1, 1, 1)])],
            id="cluster wraps the end",
        ),
        pytest.param(
            [(6, [(5, 0, 2), (4, 0, 0), (5, 0, 1), (0, 0, 3), (4, 1, 4)])],
            id="wrap pushes the first run",
        ),
        pytest.param(
            [(20, [(h, s, lane) for s in range(3) for lane, h in enumerate((4, 9, 4, 3, 17, 18, 9))][:19])],
            id="95 percent full",
        ),
    ],
)
def test_hand_built_tables(warps):
    ag = _assert_places_like_the_lockstep(warps)
    assert (ag.dist >= 0).all()
