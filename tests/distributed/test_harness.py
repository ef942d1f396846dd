"""The rank harness on a toy stage: rows are integers, owner = value % R.

Everything here is about transport — launch, mailbox, failure route —
so the stage is as dumb as a stage can be: rank *r* puts the integers it
was given, grouped by owner; an owner keeps its inbox as it arrived.
The real stages' bit-identity lives in ``test_procrank.py`` and
``test_ranked_align.py``.
"""

import dataclasses
import multiprocessing as mp
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import harness
from repro.distributed.harness import Stage, procrank_available, run_ranks

needs_fork = pytest.mark.skipif(
    not procrank_available(), reason="needs fork + shared memory"
)

TOY_PHASES = ("make", "pack", "exchange", "keep")


def toy_stage(values_by_rank, counts_skew=0) -> Stage:
    """Rank r puts ``values_by_rank[r]``; *counts_skew* tears rank 0's
    counts row (it then claims more rows than its outbox holds)."""
    n_ranks = len(values_by_rank)

    def produce(rank, clock):
        values = np.asarray(values_by_rank[rank], dtype=np.int64)
        owner = values % n_ranks
        clock.mark("make")
        dest_counts = np.bincount(owner, minlength=n_ranks)
        if rank == 0:
            dest_counts[0] += counts_skew
        rows = values[np.argsort(owner, kind="stable")].reshape(-1, 1)
        return rows, dest_counts, len(values)

    def consume(rank, inbox, carry):
        return inbox, np.array([[carry]], dtype=np.int64)

    return Stage(
        "toy", TOY_PHASES, produce, consume,
        wire=(np.int64, 1), owned=((np.int64, 1), (np.int64, 1)),
    )


def with_fault(stage: Stage, victim: int, where: str, fault) -> Stage:
    """*stage* whose rank *victim* calls ``fault()`` on entering *where*."""

    def produce(rank, clock):
        if rank == victim and where == "produce":
            fault()
        return stage.produce(rank, clock)

    def consume(rank, inbox, carry):
        if rank == victim and where == "consume":
            fault()
        return stage.consume(rank, inbox, carry)

    return dataclasses.replace(stage, produce=produce, consume=consume)


def list_transport():
    """Force the list transport, as on a host without fork or /dev/shm."""
    return mock.patch.object(harness, "procrank_available", lambda: False)


def raise_key_error():
    raise KeyError("boom")


class TestMailbox:
    @needs_fork
    @settings(max_examples=12, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-1000, 1000), max_size=12),
            min_size=1,
            max_size=5,
        )
    )
    def test_exchange_is_a_permutation_on_both_transports(self, values_by_rank):
        n_ranks = len(values_by_rank)
        stage = toy_stage(values_by_rank)
        forked = run_ranks(stage, n_ranks)
        with list_transport():
            inproc = run_ranks(stage, n_ranks)
        assert inproc.report.mode == "inproc"
        assert forked.report.mode == ("procrank" if n_ranks > 1 else "inproc")
        # same inboxes in the same order, same counts, through either
        assert np.array_equal(forked.counts, inproc.counts)
        for (a, na), (b, nb) in zip(forked.owned, inproc.owned):
            assert np.array_equal(a, b) and np.array_equal(na, nb)
        # nothing lost, duplicated or misrouted; the carry came back
        sent = sorted(v for vals in values_by_rank for v in vals)
        got = np.concatenate([inbox for inbox, _ in forked.owned])[:, 0]
        assert sorted(got.tolist()) == sent
        for r, (inbox, n_put) in enumerate(forked.owned):
            assert np.all(inbox % n_ranks == r)
            assert n_put.tolist() == [[len(values_by_rank[r])]]
        for m in forked.report.per_rank:
            assert m.sent == forked.counts[m.rank].sum() - forked.counts[m.rank, m.rank]
            assert set(m.phase_s) == set(TOY_PHASES)

    @pytest.mark.parametrize("forked", [True, False])
    def test_torn_counts_row_raises(self, shm_snapshot, forked):
        if forked and not procrank_available():
            pytest.skip("needs fork + shared memory")
        before = shm_snapshot()
        stage = toy_stage([[1, 2, 3], [4, 5]], counts_skew=1)
        with mock.patch.object(harness, "procrank_available", lambda: forked):
            with pytest.raises(RuntimeError, match="failed: repro-toy-rank0"):
                run_ranks(stage, 2, timeout_s=30)
        assert shm_snapshot() == before

    def test_validation(self):
        with pytest.raises(ValueError, match="n_ranks"):
            run_ranks(toy_stage([[1]]), 0)
        with pytest.raises(ValueError, match="sanitize"):
            run_ranks(toy_stage([[1]]), 1, sanitize="racecheck")


class TestFailureRoute:
    @needs_fork
    @pytest.mark.parametrize("where", ["produce", "consume"])
    def test_exception_is_one_runtime_error_and_shm_clean(self, shm_snapshot, where):
        before = shm_snapshot()
        stage = with_fault(toy_stage([[1, 2], [3], [4, 5]]), 2, where, raise_key_error)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="failed: repro-toy-rank2;"):
            run_ranks(stage, 3, timeout_s=60)
        assert time.monotonic() - t0 < 10
        assert shm_snapshot() == before
        assert mp.active_children() == []

    @pytest.mark.parametrize("where", ["produce", "consume"])
    def test_exception_on_list_transport_names_the_rank(self, where):
        stage = with_fault(toy_stage([[1, 2], [3]]), 1, where, raise_key_error)
        with list_transport():
            with pytest.raises(RuntimeError, match="failed: repro-toy-rank1 ") as err:
                run_ranks(stage, 2)
        assert isinstance(err.value.__cause__, KeyError)

    @needs_fork
    def test_hung_rank_times_out_and_is_terminated(self, shm_snapshot):
        before = shm_snapshot()
        stage = with_fault(
            toy_stage([[1, 2], [3]]), 0, "produce", lambda: time.sleep(60)
        )
        t0 = time.monotonic()
        with pytest.raises(TimeoutError, match="repro-toy-rank0"):
            run_ranks(stage, 2, timeout_s=1)
        assert time.monotonic() - t0 < 10
        assert mp.active_children() == []
        assert shm_snapshot() == before


class TestReport:
    def test_one_rank_is_always_inproc(self):
        run = run_ranks(toy_stage([[3, 1, 2]]), 1, profile=True)
        assert run.report.mode == "inproc"
        assert run.owned[0][0][:, 0].tolist() == [3, 1, 2]
        (prof,) = run.report.profiles
        assert {r["phase"] for r in prof["records"]} == set(TOY_PHASES)
        (m,) = run.report.per_rank
        assert m.sent == m.recv == 0
        assert m.exchange_s == m.phase_s["exchange"]
        assert set(m.to_dict()) == {
            "rank", "wall_s", "cpu_s", "exchange_s", "phase_s", "sent", "recv",
        }
