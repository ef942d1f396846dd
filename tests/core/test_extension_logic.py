"""Tests for the pure extension logic: classification and k-shift."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.extension import (
    KShiftState,
    WalkStatus,
    classify_extension,
    classify_extensions,
    kshift_next,
)

counts4 = st.tuples(*(st.integers(0, 20) for _ in range(4)))


class TestClassify:
    def test_single_viable_hi(self):
        status, base = classify_extension((0, 3, 0, 0), (0, 3, 0, 0))
        assert status is None and base == 1

    def test_no_viable_is_runout(self):
        status, base = classify_extension((0, 0, 0, 0), (1, 0, 0, 0))
        assert status == WalkStatus.RUNOUT and base == -1

    def test_total_fallback(self):
        """No hi-quality support, but enough total occurrences."""
        status, base = classify_extension((0, 0, 0, 0), (0, 0, 4, 0))
        assert status is None and base == 2

    def test_fork(self):
        status, base = classify_extension((3, 3, 0, 0), (3, 3, 0, 0))
        assert status == WalkStatus.FORK

    def test_dominance_resolves_fork(self):
        status, base = classify_extension((8, 2, 0, 0), (8, 2, 0, 0), dominance_ratio=2.0)
        assert status is None and base == 0

    def test_dominance_ratio_boundary(self):
        # exactly 2x with ratio 2.0: wins (>=) but only if strictly greater count
        status, _ = classify_extension((4, 2, 0, 0), (4, 2, 0, 0), dominance_ratio=2.0)
        assert status is None
        status2, _ = classify_extension((2, 2, 0, 0), (2, 2, 0, 0), dominance_ratio=1.0)
        assert status2 == WalkStatus.FORK  # equal counts never dominate

    def test_min_viable_threshold(self):
        status, _ = classify_extension((1, 0, 0, 0), (1, 0, 0, 0), min_viable=2)
        assert status == WalkStatus.RUNOUT
        status2, base = classify_extension((1, 0, 0, 0), (1, 0, 0, 0), min_viable=1)
        assert status2 is None and base == 0

    @given(counts4, counts4)
    def test_always_valid_output(self, hi, total):
        status, base = classify_extension(hi, total)
        if status is None:
            assert 0 <= base < 4
        else:
            assert status in (WalkStatus.RUNOUT, WalkStatus.FORK)
            assert base == -1

    @given(counts4)
    def test_hi_never_exceeding_total_is_not_required(self, hi):
        # classification must not crash however inconsistent the tallies
        classify_extension(hi, (0, 0, 0, 0))


class TestClassifyArrays:
    """The array classifier (batched GPU kernel, CPU tables) against the scalar."""

    @pytest.mark.parametrize("dominance_ratio", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("min_viable", [1, 2, 3])
    def test_exhaustive_small_tallies(self, min_viable, dominance_ratio):
        """Every tally 8-tuple with 0 <= hi[b] <= total[b] <= 3."""
        per_base = [(h, t) for t in range(4) for h in range(t + 1)]
        rows = np.array(list(itertools.product(per_base, repeat=4)), dtype=np.int64)
        hi4, tot4 = rows[:, :, 0], rows[:, :, 1]
        assert len(rows) == 10**4
        status, base = classify_extensions(hi4, tot4, min_viable, dominance_ratio)
        want = [
            classify_extension(h, t, min_viable, dominance_ratio)
            for h, t in zip(hi4.tolist(), tot4.tolist())
        ]
        assert status.tolist() == [-1 if s is None else int(s) for s, _ in want]
        assert base.tolist() == [b for _, b in want]

    @given(st.lists(st.tuples(counts4, counts4), max_size=20))
    def test_matches_scalar_on_any_tallies(self, rows):
        """Larger and inconsistent (hi > total) tallies, uint32 like the
        device tables hold them, and the empty batch."""
        hi4 = np.array([h for h, _ in rows], dtype=np.uint32).reshape(-1, 4)
        tot4 = np.array([t for _, t in rows], dtype=np.uint32).reshape(-1, 4)
        status, base = classify_extensions(hi4, tot4)
        want = [classify_extension(h, t) for h, t in rows]
        assert status.tolist() == [-1 if s is None else int(s) for s, _ in want]
        assert base.tolist() == [b for _, b in want]


class TestKShift:
    K = dict(k_min=13, k_max=63, k_step=8)

    def test_loop_terminates(self):
        s = kshift_next(KShiftState(k=21), WalkStatus.LOOP, **self.K)
        assert s.done

    def test_max_len_terminates(self):
        s = kshift_next(KShiftState(k=21), WalkStatus.MAX_LEN, **self.K)
        assert s.done

    def test_fork_upshifts(self):
        s = kshift_next(KShiftState(k=21), WalkStatus.FORK, **self.K)
        assert not s.done and s.k == 29 and s.shifted_up

    def test_runout_downshifts(self):
        s = kshift_next(KShiftState(k=21), WalkStatus.RUNOUT, **self.K)
        assert not s.done and s.k == 13 and s.shifted_down

    def test_fork_after_downshift_terminates(self):
        s = KShiftState(k=13, shifted_down=True)
        assert kshift_next(s, WalkStatus.FORK, **self.K).done

    def test_runout_after_upshift_terminates(self):
        s = KShiftState(k=29, shifted_up=True)
        assert kshift_next(s, WalkStatus.RUNOUT, **self.K).done

    def test_k_max_bound(self):
        s = KShiftState(k=63, shifted_up=True)
        assert kshift_next(s, WalkStatus.FORK, **self.K).done

    def test_k_min_bound(self):
        s = KShiftState(k=13)
        assert kshift_next(s, WalkStatus.RUNOUT, **self.K).done

    def test_repeated_forks_climb(self):
        s = KShiftState(k=21)
        ks = []
        while not s.done:
            ks.append(s.k)
            s = kshift_next(s, WalkStatus.FORK, **self.K)
        assert ks == [21, 29, 37, 45, 53, 61]

    @given(st.lists(st.sampled_from(list(WalkStatus)), min_size=1, max_size=30))
    def test_always_terminates(self, statuses):
        """Any status sequence drives the machine to done within bounds."""
        s = KShiftState(k=21)
        steps = 0
        for status in statuses * 5:
            if s.done:
                break
            s = kshift_next(s, status, **self.K)
            steps += 1
            assert 13 <= s.k <= 63
        assert steps <= 20
