"""``ExtensionSet``: the one packed form of local assembly's output.

One rejection test per constructor invariant, the task-order builder and
the array equality every differential test leans on.
"""

import numpy as np
import pytest

from repro.core.tasks import LEFT, RIGHT, ExtensionSet, ExtensionTask


def _valid():
    """cid 4 extended by ACG on the left and nothing on the right, cid 1
    by T on the right."""
    return dict(cids=[4, 4, 1], sides=[LEFT, RIGHT, RIGHT], codes=[0, 1, 2, 3], offsets=[0, 3, 3, 4])


def _with(**changes):
    return ExtensionSet(**{**_valid(), **changes})


class TestInvariants:
    def test_valid_arrays_are_kept_with_their_dtypes(self):
        ext = _with()
        assert len(ext) == 3 and ext.lengths().tolist() == [3, 0, 1]
        for name, dtype in (("cids", np.int64), ("sides", np.int8), ("codes", np.uint8), ("offsets", np.int64)):
            assert getattr(ext, name).dtype == dtype

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            _with(offsets=[1, 3, 3, 4])

    def test_offsets_must_end_at_the_codes(self):
        with pytest.raises(ValueError, match="end at len"):
            _with(offsets=[0, 3, 3, 3])

    def test_offsets_must_not_decrease(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            _with(offsets=[0, 3, 2, 4])

    @pytest.mark.parametrize(
        "change",
        [dict(sides=[LEFT, RIGHT]), dict(offsets=[0, 3, 4]), dict(codes=[[0, 1], [2, 3]])],
        ids=["sides", "offsets", "2-D codes"],
    )
    def test_sizes_must_match(self, change):
        with pytest.raises(ValueError, match="extensions need"):
            _with(**change)

    @pytest.mark.parametrize("side", [2, -1])
    def test_sides_are_left_or_right(self, side):
        with pytest.raises(ValueError, match="LEFT or RIGHT"):
            _with(sides=[LEFT, RIGHT, side])

    def test_cid_side_pairs_are_unique(self):
        with pytest.raises(ValueError, match="unique"):
            _with(cids=[4, 4, 4], sides=[LEFT, RIGHT, RIGHT])

    @pytest.mark.parametrize("code", [4, 9])
    def test_codes_are_bases(self, code):
        """An engine only appends a classified base: not even N."""
        with pytest.raises(ValueError, match="not one of ACGT"):
            _with(codes=[0, 1, code, 3])

    def test_empty(self):
        ext = ExtensionSet([], [], [], [0])
        assert len(ext) == 0 and ext == ExtensionSet([], [], [], [0])


class TestBuildAndCompare:
    def test_of_takes_ids_from_the_tasks_in_order(self):
        none = np.empty(0, np.uint8)
        tasks = [
            ExtensionTask.from_reads(cid, side, none, (), ())
            for cid, side in ((9, RIGHT), (2, LEFT), (9, LEFT))
        ]
        ext = ExtensionSet.of(tasks, np.array([3, 3, 0], np.uint8), [2, 0, 1])
        assert ext == ExtensionSet([9, 2, 9], [RIGHT, LEFT, LEFT], [3, 3, 0], [0, 2, 2, 3])

    def test_equality_is_array_equality(self):
        assert _with() == _with()
        assert _with() != _with(codes=[0, 1, 2, 2])
        assert _with() != _with(cids=[4, 4, 2])
        assert _with() != _with(offsets=[0, 2, 3, 4])
        assert _with() != {}
        with pytest.raises(TypeError):
            hash(_with())
