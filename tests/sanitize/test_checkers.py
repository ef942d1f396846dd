"""Dynamic-checker tests: each seeded kernel defect fires exactly its checker.

Fixture kernels mirror NVIDIA compute-sanitizer's test style: each one
contains exactly one deliberate bug (an out-of-bounds store, a lane race
on a non-atomic store, a read of never-written memory, a use after free)
and the matching checker must report it — naming the kernel, bin, warp,
lane and device address — while the other checkers stay silent.
"""

import json

import numpy as np
import pytest

from repro.gpusim.kernel import GpuContext
from repro.sanitize.report import MAX_ERRORS, SANITIZE_MODES
from repro.sanitize.sanitizer import Sanitizer


# --- fixture kernels (one seeded defect each) -------------------------------


def _oob_store_kernel(warp, warp_id, darr):
    idx = np.arange(32, dtype=np.int64)
    idx[31] = darr.data.size + 8  # seeded bug: lane 31 runs off the end
    warp.global_store(darr, idx, np.full(32, 1, dtype=np.int64))


def _lane_race_kernel(warp, warp_id, darr):
    idx = np.arange(32, dtype=np.int64)
    idx[1] = 0  # seeded bug: lanes 0 and 1 collide, store is not atomic
    warp.global_store(darr, idx, np.arange(32, dtype=np.int64))


def _cross_warp_race_kernel(warp, warp_id, darr):
    # seeded bug: every warp stores to element 0 with no atomicity
    with warp.single_lane(0):
        warp.global_store(
            darr, np.zeros(32, dtype=np.int64), np.full(32, warp_id, dtype=np.int64)
        )


def _uninit_load_kernel(warp, warp_id, darr):
    # seeded bug: darr was allocated but never written / transferred
    warp.global_load(darr, np.arange(32, dtype=np.int64))


def _use_after_free_kernel(warp, warp_id, darr):
    warp.global_load(darr, np.zeros(32, dtype=np.int64))


def _clean_kernel(warp, warp_id, darr):
    idx = np.arange(32, dtype=np.int64)
    vals = warp.global_load(darr, idx)
    warp.sync()
    warp.global_store(darr, idx, vals + 1)


@pytest.fixture
def ctx():
    return GpuContext(sanitize="full")


def _launch(ctx, kernel, n_warps=1, *, name="fixture", bin_name="bin2", size=64):
    darr = ctx.to_device(np.zeros(size, dtype=np.int64))
    ctx.launch(name, kernel, n_warps, darr, bin_name=bin_name)
    return ctx.sanitizer_report()


class TestMemcheck:
    def test_oob_store_reported_with_coordinates(self, ctx):
        darr = ctx.to_device(np.zeros(64, dtype=np.int64))
        ctx.launch("oob_fixture", _oob_store_kernel, 1, darr, bin_name="bin3")
        report = ctx.sanitizer_report()
        assert not report.clean
        assert {e.checker for e in report.errors} == {"memcheck"}
        (err,) = report.errors
        assert err.kind == "oob_store"
        assert err.kernel == "oob_fixture"
        assert err.bin == "bin3"
        assert err.warp == 0
        assert err.lane == 31
        assert err.address == darr.base_addr + (darr.data.size + 8) * darr.itemsize

    def test_oob_lane_is_suppressed_not_written(self, ctx):
        host = np.zeros(64, dtype=np.int64)
        darr = ctx.to_device(host)
        ctx.launch("oob_fixture", _oob_store_kernel, 1, darr)
        # lanes 0..30 stored 1; the out-of-bounds lane wrote nothing
        out = ctx.from_device(darr)
        assert out[:31].tolist() == [1] * 31
        assert out[31] == 0

    def test_use_after_free_reported(self, ctx):
        darr = ctx.to_device(np.zeros(16, dtype=np.int64))
        ctx.allocator.free(darr)
        ctx.launch("uaf_fixture", _use_after_free_kernel, 1, darr)
        report = ctx.sanitizer_report()
        (err,) = report.errors
        assert err.checker == "memcheck"
        assert err.kind == "use_after_free"
        assert err.address == darr.base_addr

    def test_use_after_reset_reported(self, ctx):
        darr = ctx.to_device(np.zeros(16, dtype=np.int64))
        ctx.allocator.reset()
        ctx.launch("uar_fixture", _use_after_free_kernel, 1, darr)
        assert any(
            e.kind == "use_after_free" for e in ctx.sanitizer_report().errors
        )


class TestRacecheck:
    def test_lane_race_on_non_atomic_store(self, ctx):
        report = _launch(ctx, _lane_race_kernel, name="race_fixture")
        assert {e.checker for e in report.errors} == {"racecheck"}
        (err,) = report.errors
        assert err.kind == "race"
        assert err.kernel == "race_fixture"
        assert err.warp == 0
        assert err.lane == 1
        assert err.details["other_lane"] == 0
        assert "non-atomic" in err.message

    def test_cross_warp_race(self, ctx):
        report = _launch(ctx, _cross_warp_race_kernel, n_warps=2, name="xwarp")
        assert not report.clean
        (err,) = report.by_checker("racecheck")
        assert err.warp == 1
        assert err.details["other_warp"] == 0
        assert "cross-warp" in err.message

    def test_sync_separates_accesses(self, ctx):
        # same addresses touched again after warp.sync(): no hazard
        report = _launch(ctx, _clean_kernel, name="clean")
        assert report.clean, [str(e) for e in report.errors]


class TestInitcheck:
    def test_uninitialized_read_reported(self, ctx):
        darr = ctx.alloc(64, np.int64)  # never written, never marked
        ctx.launch("uninit_fixture", _uninit_load_kernel, 1, darr)
        report = ctx.sanitizer_report()
        assert {e.checker for e in report.errors} == {"initcheck"}
        err = report.errors[0]
        assert err.kind == "uninit_load"
        assert err.kernel == "uninit_fixture"
        assert err.warp == 0
        assert err.lane == 0
        assert err.address == darr.base_addr

    def test_written_then_read_is_clean(self, ctx):
        report = _launch(ctx, _clean_kernel, name="clean")
        assert report.clean

    def test_mark_initialized_silences(self, ctx):
        darr = ctx.alloc(64, np.int64)
        ctx.mark_initialized(darr)  # the cudaMemset analogue
        ctx.launch("memset_fixture", _uninit_load_kernel, 1, darr)
        assert ctx.sanitizer_report().clean


class TestModes:
    def test_single_mode_only_runs_its_checker(self):
        # the OOB fixture under racecheck-only: suppression is memcheck's
        # job, so strict validation raises instead
        ctx = GpuContext(sanitize="racecheck")
        darr = ctx.to_device(np.zeros(64, dtype=np.int64))
        with pytest.raises(IndexError):
            ctx.launch("oob", _oob_store_kernel, 1, darr)

    def test_off_mode_has_no_report(self):
        assert GpuContext().sanitizer_report() is None

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="sanitize"):
            GpuContext(sanitize="bogus")

    def test_mode_list_is_stable(self):
        assert SANITIZE_MODES == ("off", "memcheck", "racecheck", "initcheck", "full")


class TestReport:
    def test_serialization_roundtrip(self, ctx):
        _launch(ctx, _lane_race_kernel, name="race_fixture")
        report = ctx.sanitizer_report()
        payload = json.loads(report.to_json())
        assert payload["mode"] == "full"
        assert payload["n_errors"] == 1
        (err,) = payload["errors"]
        assert err["checker"] == "racecheck"
        assert err["kernel"] == "race_fixture"
        assert isinstance(err["address"], int)

    def test_summary_mentions_counts(self, ctx):
        _launch(ctx, _lane_race_kernel)
        text = ctx.sanitizer_report().summary()
        assert "1 error" in text

    def test_error_cap(self):
        san = Sanitizer("memcheck")
        san.begin_launch("k", "bin2", 1)
        darr_like = type(
            "D",
            (),
            {
                "base_addr": 0,
                "itemsize": 8,
                "freed": False,
                "data": np.zeros(4, dtype=np.int64),
            },
        )()
        for _ in range(MAX_ERRORS + 50):
            san.access(
                darr_like,
                np.array([99], dtype=np.int64),
                0,
                np.array([0]),
                write=True,
            )
        report = san.report()
        assert len(report.errors) == MAX_ERRORS
        assert report.n_suppressed == 50
        assert report.n_errors == MAX_ERRORS + 50
