"""Tests for kernel launching, timing model and the roofline analysis."""

import numpy as np
import pytest

from repro.gpusim.counters import KernelCounters
from repro.gpusim.device import V100, DeviceSpec
from repro.gpusim.kernel import GpuContext
from repro.gpusim.roofline import MEMORY_WALLS, render_roofline, roofline_point
from repro.gpusim.timing import TimingModel


def _noop_kernel(warp, warp_id):
    warp.int_op(10)


def _mem_kernel(warp, warp_id, d):
    warp.global_load(d, (np.arange(32) * 64) % len(d))


class TestDevice:
    def test_v100_peak_matches_paper(self):
        # The paper's roofline ceiling: 489.6 warp GIPS.
        assert V100.peak_warp_gips == pytest.approx(489.6)

    def test_occupancy_bounds(self):
        assert V100.occupancy(0) == pytest.approx(0.02)
        assert V100.occupancy(10**9) == 1.0
        assert 0 < V100.occupancy(100) < 1


class TestLaunch:
    def test_counters_accumulate_across_warps(self):
        ctx = GpuContext()
        res = ctx.launch("k", _noop_kernel, 5)
        assert res.counters.warp_inst == 50
        assert res.counters.n_warps_launched == 5

    def test_launch_log(self):
        ctx = GpuContext()
        ctx.launch("a", _noop_kernel, 1)
        ctx.launch("b", _noop_kernel, 2)
        assert [l.name for l in ctx.launches] == ["a", "b"]
        assert ctx.total_kernel_time() > 0
        merged = ctx.merged_counters()
        assert merged.warp_inst == 30

    def test_transfer_accounting(self):
        ctx = GpuContext()
        d = ctx.to_device(np.zeros(1000, dtype=np.int64))
        ctx.from_device(d)
        assert ctx.transfer_bytes == 16000
        assert ctx.transfer_time_s > 0

    def test_pool_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            GpuContext(engine="pool")

    def test_kernel_args_passed(self):
        ctx = GpuContext()
        d = ctx.to_device(np.zeros(4096, dtype=np.int32))
        res = ctx.launch("m", _mem_kernel, 3, d)
        assert res.counters.global_ld_transactions > 0


class TestTimingModel:
    def test_more_instructions_more_time(self):
        tm = TimingModel(V100)
        a, b = KernelCounters(), KernelCounters()
        a.warp_inst = 1000
        b.warp_inst = 2000
        assert tm.kernel_time(b, 10**6) > tm.kernel_time(a, 10**6)

    def test_low_occupancy_slower(self):
        tm = TimingModel(V100)
        c = KernelCounters()
        c.warp_inst = 10**6
        assert tm.kernel_time(c, 10) > tm.kernel_time(c, 10**6)

    def test_memory_bound_detection(self):
        tm = TimingModel(V100)
        c = KernelCounters()
        c.warp_inst = 10
        c.global_ld_transactions = 10**6
        assert tm.kernel_timing(c, 10**6).bound == "memory"
        c2 = KernelCounters()
        c2.warp_inst = 10**8
        c2.global_ld_transactions = 1
        assert tm.kernel_timing(c2, 10**6).bound == "compute"

    def test_launch_overhead_floor(self):
        tm = TimingModel(V100)
        assert tm.kernel_time(KernelCounters(), 1) >= V100.kernel_launch_overhead_s

    def test_transfer_time_scales(self):
        tm = TimingModel(V100)
        assert tm.transfer_time(10**9) > tm.transfer_time(10**3)


class TestRoofline:
    def _result(self, warp_inst=1000, thread_inst=None, ld_txn=100, ld_inst=10):
        ctx = GpuContext()
        c = KernelCounters()
        c.warp_inst = warp_inst
        c.thread_inst = thread_inst if thread_inst is not None else warp_inst * 32
        c.predicated_off = 32 * warp_inst - c.thread_inst
        c.global_ld_transactions = ld_txn
        c.global_ld_inst = ld_inst
        from repro.gpusim.kernel import LaunchResult

        timing = ctx.timing_model.kernel_timing(c, 10**6)
        return LaunchResult(name="t", n_warps=10**6, counters=c, timing=timing)

    def test_intensity(self):
        p = roofline_point(self._result(warp_inst=1000, ld_txn=100))
        assert p.intensity == pytest.approx(10.0)
        assert p.ldst_intensity == pytest.approx(0.1)

    def test_no_predication_gap_when_full(self):
        p = roofline_point(self._result())
        assert p.nonpredicated_gips == pytest.approx(p.gips)
        assert p.predication_gap == pytest.approx(1.0)

    def test_predication_gap(self):
        p = roofline_point(self._result(warp_inst=1000, thread_inst=1000))
        assert p.predication_gap == pytest.approx(32.0)
        assert p.predication_ratio == pytest.approx(31 / 32)

    def test_nearest_wall(self):
        p = roofline_point(self._result(ld_txn=320, ld_inst=10))  # 1/32
        assert p.nearest_wall() == "random/stride-8"
        p2 = roofline_point(self._result(ld_txn=40, ld_inst=10))  # 1/4
        assert p2.nearest_wall() == "stride-1"

    def test_render(self):
        p = roofline_point(self._result())
        text = render_roofline([p], V100)
        assert "489.6" in text
        assert "t" in text
        for wall in MEMORY_WALLS:
            assert wall.split("@")[0] in text
