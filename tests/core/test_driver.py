"""Tests for the GPU driver: bins, launch order, batching, reporting."""

import numpy as np
import pytest

from repro.core.config import LocalAssemblyConfig
from repro.core.driver import GpuLocalAssembler
from repro.core.tasks import LEFT, RIGHT, ExtensionTask, TaskSet
from repro.sequence.dna import encode, random_dna


def _task(cid, side, n_reads, rng, glen=250, contig_end=100):
    genome = random_dna(glen, rng)
    reads, quals = [], []
    for i in range(n_reads):
        start = (i * 13) % (glen - 60)
        reads.append(encode(genome[start : start + 60]))
        quals.append(np.full(60, 40, dtype=np.uint8))
    return ExtensionTask.from_reads(
        cid=cid, side=side, contig=encode(genome[:contig_end]),
        reads=tuple(reads), quals=tuple(quals),
    )


@pytest.fixture
def binned_tasks(rng):
    return TaskSet(
        [
            _task(0, RIGHT, 0, rng), _task(0, LEFT, 0, rng),      # bin 1
            _task(1, RIGHT, 4, rng), _task(1, LEFT, 3, rng),      # bin 2
            _task(2, RIGHT, 20, rng), _task(2, LEFT, 15, rng),    # bin 3
        ]
    )


class TestDriver:
    def test_bin1_never_launched(self, binned_tasks):
        report = GpuLocalAssembler(LocalAssemblyConfig()).run(binned_tasks)
        assert report.extensions.lengths()[:2].tolist() == [0, 0]  # cid 0's ends
        # only bin2 + bin3 kernels were launched
        names = [l.name for l in report.launches]
        assert all("bin2" in n or "bin3" in n for n in names)

    def test_bin3_launched_first(self, binned_tasks):
        report = GpuLocalAssembler(LocalAssemblyConfig()).run(binned_tasks)
        names = [l.name for l in report.launches]
        assert "bin3" in names[0]
        assert "bin2" in names[-1]

    def test_bins_classified(self, binned_tasks):
        report = GpuLocalAssembler(LocalAssemblyConfig()).run(binned_tasks)
        assert report.bins.bin1 == (0,)
        assert report.bins.bin2 == (1,)
        assert report.bins.bin3 == (2,)

    def test_report_fields(self, binned_tasks):
        report = GpuLocalAssembler(LocalAssemblyConfig()).run(binned_tasks)
        assert report.kernel_time_s > 0
        assert report.transfer_time_s > 0
        assert report.transfer_bytes > 0
        assert report.total_time_s == pytest.approx(
            report.kernel_time_s + report.transfer_time_s
        )
        assert report.high_water_bytes > 0
        assert report.n_batches >= 2  # one per non-empty bin
        assert report.bin_kernel_time_s("bin3") > 0
        assert np.count_nonzero(report.extensions.lengths()) >= 2

    def test_all_tasks_get_extensions(self, binned_tasks):
        report = GpuLocalAssembler(LocalAssemblyConfig()).run(binned_tasks)
        exts = report.extensions
        assert list(zip(exts.cids.tolist(), exts.sides.tolist())) == [
            (t.cid, t.side) for t in binned_tasks
        ]

    def test_invalid_kernel_version(self):
        with pytest.raises(ValueError):
            GpuLocalAssembler(kernel_version="v3")

    def test_pool_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            GpuLocalAssembler(engine="pool")

    def test_bin_attribution_uses_structured_fields(self, binned_tasks):
        report = GpuLocalAssembler(LocalAssemblyConfig()).run(binned_tasks)
        assert {l.bin for l in report.launches} == {"bin2", "bin3"}
        assert all(l.kernel == "v2" for l in report.launches)
        total = report.bin_kernel_time_s("bin2") + report.bin_kernel_time_s("bin3")
        assert total == pytest.approx(report.kernel_time_s)
        # an unknown bin attributes nothing, even as a substring of a name
        assert report.bin_kernel_time_s("bin") == 0.0

    def test_memory_freed_between_batches(self, rng):
        from repro.gpusim.device import DeviceSpec

        tiny = DeviceSpec(
            name="tiny", n_sms=80, schedulers_per_sm=4, clock_ghz=1.53,
            global_mem_bytes=150 * 1024, mem_bandwidth_bytes=900e9,
        )
        tasks = TaskSet([_task(i, RIGHT, 12, rng) for i in range(8)])
        report = GpuLocalAssembler(LocalAssemblyConfig(), device=tiny).run(tasks)
        assert report.n_batches > 1
        assert report.high_water_bytes <= tiny.global_mem_bytes

    def test_empty_taskset(self):
        report = GpuLocalAssembler(LocalAssemblyConfig()).run(TaskSet([]))
        assert len(report.extensions) == 0
        assert report.launches == []

    def test_counters_merged(self, binned_tasks):
        report = GpuLocalAssembler(LocalAssemblyConfig()).run(binned_tasks)
        merged = report.merged_counters()
        assert merged.warp_inst == sum(l.counters.warp_inst for l in report.launches)
