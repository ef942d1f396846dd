"""Failure-injection tests: the simulator and driver fail loudly, not wrong."""

import numpy as np
import pytest

from repro.core.config import LocalAssemblyConfig
from repro.core.driver import GpuLocalAssembler
from repro.core.tasks import RIGHT, ExtensionTask, TaskSet
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import GpuContext
from repro.gpusim.memory import DeviceOutOfMemory
from repro.sequence.dna import encode, random_dna


def _fat_task(rng, n_reads=64, read_len=150):
    genome = random_dna(2000, rng)
    reads = tuple(
        encode(genome[(i * 29) % 1800 : (i * 29) % 1800 + read_len])
        for i in range(n_reads)
    )
    quals = tuple(np.full(read_len, 40, dtype=np.uint8) for _ in range(n_reads))
    return ExtensionTask.from_reads(cid=0, side=RIGHT, contig=encode(genome[:200]),
                         reads=reads, quals=quals)


def _tiny_device(mem_bytes: int) -> DeviceSpec:
    return DeviceSpec(
        name="tiny", n_sms=80, schedulers_per_sm=4, clock_ghz=1.53,
        global_mem_bytes=mem_bytes, mem_bandwidth_bytes=900e9,
    )


class TestOutOfMemory:
    def test_single_oversized_task_raises(self, rng):
        """A task that cannot fit even alone must raise, not truncate."""
        task = _fat_task(rng)
        device = _tiny_device(64 * 1024)  # 64 KiB: table alone needs ~380 KiB
        with pytest.raises(DeviceOutOfMemory):
            GpuLocalAssembler(LocalAssemblyConfig(), device=device).run(TaskSet([task]))

    def test_oom_message_is_informative(self):
        ctx = GpuContext(device=_tiny_device(1024))
        with pytest.raises(DeviceOutOfMemory, match="exceeds device memory"):
            ctx.alloc(10_000, np.int64)

    def test_allocator_state_survives_failed_alloc(self):
        ctx = GpuContext(device=_tiny_device(4096))
        d = ctx.alloc(256, np.uint8)
        with pytest.raises(DeviceOutOfMemory):
            ctx.alloc(10_000, np.uint8)
        # prior allocation untouched; new small allocs still work
        assert d.data.size == 256
        ctx.alloc(256, np.uint8)


class TestKernelErrors:
    def test_kernel_exception_propagates(self):
        ctx = GpuContext()

        def bad_kernel(warp, warp_id):
            raise RuntimeError("kernel bug")

        with pytest.raises(RuntimeError, match="kernel bug"):
            ctx.launch("bad", bad_kernel, 1)

    def test_failed_launch_not_logged(self):
        ctx = GpuContext()

        def bad_kernel(warp, warp_id):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            ctx.launch("bad", bad_kernel, 1)
        assert ctx.launches == []


class TestConfigValidation:
    def test_bad_k_ordering(self):
        with pytest.raises(ValueError):
            LocalAssemblyConfig(k_init=10, k_min=13)
        with pytest.raises(ValueError):
            LocalAssemblyConfig(k_init=70, k_max=63)

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            LocalAssemblyConfig(k_step=0)
        with pytest.raises(ValueError):
            LocalAssemblyConfig(max_walk_len=0)
        with pytest.raises(ValueError):
            LocalAssemblyConfig(dominance_ratio=0.5)
