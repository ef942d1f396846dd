"""Differential tests: the GPU kernels must reproduce the CPU baseline
bit-for-bit, for both kernel versions, across varied workloads.

This is the correctness contract of the whole reproduction (§3 of the
paper: the GPU implementation computes the same local assembly, only
faster).
"""

import numpy as np
import pytest

from repro.core.config import LocalAssemblyConfig
from repro.core.cpu_local_assembly import run_local_assembly_cpu
from repro.core.driver import GpuLocalAssembler
from repro.core.tasks import LEFT, RIGHT, ExtensionTask, TaskSet
from repro.sequence.dna import encode, random_dna


def _tiling_task(genome, contig_end, read_len=70, stride=6, cid=0, side=RIGHT, rng=None, err=0.0):
    reads = []
    quals = []
    for i in range(0, len(genome) - read_len + 1, stride):
        r = list(genome[i : i + read_len])
        q = np.full(read_len, 40, dtype=np.uint8)
        if err and rng is not None:
            for j in range(read_len):
                if rng.random() < err:
                    r[j] = "ACGT"[(("ACGT".index(r[j])) + 1) % 4]
                    q[j] = 8
        reads.append(encode("".join(r)))
        quals.append(q)
    return ExtensionTask.from_reads(
        cid=cid, side=side, contig=encode(genome[:contig_end]),
        reads=tuple(reads), quals=tuple(quals),
    )


@pytest.fixture
def mixed_tasks(rng):
    """A task set covering bins 1-3, clean and noisy reads, forks."""
    tasks = []
    # bin 3: many reads, clean
    g0 = random_dna(400, rng)
    tasks.append(_tiling_task(g0, 120, cid=0, stride=4))
    # bin 2: few reads
    g1 = random_dna(250, rng)
    tasks.append(_tiling_task(g1, 100, cid=1, stride=40))
    # bin 1: no reads
    tasks.append(
        ExtensionTask.from_reads(cid=2, side=RIGHT, contig=encode(random_dna(80, rng)), reads=(), quals=())
    )
    # noisy reads (exercises quality thresholds)
    g3 = random_dna(300, rng)
    tasks.append(_tiling_task(g3, 110, cid=3, stride=6, rng=rng, err=0.02))
    # forked continuation (exercises k-shift)
    stem = random_dna(120, rng)
    rep = random_dna(25, rng)
    t1, t2 = random_dna(80, rng), random_dna(80, rng)
    fork_reads = []
    for locus in (stem + rep + t1, random_dna(100, rng) + rep + t2):
        fork_reads += [locus[i : i + 60] for i in range(0, len(locus) - 60 + 1, 5)]
    tasks.append(
        ExtensionTask.from_reads(
            cid=4, side=LEFT, contig=encode(stem),
            reads=tuple(encode(r) for r in fork_reads),
            quals=tuple(np.full(len(r), 40, dtype=np.uint8) for r in fork_reads),
        )
    )
    return TaskSet(tasks)


class TestDifferential:
    @pytest.mark.parametrize("version", ["v2", "v1"])
    def test_gpu_equals_cpu_mixed(self, mixed_tasks, version):
        cfg = LocalAssemblyConfig(k_init=21, max_walk_len=200)
        cpu, _ = run_local_assembly_cpu(mixed_tasks, cfg)
        gpu = GpuLocalAssembler(cfg, kernel_version=version).run(mixed_tasks)
        assert gpu.extensions == cpu

    def test_gpu_equals_cpu_fuzz(self, rng):
        """Randomised fuzz across many small tasks."""
        tasks = []
        for cid in range(12):
            glen = int(rng.integers(120, 320))
            genome = random_dna(glen, rng)
            contig_end = int(rng.integers(60, glen - 40))
            stride = int(rng.integers(3, 25))
            rl = int(rng.integers(40, 90))
            side = RIGHT if rng.random() < 0.5 else LEFT
            tasks.append(
                _tiling_task(genome, contig_end, read_len=rl, stride=stride,
                             cid=cid, side=side, rng=rng, err=0.01)
            )
        ts = TaskSet(tasks)
        cfg = LocalAssemblyConfig(k_init=17, k_min=13, k_max=41, k_step=8, max_walk_len=120)
        cpu, _ = run_local_assembly_cpu(ts, cfg)
        gpu = GpuLocalAssembler(cfg).run(ts)
        assert gpu.extensions == cpu

    def test_gpu_equals_cpu_under_batching(self, rng):
        """Tiny device memory forces many batches; results unchanged."""
        from repro.gpusim.device import DeviceSpec

        tiny = DeviceSpec(
            name="tiny", n_sms=80, schedulers_per_sm=4, clock_ghz=1.53,
            global_mem_bytes=150 * 1024, mem_bandwidth_bytes=900e9,
        )
        tasks = TaskSet(
            [_tiling_task(random_dna(200, rng), 90, cid=i, stride=10) for i in range(6)]
        )
        cfg = LocalAssemblyConfig(k_init=21, max_walk_len=100)
        cpu, _ = run_local_assembly_cpu(tasks, cfg)
        gpu = GpuLocalAssembler(cfg, device=tiny).run(tasks)
        assert gpu.extensions == cpu
        assert gpu.n_batches > 1

    def test_v1_v2_same_results_different_cost(self, mixed_tasks):
        cfg = LocalAssemblyConfig(k_init=21, max_walk_len=200)
        r1 = GpuLocalAssembler(cfg, kernel_version="v1").run(mixed_tasks)
        r2 = GpuLocalAssembler(cfg, kernel_version="v2").run(mixed_tasks)
        assert r1.extensions == r2.extensions
        c1, c2 = r1.merged_counters(), r2.merged_counters()
        # the paper's v1-vs-v2 signatures (§4.2, Fig 10):
        assert c1.warp_inst > 2 * c2.warp_inst
        assert c1.global_mem_inst > 2 * c2.global_mem_inst
        assert c1.predication_ratio > c2.predication_ratio


class TestWalkEquivalenceDetails:
    def test_loop_case(self, rng):
        unit = "ACGTTGCACTGGATCCA"
        reads = [(unit * 6)[i : i + 40] for i in range(0, len(unit) * 6 - 40, 3)]
        task = ExtensionTask.from_reads(
            cid=0, side=RIGHT, contig=encode(unit * 2),
            reads=tuple(encode(r) for r in reads),
            quals=tuple(np.full(len(r), 40, dtype=np.uint8) for r in reads),
        )
        cfg = LocalAssemblyConfig(k_init=13, k_min=13, max_walk_len=300)
        ts = TaskSet([task])
        cpu, _ = run_local_assembly_cpu(ts, cfg)
        gpu = GpuLocalAssembler(cfg).run(ts)
        assert gpu.extensions == cpu

    def test_contig_shorter_than_k(self, rng):
        task = ExtensionTask.from_reads(
            cid=0, side=RIGHT, contig=encode("ACGTACG"),  # 7 < k_init
            reads=(encode(random_dna(50, rng)),),
            quals=(np.full(50, 40, dtype=np.uint8),),
        )
        cfg = LocalAssemblyConfig(k_init=21, k_min=13, k_step=8)
        ts = TaskSet([task])
        cpu, _ = run_local_assembly_cpu(ts, cfg)
        gpu = GpuLocalAssembler(cfg).run(ts)
        assert gpu.extensions == cpu

    def test_max_len_exact_boundary(self, rng):
        genome = random_dna(600, rng)
        task = _tiling_task(genome, 100, stride=4)
        cfg = LocalAssemblyConfig(k_init=21, max_walk_len=37)  # odd cap
        ts = TaskSet([task])
        cpu, _ = run_local_assembly_cpu(ts, cfg)
        gpu = GpuLocalAssembler(cfg).run(ts)
        assert gpu.extensions == cpu
        assert len(next(iter(cpu.values()))) >= 37  # accumulated across rounds
