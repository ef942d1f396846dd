"""Tests for device-batch packing (gpu_batch) and kernel internals."""

import numpy as np
import pytest
from la_reference import build_kmer_table, mer_walk

from repro.core.config import LocalAssemblyConfig
from repro.core.extension_kernel import build_table_v2, mer_walk_gpu
from repro.core.gpu_batch import (
    EMPTY_PTR,
    ext_capacity,
    max_rounds,
    pack_batch,
)
from repro.core.tasks import RIGHT, ExtensionTask
from repro.gpusim.counters import KernelCounters
from repro.gpusim.kernel import GpuContext
from repro.gpusim.warp import Warp
from repro.sequence.dna import encode, random_dna


def _task(rng, cid=0, n_reads=8, read_len=60, contig_len=80):
    genome = random_dna(400, rng)
    reads = tuple(
        encode(genome[(i * 17) % 300 : (i * 17) % 300 + read_len])
        for i in range(n_reads)
    )
    quals = tuple(np.full(read_len, 40, dtype=np.uint8) for _ in range(n_reads))
    return ExtensionTask.from_reads(
        cid=cid, side=RIGHT, contig=encode(genome[:contig_len]),
        reads=reads, quals=quals,
    )


class TestRounds:
    def test_max_rounds_bound(self):
        cfg = LocalAssemblyConfig(k_init=21, k_min=13, k_max=63, k_step=8)
        # up: (63-21)/8 = 5; down: (21-13)/8 = 1; +1 initial
        assert max_rounds(cfg) == 7

    def test_ext_capacity(self):
        cfg = LocalAssemblyConfig(k_init=21, k_min=13, k_max=63, k_step=8,
                                  max_walk_len=100)
        assert ext_capacity(cfg) == 700


class TestPackBatch:
    @pytest.fixture
    def packed(self, rng):
        cfg = LocalAssemblyConfig(k_init=21, max_walk_len=50)
        ctx = GpuContext()
        tasks = [_task(rng, cid=i, n_reads=3 + i) for i in range(3)]
        return ctx, pack_batch(ctx, tasks, cfg), tasks, cfg

    def test_reads_concatenated(self, packed):
        _, batch, tasks, _ = packed
        total = sum(t.total_read_bases for t in tasks)
        assert batch.reads_buf.nbytes == total
        assert batch.quals_buf.nbytes == total
        assert int(batch.read_offsets[-1]) == total

    def test_task_read_ranges(self, packed):
        _, batch, tasks, _ = packed
        for i, t in enumerate(tasks):
            assert len(batch.task_reads(i)) == t.n_reads
        # read content round-trips
        r0 = batch.read_offsets[0]
        assert np.array_equal(
            batch.reads_buf.data[r0 : r0 + tasks[0].reads[0].size],
            tasks[0].reads[0],
        )

    def test_seq_buf_holds_contig_tail(self, packed):
        _, batch, tasks, cfg = packed
        for i, t in enumerate(tasks):
            so = int(batch.seq_offsets[i])
            tail = t.contig[-cfg.k_max :]
            assert np.array_equal(
                batch.seq_buf.data[so : so + tail.size], tail
            )
            assert batch.seq_len[i] == tail.size

    def test_tables_empty_initialised(self, packed):
        _, batch, _, _ = packed
        assert (batch.ht_ptr.data == EMPTY_PTR).all()
        assert (batch.vis_ptr.data == EMPTY_PTR).all()
        assert (batch.ht_hi.data == 0).all()

    def test_ht_regions_match_layout(self, packed):
        _, batch, tasks, _ = packed
        for i, t in enumerate(tasks):
            s, e = batch.ht_region(i)
            assert e - s == t.total_read_bases

    def test_transfer_cost_counted(self, packed):
        ctx, _, _, _ = packed
        assert ctx.transfer_bytes > 0


class TestKernelPieces:
    def test_gpu_table_contents_match_cpu(self, rng):
        """The v2 warp build produces exactly the CPU dict's tallies."""
        cfg = LocalAssemblyConfig(k_init=21)
        ctx = GpuContext()
        task = _task(rng, n_reads=6)
        batch = pack_batch(ctx, [task], cfg)
        warp = Warp(KernelCounters())
        build_table_v2(warp, batch, 0, 21)

        cpu = build_kmer_table(task, 21, cfg.hi_q_thresh)
        # collect the GPU table: slot -> (key bytes, hi, total)
        s, e = batch.ht_region(0)
        gpu = {}
        for slot in range(s, e):
            ptr = int(batch.ht_ptr.data[slot])
            if ptr == EMPTY_PTR:
                continue
            key = batch.reads_buf.data[ptr : ptr + 21].tobytes()
            hi = batch.ht_hi.data[slot * 4 : slot * 4 + 4].tolist()
            tot = batch.ht_total.data[slot * 4 : slot * 4 + 4].tolist()
            gpu[key] = hi + tot
        assert gpu == cpu

    def test_walk_extends_like_cpu(self, rng):
        cfg = LocalAssemblyConfig(k_init=21, max_walk_len=80)
        ctx = GpuContext()
        task = _task(rng, n_reads=10, contig_len=60)
        batch = pack_batch(ctx, [task], cfg)
        warp = Warp(KernelCounters())
        build_table_v2(warp, batch, 0, 21)
        n_app, status = mer_walk_gpu(warp, batch, 0, 21)

        table = build_kmer_table(task, 21, cfg.hi_q_thresh)
        walk, cpu_status = mer_walk(task.contig, table, 21, cfg)
        assert status == cpu_status
        assert n_app == len(walk)
        so = int(batch.seq_offsets[0])
        tail = task.contig[-cfg.k_max :]
        got = batch.seq_buf.data[so + tail.size : so + tail.size + n_app]
        assert got.tolist() == walk
