"""The host path: vectorised staging, one upload discipline, fusion,
profiling.

Every host-path optimisation must be *unobservable* in the results: the
vectorised ``stage_batch`` is byte-identical to the straightforward
per-task reference, sanitized and unsanitized runs report the same device
footprint, fused dispatch reports the exact per-batch launches the
unfused schedule would, and the profiler is measurement only.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import LocalAssemblyConfig
from repro.core.cpu_local_assembly import run_local_assembly_cpu
import repro.core.driver as driver_mod
from repro.core.driver import GpuLocalAssembler
from repro.core.gpu_batch import (
    LRUDict,
    WIN_CACHE_CAP,
    ext_capacity,
    fuse_staged,
    pack_batch,
    stage_batch,
)
from repro.core.ht_sizing import plan_layout
from repro.core.tasks import LEFT, RIGHT, ExtensionTask, TaskSet
from repro.gpusim._fastops import run_heads
from repro.gpusim.kernel import GpuContext
from repro.perf import PHASES, HostProfiler
from repro.pipeline.aln_kernel import segment_match_counts
from repro.sequence.dna import encode, random_dna


def _tiling_task(genome, contig_end, read_len=70, stride=6, cid=0, side=RIGHT):
    reads, quals = [], []
    for i in range(0, len(genome) - read_len + 1, stride):
        reads.append(encode(genome[i : i + read_len]))
        quals.append(np.full(read_len, 40, dtype=np.uint8))
    return ExtensionTask.from_reads(
        cid=cid, side=side, contig=encode(genome[:contig_end]),
        reads=tuple(reads), quals=tuple(quals),
    )


@pytest.fixture(scope="module")
def workload():
    """Mixed tasks: both sides, varied read counts, short contigs, a
    zero-read task — every staging edge case."""
    rng = np.random.default_rng(42)
    tasks = []
    for cid in range(5):
        tasks.append(_tiling_task(random_dna(320, rng), 120, cid=cid, stride=5))
    for cid in range(5, 8):
        side = LEFT if cid % 2 else RIGHT
        tasks.append(
            _tiling_task(random_dna(220, rng), 90, cid=cid, stride=25, side=side)
        )
    # contig shorter than k_max: the tail is the whole contig
    tasks.append(_tiling_task(random_dna(150, rng), 20, cid=8, stride=20))
    tasks.append(
        ExtensionTask.from_reads(cid=9, side=RIGHT, contig=encode(random_dna(80, rng)),
                      reads=(), quals=())
    )
    return TaskSet(tasks)


@pytest.fixture(scope="module")
def config():
    return LocalAssemblyConfig(k_init=21, max_walk_len=150)


def _reference_stage(tasks, config):
    """The naive staging logic: per-task Python loops.

    Deliberately the naive transcription of the layout contract — the
    vectorised ``stage_batch`` must reproduce it byte for byte.
    """
    layout = plan_layout(tasks)
    read_offsets, reads_parts, quals_parts, task_read_start = [0], [], [], [0]
    for t in tasks:
        for r, q in zip(t.reads, t.quals):
            reads_parts.append(np.asarray(r, dtype=np.uint8))
            quals_parts.append(np.asarray(q, dtype=np.uint8))
            read_offsets.append(read_offsets[-1] + len(r))
        task_read_start.append(task_read_start[-1] + t.n_reads)
    tail_cap = config.k_max
    e_cap = ext_capacity(config)
    per_task_seq = tail_cap + e_cap
    seq_host = np.zeros(len(tasks) * per_task_seq, dtype=np.uint8)
    seq_offsets = np.arange(len(tasks) + 1, dtype=np.int64) * per_task_seq
    seq_len = np.zeros(len(tasks), dtype=np.int64)
    for i, t in enumerate(tasks):
        tail = t.contig[-tail_cap:]
        seq_host[seq_offsets[i] : seq_offsets[i] + tail.size] = tail
        seq_len[i] = tail.size
    cat = lambda parts: (
        np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8)
    )
    return {
        "layout_sizes": layout.sizes,
        "layout_offsets": layout.offsets,
        "reads_host": cat(reads_parts),
        "quals_host": cat(quals_parts),
        "read_offsets": np.asarray(read_offsets, dtype=np.int64),
        "task_read_start": np.asarray(task_read_start, dtype=np.int64),
        "seq_host": seq_host,
        "seq_offsets": seq_offsets,
        "seq_len_host": seq_len,
    }


def _staged_arrays(staged):
    return {
        "layout_sizes": staged.layout.sizes,
        "layout_offsets": staged.layout.offsets,
        "reads_host": staged.reads_host,
        "quals_host": staged.quals_host,
        "read_offsets": staged.read_offsets,
        "task_read_start": staged.task_read_start,
        "seq_host": staged.seq_host,
        "seq_offsets": staged.seq_offsets,
        "seq_len_host": staged.seq_len_host,
    }


class TestStagingBitIdentity:
    def test_matches_reference_no_arena(self, workload, config):
        ref = _reference_stage(list(workload), config)
        got = _staged_arrays(stage_batch(list(workload), config))
        for name, want in ref.items():
            have = got[name]
            assert have.dtype == want.dtype, name
            assert np.array_equal(have, want), name


class TestOneHostPath:
    """Sanitized and unsanitized runs take the same host path: fresh
    staging, exactly sized uploads, one allocator reset per wave."""

    def test_sanitize_off_and_memcheck_report_one_footprint(
        self, workload, config, monkeypatch
    ):
        contexts, batches = [], []
        real_ctx, real_stage = driver_mod.GpuContext, driver_mod.stage_batch

        def make_ctx(**kwargs):
            contexts.append(real_ctx(**kwargs))
            return contexts[-1]

        def stage(batch_tasks, cfg):
            batches.append(batch_tasks)
            return real_stage(batch_tasks, cfg)

        monkeypatch.setattr(driver_mod, "GpuContext", make_ctx)
        monkeypatch.setattr(driver_mod, "stage_batch", stage)
        off = GpuLocalAssembler(config, batch_cap=2).run(workload)
        off_batches = list(batches)
        checked = GpuLocalAssembler(config, batch_cap=2, sanitize="memcheck").run(
            workload
        )
        assert off.n_batches >= 2
        assert checked.sanitizer is not None and checked.sanitizer.clean
        assert checked.extensions == off.extensions
        for attr in ("n_batches", "h2d_bytes", "d2h_bytes", "high_water_bytes"):
            assert getattr(checked, attr) == getattr(off, attr), attr

        def padded_bytes(batch_tasks):
            ctx = GpuContext()
            pack_batch(ctx, batch_tasks, config)
            return ctx.allocator.bytes_in_use

        # the device holds one batch at a time, never the sum of them
        assert off.high_water_bytes == max(map(padded_bytes, off_batches))
        assert [c.allocator.bytes_in_use for c in contexts] == [0, 0]


class TestEngineIdentity:
    @pytest.mark.parametrize("engine", ["sequential", "batched"])
    def test_extensions_match_cpu_reference(self, workload, config, engine):
        cpu, _ = run_local_assembly_cpu(workload, config)
        report = GpuLocalAssembler(config, engine=engine).run(workload)
        assert report.extensions == cpu


class TestFusedDispatch:
    def _per_warp_stream(self, report):
        return [n for l in report.launches for n in l.per_warp_inst]

    @pytest.mark.parametrize("prefetch", [1, 2, 4])
    def test_fused_overlap_matches_serial(self, workload, config, prefetch):
        off = GpuLocalAssembler(config, engine="batched", batch_cap=2).run(workload)
        on = GpuLocalAssembler(
            config, engine="batched", batch_cap=2, overlap="on", prefetch=prefetch
        ).run(workload)
        assert on.extensions == off.extensions
        assert self._per_warp_stream(on) == self._per_warp_stream(off)
        assert on.n_batches == off.n_batches
        # per-sub launches are reported (not one merged mega-launch), each
        # what the unfused schedule reports ("name[i]" aside).  Only the
        # load-sector count may move, by a few: a fused sub-batch's packed
        # reads start mid-sector instead of at an allocation boundary.
        def launches(report):
            return [
                (l.name.split("[")[0], l.bin, l.kernel, l.n_warps,
                 replace(l.counters, global_ld_transactions=0), l.per_warp_inst)
                for l in report.launches
            ]

        assert launches(on) == launches(off)
        for fused, alone in zip(on.launches, off.launches):
            assert fused.counters.global_ld_transactions == pytest.approx(
                alone.counters.global_ld_transactions, rel=0.01
            )
        assert on.h2d_bytes == off.h2d_bytes
        assert on.d2h_bytes == off.d2h_bytes

    def test_fuse_staged_concatenates_layouts(self, workload, config):
        tasks = list(workload)
        whole = stage_batch(tasks, config)
        fused = fuse_staged(
            [stage_batch(tasks[:4], config), stage_batch(tasks[4:], config)]
        )
        for name, want in _staged_arrays(whole).items():
            assert np.array_equal(_staged_arrays(fused)[name], want), name

    def test_finalize_range_partitions_the_sweep(self, workload, config):
        """Fused counters split per sub-batch exactly: each range's
        instruction stream equals the same warps launched alone."""
        whole = GpuLocalAssembler(config, engine="batched").run(workload)
        split = GpuLocalAssembler(config, engine="batched", batch_cap=3).run(
            workload
        )
        assert self._per_warp_stream(whole) == self._per_warp_stream(split)
        assert (
            whole.merged_counters().warp_inst == split.merged_counters().warp_inst
        )


class TestBatchCap:
    def test_cap_chunks_batches(self, workload, config):
        uncapped = GpuLocalAssembler(config).run(workload)
        capped = GpuLocalAssembler(config, batch_cap=2).run(workload)
        assert capped.n_batches > uncapped.n_batches
        assert capped.extensions == uncapped.extensions

    def test_cap_validation(self, config):
        with pytest.raises(ValueError, match="batch_cap"):
            GpuLocalAssembler(config, batch_cap=0)


class TestHostProfiler:
    def test_driver_threads_profile(self, workload, config):
        report = GpuLocalAssembler(config, profile_host=True).run(workload)
        prof = report.host_profile
        assert prof is not None
        for phase in ("stage", "upload", "dispatch", "unpack", "free"):
            assert prof.phase_count(phase) == report.n_batches, phase
        assert prof.phase_total_s("dispatch") > 0
        # the dispatch phase brackets the engine sweep it attributes
        assert prof.phase_total_s("dispatch") >= report.host_dispatch_s() > 0
        off = GpuLocalAssembler(config).run(workload)
        assert off.host_profile is None

    def test_unit_behaviour(self):
        prof = HostProfiler()
        with prof.phase("stage", "b0"):
            pass
        prof.add("upload", "b0", 0.0, 0.25)
        assert prof.phase_count("stage") == 1
        assert prof.phase_total_s("upload") == 0.25
        assert prof.per_batch_s("stage", "upload") > 0
        summary = prof.summary()
        assert set(PHASES) <= set(summary["phases"])
        events = prof.chrome_events()
        assert any(e.get("ph") == "X" for e in events)
        disabled = HostProfiler(enabled=False)
        with disabled.phase("stage", "x"):
            pass
        assert disabled.phase_count("stage") == 0

    def test_overlapped_profile_counts_every_batch(self, workload, config):
        report = GpuLocalAssembler(
            config, overlap="on", prefetch=2, batch_cap=2, profile_host=True
        ).run(workload)
        prof = report.host_profile
        assert prof.phase_count("stage") >= report.n_batches
        assert prof.phase_count("unpack") == report.n_batches


class TestLRUDict:
    def test_bounded_eviction(self):
        d = LRUDict(maxsize=3)
        for i in range(3):
            d[i] = i * 10
        d[0]  # refresh 0 -> oldest is now 1
        d[3] = 30
        assert 1 not in d and set(d) == {0, 2, 3}
        assert len(d) <= 3

    def test_get_refreshes_recency(self):
        d = LRUDict(maxsize=2)
        d["a"], d["b"] = 1, 2
        assert d.get("a") == 1
        d["c"] = 3
        assert "b" not in d and "a" in d
        assert d.get("missing", 42) == 42

    def test_default_cap(self):
        d = LRUDict()
        assert d.maxsize == WIN_CACHE_CAP


class TestFastOps:
    @pytest.mark.parametrize(
        "keys",
        [
            np.array([], dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.array([1, 1, 2, 2, 2, 5, 9, 9], dtype=np.int64),
            np.zeros(16, dtype=np.int64),
        ],
    )
    def test_run_heads_matches_naive(self, keys):
        naive = np.array(
            [i == 0 or keys[i] != keys[i - 1] for i in range(keys.size)],
            dtype=bool,
        )
        assert np.array_equal(run_heads(keys), naive)

    @staticmethod
    def _naive_match_counts(a, b, a_start, b_start, span):
        return [
            sum(a[sa + j] == b[sb + j] for j in range(n))
            for sa, sb, n in zip(a_start, b_start, span)
        ]

    def test_segment_match_counts_empty_and_zero_length(self):
        a = np.array([0, 1, 2, 3], dtype=np.uint8)
        none = np.array([], dtype=np.int64)
        out = segment_match_counts(a, a, none, none, none)
        assert out.dtype == np.int64 and out.size == 0
        # zero-length spans count nothing, wherever they point — alone ...
        out = segment_match_counts(
            a, a, np.array([0, 3]), np.array([2, 0]), np.array([0, 0])
        )
        assert out.tolist() == [0, 0]
        # ... and around a live segment
        out = segment_match_counts(
            a, a, np.array([3, 1, 0]), np.array([0, 1, 3]), np.array([0, 3, 0])
        )
        assert out.tolist() == [0, 3, 0]

    def test_segment_match_counts_hand_case(self):
        a = np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=np.uint8)
        b = np.array([0, 1, 2, 0, 0, 3, 2, 1], dtype=np.uint8)
        # a[0:4] vs b[0:4] -> 3 equal; a[4:8] vs b[4:8] -> 2 (the 0 and
        # the 2); a[1:3] vs b[5:7] -> 1 (the 2)
        out = segment_match_counts(
            a, b, np.array([0, 4, 1]), np.array([0, 4, 5]), np.array([4, 4, 2])
        )
        assert out.tolist() == [3, 2, 1]

    def test_segment_match_counts_matches_per_segment_loop(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 4, 500).astype(np.uint8)
        b = rng.integers(0, 4, 400).astype(np.uint8)
        span = rng.integers(0, 60, 200)
        a_start = rng.integers(0, a.size - 60, 200)
        b_start = rng.integers(0, b.size - 60, 200)
        got = segment_match_counts(a, b, a_start, b_start, span)
        assert got.tolist() == self._naive_match_counts(
            a, b, a_start, b_start, span
        )


@pytest.mark.bench_smoke
def test_overlapped_wall_clock_beats_serial_bench_smoke():
    """CI gate: on the 100-warp reference workload (the BENCH_overlap
    schedule — quantum 5, batched engine), the best overlapped
    configuration must win *wall clock*, not just the modelled critical
    path.  The win is wave fusion — up to ``prefetch + 1`` batches per
    engine sweep, so 20 sweeps become 4 — on top of vectorised staging;
    the driver is single-threaded, so nothing here is hidden
    behind a second thread, and this smoke keeps fusion profitable."""
    import time

    rng = np.random.default_rng(7)
    tasks = []
    for cid in range(100):
        genome = random_dna(320, rng)
        reads = [
            encode(genome[i : i + 70])
            for i in range(0, len(genome) - 70 + 1, 5)
        ]
        quals = [np.full(70, 40, dtype=np.uint8) for _ in reads]
        tasks.append(
            ExtensionTask.from_reads(cid=cid, side=RIGHT, contig=encode(genome[:120]),
                          reads=tuple(reads), quals=tuple(quals))
        )
    tasks = TaskSet(tasks)
    cfg = LocalAssemblyConfig(k_init=21, max_walk_len=150)

    def run(overlap, prefetch=1, repeats=2):
        best_wall, best = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            report = GpuLocalAssembler(
                cfg, engine="batched", overlap=overlap, prefetch=prefetch,
                batch_cap=5,
            ).run(tasks)
            wall = time.perf_counter() - t0
            if wall < best_wall:
                best_wall, best = wall, report
        return best, best_wall

    run("off", repeats=1)  # warmup: imports, task pack caches
    serial, serial_wall = run("off")
    overlapped, overlap_wall = run("on", prefetch=4)

    assert overlapped.extensions == serial.extensions
    speedup = serial_wall / overlap_wall
    assert speedup >= 1.0, (
        f"overlapped driver must not lose wall clock on the reference "
        f"workload: {overlap_wall:.2f}s vs serial {serial_wall:.2f}s "
        f"({speedup:.2f}x)"
    )


class TestProfilerThreadSafety:
    """Concurrent jobs share profiling from multiple worker threads; the
    record list must never tear or drop entries under contention."""

    def test_concurrent_phase_and_add(self):
        prof = HostProfiler()
        n_threads, per_thread = 8, 200
        barrier = threading.Barrier(n_threads)

        def work(tid):
            barrier.wait()
            for i in range(per_thread):
                with prof.phase("stage", f"t{tid}-b{i}"):
                    pass
                prof.add("upload", f"t{tid}-b{i}", 0.0, 0.001)

        threads = [
            threading.Thread(target=work, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert prof.phase_count("stage") == n_threads * per_thread
        assert prof.phase_count("upload") == n_threads * per_thread
        assert prof.phase_total_s("upload") == pytest.approx(
            n_threads * per_thread * 0.001
        )

    def test_snapshot_is_stable_while_mutating(self):
        prof = HostProfiler()
        n_adds = 5000

        def mutate():
            for i in range(n_adds):
                prof.add("stage", f"b{i}", 0.0, 0.001)

        t = threading.Thread(target=mutate)
        t.start()
        try:
            # read paths must stay consistent while the writer runs
            while t.is_alive():
                snap = prof.snapshot()
                assert prof.phase_count("stage") >= len(snap) - 1
                prof.summary()
        finally:
            t.join()
        assert prof.phase_count("stage") == n_adds
        assert len(prof.to_json()) > 0
