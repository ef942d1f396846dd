"""The double-buffered overlapping driver (GpuLocalAssembler overlap="on").

The tentpole guarantee: overlap is a pure *scheduling* change.  Extensions
are bit-identical to the synchronous driver on every engine; what changes
is the modelled stream timeline — staging and transfers hide behind
kernels, and the reported critical path shrinks accordingly.  The host
runs one single-threaded batch loop in both modes: no helper thread, no
process-wide state, errors raised straight from the calling thread.
"""

from __future__ import annotations

import copy
import json
import threading
import time

import numpy as np
import pytest

import repro.core.driver as driver_mod
from repro.core.config import LocalAssemblyConfig
from repro.core.cpu_local_assembly import run_local_assembly_cpu
from repro.core.driver import GpuLocalAssembler
from repro.core.tasks import LEFT, RIGHT, ExtensionTask, TaskSet
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
    """Tasks spanning bins 1-3, both sides, with an empty-read straggler."""
    rng = np.random.default_rng(2025)
    tasks = []
    for cid in range(4):
        tasks.append(_tiling_task(random_dna(320, rng), 120, cid=cid, stride=5))
    for cid in range(4, 7):
        side = LEFT if cid % 2 else RIGHT
        tasks.append(
            _tiling_task(random_dna(220, rng), 90, cid=cid, stride=30, side=side)
        )
    tasks.append(
        ExtensionTask.from_reads(cid=7, side=RIGHT, contig=encode(random_dna(80, rng)),
                      reads=(), quals=())
    )
    for cid in (8, 9):
        tasks.append(_tiling_task(random_dna(280, rng), 100, cid=cid, stride=7))
    return TaskSet(tasks)


@pytest.fixture(scope="module")
def config():
    return LocalAssemblyConfig(k_init=21, max_walk_len=150)


def _per_warp_stream(report):
    """Per-warp instruction counts concatenated in launch order — the
    batching-invariant fingerprint of the executed work."""
    return [n for l in report.launches for n in l.per_warp_inst]


class TestBitIdentity:
    @pytest.mark.parametrize("engine", ["sequential", "batched"])
    def test_overlap_matches_serial_driver(self, workload, config, engine):
        off = GpuLocalAssembler(config, engine=engine, overlap="off").run(workload)
        on = GpuLocalAssembler(config, engine=engine, overlap="on").run(workload)
        assert on.extensions == off.extensions
        # Same per-task work in the same order — batching only moves the
        # batch boundaries (which can shift memory-coalescing counts at
        # the packed-buffer edges, so transaction totals may wiggle; the
        # instruction streams may not).
        assert _per_warp_stream(on) == _per_warp_stream(off)
        assert on.merged_counters().warp_inst == off.merged_counters().warp_inst
        assert sum(l.n_warps for l in on.launches) == sum(
            l.n_warps for l in off.launches
        )

    def test_overlap_matches_cpu_reference(self, workload, config):
        cpu, _ = run_local_assembly_cpu(workload, config)
        on = GpuLocalAssembler(config, overlap="on", prefetch=3).run(workload)
        assert on.extensions == cpu

    @pytest.mark.parametrize("prefetch", [1, 2, 4])
    def test_prefetch_depth_never_changes_results(self, workload, config, prefetch):
        base = GpuLocalAssembler(config, overlap="off").run(workload)
        on = GpuLocalAssembler(config, overlap="on", prefetch=prefetch).run(workload)
        assert on.extensions == base.extensions

    def test_v1_kernel_overlaps_too(self, workload, config):
        off = GpuLocalAssembler(config, kernel_version="v1",
                                overlap="off").run(workload)
        on = GpuLocalAssembler(config, kernel_version="v1",
                               overlap="on").run(workload)
        assert on.extensions == off.extensions


class TestEdgeWorkloads:
    @pytest.mark.parametrize("overlap", ["off", "on"])
    def test_empty_taskset(self, config, overlap):
        report = GpuLocalAssembler(config, overlap=overlap).run(TaskSet([]))
        assert len(report.extensions) == 0
        assert report.n_batches == 0 and report.launches == []
        assert report.critical_path_s == 0.0

    @pytest.mark.parametrize("overlap", ["off", "on"])
    def test_bin1_only_workload_never_launches(self, config, overlap):
        rng = np.random.default_rng(3)
        tasks = TaskSet([
            ExtensionTask.from_reads(cid=c, side=RIGHT, contig=encode(random_dna(90, rng)),
                          reads=(), quals=())
            for c in range(3)
        ])
        report = GpuLocalAssembler(config, overlap=overlap).run(tasks)
        exts = report.extensions
        assert exts.cids.tolist() == [0, 1, 2] and exts.sides.tolist() == [RIGHT] * 3
        assert exts.codes.size == 0
        assert report.launches == [] and report.n_batches == 0
        assert report.h2d_bytes == 0 and report.d2h_bytes == 0


class TestPipelineShape:
    def test_overlap_splits_single_batch(self, workload, config):
        off = GpuLocalAssembler(config, overlap="off").run(workload)
        on = GpuLocalAssembler(config, overlap="on", prefetch=1).run(workload)
        # one serial batch per bin becomes prefetch+1 chunks, so the
        # pipeline has something to overlap
        assert on.n_batches > off.n_batches
        assert on.overlap == "on" and off.overlap == "off"

    def test_serial_critical_path_is_the_op_sum(self, workload, config):
        off = GpuLocalAssembler(config, overlap="off").run(workload)
        total = sum(op.dur_s for op in off.timeline.ops)
        assert off.critical_path_s == pytest.approx(total)
        # and it covers at least the modelled GPU work
        assert off.critical_path_s >= off.total_time_s

    def test_overlapped_critical_path_shorter_than_op_sum(self, workload, config):
        on = GpuLocalAssembler(config, overlap="on").run(workload)
        total = sum(op.dur_s for op in on.timeline.ops)
        assert on.critical_path_s < total
        # never shorter than the largest single op
        assert on.critical_path_s >= max(op.dur_s for op in on.timeline.ops)

    def test_bin3_launches_before_bin2(self, workload, config):
        on = GpuLocalAssembler(config, overlap="on").run(workload)
        bins = [l.bin for l in on.launches]
        assert "bin3" in bins and "bin2" in bins
        assert bins.index("bin3") < bins.index("bin2")


class TestModelledTimeline:
    """The overlap lives in the model; pin what the model is made of."""

    #: per lane, in push order: (name, cat, nbytes) of every op of the
    #: ``overlap="on", prefetch=2, batch_cap=2`` run — captured at the
    #: last commit that staged on a second thread (311c14d).
    GOLDEN = {
        "host.stage": [
            ("stage bin3.0", "host", 0),
            ("stage bin3.1", "host", 0),
            ("stage bin3.2", "host", 0),
            ("stage bin2.0", "host", 0),
            ("stage bin2.1", "host", 0),
        ],
        "copy0": [
            ("H2D reads", "h2d", 18620),
            ("H2D quals", "h2d", 18620),
            ("H2D seq", "h2d", 6678),
            ("D2H ext bin3.0", "d2h", 300),
            ("D2H ext_len bin3.0", "d2h", 8),
            ("D2H ext bin3.1", "d2h", 300),
            ("D2H ext_len bin3.1", "d2h", 8),
            ("D2H ext bin3.2", "d2h", 300),
            ("D2H ext_len bin3.2", "d2h", 8),
        ],
        "compute": [
            ("extension_bin3_v2[0]", "kernel", 0),
            ("extension_bin3_v2[1]", "kernel", 0),
            ("extension_bin3_v2[2]", "kernel", 0),
            ("extension_bin2_v2[0]", "kernel", 0),
            ("extension_bin2_v2[1]", "kernel", 0),
        ],
        "host.drive": [
            ("unpack bin3.0", "host", 0),
            ("unpack bin3.1", "host", 0),
            ("unpack bin3.2", "host", 0),
            ("unpack bin2.0", "host", 0),
            ("unpack bin2.1", "host", 0),
        ],
        "copy1": [
            ("H2D reads", "h2d", 1260),
            ("H2D quals", "h2d", 1260),
            ("H2D seq", "h2d", 3339),
            ("D2H ext bin2.0", "d2h", 20),
            ("D2H ext_len bin2.0", "d2h", 8),
            ("D2H ext bin2.1", "d2h", 10),
            ("D2H ext_len bin2.1", "d2h", 4),
        ],
    }

    def test_per_lane_op_sequence_is_pinned(self, workload, config):
        report = GpuLocalAssembler(
            config, overlap="on", prefetch=2, batch_cap=2
        ).run(workload)
        lanes: dict[str, list] = {}
        for op in report.timeline.ops:
            lanes.setdefault(op.lane, []).append((op.name, op.cat, op.nbytes))
        assert lanes == self.GOLDEN
        durations = [op.dur_s for op in report.timeline.ops]
        assert report.critical_path_s < sum(durations)
        assert report.critical_path_s >= max(durations)


class TestSingleThreadedLoop:
    """What having no stager thread buys: no cross-run coupling, no
    leftover thread, and staging errors raised where they happen."""

    def test_concurrent_overlapped_runs_do_not_couple(
        self, workload, config, monkeypatch
    ):
        threads_before = threading.active_count()
        solo = GpuLocalAssembler(config, overlap="on").run(workload)
        # run A gets its own task objects, so its stage calls can be held
        tasks_a = TaskSet([copy.copy(t) for t in workload])
        a_ids = {id(t) for t in tasks_a}
        held, release = threading.Event(), threading.Event()
        real_stage = driver_mod.stage_batch

        def stage(batch_tasks, cfg):
            if id(batch_tasks[0]) in a_ids:
                held.set()
                assert release.wait(60)
            return real_stage(batch_tasks, cfg)

        monkeypatch.setattr(driver_mod, "stage_batch", stage)
        results = {}

        def run(name, tasks):
            results[name] = GpuLocalAssembler(config, overlap="on").run(tasks)

        run_a = threading.Thread(target=run, args=("A", tasks_a))
        run_b = threading.Thread(target=run, args=("B", workload))
        run_a.start()
        try:
            assert held.wait(10)
            run_b.start()
            run_b.join(5)
            assert not run_b.is_alive(), "run B stalled behind run A's staging"
            assert run_a.is_alive() and "A" not in results
        finally:
            release.set()
            for t in (run_a, run_b):
                if t.is_alive():
                    t.join(60)
        assert not run_a.is_alive() and not run_b.is_alive()
        assert results["A"].extensions == solo.extensions
        assert results["B"].extensions == solo.extensions
        assert threading.active_count() == threads_before
        assert not [t.name for t in threading.enumerate() if "stager" in t.name]

    @pytest.mark.parametrize("batch_cap", [None, 2])
    @pytest.mark.parametrize("overlap", ["off", "on"])
    def test_staging_error_surfaces_unwrapped(
        self, workload, config, monkeypatch, overlap, batch_cap
    ):
        boom = RuntimeError("boom")
        real_stage = driver_mod.stage_batch
        calls = []

        def stage(batch_tasks, cfg):
            calls.append(len(batch_tasks))
            if len(calls) == 2:
                raise boom
            return real_stage(batch_tasks, cfg)

        assembler = GpuLocalAssembler(config, overlap=overlap, batch_cap=batch_cap)
        with monkeypatch.context() as patch:
            patch.setattr(driver_mod, "stage_batch", stage)
            t0 = time.perf_counter()
            with pytest.raises(RuntimeError, match="^boom$") as raised:
                assembler.run(workload)
            assert time.perf_counter() - t0 < 2.0
        assert raised.value is boom
        assert len(calls) == 2
        # nothing of the failed run lingers: a fresh run is still right
        cpu, _ = run_local_assembly_cpu(workload, config)
        fresh = GpuLocalAssembler(config, overlap=overlap, batch_cap=batch_cap)
        assert fresh.run(workload).extensions == cpu


class TestShrunkD2H:
    def test_d2h_copies_only_extension_spans(self, workload, config):
        report = GpuLocalAssembler(config, overlap="off").run(workload)
        seq_buf_bytes = sum(
            op.nbytes for op in report.timeline.ops if op.name == "H2D seq"
        )
        assert seq_buf_bytes > 0
        # the old driver copied every seq_buf back wholesale; the span
        # copy moves only the appended extensions (plus the tiny
        # out_ext_len arrays)
        assert report.d2h_bytes < seq_buf_bytes
        ext_bytes = report.extensions.codes.nbytes
        assert report.d2h_bytes >= ext_bytes

    def test_transfer_accounting_is_consistent(self, workload, config):
        report = GpuLocalAssembler(config, overlap="on").run(workload)
        assert report.h2d_bytes + report.d2h_bytes == report.transfer_bytes
        assert report.transfer_time_s > 0


class TestSanitizerInteraction:
    def test_sanitize_serializes_overlap(self, workload, config):
        report = GpuLocalAssembler(
            config, overlap="on", sanitize="full"
        ).run(workload)
        # shadow state is single-threaded: the run degrades to the
        # synchronous driver but stays clean and correct
        assert report.overlap == "off"
        assert report.sanitizer is not None and report.sanitizer.clean
        base = GpuLocalAssembler(config, overlap="off").run(workload)
        assert report.extensions == base.extensions


class TestValidation:
    def test_overlap_validation(self, config):
        with pytest.raises(ValueError, match="overlap"):
            GpuLocalAssembler(config, overlap="sometimes")

    def test_prefetch_validation(self, config):
        with pytest.raises(ValueError, match="prefetch"):
            GpuLocalAssembler(config, prefetch=0)


@pytest.mark.bench_smoke
def test_overlapped_run_exports_chrome_trace(workload, config, tmp_path):
    """A tiny overlapped run produces a loadable chrome://tracing file
    with kernel, copy and host slices on distinct lanes (the CI artifact)."""
    report = GpuLocalAssembler(config, overlap="on").run(workload)
    path = tmp_path / "overlap_trace.json"
    report.timeline.save_chrome_trace(path)
    trace = json.loads(path.read_text())
    slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    cats = {e["cat"] for e in slices}
    assert {"h2d", "kernel", "d2h", "host"} <= cats
    lanes = {e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"}
    assert "compute" in lanes and "host.stage" in lanes
    assert any(lane.startswith("copy") for lane in lanes)
