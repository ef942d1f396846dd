"""Ablation — the double-buffered overlapping driver vs. the serial one.

Earlier revisions *modelled* the §4.3 overlap benefit with closed-form
arithmetic; the driver now actually runs both ways, so this bench measures
it on the real stream timelines:

* ``overlap=off`` — every op (staging, H2D, kernel, D2H, unpack) is
  chained on the serialised timeline; the critical path is the serial sum.
* ``overlap=on`` — the same single-threaded loop on an unserialised
  timeline: staging rides a host lane, copies ride the copy streams,
  kernels the compute stream; on the batched engine, each wave of up to
  ``prefetch + 1`` batches dispatches as one fused SoA sweep.

Methodology: both modes run the *same batch schedule* — a fixed batching
quantum (``batch_cap``) of 5 tasks, i.e. 20 batches over the
100-warp reference.  That is the regime the paper's systems argument
lives in (data ≫ device memory ⇒ many batches per launch wave), and it
makes the comparison honest: the serial driver is not charged for a
schedule it would never run, and the overlapped driver cannot win by
changing batch boundaries.  A max-pack serial run (one batch) is reported
as context.  Two quantities per configuration, deliberately kept apart:

* **wall clock** — host seconds to run the simulator (best of 3).
  Pre-PR this regressed to 0.34x because Python staging and
  per-batch allocation dominated; the vectorised staging + arenas + fused
  dispatch make the overlapped driver faster in wall clock too.
* **critical path** — the measured makespan over the stream timelines:
  modelled device ops + thread-CPU-measured host ops, placed by their
  dependencies.  This is the quantity a real overlapped driver improves.

The host-path acceptance gate is measured at the *baseline's* quantum
(20 tasks/batch, the schedule the pre-PR 1.154 ms/batch stage+upload
figure was recorded on) with the ``repro.perf`` profiler attached.  The
gate compares against a same-run re-measurement of the pre-PR host path
(per-task staging loops + fresh uploads), so background load on a
shared box inflates both sides of the ratio equally; the recorded
absolute figure is reported as context.

Results land in ``benchmarks/results/``: ``overlap.txt`` (table),
``BENCH_overlap.json`` (machine-readable), ``overlap_trace.json`` (the
chrome://tracing timeline of the profiled overlapped run, host-profiler
lanes merged in — load it at chrome://tracing or https://ui.perfetto.dev)
and ``host_profile.json`` (the per-phase host timings, the CI artifact).
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import numpy as np
from bench_engine_scaling import _uniform_workload
from conftest import record

from repro.analysis.reporting import format_table
from repro.core.config import LocalAssemblyConfig
from repro.core.driver import GpuLocalAssembler
from repro.core.gpu_batch import StagedBatch, ext_capacity, upload_batch
from repro.core.ht_sizing import plan_layout
from repro.gpusim.kernel import GpuContext

CFG = LocalAssemblyConfig(k_init=21, max_walk_len=150)
RESULTS_DIR = Path(__file__).parent / "results"
PREFETCH_SWEEP = (1, 2, 3, 4)
#: batching quantum of the sweep: 20 batches over the 100-warp reference.
QUANTUM = 5
#: the baseline's quantum (5 batches) — the host-profile gate runs here.
PROFILE_QUANTUM = 20
#: wall-clock repeats per configuration (best-of, scheduler noise).
REPEATS = 3
#: acceptance gates on the reference workload.
MIN_CP_SPEEDUP = 1.15
MIN_WALL_SPEEDUP = 1.0
#: pre-PR stage+upload host cost per batch at quantum 20, as recorded on
#: this box before the vectorised staging / arena / fusion work.  Kept
#: for the report; the *gate* compares against a same-run re-measurement
#: of the pre-PR path (``_naive_host_path``) so that background load on
#: a shared box inflates both sides of the ratio equally.
RECORDED_BASELINE_STAGE_UPLOAD_S = 1.154e-3
MIN_STAGE_UPLOAD_SPEEDUP = 3.0


def _cpu_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run(tasks, overlap: str, prefetch: int = 1, batch_cap: int | None = None,
         profile_host: bool = False, repeats: int = 1):
    """Run a configuration; returns (report, best-of-*repeats* wall)."""
    best_wall, best_report = float("inf"), None
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        report = GpuLocalAssembler(
            CFG, engine="batched", overlap=overlap, prefetch=prefetch,
            batch_cap=batch_cap, profile_host=profile_host,
        ).run(tasks)
        wall = time.perf_counter() - t0
        if wall < best_wall:
            best_wall, best_report = wall, report
    return best_report, best_wall


def _per_warp_stream(report):
    return [n for l in report.launches for n in l.per_warp_inst]


def _sweep(tasks):
    """Quantum-matched serial baseline + overlapped prefetch sweep,
    plus the max-pack serial run as context."""
    _run(tasks, "off", batch_cap=QUANTUM)  # warmup (imports, caches)
    base, base_wall = _run(tasks, "off", batch_cap=QUANTUM, repeats=REPEATS)
    rows = [("off", 0, base, base_wall)]
    for depth in PREFETCH_SWEEP:
        report, wall = _run(
            tasks, "on", depth, batch_cap=QUANTUM, repeats=REPEATS
        )
        rows.append(("on", depth, report, wall))
    maxpack, maxpack_wall = _run(tasks, "off", repeats=REPEATS)
    return base, base_wall, rows, (maxpack, maxpack_wall)


def _entries(base, base_wall, rows):
    out = []
    for overlap, depth, report, wall in rows:
        out.append(
            {
                "overlap": overlap,
                "prefetch": depth,
                "n_batches": report.n_batches,
                "wall_s": wall,
                "wall_clock_speedup": base_wall / wall if wall else 0.0,
                "critical_path_s": report.critical_path_s,
                "critical_path_speedup": (
                    base.critical_path_s / report.critical_path_s
                    if report.critical_path_s
                    else 0.0
                ),
                "modelled_serial_s": report.total_time_s,
                "host_lane_s": report.host_lane_time_s(),
                "host_dispatch_s": report.host_dispatch_s(),
                "h2d_bytes": report.h2d_bytes,
                "d2h_bytes": report.d2h_bytes,
                "bit_identical_to_serial": (
                    report.extensions == base.extensions
                    and _per_warp_stream(report) == _per_warp_stream(base)
                ),
            }
        )
    return out


def _table(title, entries):
    return format_table(
        ["overlap", "prefetch", "batches", "wall (s)", "wall speedup",
         "crit path (ms)", "cp speedup", "identical"],
        [
            (
                e["overlap"], str(e["prefetch"]) if e["overlap"] == "on" else "-",
                str(e["n_batches"]), f"{e['wall_s']:.2f}",
                f"{e['wall_clock_speedup']:.2f}x",
                f"{e['critical_path_s'] * 1e3:.3f}",
                f"{e['critical_path_speedup']:.2f}x",
                "yes" if e["bit_identical_to_serial"] else "NO",
            )
            for e in entries
        ],
        title,
    )


def _naive_stage(tasks):
    """The pre-PR staging logic: per-task Python loops, no arenas.

    A deliberate transcription of the host path this PR replaced (the
    same reference the bit-identity tests compare against), kept here so
    the gate can re-measure it on this box *in the same run* as the new
    path — an absolute recorded baseline cannot tell a regression from
    background load on a shared box, a same-run ratio can.
    """
    layout = plan_layout(tasks)
    read_offsets, reads_parts, quals_parts, task_read_start = [0], [], [], [0]
    for t in tasks:
        for r, q in zip(t.reads, t.quals):
            reads_parts.append(np.asarray(r, dtype=np.uint8))
            quals_parts.append(np.asarray(q, dtype=np.uint8))
            read_offsets.append(read_offsets[-1] + len(r))
        task_read_start.append(task_read_start[-1] + t.n_reads)
    tail_cap = CFG.k_max
    e_cap = ext_capacity(CFG)
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
    return StagedBatch(
        tasks=list(tasks),
        config=CFG,
        layout=layout,
        reads_host=cat(reads_parts),
        quals_host=cat(quals_parts),
        read_offsets=np.asarray(read_offsets, dtype=np.int64),
        task_read_start=np.asarray(task_read_start, dtype=np.int64),
        seq_host=seq_host,
        seq_offsets=seq_offsets,
        seq_len_host=seq_len,
        tail_cap=tail_cap,
        ext_cap=e_cap,
        vis_slots=2 * CFG.max_walk_len,
    )


def _naive_host_path(tasks):
    """Per-batch stage+upload seconds of the pre-PR host path, measured
    now: per-task staging loops, fresh device buffers every batch (full
    sentinel fills included), ``allocator.reset()`` between batches —
    the serial driver's pre-PR behaviour at the profile quantum.  Best
    of ``REPEATS`` runs, same protocol as the new-path measurement."""
    ctx = GpuContext()
    stream = ctx.stream("copy0")
    chunks = [
        tasks[a : a + PROFILE_QUANTUM]
        for a in range(0, len(tasks), PROFILE_QUANTUM)
    ]
    best = float("inf")
    for _ in range(REPEATS):
        gc.collect()
        total = 0.0
        for chunk in chunks:
            ctx.allocator.reset()
            t0 = time.perf_counter()
            staged = _naive_stage(chunk)
            upload_batch(ctx, staged, stream=stream)
            total += time.perf_counter() - t0
        best = min(best, total / len(chunks))
    ctx.allocator.reset()
    return best


def _profiled_pair(tasks):
    """The host-path gate: serial vs. best overlapped at the baseline's
    quantum, profiler attached.  Best of ``REPEATS`` on the per-batch
    stage+upload figure (same protocol as the wall-clock columns — each
    run pays its own cold-arena batch, and scheduler noise on a shared
    box should not decide the gate).  Returns (serial report, overlapped
    report, overlapped per-batch stage+upload seconds)."""

    def best_of(overlap, prefetch):
        best_report, best_cost = None, float("inf")
        for _ in range(REPEATS):
            report, _ = _run(
                tasks, overlap, prefetch, batch_cap=PROFILE_QUANTUM,
                profile_host=True,
            )
            cost = report.host_profile.per_batch_s("stage", "upload")
            if cost < best_cost:
                best_report, best_cost = report, cost
        return best_report, best_cost

    serial, _ = best_of("off", 1)
    best, cost = best_of("on", PREFETCH_SWEEP[-1])
    return serial, best, cost


def bench_ablation_overlap(benchmark):
    tasks = _uniform_workload(100)

    base, base_wall, rows, (maxpack, maxpack_wall) = benchmark.pedantic(
        lambda: _sweep(tasks), rounds=1, iterations=1
    )
    entries = _entries(base, base_wall, rows)
    overlapped = [e for e in entries if e["overlap"] == "on"]
    # Reference config: the overlapped run with the best modelled win
    # among those that also win wall clock (the PR's whole point: the
    # host path must not trade one metric for the other).
    wall_winners = [
        e for e in overlapped if e["wall_clock_speedup"] > MIN_WALL_SPEEDUP
    ]
    best = max(
        wall_winners or overlapped, key=lambda e: e["critical_path_speedup"]
    )
    best_wall = max(overlapped, key=lambda e: e["wall_clock_speedup"])

    # Host-path gate at the baseline's quantum, profiler attached.
    prof_serial, prof_overlap, stage_upload_s = _profiled_pair(tasks)
    naive_stage_upload_s = _naive_host_path(tasks)
    stage_upload_speedup = (
        naive_stage_upload_s / stage_upload_s if stage_upload_s else 0.0
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    # Chrome trace of the profiled overlapped run with the host-profiler
    # lanes merged next to the stream lanes.
    trace_path = RESULTS_DIR / "overlap_trace.json"
    prof_overlap.timeline.save_chrome_trace(trace_path)
    trace = json.loads(trace_path.read_text())
    trace["traceEvents"].extend(prof_overlap.host_profile.chrome_events(pid=2))
    trace_path.write_text(json.dumps(trace, indent=2) + "\n")
    (RESULTS_DIR / "host_profile.json").write_text(
        json.dumps(
            {
                "workload": f"{len(tasks)} uniform warps",
                "quantum": PROFILE_QUANTUM,
                "recorded_baseline_stage_upload_per_batch_s": (
                    RECORDED_BASELINE_STAGE_UPLOAD_S
                ),
                "naive_stage_upload_per_batch_s": naive_stage_upload_s,
                "stage_upload_per_batch_s": stage_upload_s,
                "stage_upload_speedup_vs_naive": stage_upload_speedup,
                "serial": prof_serial.host_profile.to_json(),
                "overlapped": prof_overlap.host_profile.to_json(),
            },
            indent=2,
        )
        + "\n"
    )

    context = {
        "overlap": "off (max-pack)",
        "prefetch": 0,
        "n_batches": maxpack.n_batches,
        "wall_s": maxpack_wall,
        "wall_clock_speedup": base_wall / maxpack_wall,
        "critical_path_s": maxpack.critical_path_s,
        "critical_path_speedup": (
            base.critical_path_s / maxpack.critical_path_s
        ),
        "bit_identical_to_serial": maxpack.extensions == base.extensions,
    }
    text = _table(
        f"Ablation — overlapped driver (100 uniform warps, batched engine, "
        f"quantum {QUANTUM}, best of {REPEATS}, {_cpu_cores()} core(s) "
        f"available)",
        entries,
    ) + (
        f"\n  context: max-pack serial (1 batch) wall {maxpack_wall:.2f} s, "
        f"critical path {maxpack.critical_path_s * 1e3:.3f} ms"
        f"\n  host path at quantum {PROFILE_QUANTUM}: stage+upload "
        f"{stage_upload_s * 1e3:.3f} ms/batch vs "
        f"{naive_stage_upload_s * 1e3:.3f} ms pre-PR path same-run "
        f"({stage_upload_speedup:.1f}x; recorded pre-PR baseline "
        f"{RECORDED_BASELINE_STAGE_UPLOAD_S * 1e3:.3f} ms)"
    )
    record("overlap", text)

    (RESULTS_DIR / "BENCH_overlap.json").write_text(
        json.dumps(
            {
                "bench": "ablation_overlap",
                "cpu_cores": _cpu_cores(),
                "n_tasks": len(tasks),
                "engine": "batched",
                "quantum": QUANTUM,
                "wall_repeats": REPEATS,
                "reference": {
                    "critical_path_speedup": best["critical_path_speedup"],
                    "wall_clock_speedup": best["wall_clock_speedup"],
                    "prefetch": best["prefetch"],
                    "bit_identical": all(
                        e["bit_identical_to_serial"] for e in entries
                    ),
                },
                "best_wall_clock": {
                    "wall_clock_speedup": best_wall["wall_clock_speedup"],
                    "critical_path_speedup": best_wall["critical_path_speedup"],
                    "prefetch": best_wall["prefetch"],
                },
                "host_path": {
                    "quantum": PROFILE_QUANTUM,
                    "recorded_baseline_stage_upload_per_batch_s": (
                        RECORDED_BASELINE_STAGE_UPLOAD_S
                    ),
                    "naive_stage_upload_per_batch_s": naive_stage_upload_s,
                    "stage_upload_per_batch_s": stage_upload_s,
                    "stage_upload_speedup_vs_naive": stage_upload_speedup,
                },
                "results": entries,
                "context_maxpack_serial": context,
                "trace": "overlap_trace.json",
                "host_profile": "host_profile.json",
            },
            indent=2,
        )
        + "\n"
    )

    assert all(e["bit_identical_to_serial"] for e in entries)
    assert best["critical_path_speedup"] >= MIN_CP_SPEEDUP, (
        f"overlapped critical path must beat serial by >= {MIN_CP_SPEEDUP}x, "
        f"got {best['critical_path_speedup']:.3f}x"
    )
    assert best["wall_clock_speedup"] > MIN_WALL_SPEEDUP, (
        f"overlapped mode must also win wall clock, got "
        f"{best['wall_clock_speedup']:.3f}x"
    )
    assert stage_upload_speedup >= MIN_STAGE_UPLOAD_SPEEDUP, (
        f"stage+upload per batch must be >= {MIN_STAGE_UPLOAD_SPEEDUP}x "
        f"below the pre-PR host path, got {stage_upload_s * 1e3:.3f} ms vs "
        f"{naive_stage_upload_s * 1e3:.3f} ms (same-run re-measurement)"
    )


def bench_overlap_mixed_workload(benchmark, driver_workload):
    """The same ablation on the mixed (all-bins) driver workload — the
    §3.1 shape where bin 2's transfers overlap bin 3's kernel tail."""
    tasks = driver_workload

    def sweep():
        _run(tasks, "off")
        base, base_wall = _run(tasks, "off", repeats=REPEATS)
        rows = [("off", 0, base, base_wall)]
        for depth in PREFETCH_SWEEP:
            report, wall = _run(tasks, "on", depth, repeats=REPEATS)
            rows.append(("on", depth, report, wall))
        return base, base_wall, rows

    base, base_wall, rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    entries = _entries(base, base_wall, rows)

    text = _table(
        f"Ablation — overlapped driver (mixed workload, {len(tasks)} tasks, "
        f"{_cpu_cores()} core(s) available)",
        entries,
    )
    record("overlap_mixed", text)

    assert all(e["bit_identical_to_serial"] for e in entries)
    best = max(
        e["critical_path_speedup"] for e in entries if e["overlap"] == "on"
    )
    assert best > 1.0, "overlap must shorten the mixed-workload critical path"
