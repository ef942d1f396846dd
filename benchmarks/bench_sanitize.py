"""Sanitizer overhead — the cost of running every dynamic checker.

Times the 100-uniform-warp reference workload (the same trio protocol as
``bench_engine_scaling.bench_batched_trio``) with ``sanitize="off"`` on
each engine versus one ``sanitize="full"`` run, and records the slowdown.
A sanitized context interprets every launch whatever its engine, so the
sanitized side has no engine axis.  Checked invariants: the sanitized run
reports **zero** errors, and its extensions and counters are
bit-identical to both unsanitized runs — turning the sanitizer on must
observe the kernel, never steer it.

Results land in ``benchmarks/results/sanitize_overhead.txt`` and
``benchmarks/results/BENCH_sanitize.json``.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import numpy as np

from conftest import record

from repro.analysis.reporting import format_table
from repro.core.config import LocalAssemblyConfig
from repro.core.driver import GpuLocalAssembler
from repro.core.tasks import RIGHT, ExtensionTask, TaskSet
from repro.sequence.dna import encode, random_dna

CFG = LocalAssemblyConfig(k_init=21, max_walk_len=150)
RESULTS_DIR = Path(__file__).parent / "results"


def _uniform_workload(n_warps: int = 100) -> TaskSet:
    rng = np.random.default_rng(7)
    tasks = []
    for cid in range(n_warps):
        genome = random_dna(320, rng)
        reads, quals = [], []
        for i in range(0, len(genome) - 70 + 1, 5):
            reads.append(encode(genome[i : i + 70]))
            quals.append(np.full(70, 40, dtype=np.uint8))
        tasks.append(
            ExtensionTask.from_reads(
                cid=cid, side=RIGHT, contig=encode(genome[:120]),
                reads=tuple(reads), quals=tuple(quals),
            )
        )
    return TaskSet(tasks)


def _run(tasks, engine: str, sanitize: str):
    gc.collect()
    t0 = time.perf_counter()
    report = GpuLocalAssembler(CFG, engine=engine, sanitize=sanitize).run(tasks)
    return report, time.perf_counter() - t0


def _best(tasks, engine: str, sanitize: str):
    return min((_run(tasks, engine, sanitize) for _ in range(2)), key=lambda rw: rw[1])


def bench_sanitize_overhead(benchmark):
    tasks = _uniform_workload(100)

    def sweep():
        _run(tasks, "batched", "off")  # warmup
        off = {engine: _best(tasks, engine, "off") for engine in ("sequential", "batched")}
        # a sanitized context interprets every launch, whatever its engine
        return off, _best(tasks, "auto", "full")

    off, (full_rep, full_wall) = benchmark.pedantic(sweep, rounds=1, iterations=1)

    san = full_rep.sanitizer
    assert san is not None and san.clean, san and san.summary()
    n_warps = sum(l.n_warps for l in full_rep.launches)
    rows, entries = [], []
    for engine, (off_rep, off_wall) in off.items():
        assert full_rep.extensions == off_rep.extensions
        assert [l.counters for l in full_rep.launches] == [l.counters for l in off_rep.launches]
        slowdown = full_wall / off_wall if off_wall else 0.0
        rows.append(
            (engine, f"{off_wall:.2f}", f"{full_wall:.2f}",
             f"{slowdown:.1f}x", f"{san.n_checked:,}")
        )
        entries.append(
            {
                "engine": engine,
                "off_wall_s": off_wall,
                "full_wall_s": full_wall,
                "slowdown": slowdown,
                "n_checked": san.n_checked,
                "n_errors": san.n_errors,
            }
        )

    text = format_table(
        ["unsanitized engine", "off (s)", "full (s)", "slowdown", "accesses checked"],
        rows,
        f"Sanitizer overhead — {n_warps} uniform warps, sanitize=full "
        f"(memcheck+racecheck+initcheck; every sanitized launch runs on the "
        f"interpreter), {len(os.sched_getaffinity(0))} core(s) available",
    )
    record("sanitize_overhead", text)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sanitize.json").write_text(
        json.dumps(
            {
                "bench": "sanitize_overhead",
                "cpu_cores": len(os.sched_getaffinity(0)),
                "n_warps": n_warps,
                "mode": "full",
                "full_engine": "sequential",
                "results": entries,
            },
            indent=2,
        )
        + "\n"
    )
