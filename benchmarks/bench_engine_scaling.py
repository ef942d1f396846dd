"""Extension bench — warp execution-engine scaling.

Two studies of *simulation throughput* (warps/sec of host wall time — not
the modelled V100 time, which is identical by construction across
engines):

* ``bench_engine_scaling`` runs both engines over the mixed driver
  workload: the sequential interpreter and the batched SoA engine.  The
  batched run is checked bit-identical to the sequential baseline, which
  is the engines' core contract.
* ``bench_batched_trio`` times sequential against batched on the
  reference workload — 100 uniform single-warp tasks — with a warmup plus
  best-of-N protocol so the recorded speedup is not hostage to scheduler
  noise on a shared box.

Results land under ``benchmarks/results/``:

* ``engine_scaling.txt`` — the human-readable sweep table;
* ``BENCH_engine.json`` — machine-readable sweep numbers (cores, wall,
  warps/s, speedup, identity check) for downstream tooling;
* ``BENCH_batched.json`` — the 100-warp comparison (throughput per
  engine, ``batched_speedup_vs_sequential``,
  ``bit_identical_to_sequential``).

The batched engine's speedup comes from array-programming the warp axis,
not from extra cores, so it holds at any ``cpu_cores`` (recorded in both
JSON files).
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


def _cpu_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run(tasks, engine: str = "auto"):
    gc.collect()
    t0 = time.perf_counter()
    report = GpuLocalAssembler(CFG, engine=engine).run(tasks)
    wall = time.perf_counter() - t0
    return report, wall


def _identical(report, base) -> bool:
    return (
        report.extensions == base.extensions
        and [l.per_warp_inst for l in report.launches]
        == [l.per_warp_inst for l in base.launches]
        and report.merged_counters() == base.merged_counters()
    )


def bench_engine_scaling(benchmark, driver_workload):
    tasks = driver_workload

    def sweep():
        return {
            engine: _run(tasks, engine=engine)
            for engine in ("sequential", "batched")
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    base_report, base_wall = results["sequential"]
    n_warps = sum(l.n_warps for l in base_report.launches)
    rows = []
    entries = []
    identical = True
    for name, (report, wall) in results.items():
        same = _identical(report, base_report)
        identical &= same
        speedup = base_wall / wall if wall else 0.0
        rows.append(
            (name, f"{wall:.2f}", f"{n_warps / wall:.1f}", f"{speedup:.2f}x",
             "yes" if same else "NO")
        )
        entries.append(
            {
                "engine": name,
                "wall_s": wall,
                "warps_per_s": n_warps / wall if wall else 0.0,
                "speedup_vs_sequential": speedup,
                "bit_identical_to_sequential": same,
            }
        )

    text = format_table(
        ["engine", "wall (s)", "warps/s", "speedup", "bit-identical"],
        rows,
        f"Extension — warp-engine scaling ({n_warps} warps, "
        f"{_cpu_cores()} core(s) available)",
    )
    record("engine_scaling", text)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_engine.json").write_text(
        json.dumps(
            {
                "bench": "engine_scaling",
                "cpu_cores": _cpu_cores(),
                "n_warps": n_warps,
                "n_tasks": len(tasks),
                "results": entries,
            },
            indent=2,
        )
        + "\n"
    )

    assert identical, "all engines must be bit-identical to sequential"


def _uniform_workload(n_warps: int = 100) -> TaskSet:
    """The reference workload: *n_warps* uniform tiling tasks."""
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


def bench_batched_trio(benchmark):
    tasks = _uniform_workload(100)

    def trio():
        _run(tasks, engine="batched")  # warmup
        bat = [_run(tasks, engine="batched") for _ in range(3)]
        seq = [_run(tasks, engine="sequential") for _ in range(2)]
        return bat, seq

    bat, seq = benchmark.pedantic(trio, rounds=1, iterations=1)

    base_report, _ = seq[0]
    n_warps = sum(l.n_warps for l in base_report.launches)
    best = {
        "sequential": min(w for _, w in seq),
        "batched": min(w for _, w in bat),
    }
    identical = all(_identical(r, base_report) for r, _ in [*bat, seq[1]])
    speedup = best["sequential"] / best["batched"]

    rows = [
        (name, f"{wall:.2f}", f"{n_warps / wall:.1f}",
         f"{best['sequential'] / wall:.2f}x")
        for name, wall in best.items()
    ]
    text = format_table(
        ["engine", "best wall (s)", "warps/s", "speedup"],
        rows,
        f"Extension — batched SoA vs sequential ({n_warps} uniform warps, "
        f"{_cpu_cores()} core(s) available, "
        f"bit-identical={'yes' if identical else 'NO'})",
    )
    record("batched_trio", text)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_batched.json").write_text(
        json.dumps(
            {
                "bench": "batched_trio",
                "cpu_cores": _cpu_cores(),
                "n_warps": n_warps,
                "throughput_warps_per_s": {
                    name: n_warps / wall for name, wall in best.items()
                },
                "wall_s": best,
                "batched_speedup_vs_sequential": speedup,
                "bit_identical_to_sequential": identical,
            },
            indent=2,
        )
        + "\n"
    )

    assert identical, "batched runs must be bit-identical to sequential"
