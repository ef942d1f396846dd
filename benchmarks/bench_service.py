"""Job-service bench: concurrent throughput and cache-hit speedup.

Two questions the multi-tenant layer must answer with numbers:

* **Concurrency** — does running N identical jobs over an N-slot fleet
  beat running them back to back?  Thread workers release the GIL only
  during NumPy sweeps, so their win is bounded; the process fleet
  (``workers=process``) sidesteps the GIL entirely and is measured
  against the same sequential baseline.
* **Memoisation** — how much does a resubmitted identical dataset save
  by riding the content-addressed dBG-prefix cache (merge + k-mer
  analysis + contig generation skipped, straight to alignment)?

Every configuration asserts bit-identity against a solo
``run_pipeline`` before its wall clock is reported — a throughput win
that changes results would be a bug, not a speedup.

Results land in ``benchmarks/results/service.txt`` and
``BENCH_service.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
from conftest import RESULTS_DIR, record

from repro.analysis.reporting import format_table
from repro.pipeline.pipeline import PipelineConfig, run_pipeline
from repro.sequence.community import arcticsynth_like, sample_paired_reads
from repro.sequence.fastq import load_read_batch, read_fasta, save_read_batch
from repro.service import AssemblyService, JobState, ServiceConfig

N_JOBS = 3
JOB_CONFIG = {"local_assembly_mode": "gpu", "run_scaffolding": False}


def _run_fleet(
    root: Path, reads_files: list[Path], n_gpus: int, workers: str = "thread"
):
    """Run one job per reads file over an *n_gpus* fleet; returns
    (wall seconds, finished jobs, contig seqs per job).

    Distinct datasets per job keep the comparison honest — identical
    submissions would let the sequential fleet ride the result cache
    while the concurrent one runs all jobs cold.
    """
    with AssemblyService(
        root, ServiceConfig(n_gpus=n_gpus, workers=workers)
    ) as svc:
        t0 = time.perf_counter()
        jobs = [
            svc.submit(rf, tenant=f"t{i}", config=JOB_CONFIG)
            for i, rf in enumerate(reads_files)
        ]
        final = {j.job_id: j for j in svc.drain()}
        wall = time.perf_counter() - t0
        seqs = []
        for job in jobs:
            done = final[job.job_id]
            assert done.state is JobState.DONE, done.error
            assert done.metrics["cache_hit"] is False
            seqs.append(
                [s for _, s in read_fasta(
                    svc.queue.job_dir(job.job_id) / "contigs.fasta"
                )]
            )
    return wall, [final[j.job_id] for j in jobs], seqs


def bench_service(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_service")
    reads_files = []
    for i in range(N_JOBS):
        rng = np.random.default_rng(77 + i)
        comm = arcticsynth_like(rng, n_genomes=3, genome_length=9000)
        reads = sample_paired_reads(comm, 1500, rng)
        reads_files.append(root / f"reads{i}.fastq")
        save_read_batch(reads_files[-1], reads)

    solo_cfg = PipelineConfig(**{
        k: tuple(v) if isinstance(v, list) else v
        for k, v in JOB_CONFIG.items()
    })
    solo_seqs, solo_wall = [], 0.0
    for rf in reads_files:
        t0 = time.perf_counter()
        solo = run_pipeline(load_read_batch(rf, paired=True), solo_cfg)
        solo_wall += time.perf_counter() - t0
        solo_seqs.append([c.seq for c in solo.contigs])

    # sequential fleet (1 slot) vs concurrent fleet (N slots), cold caches
    seq_wall, _, seq_seqs = _run_fleet(root / "seq", reads_files, n_gpus=1)
    con_wall, _, con_seqs = _run_fleet(
        root / "con", reads_files, n_gpus=N_JOBS
    )
    # the same concurrent fleet with real worker *processes*: no GIL, so
    # the N-slot win is bounded by cores instead of by lock contention
    proc_wall, proc_jobs, proc_seqs = _run_fleet(
        root / "proc", reads_files, n_gpus=N_JOBS, workers="process"
    )
    assert seq_seqs == solo_seqs
    assert con_seqs == solo_seqs
    assert proc_seqs == solo_seqs
    assert all(
        j.metrics["worker_pid"] != os.getpid() for j in proc_jobs
    )  # really ran out of process

    # memoisation: resubmit dataset 0 into the warm sequential dir
    with AssemblyService(root / "seq") as svc:
        t0 = time.perf_counter()
        hit = svc.submit(reads_files[0], tenant="warm", config=JOB_CONFIG)
        final = {j.job_id: j for j in svc.drain()}
        hit_wall = time.perf_counter() - t0
        done = final[hit.job_id]
        assert done.state is JobState.DONE, done.error
        assert done.metrics["cache_hit"] is True
        hit_seqs = [s for _, s in read_fasta(
            svc.queue.job_dir(hit.job_id) / "contigs.fasta"
        )]
    assert hit_seqs == solo_seqs[0]

    cold_job = seq_wall / N_JOBS
    rows = [
        (f"solo run_pipeline ({N_JOBS} jobs back to back)",
         f"{solo_wall:.2f}", f"{solo_wall / N_JOBS:.2f}", "-"),
        (f"fleet n_gpus=1 ({N_JOBS} jobs)", f"{seq_wall:.2f}",
         f"{cold_job:.2f}", "1.00x"),
        (f"fleet n_gpus={N_JOBS}, thread workers ({N_JOBS} jobs)",
         f"{con_wall:.2f}", f"{con_wall / N_JOBS:.2f}",
         f"{seq_wall / con_wall:.2f}x"),
        (f"fleet n_gpus={N_JOBS}, process workers ({N_JOBS} jobs)",
         f"{proc_wall:.2f}", f"{proc_wall / N_JOBS:.2f}",
         f"{seq_wall / proc_wall:.2f}x"),
        ("cache-hit resubmission (1 job)", f"{hit_wall:.2f}",
         f"{hit_wall:.2f}", f"{cold_job / hit_wall:.2f}x"),
    ]
    text = format_table(
        ["configuration", "wall (s)", "s/job", "speedup"],
        rows,
        f"job service: concurrency and memoisation on {os.cpu_count()} "
        "host core(s) (all outputs bit-identical to solo runs; with one "
        "core, no fleet can beat sequential wall clock — the process "
        "fleet's win is per-core scaling, see BENCH_rank.json)",
    )
    record("service", text)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_service.json").write_text(json.dumps({
        "n_jobs": N_JOBS,
        "cpu_cores": os.cpu_count(),
        "solo_wall_s": solo_wall,
        "sequential_wall_s": seq_wall,
        "concurrent_thread_wall_s": con_wall,
        "concurrency_speedup_thread": seq_wall / con_wall,
        "concurrent_process_wall_s": proc_wall,
        "concurrency_speedup_process": seq_wall / proc_wall,
        "cache_hit_wall_s": hit_wall,
        "cache_hit_speedup_vs_cold_job": cold_job / hit_wall,
        "bit_identical": True,
    }, indent=2) + "\n")

    # thread workers share the GIL, so their concurrency is bounded (the
    # recorded number hovers around 0.94-1.04x on one core); the gates
    # are "must not regress materially" against sequential for both
    # fleets.  The process-beats-thread comparison only means something
    # when each worker can have a core — on a single-core host the two
    # fleets are within scheduler noise of each other, so that gate
    # arms at cpu_cores >= 2 (the JSON records both either way).
    assert con_wall <= seq_wall * 1.15, (
        "a thread fleet must not lose wall clock to back-to-back "
        f"execution: {con_wall:.2f}s vs {seq_wall:.2f}s"
    )
    assert proc_wall <= seq_wall * 1.15, (
        "a process fleet must not lose wall clock to back-to-back "
        f"execution: {proc_wall:.2f}s vs {seq_wall:.2f}s"
    )
    if (os.cpu_count() or 1) >= 2:  # pragma: no cover - 1-core CI box
        assert proc_wall <= con_wall * 1.05, (
            "with real cores, the process fleet must beat the "
            f"GIL-bounded thread fleet: {proc_wall:.2f}s vs {con_wall:.2f}s"
        )
    assert hit_wall < cold_job, (
        "a cache hit must be cheaper than a cold job"
    )
