"""Measured multi-rank k-mer counting: strong scaling + exchange volumes.

Two benches, one measured and one modelled:

* ``bench_rank_strong_scaling`` forks **real worker processes** (the
  :mod:`repro.distributed.procrank` launcher) at 1/2/4 ranks, runs the
  partitioned window pass -> shared-memory alltoallv -> owner tally on the reference
  workload, asserts the merged spectrum is bit-identical to the
  sequential count, and records the measured curve to
  ``BENCH_rank.json``.  On a multi-core host the wall clock strong-scales;
  on a single-core host (this repo's usual CI box) the honest scaling
  metric is the *critical-path CPU*: the max per-rank
  ``time.process_time()``, which is what the wall clock becomes the
  moment each rank has its own core.  Both are recorded, with
  ``cpu_cores`` alongside so readers can tell which regime produced the
  numbers; the wall-clock gate only arms when the cores exist.

* ``bench_rank_exchange`` is the analytic overlay: every partition's
  per-destination window counts, from the stage's own put
  (:func:`group_windows_by_owner`), priced at :func:`WINDOW_BYTES` per
  row by :func:`exchange_stats` — no ranks run.  Exchanged volume rises
  as ``(R-1)/R`` with rank count R, which is why the exchange stops
  strong-scaling early (§4.4).
"""

import json
import os
import time

import numpy as np
from conftest import RESULTS_DIR, record

from repro.analysis.reporting import format_table
from repro.distributed.comm import CommCostModel
from repro.distributed.procrank import (
    distributed_count_proc,
    group_windows_by_owner,
    procrank_available,
)
from repro.distributed.rank import WINDOW_BYTES, exchange_stats, partition_reads
from repro.pipeline.kmer_counts import count_kmers
from repro.sequence.kmer import words_per_kmer

RANKS = (1, 2, 4, 8, 16)
MEASURED_RANKS = (1, 2, 4)
#: best-of-N per rank count: single-core scheduling noise (fork order,
#: frequency states) otherwise dominates the per-rank CPU readings.
REPEATS = 2


def bench_rank_strong_scaling(benchmark, workload):
    """Real process ranks on the reference workload, 1/2/4 ranks."""
    if not procrank_available():  # pragma: no cover - CI always has fork
        import pytest

        pytest.skip("process ranks need fork + POSIX shared memory")
    reads = workload["merged"]
    single = count_kmers(reads, 21, min_count=2)

    def sweep():
        # one discarded launch: the very first fork after the heavyweight
        # workload fixture pays a multi-second one-time penalty (cold page
        # tables over the parent's heap) that would pollute rank 1's
        # number and fake the speedup.
        distributed_count_proc(reads, 21, 2, min_count=2)
        out = []
        for r in MEASURED_RANKS:
            best = None
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                spec, stats, report = distributed_count_proc(
                    reads, 21, r, min_count=2
                )
                wall = time.perf_counter() - t0
                run = (r, spec, stats, report, wall)
                if best is None or report.cpu_critical_s < best[3].cpu_critical_s:
                    best = run
            out.append(best)
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # bit-identity before any number is reported
    for r, spec, _, _, _ in rows:
        assert np.array_equal(spec.words, single.words), f"ranks={r}"
        assert np.array_equal(spec.counts, single.counts), f"ranks={r}"
        assert np.array_equal(spec.left_ext, single.left_ext), f"ranks={r}"
        assert np.array_equal(spec.right_ext, single.right_ext), f"ranks={r}"

    cpu_cores = os.cpu_count() or 1
    base_cpu = rows[0][3].cpu_critical_s
    base_wall = rows[0][4]
    table_rows, json_rows = [], []
    for r, _, stats, report, wall in rows:
        cpu_crit = report.cpu_critical_s
        table_rows.append(
            (r, f"{wall:.3f}", f"{report.cpu_total_s:.3f}", f"{cpu_crit:.3f}",
             f"{base_cpu / cpu_crit:.2f}x", stats.total_kmers_sent,
             f"{stats.modelled_time_s * 1e3:.3f}")
        )
        json_rows.append({
            "n_ranks": r,
            "wall_s": wall,
            "wall_speedup": base_wall / wall,
            "cpu_total_s": report.cpu_total_s,
            "cpu_critical_s": cpu_crit,
            "cpu_critical_speedup": base_cpu / cpu_crit,
            "sent_windows": stats.total_kmers_sent,
            "bytes_per_rank_max": stats.bytes_per_rank_max,
            "modelled_exchange_s": stats.modelled_time_s,
            "per_rank": [m.to_dict() for m in report.per_rank],
        })
    text = format_table(
        ["ranks", "wall (s)", "cpu total (s)", "cpu critical (s)",
         "cpu speedup", "windows sent", "modelled exch ms"],
        table_rows,
        f"measured process-rank strong scaling ({cpu_cores} host core(s), "
        f"best of {REPEATS}; cpu critical = max per-rank process_time, "
        "the multi-core wall clock)",
    )
    record("rank_strong_scaling", text)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_rank.json").write_text(json.dumps({
        "workload": "arcticsynth-like, 4 genomes x 15 kb, 5000 pairs (k=21)",
        "cpu_cores": cpu_cores,
        "repeats": REPEATS,
        "bit_identical": True,
        "ranks": json_rows,
        "cpu_critical_speedup_at_4_ranks": base_cpu / rows[2][3].cpu_critical_s,
        "wall_speedup_at_4_ranks": base_wall / rows[2][4],
    }, indent=2) + "\n")

    # strong-scaling gates: per-rank critical-path CPU must speed up >=2x
    # at 4 ranks everywhere; the wall clock must follow once each rank
    # can actually have its own core.
    cpu_speedup_4 = base_cpu / rows[2][3].cpu_critical_s
    assert cpu_speedup_4 >= 2.0, (
        f"critical-path CPU speedup at 4 ranks is {cpu_speedup_4:.2f}x; "
        "the partitioned count must strong-scale"
    )
    if cpu_cores >= 4:  # pragma: no cover - single-core CI box
        wall_speedup_4 = base_wall / rows[2][4]
        assert wall_speedup_4 >= 2.0, (
            f"wall-clock speedup at 4 ranks is {wall_speedup_4:.2f}x "
            f"on a {cpu_cores}-core host"
        )


def bench_rank_exchange(benchmark, workload):
    """Model overlay: exchanged volume vs rank count, from the counts
    matrix every partition's outbox would publish."""
    reads = workload["reads"]
    row_bytes = WINDOW_BYTES(words_per_kmer(21))

    def sweep():
        out = []
        for r in RANKS:
            counts = np.stack([
                group_windows_by_owner(p, 21, r)[1]
                for p in partition_reads(reads, r)
            ])
            stats = exchange_stats(counts, row_bytes, CommCostModel())
            out.append((r, int(counts.sum()), stats))
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table_rows = []
    for r, local_windows, stats in rows:
        frac = stats.total_kmers_sent / max(local_windows, 1)
        table_rows.append(
            (r, stats.total_kmers_sent,
             f"{(r - 1) / r:.2f}", f"{frac:.2f}",
             f"{stats.bytes_per_rank_max / 1e6:.2f}",
             f"{stats.modelled_time_s * 1e3:.3f}")
        )
    text = format_table(
        ["ranks", "windows sent", "expected off-rank frac", "measured frac",
         "max MB/rank", "modelled ms"],
        table_rows,
        "Extension — k-mer exchange volume vs rank count (hash partition, "
        "model overlay)",
    )
    record("rank_exchange", text)

    sents = [row[2].total_kmers_sent for row in rows]
    assert sents[0] == 0  # a single rank sends nothing
    assert all(a < b for a, b in zip(sents, sents[1:]))  # rising volume
    # measured off-rank fraction tracks (R-1)/R within 10 points
    for (r, local_windows, stats) in rows[1:]:
        frac = stats.total_kmers_sent / local_windows
        assert abs(frac - (r - 1) / r) < 0.10
