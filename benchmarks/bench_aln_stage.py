"""Measured alignment-stage strong scaling over real process ranks.

``bench_aln_ranked_scaling`` forks real process ranks
(:func:`repro.distributed.procrank.ranked_align`) at 1/2/4 ranks, gated
on bit-identity with the single-process aligner before any number is
reported.  As with the k-mer exchange bench, the honest scaling metric on
a time-sliced host is the critical-path CPU (max per-rank
``process_time``); the wall-clock gate only arms when >=4 cores exist.
Exchange volume (owner-grouped alignment rows) is recorded per rank
count.

(The batched-vs-scalar race that used to live here is retired: identity
is tier-1's ``test_batched_aligner_smoke`` against
``tests/pipeline/reference.py``, timing is
``pipeline.alignment.align_core.cpu_s`` in the end-to-end trace.)

Writes its table to ``results/aln_ranked_scaling.txt`` and its
machine-readable curve into ``results/BENCH_aln.json``.
"""

import json
import os
import time

import numpy as np
from conftest import RESULTS_DIR, record

from repro.analysis.reporting import format_table
from repro.distributed.procrank import procrank_available, ranked_align
from repro.pipeline.alignment import align_reads

MEASURED_RANKS = (1, 2, 4)
#: best-of-N per rank count: single-core scheduling noise (frequency
#: states, fork order) otherwise dominates.
REPEATS = 5

_JSON_PATH = RESULTS_DIR / "BENCH_aln.json"


def _same_alignment(a, b) -> None:
    """Bit-identity of two results, array by array."""
    assert a.n_seed_hits == b.n_seed_hits
    assert a.n_reads_aligned == b.n_reads_aligned
    assert a.n_reads == b.n_reads
    for f in ("read", "seq_in_read", "cid", "offset", "is_rc", "matches",
              "mismatches", "ov_len"):
        assert np.array_equal(getattr(a.rows, f), getattr(b.rows, f)), f
    for f in ("cids", "end_start", "cand_read", "cand_bases", "cand_quals",
              "cand_lengths"):
        assert np.array_equal(getattr(a, f), getattr(b, f)), f


def bench_aln_ranked_scaling(benchmark, workload):
    """Real process ranks over the alignment stage, 1/2/4 ranks."""
    if not procrank_available():  # pragma: no cover - CI always has fork
        import pytest

        pytest.skip("process ranks need fork + POSIX shared memory")
    contigs = workload["contigs"]
    reads = workload["reads"]
    single = align_reads(contigs, reads)

    def sweep():
        # discard one launch: the first fork after the heavyweight fixture
        # pays a one-time page-table penalty that would pollute rank 1.
        ranked_align(contigs, reads, 2)
        out = []
        for r in MEASURED_RANKS:
            best = None
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                aln, stats, report = ranked_align(contigs, reads, r)
                wall = time.perf_counter() - t0
                run = (r, aln, stats, report, wall)
                if best is None or report.cpu_critical_s < best[3].cpu_critical_s:
                    best = run
            out.append(best)
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    for _, aln, _, _, _ in rows:
        _same_alignment(single, aln)

    cpu_cores = os.cpu_count() or 1
    base_cpu = rows[0][3].cpu_critical_s
    base_wall = rows[0][4]
    table_rows, json_rows = [], []
    for r, _, stats, report, wall in rows:
        cpu_crit = report.cpu_critical_s
        table_rows.append(
            (r, f"{wall:.3f}", f"{report.cpu_total_s:.3f}",
             f"{cpu_crit:.3f}", f"{base_cpu / cpu_crit:.2f}x",
             stats.total_kmers_sent,
             f"{stats.bytes_per_rank_max / 1e6:.2f}")
        )
        json_rows.append({
            "n_ranks": r,
            "wall_s": wall,
            "wall_speedup": base_wall / wall,
            "cpu_total_s": report.cpu_total_s,
            "cpu_critical_s": cpu_crit,
            "cpu_critical_speedup": base_cpu / cpu_crit,
            "rows_sent": stats.total_kmers_sent,
            "bytes_per_rank_max": stats.bytes_per_rank_max,
            "per_rank": [m.to_dict() for m in report.per_rank],
        })
    text = format_table(
        ["ranks", "wall (s)", "cpu total (s)", "cpu critical (s)",
         "cpu speedup", "rows sent", "max MB/rank"],
        table_rows,
        f"measured ranked alignment strong scaling ({cpu_cores} host "
        f"core(s), best of {REPEATS}; cpu critical = max per-rank "
        "process_time, the multi-core wall clock)",
    )
    record("aln_ranked_scaling", text)

    ranked = {
        "cpu_cores": cpu_cores,
        "repeats": REPEATS,
        "bit_identical": True,
        "ranks": json_rows,
        "cpu_critical_speedup_at_4_ranks": base_cpu / rows[2][3].cpu_critical_s,
        "wall_speedup_at_4_ranks": base_wall / rows[2][4],
    }
    doc = {
        "workload": "arcticsynth-like, 4 genomes x 15 kb, 5000 pairs",
        "ranked": ranked,
    }
    _JSON_PATH.write_text(json.dumps(doc, indent=2) + "\n")

    # exchange accounting: a single rank keeps everything local; volume
    # rises with rank count as (R-1)/R of the rows go off-rank.
    sents = [row[2].total_kmers_sent for row in rows]
    assert sents[0] == 0
    assert all(a < b for a, b in zip(sents, sents[1:]))

    # strong-scaling gate on the critical path; wall clock once the
    # cores exist to run ranks in parallel.
    cpu_speedup_4 = base_cpu / rows[2][3].cpu_critical_s
    assert cpu_speedup_4 >= 1.3, (
        f"critical-path CPU speedup at 4 ranks is {cpu_speedup_4:.2f}x; "
        "the sharded aligner must strong-scale"
    )
    if cpu_cores >= 4:  # pragma: no cover - single-core CI box
        wall_speedup_4 = base_wall / rows[2][4]
        assert wall_speedup_4 >= 1.3, (
            f"wall-clock speedup at 4 ranks is {wall_speedup_4:.2f}x "
            f"on a {cpu_cores}-core host"
        )
