"""§3.2 — memory-minimisation numbers: load factor and k-mer compression.

Paper:
* worst-case hash-table load factor (l-k+1)/l = (300-21+1)/300 ~= 0.93;
* storing (pointer, length) instead of a 77-byte k-mer saves ~15x;
* exact per-extension table sizing (ht_sizes + prefix offsets) packs all
  tables into one allocation.

Reproduced with the actual sizing code plus an *empirical* occupancy
measurement on the real dump.
"""

import numpy as np
from conftest import record

from repro.analysis.reporting import format_table, paper_vs_measured
from repro.core.cpu_local_assembly import KmerTables
from repro.core.ht_sizing import (
    SLOT_BYTES,
    compression_factor,
    load_factor_bound,
    plan_layout,
    table_slots,
    worst_case_load_factor,
)


def bench_sec32_memory_math(benchmark, workload):
    tasks = workload["tasks"]

    def compute():
        layout = plan_layout(tasks)
        occupancies = []
        for t in tasks:
            if t.n_reads == 0:
                continue
            # distinct 21-mers: the task's span of the tables' offset prefix
            distinct = int(KmerTables.build([t], 21, 20).sizes[0])
            occupancies.append(distinct / table_slots(t))
        return layout, occupancies

    layout, occupancies = benchmark.pedantic(compute, rounds=1, iterations=1)
    max_occ = max(occupancies) if occupancies else 0.0

    text = "\n\n".join(
        [
            paper_vs_measured(
                "§3.2 — hash-table memory math",
                [
                    ("worst-case load factor", 0.93, round(worst_case_load_factor(), 3)),
                    ("bound at l=150, k=21", "(150-21+1)/150", round(load_factor_bound(150, 21), 3)),
                    ("max empirical load factor (dump)", "< bound", round(max_occ, 3)),
                    ("77-mer compression (Fig 6)", "~15x", f"{compression_factor(77):.1f}x"),
                ],
            ),
            format_table(
                ["quantity", "value"],
                [
                    ("tasks in layout", len(tasks)),
                    ("total slots", layout.total_slots),
                    ("packed table bytes", layout.total_slots * SLOT_BYTES),
                    ("mean slots/task", round(layout.total_slots / max(len(tasks), 1), 1)),
                ],
                "ht_sizes packed layout",
            ),
        ]
    )
    record("sec32_memory", text)

    assert worst_case_load_factor() < 0.94
    assert max_occ <= load_factor_bound(150, 21) + 1e-9
    assert abs(compression_factor(77) - 15.4) < 0.1
    # offsets are a dense non-overlapping cover
    assert (np.diff(layout.offsets) > 0).all()
