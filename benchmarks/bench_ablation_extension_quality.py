"""Ablation — extension-decision thresholds: yield vs accuracy.

The walk's base-classification rule (DESIGN.md: hi-quality ``min_viable``
votes, ``dominance_ratio`` fork override) trades extension *yield* (bases
added) against *accuracy* (bases matching the true genome continuation).
The paper fixes these inside MetaHipMer; here we sweep them on a
ground-truth workload (tiling reads with injected low-quality errors) and
report both axes, verifying the design point (2 votes, 2x dominance) sits
on the efficient frontier: accuracy >= stricter settings' ballpark with
meaningfully higher yield than they give.
"""

import numpy as np
from conftest import record

from repro.analysis.reporting import format_table
from repro.core.config import LocalAssemblyConfig
from repro.core.cpu_local_assembly import run_local_assembly_cpu
from repro.core.tasks import RIGHT, ExtensionTask, TaskSet
from repro.sequence.dna import encode, random_dna

SWEEP = [
    (1, 1.0),   # permissive: any single vote wins
    (1, 2.0),
    (2, 2.0),   # the default design point
    (2, 4.0),
    (3, 2.0),   # strict
]


def _ground_truth_tasks(n_tasks=40, seed=99):
    rng = np.random.default_rng(seed)
    tasks, truths = [], {}
    for cid in range(n_tasks):
        genome = random_dna(500, rng)
        contig_end = 150
        reads, quals = [], []
        for i in range(0, 440, 6):
            r = list(genome[i : i + 60])
            q = np.full(60, 40, dtype=np.uint8)
            for j in range(60):
                if rng.random() < 0.03:  # noisy, low-quality errors
                    r[j] = "ACGT"[("ACGT".index(r[j]) + 1) % 4]
                    q[j] = 6
            reads.append(encode("".join(r)))
            quals.append(q)
        tasks.append(
            ExtensionTask.from_reads(cid=cid, side=RIGHT, contig=encode(genome[:contig_end]),
                          reads=tuple(reads), quals=tuple(quals))
        )
        truths[cid] = genome[contig_end:]
    return TaskSet(tasks), truths


def bench_ablation_extension_quality(benchmark):
    tasks, truths = _ground_truth_tasks()

    def sweep():
        out = {}
        for min_viable, dom in SWEEP:
            cfg = LocalAssemblyConfig(
                k_init=21, max_walk_len=250,
                min_viable=min_viable, dominance_ratio=dom,
            )
            exts, _ = run_local_assembly_cpu(tasks, cfg)
            total = 0
            correct = 0
            for (cid, _side), ext in exts.items():
                truth = truths[cid]
                total += len(ext)
                correct += sum(
                    1 for a, b in zip(ext, truth) if a == b
                )
            out[(min_viable, dom)] = (total, correct)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for (mv, dom), (total, correct) in results.items():
        acc = correct / total if total else 1.0
        label = " <- default" if (mv, dom) == (2, 2.0) else ""
        rows.append((f"min_viable={mv}, dominance={dom}{label}",
                     total, f"{100 * acc:.2f}%"))
    text = format_table(
        ["setting", "bases extended", "accuracy"],
        rows,
        "Ablation — extension thresholds: yield vs accuracy "
        "(3% low-quality read errors, ground truth known)",
    )
    record("ablation_extension_quality", text)

    t_perm, c_perm = results[(1, 1.0)]
    t_def, c_def = results[(2, 2.0)]
    t_strict, c_strict = results[(3, 2.0)]
    acc = lambda t, c: c / t if t else 1.0  # noqa: E731
    # the default is at least as accurate as the permissive setting
    assert acc(t_def, c_def) >= acc(t_perm, c_perm) - 1e-9
    # and yields at least as much sequence as the strict setting
    assert t_def >= t_strict
    # everything stays highly accurate on 3%-error data
    assert acc(t_def, c_def) > 0.97