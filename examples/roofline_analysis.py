"""Instruction-roofline analysis of the v1 vs v2 extension kernels (§4.2).

Builds a small local-assembly dump, runs both simulated kernels and prints
the Instruction Roofline comparison (Figs 8/9) plus the instruction-class
breakdown (Fig 10).

Run:  python examples/roofline_analysis.py [seed]
"""

import sys

import numpy as np

from repro.core.config import LocalAssemblyConfig
from repro.core.driver import GpuLocalAssembler
from repro.core.tasks import ExtensionTask, TaskSet, tasks_from_candidates
from repro.gpusim.device import V100
from repro.gpusim.kernel import LaunchResult
from repro.gpusim.roofline import render_roofline, roofline_point
from repro.gpusim.timing import KernelTiming, TimingModel
from repro.pipeline.alignment import align_reads
from repro.pipeline.contig_generation import generate_contigs
from repro.pipeline.kmer_analysis import analyze_kmers
from repro.pipeline.merge_reads import merge_read_pairs
from repro.sequence import arcticsynth_like, sample_paired_reads


def merged_point(report, name):
    """Roofline point at saturating occupancy over busy time."""
    counters = report.merged_counters()
    base = TimingModel(V100).kernel_timing(counters, V100.saturation_warps)
    busy = max(base.issue_time_s, base.mem_time_s)
    timing = KernelTiming(busy, base.issue_time_s, base.mem_time_s, 1.0, base.bound)
    return roofline_point(LaunchResult(name, V100.saturation_warps, counters, timing))


def main(seed: int = 7) -> None:
    rng = np.random.default_rng(seed)
    community = arcticsynth_like(rng, n_genomes=3, genome_length=10_000)
    reads = sample_paired_reads(community, 2_500, rng)
    merged, _ = merge_read_pairs(reads)
    contigs = generate_contigs(analyze_kmers(merged, 21, 2, 2))
    aln = align_reads(contigs, reads)
    tasks = tasks_from_candidates(
        {c.cid: c.seq for c in contigs}, aln.candidates.values()
    )
    # busiest tasks, read counts capped (v1 simulates one insert per step)
    busiest = sorted(tasks, key=lambda t: -t.n_reads)[:6]
    dump = TaskSet(
        [
            ExtensionTask.from_reads(cid=t.cid, side=t.side, contig=t.contig,
                          reads=t.reads[:30], quals=t.quals[:30])
            for t in busiest
        ]
    )

    config = LocalAssemblyConfig(k_init=21, max_walk_len=120)
    print(f"Running v1 (thread-per-table) and v2 (warp-per-table) on "
          f"{len(dump)} extension tasks...")
    r1 = GpuLocalAssembler(config, kernel_version="v1").run(dump)
    r2 = GpuLocalAssembler(config, kernel_version="v2").run(dump)
    assert r1.extensions == r2.extensions

    p1 = merged_point(r1, "v1 thread-per-table")
    p2 = merged_point(r2, "v2 warp-per-table")
    print()
    print(render_roofline([p1, p2], V100))

    c1, c2 = r1.merged_counters(), r2.merged_counters()
    print("\nInstruction breakdown (Fig 10):")
    b1, b2 = c1.breakdown(), c2.breakdown()
    for cls in b1:
        print(f"  {cls:<22}{b1[cls]:>12,}{b2[cls]:>12,}")
    print(f"  {'total warp inst':<22}{c1.warp_inst:>12,}{c2.warp_inst:>12,} "
          f" (v1/v2 = {c1.warp_inst / c2.warp_inst:.2f}x)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
