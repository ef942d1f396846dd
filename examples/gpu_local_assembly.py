"""GPU local assembly: the paper's contribution, standalone.

Mirrors the paper's §4.1 methodology: run the pipeline to the alignment
stage, dump the local-assembly inputs (contigs + per-end candidate reads),
then extend them with both the CPU reference and the simulated-GPU driver
and compare results (bit-identical) and machine behaviour (instructions,
transactions, predication, modelled V100 time, §3.1 bins).

Run:  python examples/gpu_local_assembly.py [seed]
"""

import sys
import time

import numpy as np

from repro.core.binning import bin_contigs
from repro.core.config import LocalAssemblyConfig
from repro.core.cpu_local_assembly import run_local_assembly_cpu
from repro.core.driver import GpuLocalAssembler
from repro.core.tasks import tasks_from_candidates
from repro.pipeline.alignment import align_reads
from repro.pipeline.contig_generation import generate_contigs
from repro.pipeline.kmer_analysis import analyze_kmers
from repro.pipeline.merge_reads import merge_read_pairs
from repro.sequence import arcticsynth_like, sample_paired_reads


def main(seed: int = 7) -> None:
    rng = np.random.default_rng(seed)
    community = arcticsynth_like(rng, n_genomes=3, genome_length=12_000)
    reads = sample_paired_reads(community, 3_000, rng)

    print("Upstream pipeline (merge -> k-mer analysis -> contigs -> alignment)...")
    merged, _ = merge_read_pairs(reads)
    classified = analyze_kmers(merged, 21, min_count=2, min_depth=2)
    contigs = generate_contigs(classified)
    aln = align_reads(contigs, reads)
    tasks = tasks_from_candidates(contigs, aln.candidates.values())
    print(f"  {len(contigs)} contigs, {len(tasks)} extension tasks")

    config = LocalAssemblyConfig(k_init=21, max_walk_len=200)
    bins = bin_contigs(tasks, config)
    f1, f2, f3 = bins.fractions()
    print(f"\n§3.1 bins: bin1 (0 reads) {100*f1:.1f}%, "
          f"bin2 (<10) {100*f2:.1f}%, bin3 {100*f3:.1f}%")

    print("\nCPU reference local assembly...")
    t0 = time.perf_counter()
    cpu_ext, _ = run_local_assembly_cpu(tasks, config)
    cpu_wall = time.perf_counter() - t0
    print(f"  {np.count_nonzero(cpu_ext.lengths())} ends extended, "
          f"{cpu_ext.codes.size} bp added, {cpu_wall:.2f} s wall")

    print("\nGPU (simulated V100) local assembly...")
    report = GpuLocalAssembler(config).run(tasks)
    assert report.extensions == cpu_ext, "GPU must match the CPU oracle"
    print("  results identical to CPU: OK")

    c = report.merged_counters()
    print(f"  warp instructions:   {c.warp_inst:,}")
    print(f"  L1 transactions:     {c.total_transactions:,}")
    print(f"  thread predication:  {100 * c.predication_ratio:.1f}%")
    print(f"  modelled V100 time:  {report.total_time_s * 1e3:.2f} ms "
          f"({report.n_batches} batch(es), "
          f"{report.high_water_bytes / 1e6:.1f} MB device high-water)")
    print(f"  bin3 kernel time:    {report.bin_kernel_time_s('bin3') * 1e3:.2f} ms "
          f"(launched first, §4.3)")
    print(f"  bin2 kernel time:    {report.bin_kernel_time_s('bin2') * 1e3:.2f} ms")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
