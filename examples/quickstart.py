"""Quickstart: assemble a small synthetic metagenome end to end.

Generates an arcticsynth-like community, samples paired-end reads, runs
the full MetaHipMer2-style pipeline (merge -> k-mer analysis -> contig
generation -> alignment -> local assembly -> scaffolding) and reports
assembly statistics.

Run:  python examples/quickstart.py [seed]
"""

import sys

import numpy as np

from repro.analysis.stats import assembly_stats, genome_fraction
from repro.pipeline.pipeline import PipelineConfig, run_pipeline
from repro.sequence import arcticsynth_like, sample_paired_reads


def main(seed: int = 42) -> None:
    rng = np.random.default_rng(seed)

    print("Generating community (4 genomes x ~20 kb)...")
    community = arcticsynth_like(rng, n_genomes=4, genome_length=20_000)
    for genome, abundance in zip(community.genomes, community.abundances):
        print(f"  {genome.name}: {len(genome):,} bp, abundance {abundance:.2f}")

    n_pairs = 6_000
    reads = sample_paired_reads(community, n_pairs, rng)
    cov = community.expected_coverage(n_pairs)
    print(f"\nSampled {len(reads):,} reads "
          f"(coverage {cov.min():.0f}x - {cov.max():.0f}x)")

    print("\nRunning the assembly pipeline (CPU local assembly)...")
    result = run_pipeline(reads, PipelineConfig(local_assembly_mode="cpu"))
    print(result.summary())

    print("\nAssembly statistics:")
    print(" ", assembly_stats(result.contigs.sequences()))
    if result.scaffolds:
        print("  scaffolds:", assembly_stats([s.seq for s in result.scaffolds.scaffolds]))

    print("\nPer-genome recovery (k-mer genome fraction):")
    for genome in community.genomes:
        frac = genome_fraction(result.contigs.sequences(), genome.seq, k=31)
        print(f"  {genome.name}: {100 * frac:.1f}%")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 42)
