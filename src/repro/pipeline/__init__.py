"""The MetaHipMer2-style assembly pipeline (Fig 1 of the paper)."""

from repro.pipeline.aln_kernel import AlnScore, smith_waterman_banded, ungapped_align
from repro.pipeline.aln_kernel_gpu import gpu_align_batch
from repro.pipeline.insert_size import InsertSizeEstimate, estimate_insert_size
from repro.pipeline.alignment import (
    AlignmentResult,
    CandidateReads,
    ContigCandidates,
    ReadAlignment,
    SeedIndex,
    align_reads,
)
from repro.pipeline.contig_generation import generate_contigs
from repro.pipeline.contigs import Contig, ContigSet
from repro.pipeline.kmer_analysis import (
    ClassifiedKmers,
    ExtVerdict,
    analyze_kmers,
    classify_extensions,
)
from repro.pipeline.kmer_counts import KmerSpectrum, count_kmers
from repro.pipeline.merge_reads import MergeStats, find_overlap, merge_read_pairs
from repro.pipeline.pipeline import AssemblyResult, PipelineConfig, run_pipeline
from repro.pipeline.scaffolding import (
    Scaffold,
    ScaffoldingResult,
    build_scaffolds,
)
from repro.pipeline.checkpoint import (
    checkpoint_key,
    load_contigs_checkpoint,
    save_contigs_checkpoint,
)
from repro.pipeline.stages import STAGES, StageTimes

__all__ = [
    "AlnScore",
    "gpu_align_batch",
    "InsertSizeEstimate",
    "estimate_insert_size",
    "smith_waterman_banded",
    "ungapped_align",
    "AlignmentResult",
    "CandidateReads",
    "ContigCandidates",
    "ReadAlignment",
    "SeedIndex",
    "align_reads",
    "generate_contigs",
    "Contig",
    "ContigSet",
    "ClassifiedKmers",
    "ExtVerdict",
    "analyze_kmers",
    "classify_extensions",
    "KmerSpectrum",
    "count_kmers",
    "MergeStats",
    "find_overlap",
    "merge_read_pairs",
    "AssemblyResult",
    "PipelineConfig",
    "run_pipeline",
    "Scaffold",
    "ScaffoldingResult",
    "build_scaffolds",
    "STAGES",
    "StageTimes",
    "checkpoint_key",
    "load_contigs_checkpoint",
    "save_contigs_checkpoint",
]
