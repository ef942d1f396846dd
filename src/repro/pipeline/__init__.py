"""The MetaHipMer2-style assembly pipeline (Fig 1 of the paper).

Re-exports what a default run executes.  The checkpoint store
(:mod:`repro.pipeline.checkpoint`) is imported from its own module: a run
loads it only when ``checkpoint_dir`` is set.
"""

from repro.pipeline.insert_size import InsertSizeEstimate, estimate_insert_size
from repro.pipeline.alignment import (
    AlignmentResult,
    BestPlacements,
    CandidateReads,
    ContigCandidates,
    ReadAlignment,
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
from repro.pipeline.stages import STAGES, StageTimes

__all__ = [
    "InsertSizeEstimate",
    "estimate_insert_size",
    "AlignmentResult",
    "BestPlacements",
    "CandidateReads",
    "ContigCandidates",
    "ReadAlignment",
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
]
