"""Assembly statistics and experiment reporting."""

from repro.analysis.reporting import format_fractions, format_table, paper_vs_measured
from repro.analysis.stats import AssemblyStats, assembly_stats, genome_fraction, nx
from repro.analysis.validation import (
    ContigEvaluation,
    ReferenceReport,
    evaluate_against_references,
)

__all__ = [
    "format_fractions",
    "format_table",
    "paper_vs_measured",
    "AssemblyStats",
    "assembly_stats",
    "genome_fraction",
    "nx",
    "ContigEvaluation",
    "ReferenceReport",
    "evaluate_against_references",
]
