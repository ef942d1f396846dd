"""The pipeline orchestrator: MetaHipMer2's workflow at laptop scale.

Runs the stages of Fig 1 in order:

    merge reads → [per k round: k-mer analysis → contig generation]
    → alignment → local assembly → (re)alignment → scaffolding

Merged reads feed k-mer analysis and contig generation (lower error, longer
pseudo-reads); the *original* paired reads drive alignment, local assembly
candidate recruitment and scaffolding, as in MHM2.  With multiple k rounds,
the contigs of round i are fed into round i+1's k-mer counting as
high-quality pseudo-reads (the iterative de Bruijn scheme).

Every stage's wall time is recorded under the paper's Fig 2 category names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import (
    ENGINE_MODES,
    KERNEL_VERSIONS,
    OVERLAP_MODES,
    RANK_SANITIZE_MODES,
    SANITIZE_MODES,
    LocalAssemblyConfig,
)
from repro.core.local_assembler import LocalAssemblyReport, extend_tasks
from repro.core.tasks import apply_extensions, tasks_from_candidates
from repro.heap import retain_freed_pages
from repro.pipeline.alignment import AlignmentResult, align_reads
from repro.pipeline.contig_generation import generate_contigs
from repro.pipeline.insert_size import estimate_insert_size
from repro.pipeline.kmer_analysis import analyze_kmers, classify_spectrum
from repro.pipeline.merge_reads import MergeStats, merge_read_pairs
from repro.pipeline.scaffolding import ScaffoldingResult, build_scaffolds
from repro.pipeline.stages import StageTimes
from repro.sequence.contigs import ContigSet
from repro.sequence.read import ReadBatch

__all__ = ["PipelineConfig", "AssemblyResult", "run_pipeline"]


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end assembly parameters."""

    #: k values of the iterative de Bruijn rounds (MHM2 default series is
    #: 21,33,55,77,99; one round is plenty at laptop scale).
    k_series: tuple[int, ...] = (21,)
    min_kmer_count: int = 2
    min_depth: int = 2
    #: mask bases below this Phred score in k-mer analysis (0 = off)
    min_kmer_qual: int = 0
    #: process ranks for k-mer analysis (1 = sequential in-process;
    #: >1 forks real rank processes with a shared-memory exchange —
    #: bit-identical spectrum, so checkpoints/cache keys are unaffected)
    kmer_ranks: int = 1
    #: concurrency checker for the rank exchange ("off" | "rankcheck"):
    #: vector-clock happens-before race detection over the shared
    #: segments plus a before/after segment-leak ledger
    kmer_sanitize: str = "off"
    min_contig_len: int | None = None
    # alignment
    seed_len: int = 17
    read_seed_stride: int = 8
    min_identity: float = 0.9
    min_overlap: int = 30
    #: process ranks for the alignment stage (1 = single-process batched
    #: aligner; >1 shards reads over forked ranks that share the seed
    #: index through broadcast shared-memory segments and exchange
    #: winner rows by contig owner — bit-identical AlignmentResult, so
    #: local assembly and scaffolding are unaffected)
    aln_ranks: int = 1
    # local assembly
    local_assembly: LocalAssemblyConfig = field(default_factory=LocalAssemblyConfig)
    local_assembly_mode: str = "cpu"  # "cpu" | "gpu"
    gpu_kernel_version: str = "v2"
    #: always 1: benchmarks/e2e/trace.py reads it; ROADMAP 1(c) deletes it
    local_assembly_workers: int = 1
    #: warp execution engine ("auto" | "sequential" | "batched")
    local_assembly_engine: str = "auto"
    #: dynamic checker mode ("off" | "memcheck" | "racecheck" |
    #: "initcheck" | "full") for the GPU local-assembly stage
    local_assembly_sanitize: str = "off"
    #: overlapped (double-buffered) GPU driver ("off" | "on"): stage
    #: batch N+1 while batch N executes, transfers overlap kernels
    local_assembly_overlap: str = "off"
    #: depth of the overlapped driver's pipeline (the memory budget
    #: splits prefetch + 1 ways; that many batches fuse per launch wave)
    local_assembly_prefetch: int = 1
    #: always 2: benchmarks/e2e/trace.py reads it; ROADMAP 1(c) deletes it
    local_assembly_streams: int = 2
    #: optional cap on tasks per GPU batch (None = memory-budget batching)
    local_assembly_batch_cap: int | None = None
    #: optional device-memory budget in bytes the GPU driver batches
    #: under (None = the device's full global memory); the job service
    #: sets this to enforce per-tenant memory budgets
    local_assembly_mem_budget: int | None = None
    #: record per-phase host wall-clock timings on the GPU report
    local_assembly_profile_host: bool = False
    # scaffolding
    insert_mean: float = 350.0
    #: estimate the insert size from same-contig pairs (MHM2 behaviour);
    #: falls back to ``insert_mean`` when too few proper pairs are seen
    estimate_insert: bool = True
    min_scaffold_support: int = 2
    run_scaffolding: bool = True

    def __post_init__(self) -> None:
        if not self.k_series:
            raise ValueError("k_series must contain at least one k")
        if any(k % 2 == 0 for k in self.k_series):
            raise ValueError("all k values must be odd")
        if self.local_assembly_mode not in ("cpu", "gpu"):
            raise ValueError("local_assembly_mode must be 'cpu' or 'gpu'")
        if self.gpu_kernel_version not in KERNEL_VERSIONS:
            raise ValueError(
                f"gpu_kernel_version must be one of {KERNEL_VERSIONS}"
            )
        if self.local_assembly_workers != 1:
            raise ValueError(
                f"local_assembly_workers must be 1, "
                f"got {self.local_assembly_workers!r}"
            )
        if self.kmer_ranks < 1:
            raise ValueError("kmer_ranks must be >= 1")
        if self.aln_ranks < 1:
            raise ValueError("aln_ranks must be >= 1")
        if self.kmer_sanitize not in RANK_SANITIZE_MODES:
            raise ValueError(
                f"kmer_sanitize must be one of {RANK_SANITIZE_MODES}"
            )
        if self.local_assembly_engine not in ENGINE_MODES:
            raise ValueError(
                f"local_assembly_engine must be one of {ENGINE_MODES}"
            )
        if self.local_assembly_sanitize not in SANITIZE_MODES:
            raise ValueError(
                f"local_assembly_sanitize must be one of {SANITIZE_MODES}"
            )
        if self.local_assembly_overlap not in OVERLAP_MODES:
            raise ValueError(
                f"local_assembly_overlap must be one of {OVERLAP_MODES}"
            )
        if self.local_assembly_prefetch < 1:
            raise ValueError("local_assembly_prefetch must be >= 1")
        if self.local_assembly_streams != 2:
            raise ValueError(
                f"local_assembly_streams must be 2, "
                f"got {self.local_assembly_streams!r}"
            )
        if (
            self.local_assembly_batch_cap is not None
            and self.local_assembly_batch_cap < 1
        ):
            raise ValueError("local_assembly_batch_cap must be >= 1 (or None)")
        if (
            self.local_assembly_mem_budget is not None
            and self.local_assembly_mem_budget < 1
        ):
            raise ValueError("local_assembly_mem_budget must be >= 1 (or None)")


@dataclass
class AssemblyResult:
    """Outputs and measurements of one pipeline run."""

    contigs: ContigSet
    scaffolds: ScaffoldingResult | None
    times: StageTimes
    merge_stats: MergeStats
    n_distinct_kmers: int
    alignment: AlignmentResult
    local_assembly: LocalAssemblyReport
    config: PipelineConfig
    #: SanitizerReport JSON of the rank exchange (kmer_sanitize mode;
    #: None when off or when the checkpoint skipped the k-mer stage)
    kmer_sanitizer: dict | None = None

    def summary(self) -> str:
        lines = [
            f"contigs: {len(self.contigs)} ({self.contigs.total_bases()} bp)",
            f"reads aligned: {self.alignment.n_reads_aligned}",
            f"contig ends extended: {self.local_assembly.n_extended} "
            f"(+{self.local_assembly.total_extension_bases} bp, "
            f"{self.local_assembly.mode})",
        ]
        if self.scaffolds is not None:
            lines.append(
                f"scaffolds: {len(self.scaffolds.scaffolds)} "
                f"({self.scaffolds.total_bases()} bp)"
            )
        lines.append("stage times:")
        lines.append(str(self.times))
        return "\n".join(lines)

    def write_fasta(self, directory: Path) -> None:
        """``contigs.fasta`` and, if scaffolding ran, ``scaffolds.fasta``."""
        from repro.sequence.fastq import write_fasta

        contigs = ((f"contig_{c.cid} depth={c.depth:.1f}", c.seq) for c in self.contigs)
        write_fasta(directory / "contigs.fasta", contigs)
        if self.scaffolds is not None:
            scaffolds = ((f"scaffold_{s.sid}", s.seq) for s in self.scaffolds.scaffolds)
            write_fasta(directory / "scaffolds.fasta", scaffolds)


def _align_stage(
    contigs: ContigSet, reads: ReadBatch, config: PipelineConfig
) -> AlignmentResult:
    """One alignment pass, routed through the ranked exchange when the
    config asks for it (output is bit-identical either way)."""
    if config.aln_ranks > 1:
        from repro.distributed.procrank import ranked_align

        aln, _, _ = ranked_align(
            contigs,
            reads,
            config.aln_ranks,
            seed_len=config.seed_len,
            read_seed_stride=config.read_seed_stride,
            min_identity=config.min_identity,
            min_overlap=config.min_overlap,
            max_reads_per_end=config.local_assembly.max_reads_per_end,
        )
        return aln
    return align_reads(
        contigs,
        reads,
        seed_len=config.seed_len,
        read_seed_stride=config.read_seed_stride,
        min_identity=config.min_identity,
        min_overlap=config.min_overlap,
        max_reads_per_end=config.local_assembly.max_reads_per_end,
    )


def run_pipeline(
    reads: ReadBatch,
    config: PipelineConfig | None = None,
    times: StageTimes | None = None,
    checkpoint_dir: str | None = None,
) -> AssemblyResult:
    """Assemble *reads* (an interleaved paired batch) end to end.

    *times* lets callers (e.g. the CLI) pre-accumulate stages the
    orchestrator does not own, such as "file IO".  With *checkpoint_dir*
    (MHM2's ``--checkpoint``), the contig-generation output is persisted
    and reused on reruns with identical reads + upstream parameters.
    The stages free their block arrays block by block, so the run first
    keeps freed heap pages for reuse (:func:`repro.heap.retain_freed_pages`).
    """
    retain_freed_pages()
    config = config or PipelineConfig()
    times = times if times is not None else StageTimes()

    resumed = None
    ckpt_key = ""
    if checkpoint_dir is not None:
        from repro.pipeline.checkpoint import checkpoint_key, load_contigs_checkpoint

        with times.stage("file IO"):
            ckpt_key = checkpoint_key(reads, config)
            resumed = load_contigs_checkpoint(checkpoint_dir, ckpt_key)

    # Merged reads only feed the de Bruijn prefix, which a checkpoint
    # replaces entirely — so a resumed run skips merging as well.
    merge_stats = MergeStats(n_pairs=len(reads) // 2, n_merged=0, mean_merged_length=0.0)
    if resumed is None:
        with times.stage("merge reads"):
            merged, merge_stats = merge_read_pairs(reads)

    contigs = ContigSet()
    n_distinct = 0
    kmer_sanitizer: dict | None = None
    if resumed is not None:
        contigs, n_distinct = resumed
    else:
        counting_input = merged
        for round_idx, k in enumerate(config.k_series):
            with times.stage("k-mer analysis"):
                if config.kmer_ranks > 1 or config.kmer_sanitize != "off":
                    # Real process ranks with a shared-memory exchange;
                    # the merged spectrum is bit-identical to the
                    # sequential count, so everything downstream
                    # (contigs, checkpoints, cache keys) is unchanged.
                    from repro.distributed.procrank import distributed_count_proc

                    spectrum, _, rank_report = distributed_count_proc(
                        counting_input,
                        k,
                        config.kmer_ranks,
                        min_count=config.min_kmer_count,
                        min_qual=config.min_kmer_qual,
                        sanitize=config.kmer_sanitize,
                    )
                    if rank_report.sanitizer is not None:
                        # keep the worst round: any round with findings
                        # must survive to the result
                        if (
                            kmer_sanitizer is None
                            or rank_report.sanitizer["n_errors"]
                        ):
                            kmer_sanitizer = rank_report.sanitizer
                    classified = classify_spectrum(spectrum, config.min_depth)
                else:
                    classified = analyze_kmers(
                        counting_input,
                        k,
                        min_count=config.min_kmer_count,
                        min_depth=config.min_depth,
                        min_qual=config.min_kmer_qual,
                    )
                n_distinct = len(classified)
            with times.stage("contig generation"):
                contigs = generate_contigs(classified, config.min_contig_len)
            if round_idx + 1 < len(config.k_series) and len(contigs):
                # round-i contigs as high-quality pseudo-reads for round i+1
                q41 = np.full(contigs.codes.size, 41, dtype=np.uint8)
                pseudo = ReadBatch(contigs.codes, q41, contigs.offsets)
                counting_input = ReadBatch.concat([merged, pseudo])
        if checkpoint_dir is not None:
            from repro.pipeline.checkpoint import save_contigs_checkpoint

            with times.stage("file IO"):
                save_contigs_checkpoint(checkpoint_dir, contigs, ckpt_key, n_distinct)

    with times.stage("alignment"):
        aln = _align_stage(contigs, reads, config)

    with times.stage("local assembly"):
        tasks = tasks_from_candidates(contigs, aln.candidates.values())
        extensions, la_report = extend_tasks(
            tasks,
            config=config.local_assembly,
            mode=config.local_assembly_mode,
            kernel_version=config.gpu_kernel_version,
            engine=config.local_assembly_engine,
            sanitize=config.local_assembly_sanitize,
            overlap=config.local_assembly_overlap,
            prefetch=config.local_assembly_prefetch,
            batch_cap=config.local_assembly_batch_cap,
            mem_budget=config.local_assembly_mem_budget,
            profile_host=config.local_assembly_profile_host,
        )
        extended = apply_extensions(contigs, extensions)

    scaffolds: ScaffoldingResult | None = None
    if config.run_scaffolding and len(extended):
        # Re-align against the extended contigs: local assembly shifted
        # coordinates, and scaffolding needs accurate end distances.
        with times.stage("alignment"):
            aln2 = _align_stage(extended, reads, config)
        with times.stage("scaffolding"):
            best = aln2.best_by_read()
            insert_mean = config.insert_mean
            if config.estimate_insert:
                est = estimate_insert_size(best, reads.lengths())
                if est.reliable:
                    insert_mean = est.mean
            scaffolds = build_scaffolds(
                extended,
                best,
                reads.lengths(),
                insert_mean=insert_mean,
                min_support=config.min_scaffold_support,
            )

    return AssemblyResult(
        contigs=extended,
        scaffolds=scaffolds,
        times=times,
        merge_stats=merge_stats,
        n_distinct_kmers=n_distinct,
        alignment=aln,
        local_assembly=la_report,
        config=config,
        kmer_sanitizer=kmer_sanitizer,
    )
