"""Outside-in stage trace: ``run_pipeline`` replayed call by call.

The replay makes the same public calls ``run_pipeline`` makes, in the same
order with the same arguments, and wraps each in a span.  Nothing inside
``repro`` is instrumented; the replay's output digest must equal the
untraced run's, which is also what catches the replay drifting from
``run_pipeline``.  Only the configurations the benchmark's workloads use
are replayed (no checkpoint, no rank sanitizer).

A span is ``{id, run, name, parent, start_s, end_s, cpu_s, rss_mb}``:
wall start/end relative to the tracer's creation, user CPU (this process
plus reaped children) spent inside it, and ``ru_maxrss`` when it closed.
A span's self time is its ``cpu_s`` minus its children's.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager


def user_cpu_s() -> float:
    """User-mode CPU seconds of this process and every reaped child."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_utime
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    )


def peak_rss_mb() -> float:
    """Max resident set (MiB) over this process and its reaped children."""
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )


class Tracer:
    """In-memory span recorder; the caller writes ``spans`` out at exit."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "run": self.run_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start_s": time.perf_counter() - self._t0,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        cpu0 = user_cpu_s()
        try:
            yield rec
        finally:
            rec["cpu_s"] = user_cpu_s() - cpu0
            rec["end_s"] = time.perf_counter() - self._t0
            rec["rss_mb"] = peak_rss_mb()
            self._stack.pop()

    def cpu(self, name: str) -> float:
        """Summed ``cpu_s`` of every span called *name* (0 if none ran)."""
        return sum(s["cpu_s"] for s in self.spans if s["name"] == name)

    def rss_after(self, name: str) -> float:
        return max((s["rss_mb"] for s in self.spans if s["name"] == name), default=0.0)


def _self_cpu_s() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def _rank_layer(prefix: str, sent_key: str, reports: list) -> dict:
    """``distributed.<stage>.*`` from the stage's (stats, report, serial) calls."""
    per_rank = [m.cpu_s for _, rep, _ in reports for m in rep.per_rank]
    mean = sum(per_rank) / len(per_rank) if per_rank else 0.0
    return {
        f"{prefix}.cpu_s": sum(per_rank),
        f"{prefix}.serial_cpu_s": sum(serial for _, _, serial in reports),
        f"{prefix}.critical_cpu_s": sum(rep.cpu_critical_s for _, rep, _ in reports),
        f"{prefix}.exchange_wait_s": sum(
            max((m.exchange_s for m in rep.per_rank), default=0.0)
            for _, rep, _ in reports
        ),
        f"{prefix}.rank_imbalance": max(per_rank) / mean if mean else 0.0,
        f"{prefix}.{sent_key}": sum(st.total_kmers_sent for st, _, _ in reports),
    }


def traced_pipeline(reads, config, tracer: Tracer):
    """Replay ``run_pipeline(reads, config)`` under *tracer*.

    Returns ``(contigs, scaffolds, layers)`` where *layers* holds every
    per-layer count the stages' own reports give; the time metrics are
    derived from the spans by :func:`layer_metrics`.
    """
    from repro.core.binning import bin_contigs
    from repro.core.local_assembler import extend_tasks
    from repro.core.tasks import apply_extensions, tasks_from_candidates
    from repro.gpusim.counters import KernelCounters
    from repro.pipeline.alignment import (
        PackedSeedIndex,
        align_core,
        materialise_alignment,
    )
    from repro.pipeline.contig_generation import generate_contigs
    from repro.pipeline.contigs import Contig, ContigSet
    from repro.pipeline.insert_size import estimate_insert_size
    from repro.pipeline.kmer_analysis import classify_spectrum
    from repro.pipeline.kmer_counts import count_kmers
    from repro.pipeline.merge_reads import merge_read_pairs
    from repro.pipeline.scaffolding import build_scaffolds
    from repro.sequence.read import Read, ReadBatch

    layers: dict[str, float] = {}
    kmer_reports: list = []
    aln_reports: list = []
    inproc = 0

    def align(contigs):
        nonlocal inproc
        la = config.local_assembly
        with tracer.span("pipeline.alignment"):
            if config.aln_ranks > 1:
                from repro.distributed.procrank import ranked_align

                serial0 = _self_cpu_s()
                aln, stats, report = ranked_align(
                    contigs,
                    reads,
                    config.aln_ranks,
                    seed_len=config.seed_len,
                    read_seed_stride=config.read_seed_stride,
                    min_identity=config.min_identity,
                    min_overlap=config.min_overlap,
                    max_reads_per_end=la.max_reads_per_end,
                )
                aln_reports.append((stats, report, _self_cpu_s() - serial0))
                inproc |= report.mode == "inproc"
                return aln
            with tracer.span("pipeline.alignment.index_build"):
                index = PackedSeedIndex(contigs, seed_len=config.seed_len)
            with tracer.span("pipeline.alignment.align_core"):
                rows = align_core(
                    index,
                    reads,
                    read_seed_stride=config.read_seed_stride,
                    min_identity=config.min_identity,
                    min_overlap=config.min_overlap,
                )
            with tracer.span("pipeline.alignment.materialise"):
                return materialise_alignment(
                    rows, contigs, reads, la.max_reads_per_end
                )

    with tracer.span("pipeline.merge_reads"):
        merged, merge_stats = merge_read_pairs(reads)
    layers["pipeline.merge_reads.pairs"] = merge_stats.n_pairs
    layers["pipeline.merge_reads.merged_fraction"] = merge_stats.merge_rate

    contigs = ContigSet()
    counting_input = merged
    for round_idx, k in enumerate(config.k_series):
        with tracer.span("pipeline.kmer_analysis"):
            with tracer.span("pipeline.kmer_analysis.count"):
                if config.kmer_ranks > 1:
                    from repro.distributed.procrank import distributed_count_proc

                    serial0 = _self_cpu_s()
                    spectrum, stats, report = distributed_count_proc(
                        counting_input,
                        k,
                        config.kmer_ranks,
                        min_count=config.min_kmer_count,
                        min_qual=config.min_kmer_qual,
                    )
                    kmer_reports.append((stats, report, _self_cpu_s() - serial0))
                    inproc |= report.mode == "inproc"
                else:
                    spectrum = count_kmers(
                        counting_input,
                        k,
                        min_count=config.min_kmer_count,
                        min_qual=config.min_kmer_qual,
                    )
            with tracer.span("pipeline.kmer_analysis.classify"):
                classified = classify_spectrum(spectrum, config.min_depth)
        with tracer.span("pipeline.contig_generation"):
            contigs = generate_contigs(classified, config.min_contig_len)
        if round_idx + 1 < len(config.k_series) and len(contigs):
            # run_pipeline times this under no stage either
            pseudo = ReadBatch.from_reads(
                Read(f"contig_{c.cid}", c.seq, (41,) * len(c.seq)) for c in contigs
            )
            counting_input = ReadBatch.concat([merged, pseudo])
    layers["pipeline.kmer_analysis.distinct_kmers"] = len(classified)
    layers["pipeline.contig_generation.contigs"] = len(contigs)
    layers["pipeline.contig_generation.contig_bases"] = contigs.total_bases()

    aln = align(contigs)
    layers["pipeline.alignment.reads_aligned_fraction"] = (
        aln.n_reads_aligned / len(reads) if len(reads) else 0.0
    )
    layers["pipeline.alignment.candidate_reads"] = sum(
        c.n_reads for c in aln.candidates.values()
    )

    with tracer.span("core.local_assembly"):
        contig_seqs = {c.cid: c.seq for c in contigs}
        depth = {c.cid: c.depth for c in contigs}
        with tracer.span("core.tasks_build"):
            tasks = tasks_from_candidates(contig_seqs, aln.candidates.values())
        with tracer.span("core.extend_tasks"):
            extensions, report = extend_tasks(
                tasks,
                config=config.local_assembly,
                mode=config.local_assembly_mode,
                kernel_version=config.gpu_kernel_version,
                workers=config.local_assembly_workers,
                engine=config.local_assembly_engine,
                sanitize=config.local_assembly_sanitize,
                overlap=config.local_assembly_overlap,
                prefetch=config.local_assembly_prefetch,
                streams=config.local_assembly_streams,
                batch_cap=config.local_assembly_batch_cap,
                mem_budget=config.local_assembly_mem_budget,
                profile_host=config.local_assembly_profile_host,
            )
        with tracer.span("core.apply_extensions"):
            final = apply_extensions(contig_seqs, extensions)
            extended = ContigSet(
                [
                    Contig(cid=cid, seq=seq, depth=depth.get(cid, 1.0))
                    for cid, seq in sorted(final.items())
                ]
            )
    # one task per contig end, so a bin's share of contigs is its share of tasks
    bins = bin_contigs(tasks, config.local_assembly)
    layers["core.tasks"] = report.n_tasks
    layers["core.bin3_task_fraction"] = bins.fractions()[2]
    layers["core.extended_fraction"] = (
        report.n_extended / report.n_tasks if report.n_tasks else 0.0
    )
    layers["core.extension_bases"] = report.total_extension_bases
    cpu_stats = report.cpu_stats
    layers["core.cpu.inserts"] = cpu_stats.n_inserts if cpu_stats else 0
    layers["core.cpu.walk_steps"] = cpu_stats.n_walk_steps if cpu_stats else 0
    layers["core.cpu.rounds"] = cpu_stats.n_rounds if cpu_stats else 0
    gpu = report.gpu_report
    counters = gpu.merged_counters() if gpu else KernelCounters()
    layers["gpusim.launches"] = len(gpu.launches) if gpu else 0
    layers["gpusim.batches"] = gpu.n_batches if gpu else 0
    layers["gpusim.warps_launched"] = counters.n_warps_launched
    layers["gpusim.warp_inst"] = counters.warp_inst
    layers["gpusim.global_transactions"] = counters.global_transactions
    layers["gpusim.atomic_inst"] = counters.atomic_inst
    layers["gpusim.transfer_bytes"] = gpu.transfer_bytes if gpu else 0
    layers["gpusim.high_water_bytes"] = gpu.high_water_bytes if gpu else 0
    layers["gpusim.modelled_device_s"] = gpu.total_time_s if gpu else 0.0

    scaffolds = None
    if config.run_scaffolding and len(extended):
        aln2 = align(extended)
        with tracer.span("pipeline.scaffolding"):
            best = aln2.best_by_read()
            insert_mean = config.insert_mean
            if config.estimate_insert:
                with tracer.span("pipeline.scaffolding.insert_estimate"):
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
    layers["pipeline.scaffolding.scaffolds"] = (
        len(scaffolds.scaffolds) if scaffolds else 0
    )

    layers.update(_rank_layer("distributed.kmer", "records_sent", kmer_reports))
    layers["distributed.kmer.bytes_per_rank_max"] = max(
        (st.bytes_per_rank_max for st, _, _ in kmer_reports), default=0
    )
    layers.update(_rank_layer("distributed.align", "rows_sent", aln_reports))
    layers["distributed.inproc_fallback"] = int(inproc)
    return extended, scaffolds, layers


#: top-level spans: the stages whose shares must add up to the whole run
STAGES = (
    "pipeline.merge_reads",
    "pipeline.kmer_analysis",
    "pipeline.contig_generation",
    "pipeline.alignment",
    "core.local_assembly",
    "pipeline.scaffolding",
)

#: spans nested inside a stage, reported as ``<span>.cpu_s`` only
SUB_SPANS = (
    "pipeline.kmer_analysis.count",
    "pipeline.kmer_analysis.classify",
    "pipeline.alignment.index_build",
    "pipeline.alignment.align_core",
    "pipeline.alignment.materialise",
    "core.tasks_build",
    "core.extend_tasks",
    "core.apply_extensions",
    "pipeline.scaffolding.insert_estimate",
)


def layer_metrics(tracer: Tracer, layers: dict, total_cpu_s: float) -> dict:
    """Every traced per-layer metric: span times and shares plus *layers*."""
    out = dict(layers)
    for stage in STAGES:
        cpu = tracer.cpu(stage)
        out[f"{stage}.cpu_s"] = cpu
        out[f"{stage}.share"] = cpu / total_cpu_s if total_cpu_s else 0.0
        if stage != "pipeline.scaffolding":
            out[f"{stage}.rss_after_mb"] = tracer.rss_after(stage)
    for name in SUB_SPANS:
        out[f"{name}.cpu_s"] = tracer.cpu(name)
    warp_inst = out["gpusim.warp_inst"]
    out["gpusim.host_us_per_kwarp_inst"] = (
        out["core.extend_tasks.cpu_s"] * 1e6 / (warp_inst / 1e3) if warp_inst else 0.0
    )
    out["trace.spans"] = len(tracer.spans)
    return out
