"""High-level local-assembly API used by the pipeline orchestrator.

``extend_contigs`` takes contigs + per-end candidate reads, runs either the
CPU reference or the (simulated) GPU implementation, and returns the
extended contig set along with a mode-appropriate report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.config import LocalAssemblyConfig
from repro.core.cpu_local_assembly import CpuAssemblyStats, run_local_assembly_cpu
from repro.core.tasks import TaskSet, apply_extensions, tasks_from_candidates

if TYPE_CHECKING:
    # the GPU driver and the simulator load in the ``mode == "gpu"``
    # branch only — a CPU run never imports them
    from repro.core.driver import GpuLocalAssemblyReport
    from repro.gpusim.device import DeviceSpec

    # avoid a circular import: pipeline.pipeline imports us
    from repro.pipeline.contigs import ContigSet

__all__ = ["LocalAssemblyReport", "extend_contigs", "extend_tasks"]


@dataclass
class LocalAssemblyReport:
    """Summary of one local-assembly round."""

    mode: str  # "cpu" or "gpu"
    n_tasks: int
    n_extended: int
    total_extension_bases: int
    wall_time_s: float
    cpu_stats: CpuAssemblyStats | None = None
    gpu_report: GpuLocalAssemblyReport | None = None


def extend_tasks(
    tasks: TaskSet,
    config: LocalAssemblyConfig | None = None,
    mode: str = "cpu",
    device: DeviceSpec | None = None,
    kernel_version: str = "v2",
    workers: int = 1,
    engine: str = "auto",
    sanitize: str = "off",
    overlap: str = "off",
    prefetch: int = 1,
    streams: int = 2,
    batch_cap: int | None = None,
    mem_budget: int | None = None,
    profile_host: bool = False,
) -> tuple[dict[tuple[int, int], str], LocalAssemblyReport]:
    """Run local assembly over a prepared task set.

    Returns ``({(cid, side): extension}, report)``.  GPU and CPU modes
    produce identical extensions by construction.  *device* (GPU mode
    only) defaults to the V100.
    """
    config = config or LocalAssemblyConfig()
    t0 = time.perf_counter()
    if mode == "cpu":
        extensions, stats = run_local_assembly_cpu(tasks, config)
        wall = time.perf_counter() - t0
        report = LocalAssemblyReport(
            mode="cpu",
            n_tasks=len(tasks),
            n_extended=stats.n_extended,
            total_extension_bases=stats.total_extension_bases,
            wall_time_s=wall,
            cpu_stats=stats,
        )
        return extensions, report
    if mode == "gpu":
        from repro.core.driver import GpuLocalAssembler
        from repro.gpusim.device import V100

        assembler = GpuLocalAssembler(
            config=config,
            device=device if device is not None else V100,
            kernel_version=kernel_version,
            workers=workers,
            engine=engine,
            sanitize=sanitize,
            overlap=overlap,
            prefetch=prefetch,
            streams=streams,
            batch_cap=batch_cap,
            mem_budget=mem_budget,
            profile_host=profile_host,
        )
        gpu = assembler.run(tasks)
        wall = time.perf_counter() - t0
        report = LocalAssemblyReport(
            mode="gpu",
            n_tasks=len(tasks),
            n_extended=gpu.n_extended(),
            total_extension_bases=sum(len(e) for e in gpu.extensions.values()),
            wall_time_s=wall,
            gpu_report=gpu,
        )
        return gpu.extensions, report
    raise ValueError(f"mode must be 'cpu' or 'gpu', got {mode!r}")


def extend_contigs(
    contigs: "ContigSet",
    candidates: Mapping[int, object] | Iterable,
    config: LocalAssemblyConfig | None = None,
    mode: str = "cpu",
    device: DeviceSpec | None = None,
    kernel_version: str = "v2",
    workers: int = 1,
    engine: str = "auto",
    sanitize: str = "off",
    overlap: str = "off",
    prefetch: int = 1,
    streams: int = 2,
    batch_cap: int | None = None,
    mem_budget: int | None = None,
    profile_host: bool = False,
) -> tuple["ContigSet", LocalAssemblyReport]:
    """Extend a contig set using per-contig candidate reads.

    *candidates* is a mapping cid -> candidate container (or an iterable of
    containers) with ``cid``/``left``/``right`` attributes, as produced by
    :func:`repro.pipeline.alignment.align_reads`.
    """
    from repro.pipeline.contigs import Contig, ContigSet

    cand_iter = candidates.values() if isinstance(candidates, Mapping) else candidates
    contig_seqs = {c.cid: c.seq for c in contigs}
    depth = {c.cid: c.depth for c in contigs}
    tasks = tasks_from_candidates(contig_seqs, cand_iter)
    extensions, report = extend_tasks(
        tasks,
        config=config,
        mode=mode,
        device=device,
        kernel_version=kernel_version,
        workers=workers,
        engine=engine,
        sanitize=sanitize,
        overlap=overlap,
        prefetch=prefetch,
        streams=streams,
        batch_cap=batch_cap,
        mem_budget=mem_budget,
        profile_host=profile_host,
    )
    final = apply_extensions(contig_seqs, extensions)
    out = ContigSet(
        [Contig(cid=cid, seq=seq, depth=depth.get(cid, 1.0)) for cid, seq in sorted(final.items())]
    )
    return out, report
