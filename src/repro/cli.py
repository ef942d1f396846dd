"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    Synthesise a metagenome community: interleaved paired-end FASTQ,
    reference genomes FASTA and an abundance table.
``assemble``
    Assemble an interleaved FASTQ end to end (CPU or simulated-GPU local
    assembly); writes contigs/scaffolds FASTA and a stage-time report
    (including the "file IO" stage, measured around the actual reads).
``stats``
    N50-style statistics for FASTA files.
``scale``
    Print the Summit-scale projections (Figs 13/14 tables and the Fig 2
    stage shares) for the WA or arcticsynth profile.
``lint``
    Static kernel-hygiene lint (twin parity, banned impure calls,
    discarded atomics) over the simulated-kernel source tree; with
    ``--concurrency``, the process-rank concurrency rules (segment and
    claim lifecycle pairing, fork safety, barrier-abort pairing)
    instead.  ``--json`` emits the sanitizer-report schema for CI.
``serve`` / ``submit`` / ``jobs`` / ``cancel``
    The multi-tenant assembly job service: a daemon draining a durable
    file-backed queue over a simulated GPU fleet, with admission
    control, per-tenant memory budgets, checkpoint/resume and a result
    cache (see :mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


_BYTE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def _byte_size(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix (e.g. ``512M``)."""
    raw = text.strip().lower().rstrip("b")
    mult = 1
    if raw and raw[-1] in _BYTE_SUFFIXES:
        mult = _BYTE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(raw) * mult
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a byte size: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 byte, got {text!r}")
    return value


def _tenant_budget(text: str) -> tuple[str, int]:
    """Parse a ``TENANT=BYTES`` budget assignment."""
    tenant, sep, raw = text.partition("=")
    if not sep or not tenant:
        raise argparse.ArgumentTypeError(
            f"expected TENANT=BYTES, got {text!r}"
        )
    return tenant, _byte_size(raw)


def build_parser() -> argparse.ArgumentParser:
    from repro.core.config import (
        ENGINE_MODES,
        KERNEL_VERSIONS,
        OVERLAP_MODES,
        SANITIZE_MODES,
    )
    from repro.service.service import WORKER_MODES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SC'21 GPU metagenome local-assembly reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesise a community + reads")
    gen.add_argument("--out", type=Path, required=True, help="output directory")
    gen.add_argument("--preset", choices=["arcticsynth", "wa"], default="arcticsynth")
    gen.add_argument("--genomes", type=int, default=4)
    gen.add_argument("--genome-length", type=int, default=20_000)
    gen.add_argument("--pairs", type=int, default=5_000)
    gen.add_argument("--seed", type=int, default=0)

    asm = sub.add_parser("assemble", help="assemble an interleaved FASTQ")
    asm.add_argument("reads", type=Path, help="interleaved paired-end FASTQ(.gz)")
    asm.add_argument("--out", type=Path, required=True, help="output directory")
    asm.add_argument("--k", type=int, nargs="+", default=[21], help="k-mer series")
    asm.add_argument("--mode", choices=["cpu", "gpu"], default="cpu",
                     help="local assembly implementation")
    asm.add_argument("--min-kmer-count", type=int, default=2)
    asm.add_argument("--no-scaffold", action="store_true")
    asm.add_argument("--max-reads-per-end", type=int, default=3000,
                     help="candidate-read cap per contig end (paper: 3000)")
    asm.add_argument("--checkpoint", action="store_true",
                     help="persist/reuse the contig-generation checkpoint "
                          "in the output directory (MHM2 --checkpoint)")
    asm.add_argument("--engine", choices=ENGINE_MODES, default="auto",
                     help="warp execution engine (gpu mode; 'auto' resolves to "
                          "'batched' — the lockstep SoA engine; 'sequential' "
                          "interprets one warp at a time)")
    asm.add_argument("--sanitize", choices=SANITIZE_MODES + ("rankcheck",),
                     default="off",
                     help="dynamic checkers: memcheck/racecheck/initcheck "
                          "instrument the simulated GPU kernels (gpu mode); "
                          "'rankcheck' instruments the process-rank k-mer "
                          "exchange instead (vector-clock cross-rank race "
                          "detection + segment-leak ledger; writes "
                          "sanitizer_rank.json next to the contigs)")
    asm.add_argument("--overlap", choices=OVERLAP_MODES, default="off",
                     help="double-buffered GPU driver (gpu mode): stage batch "
                          "N+1 while batch N executes, overlap transfers with "
                          "kernels on streams")
    asm.add_argument("--prefetch", type=_positive_int, default=1,
                     help="staging depth of the overlapped driver")
    asm.add_argument("--batch-cap", type=_positive_int, default=None,
                     help="cap tasks per GPU batch (default: memory-budget "
                          "batching only)")
    asm.add_argument("--mem-budget", type=_byte_size, default=None,
                     help="device-memory budget the GPU driver batches "
                          "under (bytes, K/M/G suffix ok; default: the "
                          "device's full global memory)")
    asm.add_argument("--profile-host", action="store_true",
                     help="print per-phase host wall-clock timings "
                          "(stage/upload/dispatch/unpack/free) after the run")
    asm.add_argument("--ranks", type=_positive_int, default=1,
                     help="process ranks for k-mer analysis (>1 forks real "
                          "rank processes with a shared-memory exchange; "
                          "bit-identical output at every rank count)")
    asm.add_argument("--aln-ranks", type=_positive_int, default=1,
                     help="process ranks for the alignment stage (>1 shards "
                          "reads over forked ranks sharing the seed index "
                          "through broadcast shared-memory segments; "
                          "bit-identical output at every rank count)")

    st = sub.add_parser("stats", help="assembly statistics for FASTA files")
    st.add_argument("fastas", type=Path, nargs="+")

    dmp = sub.add_parser(
        "dump-localassm",
        help="run the pipeline up to alignment and dump the local-assembly "
             "inputs (the paper's §4.1 standalone methodology)",
    )
    dmp.add_argument("reads", type=Path, help="interleaved paired-end FASTQ(.gz)")
    dmp.add_argument("--out", type=Path, required=True, help="output .npz dump")
    dmp.add_argument("--k", type=int, default=21)

    la = sub.add_parser(
        "localassm",
        help="run local assembly standalone on a dump (CPU or simulated GPU)",
    )
    la.add_argument("dump", type=Path, help=".npz dump from dump-localassm")
    la.add_argument("--mode", choices=["cpu", "gpu"], default="gpu")
    la.add_argument("--kernel", choices=KERNEL_VERSIONS, default="v2")
    la.add_argument("--k-init", type=int, default=21)
    la.add_argument("--engine", choices=ENGINE_MODES, default="auto",
                    help="warp execution engine (gpu mode; 'auto' resolves to "
                         "'batched' — the lockstep SoA engine; 'sequential' "
                         "interprets one warp at a time)")
    la.add_argument("--sanitize", choices=SANITIZE_MODES, default="off",
                    help="dynamic kernel checkers (gpu mode; compute-"
                         "sanitizer analogue: memcheck/racecheck/initcheck)")
    la.add_argument("--overlap", choices=OVERLAP_MODES, default="off",
                    help="double-buffered GPU driver: stage batch N+1 while "
                         "batch N executes, overlap transfers with kernels")
    la.add_argument("--prefetch", type=_positive_int, default=1,
                    help="staging depth of the overlapped driver")
    la.add_argument("--batch-cap", type=_positive_int, default=None,
                    help="cap tasks per GPU batch (default: memory-budget "
                         "batching only)")
    la.add_argument("--mem-budget", type=_byte_size, default=None,
                    help="device-memory budget the driver batches under "
                         "(bytes, K/M/G suffix ok)")
    la.add_argument("--profile-host", action="store_true",
                    help="print per-phase host wall-clock timings "
                         "(stage/upload/dispatch/unpack/free) after the run")
    la.add_argument("--trace", type=Path, default=None,
                    help="write the run's stream timeline as a "
                         "chrome://tracing / Perfetto JSON file")

    sc = sub.add_parser("scale", help="Summit-scale projections")
    sc.add_argument("--dataset", choices=["wa", "arcticsynth"], default="wa")
    sc.add_argument("--nodes", type=int, nargs="+", default=None)

    srv = sub.add_parser(
        "serve",
        help="run the multi-tenant assembly job service over a service dir",
    )
    srv.add_argument("--dir", type=Path, required=True, dest="service_dir",
                     help="service directory (queue + cache + limits)")
    srv.add_argument("--gpus", type=_positive_int, default=2,
                     help="fleet size: concurrent jobs, one simulated GPU "
                          "each")
    srv.add_argument("--max-queued", type=_positive_int, default=64,
                     help="admission control: maximum queued jobs before "
                          "submissions are shed")
    srv.add_argument("--default-mem-budget", type=_byte_size, default=None,
                     help="per-job device-memory budget when the submission "
                          "does not set one (bytes, K/M/G suffix ok)")
    srv.add_argument("--tenant-budget", type=_tenant_budget, action="append",
                     default=[], metavar="TENANT=BYTES",
                     help="cap on device memory a tenant's running jobs may "
                          "hold concurrently (repeatable)")
    srv.add_argument("--poll", type=float, default=0.2,
                     help="daemon poll interval in seconds")
    srv.add_argument("--workers", choices=WORKER_MODES, default="thread",
                     help="fleet executor: 'thread' shares the GIL across "
                          "slots; 'process' forks one interpreter per slot "
                          "so jobs run truly concurrently")
    srv.add_argument("--once", action="store_true",
                     help="recover mid-flight jobs, drain the queue, exit "
                          "(instead of serving forever)")

    sm = sub.add_parser("submit", help="submit an assembly job to a service")
    sm.add_argument("reads", type=Path, help="interleaved paired-end FASTQ(.gz)")
    sm.add_argument("--dir", type=Path, required=True, dest="service_dir",
                    help="service directory (shared with `repro serve`)")
    sm.add_argument("--tenant", default="default", help="submitting tenant")
    sm.add_argument("--k", type=int, nargs="+", default=None,
                    help="k-mer series override")
    sm.add_argument("--mode", choices=["cpu", "gpu"], default="gpu",
                    help="local assembly implementation")
    sm.add_argument("--engine", choices=ENGINE_MODES, default="auto",
                    help="warp execution engine (gpu mode)")
    sm.add_argument("--overlap", choices=OVERLAP_MODES, default="off",
                    help="double-buffered GPU driver")
    sm.add_argument("--no-scaffold", action="store_true")
    sm.add_argument("--profile-host", action="store_true",
                    help="include the host-path profile in the job report")
    sm.add_argument("--mem-budget", type=_byte_size, default=None,
                    help="device-memory budget for this job (bytes, K/M/G "
                         "suffix ok)")

    jb = sub.add_parser("jobs", help="list the jobs of a service directory")
    jb.add_argument("--dir", type=Path, required=True, dest="service_dir")
    jb.add_argument("--json", action="store_true", dest="as_json",
                    help="emit the machine-readable job reports as JSON")

    cn = sub.add_parser("cancel", help="cancel a queued or running job")
    cn.add_argument("job_id", help="job id as printed by submit/jobs")
    cn.add_argument("--dir", type=Path, required=True, dest="service_dir")

    ln = sub.add_parser("lint", help="static kernel-hygiene lint")
    ln.add_argument("paths", type=Path, nargs="*",
                    help="files or directories to lint (default: the "
                         "repro kernel tree core/+gpusim/, or the "
                         "concurrency surface with --concurrency)")
    ln.add_argument("--concurrency", action="store_true",
                    help="run the process-rank concurrency rules instead "
                         "(segment/claim lifecycle pairing, lock-across-"
                         "fork, rank nondeterminism, barrier-abort "
                         "pairing)")
    ln.add_argument("--json", action="store_true", dest="as_json",
                    help="emit a sanitizer-schema JSON report (the same "
                         "shape the dynamic checkers produce, so CI "
                         "archives one artifact format)")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.sequence import (
        arcticsynth_like,
        sample_paired_reads,
        wa_like,
        write_fasta,
    )
    from repro.sequence.fastq import save_read_batch

    rng = np.random.default_rng(args.seed)
    maker = arcticsynth_like if args.preset == "arcticsynth" else wa_like
    community = maker(rng, n_genomes=args.genomes, genome_length=args.genome_length)
    reads = sample_paired_reads(community, args.pairs, rng)

    args.out.mkdir(parents=True, exist_ok=True)
    n = save_read_batch(args.out / "reads.fastq", reads)
    write_fasta(args.out / "refs.fasta", [(g.name, g.seq) for g in community.genomes])
    with open(args.out / "abundances.tsv", "w") as fh:
        fh.write("genome\tlength\tabundance\n")
        for g, a in zip(community.genomes, community.abundances):
            fh.write(f"{g.name}\t{len(g)}\t{a:.6f}\n")
    print(f"wrote {n} reads, {len(community.genomes)} reference genomes -> {args.out}")
    return 0


def _cmd_assemble(args: argparse.Namespace) -> int:
    from repro.core.config import LocalAssemblyConfig
    from repro.pipeline.pipeline import PipelineConfig, run_pipeline
    from repro.pipeline.stages import StageTimes
    from repro.sequence.fastq import load_read_batch, write_fasta

    times = StageTimes()
    try:
        with times.stage("file IO"):
            reads = load_read_batch(args.reads, paired=True)
    except ValueError as exc:
        print(f"error: {args.reads} is not interleaved paired-end FASTQ ({exc})",
              file=sys.stderr)
        return 2
    print(f"loaded {len(reads):,} reads from {args.reads}")

    rankcheck = args.sanitize == "rankcheck"
    config = PipelineConfig(
        k_series=tuple(args.k),
        min_kmer_count=args.min_kmer_count,
        kmer_ranks=args.ranks,
        kmer_sanitize="rankcheck" if rankcheck else "off",
        aln_ranks=args.aln_ranks,
        local_assembly_mode=args.mode,
        local_assembly=LocalAssemblyConfig(max_reads_per_end=args.max_reads_per_end),
        local_assembly_engine=args.engine,
        local_assembly_sanitize="off" if rankcheck else args.sanitize,
        local_assembly_overlap=args.overlap,
        local_assembly_prefetch=args.prefetch,
        local_assembly_batch_cap=args.batch_cap,
        local_assembly_mem_budget=args.mem_budget,
        local_assembly_profile_host=args.profile_host,
        run_scaffolding=not args.no_scaffold,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    ckpt = str(args.out) if args.checkpoint else None
    result = run_pipeline(reads, config, times=times, checkpoint_dir=ckpt)

    with times.stage("file IO"):
        write_fasta(
            args.out / "contigs.fasta",
            ((f"contig_{c.cid} depth={c.depth:.1f}", c.seq) for c in result.contigs),
        )
        if result.scaffolds is not None:
            write_fasta(
                args.out / "scaffolds.fasta",
                ((f"scaffold_{s.sid}", s.seq) for s in result.scaffolds.scaffolds),
            )
    report = result.summary()
    (args.out / "report.txt").write_text(report + "\n")
    print(report)
    if rankcheck:
        san = result.kmer_sanitizer
        if san is None:
            # checkpoint resume skipped the k-mer stage entirely
            print("rankcheck: k-mer stage skipped (checkpoint resume), "
                  "no exchange to check")
        else:
            (args.out / "sanitizer_rank.json").write_text(
                json.dumps(san, indent=2) + "\n"
            )
            print(f"rankcheck: {san['n_errors']} error(s), "
                  f"{san['n_checked']:,} accesses checked "
                  f"-> {args.out / 'sanitizer_rank.json'}")
            if san["n_errors"]:
                for err in san["errors"]:
                    print(f"  [{err['checker']}:{err['kind']}] {err['message']}",
                          file=sys.stderr)
                return 1
    print(f"\noutputs -> {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis.stats import assembly_stats
    from repro.sequence.fastq import read_fasta

    for path in args.fastas:
        seqs = [seq for _, seq in read_fasta(path)]
        print(f"{path}: {assembly_stats(seqs)}")
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_fractions, format_table
    from repro.distributed.strong_scaling import (
        PAPER_NODES,
        la_scaling_table,
        pipeline_scaling_table,
    )
    from repro.distributed.summit import (
        ARCTICSYNTH_PROFILE,
        WA_PROFILE,
        SummitScaleModel,
    )

    profile = WA_PROFILE if args.dataset == "wa" else ARCTICSYNTH_PROFILE
    nodes = tuple(args.nodes) if args.nodes else (
        PAPER_NODES if args.dataset == "wa" else (2, 4, 8)
    )
    model = SummitScaleModel(profile=profile)

    rows = [
        (r.nodes, f"{r.cpu_s:.1f}", f"{r.gpu_s:.1f}", f"{r.speedup:.2f}x")
        for r in la_scaling_table(nodes=nodes, profile=profile)
    ]
    print(format_table(["nodes", "CPU LA (s)", "GPU LA (s)", "speedup"], rows,
                       f"local assembly strong scaling ({profile.name})"))
    print()
    rows = [
        (r.nodes, f"{r.cpu_s:.0f}", f"{r.gpu_s:.0f}", f"{100 * (r.speedup - 1):.0f}%")
        for r in pipeline_scaling_table(nodes=nodes, profile=profile)
    ]
    print(format_table(["nodes", "pipeline CPU-LA (s)", "pipeline GPU-LA (s)", "gain"],
                       rows, f"whole-pipeline strong scaling ({profile.name})"))
    print()
    ref = profile.ref_nodes
    print(format_fractions(model.profile_fractions(ref, False),
                           f"stage shares @{ref} nodes (CPU local assembly)"))
    return 0


def _cmd_dump_localassm(args: argparse.Namespace) -> int:
    from repro.core.dump import save_tasks
    from repro.core.tasks import tasks_from_candidates
    from repro.pipeline.alignment import align_reads
    from repro.pipeline.contig_generation import generate_contigs
    from repro.pipeline.kmer_analysis import analyze_kmers
    from repro.pipeline.merge_reads import merge_read_pairs
    from repro.sequence.fastq import load_read_batch

    reads = load_read_batch(args.reads, paired=True)
    merged, _ = merge_read_pairs(reads)
    classified = analyze_kmers(merged, args.k, min_count=2, min_depth=2)
    contigs = generate_contigs(classified)
    aln = align_reads(contigs, reads)
    tasks = tasks_from_candidates(
        {c.cid: c.seq for c in contigs}, aln.candidates.values()
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_tasks(args.out, tasks)
    print(f"dumped {len(tasks)} extension tasks "
          f"({len(contigs)} contigs, k={args.k}) -> {args.out}")
    return 0


def _cmd_localassm(args: argparse.Namespace) -> int:
    from repro.core.binning import bin_contigs
    from repro.core.config import LocalAssemblyConfig
    from repro.core.dump import load_tasks
    from repro.core.local_assembler import extend_tasks

    tasks = load_tasks(args.dump)
    config = LocalAssemblyConfig(k_init=args.k_init)
    bins = bin_contigs(tasks, config)
    f1, f2, f3 = bins.fractions()
    print(f"{len(tasks)} tasks; bins: {100*f1:.1f}% / {100*f2:.1f}% / {100*f3:.2f}%")

    _, report = extend_tasks(
        tasks,
        config=config,
        mode=args.mode,
        kernel_version=args.kernel,
        engine=args.engine,
        sanitize=args.sanitize,
        overlap=args.overlap,
        prefetch=args.prefetch,
        batch_cap=args.batch_cap,
        mem_budget=args.mem_budget,
        profile_host=args.profile_host,
    )
    print(f"{report.n_extended} ends extended "
          f"(+{report.total_extension_bases} bp) in {report.wall_time_s:.2f} s wall")
    if report.gpu_report is not None:
        g = report.gpu_report
        c = g.merged_counters()
        print(f"kernel {args.kernel}: {c.warp_inst:,} warp inst, "
              f"{c.total_transactions:,} transactions, "
              f"{100*c.predication_ratio:.1f}% predicated")
        print(f"modelled V100 time {g.total_time_s*1e3:.2f} ms serial, "
              f"critical path {g.critical_path_s*1e3:.2f} ms "
              f"(overlap {g.overlap}), {g.n_batches} batch(es), "
              f"{g.high_water_bytes/1e6:.1f} MB device high-water")
        if g.host_profile is not None:
            print(g.host_profile.format_summary())
        if args.trace is not None:
            g.timeline.save_chrome_trace(args.trace)
            if g.host_profile is not None:
                # merge the host-profiler lanes next to the stream lanes
                trace = json.loads(args.trace.read_text())
                trace["traceEvents"].extend(g.host_profile.chrome_events(pid=2))
                args.trace.write_text(json.dumps(trace, indent=2) + "\n")
            print(f"stream timeline -> {args.trace}")
        if g.sanitizer is not None:
            print(g.sanitizer.summary())
            if not g.sanitizer.clean:
                return 1
    return 0


def _service_config_from_args(args: argparse.Namespace):
    from repro.service import ServiceConfig

    return ServiceConfig(
        n_gpus=args.gpus,
        max_queued=args.max_queued,
        default_mem_budget=args.default_mem_budget,
        tenant_budgets=dict(args.tenant_budget),
        poll_s=args.poll,
        workers=getattr(args, "workers", "thread"),
    )


def _format_jobs_table(jobs) -> str:
    from repro.analysis.reporting import format_table

    rows = []
    for j in jobs:
        wait = j.queue_wait_s()
        rows.append((
            j.job_id,
            j.spec.tenant,
            j.state.value,
            j.attempt,
            f"{wait:.2f}" if wait is not None else "-",
            {True: "hit", False: "miss"}.get(j.metrics.get("cache_hit"), "-"),
        ))
    return format_table(
        ["job", "tenant", "state", "attempt", "wait (s)", "cache"],
        rows,
        f"{len(jobs)} job(s)",
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import AssemblyService, JobState

    with AssemblyService(
        args.service_dir, config=_service_config_from_args(args)
    ) as svc:
        requeued = svc.recover()
        if requeued:
            print(f"recovered {len(requeued)} mid-flight job(s): "
                  + ", ".join(j.job_id for j in requeued))
        if args.once:
            jobs = svc.drain()
            print(_format_jobs_table(jobs))
            # Cache probes happen in the worker (possibly another
            # process), so count hits from the durable job metrics
            # rather than this process's in-memory cache counters.
            probed = [j for j in jobs if "cache_hit" in j.metrics]
            hits = sum(1 for j in probed if j.metrics["cache_hit"])
            print(f"result cache: {hits} hit(s), "
                  f"{len(probed) - hits} miss(es)")
            return 1 if any(j.state is JobState.FAILED for j in jobs) else 0
        try:
            svc.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            print("shutting down")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import AdmissionError, AssemblyService

    config: dict = {
        "local_assembly_mode": args.mode,
        "local_assembly_engine": args.engine,
        "local_assembly_overlap": args.overlap,
        "run_scaffolding": not args.no_scaffold,
    }
    if args.k is not None:
        config["k_series"] = list(args.k)
    if args.profile_host:
        config["local_assembly_profile_host"] = True
    with AssemblyService(args.service_dir) as svc:
        try:
            job = svc.submit(
                args.reads,
                tenant=args.tenant,
                config=config,
                mem_budget=args.mem_budget,
            )
        except AdmissionError as exc:
            print(f"rejected: {exc}", file=sys.stderr)
            return 3
    print(job.job_id)
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service import JobQueue
    from repro.service.service import job_report

    queue = JobQueue(args.service_dir)
    jobs = queue.jobs()
    if args.as_json:
        print(json.dumps([job_report(j) for j in jobs], indent=2))
    else:
        print(_format_jobs_table(jobs))
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service import JobQueue, JobState, UnknownJobError

    queue = JobQueue(args.service_dir)
    try:
        job = queue.cancel(args.job_id)
    except UnknownJobError:
        print(f"error: no job {args.job_id!r} in {args.service_dir}",
              file=sys.stderr)
        return 2
    if job.state is JobState.CANCELLED:
        print(f"{job.job_id} cancelled")
    elif job.terminal:
        print(f"{job.job_id} already {job.state.value}")
    else:
        print(f"{job.job_id} cancellation requested ({job.state.value})")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import repro
    from repro.sanitize.concheck import conlint_files
    from repro.sanitize.lint import collect_py_files, findings_report, lint_files

    paths = list(args.paths)
    pkg = Path(repro.__file__).parent
    if not paths:
        if args.concurrency:
            # the process-rank concurrency surface
            paths = [
                pkg / "distributed",
                pkg / "locking.py",
                pkg / "service",
            ]
        else:
            paths = [pkg / "core", pkg / "gpusim"]
    files = collect_py_files(paths)
    mode = "concheck" if args.concurrency else "lint"
    findings = conlint_files(files) if args.concurrency else lint_files(files)
    if args.as_json:
        print(findings_report(findings, mode, len(files)).to_json())
    else:
        for f in findings:
            print(f)
    if findings:
        print(f"{len(findings)} lint finding(s)", file=sys.stderr)
        return 1
    if not args.as_json:
        print(f"clean: {len(files)} file(s) linted ({mode}), no findings")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "assemble": _cmd_assemble,
    "stats": _cmd_stats,
    "scale": _cmd_scale,
    "dump-localassm": _cmd_dump_localassm,
    "localassm": _cmd_localassm,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "cancel": _cmd_cancel,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # e.g. `repro scale | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
