"""One fresh-process step of the benchmark; the runner starts these.

``generate``  write a dataset's FASTQ, reference FASTA and meta.json
``warm``      import the program once so ``__pycache__`` is filled
``run``       load a FASTQ, call ``run_pipeline`` (or its traced replay),
              measure it from outside and print one JSON line

The program only ever sees the FASTQ path and a ``PipelineConfig``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import trace as e2e_trace
import workloads


def result_digest(contigs, scaffolds) -> str:
    """SHA-256 over everything the pipeline outputs, in output order."""
    h = hashlib.sha256()
    for c in contigs:
        h.update(f"C{c.cid}\t{c.seq}\t{c.depth!r}\n".encode())
    for s in scaffolds.scaffolds if scaffolds is not None else ():
        h.update(f"S{s.sid}\t{s.seq}\t{s.contig_ids}\n".encode())
    return h.hexdigest()


def quality(contigs, refs_path: str) -> dict:
    """Assembly quality of the final contigs against the community."""
    from repro.analysis.stats import assembly_stats
    from repro.analysis.validation import evaluate_against_references
    from repro.sequence.fastq import read_fasta

    genomes = [seq for _, seq in read_fasta(refs_path)]
    report = evaluate_against_references(contigs, genomes, k=31)
    total = sum(len(g) for g in genomes)
    return {
        "genome_fraction": sum(
            len(g) * report.genome_recovery[i] for i, g in enumerate(genomes)
        )
        / total,
        "contig_n50": assembly_stats(contigs.sequences()).n50,
        "clean_contig_fraction": (
            1.0 - report.n_chimeric / report.n_contigs if report.n_contigs else 0.0
        ),
    }


def _usage() -> tuple[float, float, int]:
    """(user s, system s, minor faults) of this process + reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        me.ru_utime + kids.ru_utime,
        me.ru_stime + kids.ru_stime,
        me.ru_minflt + kids.ru_minflt,
    )


def _gc_collections() -> list[int]:
    return [g["collections"] for g in gc.get_stats()]


def cmd_run(args) -> dict:
    # everything up to run_pipeline is set-up: interpreter start (already
    # on this process's clock), the import, the FASTQ load
    from repro.pipeline.pipeline import PipelineConfig, run_pipeline
    from repro.sequence.fastq import load_read_batch

    import_cpu = resource.getrusage(resource.RUSAGE_SELF).ru_utime
    reads = load_read_batch(args.fastq)
    setup_cpu = resource.getrusage(resource.RUSAGE_SELF).ru_utime
    out = {
        "setup_s": setup_cpu,
        "import_cpu_s": import_cpu,
        "fastq_load_cpu_s": setup_cpu - import_cpu,
        "reads": len(reads),
        "bases": int(reads.offsets[-1]),
    }
    if args.setup_only:
        return out

    overrides = json.loads(args.config)
    if "k_series" in overrides:
        overrides["k_series"] = tuple(overrides["k_series"])
    config = PipelineConfig(**overrides)

    tracer = e2e_trace.Tracer(args.run_id) if args.trace_out else None
    gc0 = _gc_collections()
    user0, sys0, flt0 = _usage()
    wall0 = time.perf_counter()
    if tracer is None:
        result = run_pipeline(reads, config)
        contigs, scaffolds = result.contigs, result.scaffolds
    else:
        with tracer.span("pipeline.run"):
            contigs, scaffolds, layers = e2e_trace.traced_pipeline(
                reads, config, tracer
            )
    wall = time.perf_counter() - wall0
    user1, sys1, flt1 = _usage()
    gc1 = _gc_collections()
    out.update(
        cpu_user_s=user1 - user0,
        sys_s=sys1 - sys0,
        wall_s=wall,
        minor_faults=flt1 - flt0,
        gc_collections=sum(gc1) - sum(gc0),
        gc_gen2_collections=gc1[2] - gc0[2],
        # before the quality evaluation, whose k-mer dicts are not the program's
        peak_rss_mb=e2e_trace.peak_rss_mb(),
        digest=result_digest(contigs, scaffolds),
    )
    if tracer is not None:
        out["layers"] = e2e_trace.layer_metrics(tracer, layers, out["cpu_user_s"])
        Path(args.trace_out).write_text(
            json.dumps({"run": args.run_id, "spans": tracer.spans}, indent=1)
        )
    if args.refs:
        out["quality"] = quality(contigs, args.refs)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    g = sub.add_parser("generate")
    g.add_argument("--dataset", required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--scale", type=float, default=1.0)
    g.add_argument("--out", required=True)
    sub.add_parser("warm")
    r = sub.add_parser("run")
    r.add_argument("--fastq", required=True)
    r.add_argument("--config", default="{}")
    r.add_argument("--refs", help="reference FASTA: also score assembly quality")
    r.add_argument("--setup-only", action="store_true")
    r.add_argument("--trace-out", help="run the traced replay, write spans here")
    r.add_argument("--run-id", default="run")
    args = ap.parse_args(argv)

    if args.cmd == "generate":
        ds = workloads.DATASETS[args.dataset]
        if args.scale != 1.0:
            ds = ds.scaled(args.scale)
        out = workloads.generate(ds, args.seed, Path(args.out))
    elif args.cmd == "warm":
        import numpy
        import repro.analysis.validation  # noqa: F401
        import repro.distributed.procrank  # noqa: F401
        import repro.pipeline  # noqa: F401

        out = {"numpy": numpy.__version__}
    else:
        out = cmd_run(args)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
