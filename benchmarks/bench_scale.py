"""Scale ruler: one dataset at 1x, 4x and 16x its reads, per pipeline stage.

    python benchmarks/bench_scale.py [--label change] [--src SRC_DIR]

Generates the end-to-end benchmark's ``arctic`` dataset (seed 7) at each
scale in ``SCALES`` (``benchmarks/e2e/child.py generate``: genome length
and pairs both scale) and runs the default ``run_pipeline`` on it in a
fresh process.  That process meters every stage ``run_pipeline`` times
(``StageTimes``): user and system CPU, and peak RSS as ``VmHWM`` after
resetting it through ``/proc/self/clear_refs`` when the stage starts;
the scaffolding re-alignment is the second ``alignment`` entry.  It also records what
drives each stage: reads, counted k-mer windows, contigs, alignment rows
per pass, candidate bases and local-assembly table inserts.  A per-stage
exponent is the least-squares slope of log(metric) against log(reads).

A GPU arm runs the same dataset at each scale in ``GPU_SCALES`` with
``local_assembly_mode="gpu"`` and records the local-assembly stage's user
CPU and ``VmHWM`` next to the simulated device's ``high_water_bytes``:
the simulator backs device memory with host RAM, so their ratio says how
much host memory a byte of modelled device memory costs.  It also records
the CPU (``time.process_time``) of the derived table build's phases —
resolve, place, account — and of the derived walk, summed over every
call; it imports the batched kernel module before the run to wrap them,
so that import is not in the stage's CPU.

Results go to ``results/BENCH_scale.json`` under ``--label``, next to
the other labels already there, so two trees measure side by side:
``--src`` points the runs at another tree's ``src`` (e.g. a checkout of
the parent commit, ``--label parent``).  Generation always uses this
tree.  Linux only (``/proc``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
E2E_CHILD = HERE / "e2e" / "child.py"
JSON_PATH = HERE / "results" / "BENCH_scale.json"
DATASET = "arctic"
SEED = 7
SCALES = (1, 4, 16)
GPU_SCALES = (1, 4)


# -- the measured process ----------------------------------------------------


def _vm_hwm_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _reset_hwm() -> None:
    Path("/proc/self/clear_refs").write_text("5")


def measure(fastq: str, mode: str = "cpu") -> dict:
    """Run the default pipeline on *fastq* with every stage metered, local
    assembly in *mode*."""
    import resource
    import time
    from contextlib import contextmanager

    import numpy as np

    from repro.pipeline import alignment, kmer_analysis
    from repro.pipeline.pipeline import PipelineConfig, run_pipeline
    from repro.pipeline.stages import StageTimes
    from repro.sequence.fastq import load_read_batch

    def cpu() -> tuple[float, float]:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return ru.ru_utime, ru.ru_stime

    stages: list[dict] = []

    class StageMeter(StageTimes):
        @contextmanager
        def stage(self, name: str):
            _reset_hwm()
            user0, sys0 = cpu()
            with super().stage(name):
                yield
            user1, sys1 = cpu()
            seen = sum(s["stage"] == name for s in stages)
            stages.append({
                "stage": name,
                "name": name if not seen else f"{name}.{seen + 1}",
                "cpu_s": user1 - user0,
                "sys_s": sys1 - sys0,
                "peak_rss_mb": _vm_hwm_mb(),
            })

    windows, aln_rows = [], []
    count_kmers, align_core = kmer_analysis.count_kmers, alignment.align_core

    def counted(batch, k, *args, **kwargs):
        windows.append(int(np.maximum(batch.lengths() - k + 1, 0).sum()))
        return count_kmers(batch, k, *args, **kwargs)

    def aligned(*args, **kwargs):
        rows = align_core(*args, **kwargs)
        aln_rows.append(len(rows))
        return rows

    kmer_analysis.count_kmers, alignment.align_core = counted, aligned
    phases: dict[str, float] = {}
    if mode == "gpu":
        from repro.core import extension_kernel_batched as ekb

        def timed(name, fn):
            def run(*args, **kwargs):
                t0 = time.process_time()
                try:
                    return fn(*args, **kwargs)
                finally:
                    phases[name] = phases.get(name, 0.0) + time.process_time() - t0

            return run

        for name, fn in (("resolve", "_resolve_block"), ("place", "_place_agents"),
                         ("account", "_account_block"), ("walk", "_walk_group_derived")):
            setattr(ekb, fn, timed(name, getattr(ekb, fn)))
    reads = load_read_batch(fastq)
    _reset_hwm()
    setup_rss = _vm_hwm_mb()
    user0, sys0 = cpu()
    result = run_pipeline(reads, PipelineConfig(local_assembly_mode=mode), times=StageMeter())
    user1, sys1 = cpu()
    la = result.local_assembly
    gpu = la.gpu_report
    return {
        "reads": len(reads),
        "bases": int(reads.offsets[-1]),
        "cpu_user_s": user1 - user0,
        "sys_s": sys1 - sys0,
        "peak_rss_mb": max([setup_rss] + [s["peak_rss_mb"] for s in stages]),
        "stages": stages,
        "counts": {
            "reads": len(reads),
            "kmer_windows": sum(windows),
            "contigs": len(result.contigs),
            "alignment_rows": aln_rows,
            "candidate_bases": int(result.alignment.cand_bases.size),
            "table_inserts": la.cpu_stats.n_inserts if la.cpu_stats else 0,
        },
        "device_high_water_bytes": gpu.high_water_bytes if gpu else None,
        "gpu_phase_cpu_s": phases,
    }


def gpu_summary(run: dict) -> dict:
    """The GPU arm's local-assembly numbers: user CPU, host ``VmHWM``, the
    device high-water mark, host MiB per device MiB and the CPU of the
    derived build's phases and walk."""
    la = next(s for s in run["stages"] if s["stage"] == "local assembly")
    device_mb = run["device_high_water_bytes"] / 2**20
    return {
        "reads": run["reads"],
        "la_cpu_s": la["cpu_s"],
        "la_peak_rss_mb": la["peak_rss_mb"],
        "device_high_water_mb": round(device_mb, 3),
        "host_per_device": round(la["peak_rss_mb"] / device_mb, 3),
        "phase_cpu_s": {k: round(v, 4) for k, v in run["gpu_phase_cpu_s"].items()},
    }


# -- the driver --------------------------------------------------------------


def _run(args: list[str], src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, *args], env=env, check=True, capture_output=True, text=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _slope(xs: list[float], ys: list[float]) -> float | None:
    """Least-squares slope of log(ys) on log(xs); None if undefined."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        return None
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return round(sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx, 3) if sxx else None


def exponents(by_scale: dict[str, dict]) -> dict:
    """Per-stage (and whole-run) exponents of CPU and peak RSS in reads."""
    runs = list(by_scale.values())
    reads = [r["reads"] for r in runs]
    out = {
        "run": {
            "cpu_user_s": _slope(reads, [r["cpu_user_s"] for r in runs]),
            "peak_rss_mb": _slope(reads, [r["peak_rss_mb"] for r in runs]),
        }
    }
    names = [s["name"] for s in runs[0]["stages"]]
    for name in names:
        rows = [{s["name"]: s for s in r["stages"]}.get(name) for r in runs]
        if all(rows):
            out[name] = {
                m: _slope(reads, [s[m] for s in rows]) for m in ("cpu_s", "peak_rss_mb")
            }
    return out


def table(doc: dict) -> str:
    labels = list(doc["runs"])
    lines = [f"{'scale':>5} {'stage':<22}" + "".join(
        f"{lab + ' cpu s':>16}{lab + ' sys s':>16}{lab + ' MiB':>14}" for lab in labels
    )]
    scales = list(doc["runs"][labels[0]]["scales"])
    for scale in scales:
        runs = [doc["runs"][lab]["scales"].get(scale) for lab in labels]
        if not all(runs):
            continue
        per = [{s["name"]: s for s in r["stages"]} for r in runs]
        for name in list(per[0]) + ["run"]:
            cells = []
            for r, p in zip(runs, per):
                s = p.get(name) if name != "run" else {
                    "cpu_s": r["cpu_user_s"], "sys_s": r["sys_s"],
                    "peak_rss_mb": r["peak_rss_mb"],
                }
                cells.append(
                    f"{s['cpu_s']:>16.2f}{s['sys_s']:>16.2f}{s['peak_rss_mb']:>14.1f}"
                    if s else " " * 46
                )
            lines.append(f"{scale + 'x':>5} {name:<22}" + "".join(cells))
    return "\n".join(lines)


def gpu_table(doc: dict) -> str:
    phases = ("resolve", "place", "account", "walk")
    lines = [f"{'label':<8} {'scale':>5} {'LA cpu s':>9} {'LA MiB':>8} "
             f"{'device MiB':>11} {'host/device':>12}" + "".join(f"{p + ' s':>10}" for p in phases)]
    for lab, run in doc["runs"].items():
        for scale, g in run.get("gpu", {}).items():
            cpu = g.get("phase_cpu_s", {})
            lines.append(
                f"{lab:<8} {scale + 'x':>5} {g['la_cpu_s']:>9.2f} {g['la_peak_rss_mb']:>8.1f} "
                f"{g['device_high_water_mb']:>11.1f} {g['host_per_device']:>12.2f}"
                + "".join(f"{cpu[p]:>10.3f}" if p in cpu else " " * 10 for p in phases)
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="change")
    ap.add_argument("--src", type=Path, default=SRC, help="tree whose src/ is measured")
    ap.add_argument("--commit", default=None, help="recorded with the label")
    ap.add_argument("--child", metavar="FASTQ", help=argparse.SUPPRESS)
    ap.add_argument("--mode", default="cpu", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child, args.mode)))
        return 0

    by_scale: dict[str, dict] = {}
    gpu: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="bench-scale-") as tmp:
        for scale in SCALES:
            out = Path(tmp, f"s{scale:g}")
            _run([str(E2E_CHILD), "generate", "--dataset", DATASET, "--seed",
                  str(SEED), "--scale", str(scale), "--out", str(out)], SRC)
            fastq = str(out / "reads.fastq")
            run = _run([__file__, "--child", fastq], args.src.resolve())
            by_scale[f"{scale:g}"] = run
            print(f"{args.label} {scale:g}x: {run['reads']} reads, "
                  f"{run['cpu_user_s']:.2f} CPU-s, peak {run['peak_rss_mb']:.0f} MiB",
                  flush=True)
            if scale in GPU_SCALES:
                g = gpu_summary(_run([__file__, "--child", fastq, "--mode", "gpu"],
                                     args.src.resolve()))
                gpu[f"{scale:g}"] = g
                print(f"{args.label} {scale:g}x gpu: local assembly {g['la_cpu_s']:.2f} "
                      f"CPU-s, peak {g['la_peak_rss_mb']:.0f} MiB, device "
                      f"{g['device_high_water_mb']:.0f} MiB", flush=True)

    doc = json.loads(JSON_PATH.read_text()) if JSON_PATH.exists() else {}
    import numpy

    doc.update(
        bench="scale",
        dataset=DATASET,
        seed=SEED,
        cpu_cores=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    doc.setdefault("runs", {})[args.label] = {
        "commit": args.commit,
        "scales": by_scale,
        "exponents": exponents(by_scale),
        "gpu": gpu,
    }
    JSON_PATH.parent.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(table(doc))
    print(gpu_table(doc))
    return 0


def bench_scale_ruler():
    """The ruler at 1x/4x/16x on this tree (label ``change``)."""
    assert main([]) == 0


if __name__ == "__main__":
    sys.exit(main())
