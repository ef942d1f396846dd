#!/usr/bin/env python3
"""The repo's end-to-end benchmark: pinned ``run_pipeline`` workloads scored
on CPU cost, memory and assembly quality, with an outside-in stage trace.

    python3 benchmarks/e2e/run.py                      every workload, full report
    python3 benchmarks/e2e/run.py --check              <60 s self-test, small inputs
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                                       one workload, one result line

This process imports nothing from ``repro``.  Every step is a fresh
``child.py`` in its own session, strictly one at a time; after each the
runner waits for the session to empty and diffs ``/dev/shm``.  See
README.md for the metrics, the workloads and the noise measurements
behind this protocol.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = HERE / "out"
SHM = Path("/dev/shm")

RUN_TIMEOUT_S = 180.0  # distributed_count_proc / ranked_align abort at 120 s
DRAIN_S = 10.0  # multiprocessing.resource_tracker outlives its parent by ~1.4 s
MIN_RUNS = 3
MAX_RUNS = 16
SETUP_ONLY_RUNS = 5
CHECK_SCALE = 0.09
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

END_TO_END_UNITS = {
    "cpu_user_s": "s",
    "bases_per_cpu_s": "bases/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "genome_fraction": "ratio",
    "contig_n50": "bp",
    "clean_contig_fraction": "ratio",
}


# -- processes and segments ---------------------------------------------------


def session_pids(sid: int) -> list[int]:
    """Live (non-zombie) processes whose session id is *sid*."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # exited between listdir and read
            continue
        state, _ppid, _pgrp, session = stat[stat.rindex(")") + 2 :].split()[:4]
        if int(session) == sid and state != "Z":
            pids.append(int(entry))
    return pids


def kill_session(sid: int) -> None:
    for pid in session_pids(sid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def drain_session(sid: int, wait_s: float = DRAIN_S) -> bool:
    """Wait for the session to empty; SIGKILL it after *wait_s*.

    Returns True when every process left on its own.
    """
    deadline = time.monotonic() + wait_s
    while session_pids(sid):
        if time.monotonic() > deadline:
            kill_session(sid)
            while session_pids(sid):
                time.sleep(0.02)
            return False
        time.sleep(0.02)
    return True


def shm_listing() -> set[str]:
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


@dataclass
class Outcome:
    """What one child did: its JSON result, or why it counts as failed."""

    data: dict | None
    failure: str | None
    wall_s: float


class Children:
    """Starts children one at a time, each in a session of its own."""

    def __init__(self) -> None:
        self.sessions: list[int] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str], timeout_s: float = RUN_TIMEOUT_S) -> Outcome:
        t0 = time.monotonic()
        shm_before = shm_listing()
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
            env=self.env,
            cwd=ROOT,
        )
        sid = proc.pid
        self.sessions.append(sid)
        failure = None
        try:
            stdout, _ = proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            kill_session(sid)
            stdout, _ = proc.communicate()
            failure = f"timed out after {timeout_s:.0f} s"
        if failure is None and proc.returncode != 0:
            failure = f"exit code {proc.returncode}"
        if not drain_session(sid) and failure is None:
            failure = "left a process running"
        leaked = shm_listing() - shm_before
        for name in leaked:
            (SHM / name).unlink(missing_ok=True)
        if leaked and failure is None:
            failure = f"left {len(leaked)} segment(s) in /dev/shm"
        data = None
        if failure is None:
            try:
                data = json.loads(stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                failure = "printed no result"
        return Outcome(data, failure, time.monotonic() - t0)

    def sweep(self) -> None:
        """Last act of the runner: nothing it started may still be alive."""
        for sid in self.sessions:
            kill_session(sid)


# -- estimators ---------------------------------------------------------------


def lower_quartile(values: list[float]) -> float:
    """First quartile by linear interpolation: second-fastest of five.

    Contention on a shared box only ever adds time, so the low side of the
    sample repeats better than its middle (README, "Noise").
    """
    xs = sorted(values)
    pos = (len(xs) - 1) * 0.25
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timing(values: list[float]) -> dict:
    """A timing metric: the lower quartile, with what it was taken from."""
    return {
        "value": lower_quartile(values),
        "unit": "s",
        "median": statistics.median(values),
        "max": max(values),
        "n": len(values),
    }


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "gpusim.host_us_per_kwarp_inst":
        return "us/kinst"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(("share", "fraction", "imbalance")):
        return "ratio"
    if name.endswith(("bytes", "bytes_per_rank_max")):
        return "B"
    return "count"


# -- one benchmark session ----------------------------------------------------


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


@dataclass
class WorkloadRuns:
    """Everything measured for one workload."""

    workload: wl.Workload
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    samples: list[dict] = field(default_factory=list)  # untraced, passed
    traced: dict | None = None
    quality: dict | None = None

    @property
    def digest(self) -> str | None:
        return self.samples[0]["digest"] if self.samples else None


class Bench:
    def __init__(self, seed: int, scale: float, deadline: float | None = None) -> None:
        self.seed = seed
        self.scale = scale
        self.deadline = deadline
        self.children = Children()
        self.work = OUT / f"work-{os.getpid()}"
        self.meta: dict[str, dict] = {}  # dataset -> meta.json
        self.setup: dict[str, list[dict]] = {}  # dataset -> set-up samples
        self.runs: dict[str, WorkloadRuns] = {}
        self.versions: dict = {}

    def _timeout(self) -> float:
        if self.deadline is None:
            return RUN_TIMEOUT_S
        return max(1.0, min(RUN_TIMEOUT_S, self.deadline - time.monotonic()))

    def _child(self, *args: str) -> Outcome:
        return self.children.run(
            [sys.executable, str(CHILD), *args], timeout_s=self._timeout()
        )

    def prepare(self, names: list[str]) -> None:
        """Generate each distinct dataset once, then fill ``__pycache__``."""
        self.work.mkdir(parents=True, exist_ok=True)
        for name in names:
            w = wl.workload(name)
            self.runs[name] = WorkloadRuns(w)
            if w.dataset in self.meta:
                continue
            out = self._child(
                "generate",
                "--dataset", w.dataset,
                "--seed", str(self.seed),
                "--scale", str(self.scale),
                "--out", str(self.work / w.dataset),
            )  # fmt: skip
            if out.failure:
                raise BenchError(f"generating {w.dataset}: {out.failure}")
            self.meta[w.dataset] = out.data
            self.setup[w.dataset] = []
        out = self._child("warm")
        if out.failure:
            raise BenchError(f"warm-up import: {out.failure}")
        self.versions = out.data

    def _run_args(self, w: wl.Workload) -> list[str]:
        return [
            "run",
            "--fastq", str(self.work / w.dataset / "reads.fastq"),
            "--config", json.dumps(w.config),
        ]  # fmt: skip

    def timed(self, name: str) -> Outcome:
        """One untraced run; the workload's first also scores quality."""
        runs = self.runs[name]
        w = runs.workload
        args = self._run_args(w)
        if runs.quality is None:
            args += ["--refs", str(self.work / w.dataset / "refs.fasta")]
        runs.attempted += 1
        out = self._child(*args)
        if out.failure is None and runs.digest not in (None, out.data["digest"]):
            out.failure = "output digest differs from the workload's other runs"
        if out.failure:
            runs.failures.append(out.failure)
            return out
        runs.samples.append(out.data)
        self.setup[w.dataset].append(out.data)
        runs.quality = runs.quality or out.data.get("quality")
        return out

    def traced(self, name: str) -> Outcome:
        """The traced replay; writes ``out/trace_<workload>.json``."""
        runs = self.runs[name]
        runs.attempted += 1
        out = self._child(
            *self._run_args(runs.workload),
            "--trace-out", str(OUT / f"trace_{name}.json"),
            "--run-id", f"{name}-seed{self.seed}-traced",
        )  # fmt: skip
        if out.failure:
            runs.failures.append(f"traced: {out.failure}")
        else:
            runs.traced = out.data
        return out

    def setup_only(self, name: str) -> None:
        runs = self.runs[name]
        w = runs.workload
        runs.attempted += 1
        out = self._child(
            "run", "--setup-only",
            "--fastq", str(self.work / w.dataset / "reads.fastq"),
        )  # fmt: skip
        if out.failure:
            runs.failures.append(f"setup-only: {out.failure}")
        else:
            self.setup[w.dataset].append(out.data)

    def close(self) -> None:
        self.children.sweep()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- scoring --------------------------------------------------------------

    def check_outputs(self, name: str) -> list[str]:
        """Output checks beyond the per-run digest comparison."""
        runs = self.runs[name]
        w = runs.workload
        problems = []
        if not runs.samples:
            return ["no run passed"]
        if runs.traced:
            if runs.traced["digest"] != runs.digest:
                problems.append("traced replay's digest differs from the untraced runs'")
            shares = sum(
                v for k, v in runs.traced["layers"].items() if k.endswith(".share")
            )
            if abs(shares - 1.0) > 0.02:
                problems.append(f"stage shares sum to {shares:.3f}, not 1 +- 0.02")
        twin = self.runs.get(w.same_output_as or "")
        if twin is not None and twin.digest not in (None, runs.digest):
            problems.append(f"digest differs from {twin.workload.name}'s")
        q = runs.quality
        if self.scale == 1.0 and q is not None:
            lo, hi = w.genome_fraction_band
            if not lo <= q["genome_fraction"] <= hi:
                problems.append(
                    f"genome_fraction {q['genome_fraction']:.4f} outside [{lo}, {hi}]"
                )
            lo, hi = w.contig_n50_band
            if not lo <= q["contig_n50"] <= hi:
                problems.append(f"contig_n50 {q['contig_n50']} outside [{lo}, {hi}]")
        return problems

    def end_to_end(self, name: str) -> dict:
        """``{metric: {"value", "unit", ...}}`` for one workload."""
        runs = self.runs[name]
        dataset = runs.workload.dataset
        cpu = timing([s["cpu_user_s"] for s in runs.samples])
        values = {
            "bases_per_cpu_s": self.meta[dataset]["bases"] / cpu["value"],
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in runs.samples),
            **runs.quality,
        }
        return {
            "cpu_user_s": cpu,
            "setup_s": timing([s["setup_s"] for s in self.setup[dataset]]),
            **{
                k: {"value": v, "unit": END_TO_END_UNITS[k]}
                for k, v in values.items()
            },
        }

    def per_layer(self, name: str) -> dict:
        runs = self.runs[name]
        setup = self.setup[runs.workload.dataset]
        values = {
            "pipeline.run.wall_s": lower_quartile([s["wall_s"] for s in runs.samples]),
            "pipeline.run.sys_s": lower_quartile([s["sys_s"] for s in runs.samples]),
            **{
                f"pipeline.run.{k}": statistics.median(s[k] for s in runs.samples)
                for k in ("minor_faults", "gc_collections", "gc_gen2_collections")
            },
            "sequence.import.cpu_s": lower_quartile([s["import_cpu_s"] for s in setup]),
            "sequence.fastq_load.cpu_s": lower_quartile(
                [s["fastq_load_cpu_s"] for s in setup]
            ),
            "sequence.fastq_load.reads": setup[0]["reads"],
            **runs.traced["layers"],
            "trace.overhead_fraction": runs.traced["cpu_user_s"]
            / lower_quartile([s["cpu_user_s"] for s in runs.samples])
            - 1.0,
        }
        return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def environment(bench: Bench) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": bench.versions.get("numpy"),
        "commit": commit or "unknown",
        "seed": bench.seed,
        "scale": bench.scale,
    }


# -- the three commands -------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Driver contract: one workload, one JSON object as the last line."""
    started = time.monotonic()
    bench = Bench(seed, 1.0, deadline=started + 170.0)
    try:
        bench.prepare([name])
        runs = bench.runs[name]
        measure_from = time.monotonic()
        walls = []
        if trace:
            walls.append(bench.traced(name).wall_s)
        while runs.attempted < MAX_RUNS + trace:
            elapsed = time.monotonic() - measure_from
            if len(runs.samples) >= MIN_RUNS and (
                elapsed + statistics.median(walls) > seconds
            ):
                break
            if len(runs.failures) >= MIN_RUNS:
                break
            walls.append(bench.timed(name).wall_s)
        if not trace:
            for _ in range(SETUP_ONLY_RUNS):
                bench.setup_only(name)
        problems = bench.check_outputs(name)
        if not runs.samples or (trace and runs.traced is None):
            raise BenchError("; ".join(runs.failures) or "no run passed")
        metrics = bench.per_layer(name) if trace else bench.end_to_end(name)
    finally:
        bench.close()
    for problem in runs.failures + problems:
        print(f"{name}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": runs.attempted,
                "failed": len(runs.failures),
                "metrics": {
                    k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()
                },
            }
        )
    )
    return 1 if problems or runs.failures else 0


def run_all(seed: int, n_runs: int, scale: float = 1.0) -> tuple[dict, int]:
    """Every workload: *n_runs* untraced round-robin, one traced, set-up runs."""
    names = [w.name for w in wl.WORKLOADS]
    bench = Bench(seed, scale)
    try:
        bench.prepare(names)
        # round-robin, so a noisy minute is shared by every workload
        for _ in range(n_runs):
            for name in names:
                bench.timed(name)
        for name in names:
            bench.traced(name)
        # set-up runs are per FASTQ: charge them to the first workload reading it
        reader = {bench.runs[n].workload.dataset: n for n in reversed(names)}
        for _ in range(SETUP_ONLY_RUNS if scale == 1.0 else 2):
            for name in reader.values():
                bench.setup_only(name)
        doc = {"environment": environment(bench), "workloads": {}}
        failed = 0
        for name in names:
            runs = bench.runs[name]
            problems = bench.check_outputs(name)
            failed += len(runs.failures) + len(problems)
            entry = {
                "why": runs.workload.why,
                "config": runs.workload.config,
                "input": bench.meta[runs.workload.dataset],
                "runs_attempted": runs.attempted,
                "runs_failed": len(runs.failures),
                "failures": runs.failures,
                "output_problems": problems,
                "digest": runs.digest,
                "samples": runs.samples,
                "setup_samples": bench.setup[runs.workload.dataset],
                "traced": runs.traced,
            }
            if runs.samples and runs.traced:
                entry["end_to_end"] = bench.end_to_end(name)
                entry["per_layer"] = bench.per_layer(name)
            doc["workloads"][name] = entry
    finally:
        bench.close()
    return doc, failed


def print_report(doc: dict) -> None:
    for name, entry in doc["workloads"].items():
        print(
            f"== {name}: {entry['runs_attempted']} children run, "
            f"{entry['runs_failed']} failed"
        )
        for problem in entry["failures"] + entry["output_problems"]:
            print(f"   FAILED: {problem}")
        for section in ("end_to_end", "per_layer"):
            for metric, m in entry.get(section, {}).items():
                extra = (
                    f"  (median {m['median']:.4g}, max {m['max']:.4g}, n={m['n']})"
                    if "median" in m
                    else ""
                )
                print(f"{name:<14}{metric:<46}{m['value']:>14.6g} {m['unit']}{extra}")


def declared_names() -> tuple[set[str], set[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"] for m in spec["end_to_end"]},
        {m["name"] for m in spec["per_layer"]},
    )


def check() -> int:
    """Self-test on shrunken workloads: protocol, replay, checks, names."""
    doc, failed = run_all(seed=2021, n_runs=2, scale=CHECK_SCALE)
    print_report(doc)
    want_e2e, want_layers = declared_names()
    for name, entry in doc["workloads"].items():
        for section, want in (("end_to_end", want_e2e), ("per_layer", want_layers)):
            got = set(entry.get(section, {}))
            for metric in sorted(got ^ want):
                side = "not declared in BENCHMARK.json" if metric in got else "not emitted"
                print(f"FAILED: {name}: {section} metric {metric} {side}")
                failed += 1
            for metric in sorted(m for m in got if not NAME_RE.match(m)):
                print(f"FAILED: {name}: bad metric name {metric!r}")
                failed += 1
    print("check " + ("FAILED" if failed else "passed"))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=2021)
    ap.add_argument("--runs", type=int, default=5, help="untraced runs per workload")
    ap.add_argument("--check", action="store_true", help="<60 s self-test")
    ap.add_argument("--workload", choices=[w.name for w in wl.WORKLOADS])
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if len(os.sched_getaffinity(0)) < 2:
        print("refusing to start: the ranked workload needs 2 cores", file=sys.stderr)
        return 2
    # a SIGTERM must still reach the finally blocks that sweep the sessions
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        if args.check:
            return check()
        if args.workload:
            return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        doc, failed = run_all(args.seed, args.runs)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print_report(doc)
    OUT.mkdir(exist_ok=True)
    (OUT / "result.json").write_text(json.dumps(doc, indent=1))
    print(json.dumps(doc))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
