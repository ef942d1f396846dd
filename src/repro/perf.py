"""Lightweight host-path profiler for the GPU local-assembly driver.

The paper's systems argument (§3.1-3.2) is that local assembly gets fast
when the *host* stops being the bottleneck: staging, allocation and
per-batch bookkeeping must hide behind kernel execution, not dominate it.
The simulator models the device side exactly, but the host side is real
Python — so every claim about host-path cost must be measured, not
asserted.  This module is that measurement: a per-batch, per-phase wall
clock timer threaded through the driver's hot path.

Phases (one record per ``(phase, batch label)`` pair):

``stage``
    Host-side packing of a batch into flat staging arrays
    (:func:`repro.core.gpu_batch.stage_batch`).
``upload``
    Device-buffer allocation + H2D copies
    (:func:`repro.core.gpu_batch.upload_batch`).
``dispatch``
    The engine sweep of a launch — the host seconds spent *driving* the
    simulated kernel (also mirrored on
    :attr:`repro.gpusim.kernel.LaunchResult.host_dispatch_s`).
``unpack``
    D2H span copies + extension decoding.
``free``
    Releasing (or arena-recycling) a batch's device buffers.

The profiler is pure bookkeeping: it never touches the stream timeline,
so enabling it cannot change the modelled critical path.  Its records
export as JSON (the CI artifact next to the chrome trace) and as
chrome://tracing slices on dedicated ``hostprof.*`` lanes that can be
merged into the timeline trace for a side-by-side profiler view.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["PHASES", "ALN_PHASES", "PhaseRecord", "HostProfiler", "merge_rank_profiles"]

#: the host-path phases, in pipeline order.
PHASES = ("stage", "upload", "dispatch", "unpack", "free")

#: the batched aligner's phases (:func:`repro.pipeline.alignment.align_core`),
#: in pipeline order — seed windowing/packing, seed-table lookup, hit-range
#: expansion + encounter ordering, diagonal dedup, batch scoring, winner
#: selection.
ALN_PHASES = (
    "aln_seed",
    "aln_lookup",
    "aln_expand",
    "aln_dedup",
    "aln_score",
    "aln_select",
)


@dataclass(frozen=True)
class PhaseRecord:
    """One timed block of host work."""

    phase: str
    label: str
    start_s: float  # relative to the profiler's epoch
    dur_s: float


class HostProfiler:
    """Per-phase wall-clock accounting of the driver's host path.

    A disabled profiler (``enabled=False``, the default everywhere) keeps
    every hook a cheap no-op so the hot path does not pay for profiling it
    did not ask for.

    Recording is thread-safe: a profiler may be shared by several
    recording threads (the job service runs many drivers concurrently), so
    record mutation and aggregation snapshots go through one lock and
    phase accounting never tears.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.records: list[PhaseRecord] = []
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    # -- recording -------------------------------------------------------------

    @contextmanager
    def phase(self, phase: str, label: str = ""):
        """Time a block of host work as one *phase* record."""
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            with self._lock:
                self.records.append(
                    PhaseRecord(phase, label, t0 - self._epoch, t1 - t0)
                )

    def add(self, phase: str, label: str, start_s: float, dur_s: float) -> None:
        """Record an externally-timed block (e.g. an engine dispatch that
        was measured inside :meth:`~repro.gpusim.kernel.GpuContext.launch`)."""
        if not self.enabled:
            return
        with self._lock:
            self.records.append(
                PhaseRecord(phase, label, start_s - self._epoch, dur_s)
            )

    def snapshot(self) -> list[PhaseRecord]:
        """Consistent copy of the records (safe while writers are active)."""
        with self._lock:
            return list(self.records)

    def now(self) -> float:
        return time.perf_counter()

    # -- aggregation -----------------------------------------------------------

    def phase_total_s(self, phase: str) -> float:
        return sum(r.dur_s for r in self.snapshot() if r.phase == phase)

    def phase_count(self, phase: str) -> int:
        return sum(1 for r in self.snapshot() if r.phase == phase)

    def per_batch_s(self, *phases: str) -> float:
        """Mean seconds per batch summed over *phases* (batch count =
        the largest per-phase record count among them)."""
        n = max((self.phase_count(p) for p in phases), default=0)
        if n == 0:
            return 0.0
        return sum(self.phase_total_s(p) for p in phases) / n

    def _observed_phases(self) -> list[str]:
        """The driver phases first, then any custom phases (e.g. the rank
        phases count/pack/exchange/merge) in first-seen order."""
        phases = list(PHASES)
        for r in self.snapshot():
            if r.phase not in phases:
                phases.append(r.phase)
        return phases

    def summary(self) -> dict:
        """Aggregate totals/means per phase plus the headline stage+upload
        per-batch figure the BENCH_overlap acceptance gate tracks."""
        phases = {}
        for p in self._observed_phases():
            n = self.phase_count(p)
            total = self.phase_total_s(p)
            phases[p] = {
                "count": n,
                "total_s": total,
                "mean_s": total / n if n else 0.0,
            }
        return {
            "phases": phases,
            "stage_upload_per_batch_s": self.per_batch_s("stage", "upload"),
            "n_records": len(self.snapshot()),
        }

    # -- export ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "summary": self.summary(),
            "records": [
                {
                    "phase": r.phase,
                    "label": r.label,
                    "start_s": r.start_s,
                    "dur_s": r.dur_s,
                }
                for r in self.snapshot()
            ],
        }

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)

    def chrome_events(self, pid: int = 1, prefix: str = "hostprof") -> list[dict]:
        """The records as chrome://tracing complete slices on
        ``<prefix>.*`` lanes (one tid per phase, custom phases included),
        mergeable into a timeline trace."""
        tid = {p: i for i, p in enumerate(self._observed_phases())}
        events: list[dict] = [
            {
                "ph": "M", "pid": pid, "tid": t,
                "name": "thread_name", "args": {"name": f"{prefix}.{p}"},
            }
            for p, t in tid.items()
        ]
        for r in self.snapshot():
            events.append(
                {
                    "ph": "X", "pid": pid, "tid": tid[r.phase],
                    "name": f"{r.phase} {r.label}".strip(), "cat": prefix,
                    "ts": r.start_s * 1e6, "dur": r.dur_s * 1e6,
                }
            )
        return events

    def format_summary(self) -> str:
        """A human-readable phase table (the CLI ``--profile-host`` output)."""
        s = self.summary()
        lines = ["host-path profile (wall clock):"]
        for p, row in s["phases"].items():
            lines.append(
                f"  {p:<8} {row['count']:>4} x  "
                f"mean {row['mean_s'] * 1e3:8.3f} ms  "
                f"total {row['total_s'] * 1e3:9.3f} ms"
            )
        lines.append(
            f"  stage+upload per batch: "
            f"{s['stage_upload_per_batch_s'] * 1e3:.3f} ms"
        )
        return "\n".join(lines)


def merge_rank_profiles(profiles: list[dict], base_pid: int = 100) -> dict:
    """Merge per-rank :meth:`HostProfiler.to_json` dumps into one
    chrome://tracing document with one process lane per rank.

    Each rank becomes its own pid (``base_pid + rank``) named
    ``rank<N>``, with one tid per phase inside it — the same lane scheme
    the driver's ``hostprof.*`` lanes use, so a merged multi-rank trace
    reads like the single-process one, stacked.  Ranks run in separate
    processes with their own profiler epochs, so lanes are comparable in
    *duration*, not absolute offset.
    """
    events: list[dict] = []
    for rank, prof in enumerate(profiles):
        pid = base_pid + rank
        events.append(
            {
                "ph": "M", "pid": pid, "tid": 0,
                "name": "process_name", "args": {"name": f"rank{rank}"},
            }
        )
        records = list(prof.get("records", []))
        phases: list[str] = []
        for rec in records:
            if rec.get("phase") not in phases:
                phases.append(rec.get("phase"))
        tid = {p: i for i, p in enumerate(phases)}
        for p, t in tid.items():
            events.append(
                {
                    "ph": "M", "pid": pid, "tid": t,
                    "name": "thread_name",
                    "args": {"name": f"rank{rank}.{p}"},
                }
            )
        for rec in records:
            events.append(
                {
                    "ph": "X", "pid": pid, "tid": tid[rec.get("phase")],
                    "name": f"{rec.get('phase')} {rec.get('label', '')}".strip(),
                    "cat": "rankprof",
                    "ts": float(rec.get("start_s", 0.0)) * 1e6,
                    "dur": float(rec.get("dur_s", 0.0)) * 1e6,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
