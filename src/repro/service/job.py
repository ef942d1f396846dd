"""Job model for the assembly service: specs, states, durable records.

A job is one assembly request — a reads file plus pipeline parameters —
owned by a tenant and tracked through an explicit state machine:

    QUEUED -> STAGING -> RUNNING -> DONE
                 |          |
                 +----------+--> FAILED / CANCELLED

plus the recovery edge ``STAGING/RUNNING -> QUEUED`` taken when a new
service process finds jobs a dead predecessor left mid-flight (ymp's
continue-aborted-run idiom: the stage graph is re-entered, and the
hardened contig-generation checkpoint makes the re-run skip the de
Bruijn prefix the previous attempt already paid for).

Every job lives in its own directory as a ``job.json`` written with the
same temp-file + ``os.replace`` discipline as the checkpoint store, so a
crash mid-save can never leave a torn job record; the submit CLI, the
serve daemon and the cancel CLI all observe the same files.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Any, Mapping

from repro.pipeline.pipeline import PipelineConfig

__all__ = [
    "JobState",
    "TERMINAL_STATES",
    "PIPELINE_SPEC_KEYS",
    "JobSpec",
    "Job",
    "atomic_write_json",
    "new_job_id",
]


class JobState(str, Enum):
    """Lifecycle states of a service job."""

    QUEUED = "queued"
    STAGING = "staging"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: states a job never leaves.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)

#: legal state-machine edges (recovery re-queues mid-flight jobs).
_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.QUEUED: frozenset({JobState.STAGING, JobState.CANCELLED}),
    JobState.STAGING: frozenset(
        {JobState.RUNNING, JobState.FAILED, JobState.CANCELLED, JobState.QUEUED}
    ),
    JobState.RUNNING: frozenset(
        {JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.QUEUED}
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}

#: :class:`~repro.pipeline.pipeline.PipelineConfig` fields a job spec may
#: override — every JSON-representable field; the nested
#: ``local_assembly`` dataclass and the service-owned memory budget stay out.
PIPELINE_SPEC_KEYS = frozenset(
    f.name for f in fields(PipelineConfig)
) - {"local_assembly", "local_assembly_mem_budget"}


def new_job_id() -> str:
    return f"job-{uuid.uuid4().hex[:12]}"


def atomic_write_json(path: str | Path, obj: Any) -> None:
    """Write *obj* as JSON via a temp file + ``os.replace`` (crash-safe)."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@dataclass(frozen=True)
class JobSpec:
    """What was submitted: the reads, the tenant, the pipeline knobs."""

    reads: str
    tenant: str = "default"
    #: pipeline overrides, restricted to :data:`PIPELINE_SPEC_KEYS`
    config: Mapping[str, Any] = field(default_factory=dict)
    #: device-memory bytes this job runs under (None = service default)
    mem_budget: int | None = None

    def __post_init__(self) -> None:
        unknown = set(self.config) - PIPELINE_SPEC_KEYS
        if unknown:
            raise ValueError(
                f"unknown pipeline config keys in job spec: {sorted(unknown)}"
            )
        if self.mem_budget is not None and self.mem_budget < 1:
            raise ValueError("mem_budget must be >= 1 (or None)")

    def pipeline_config(self, mem_budget: int | None = None):
        """Materialise the :class:`PipelineConfig` this job runs with."""
        kwargs = dict(self.config)
        if "k_series" in kwargs:
            kwargs["k_series"] = tuple(kwargs["k_series"])
        return PipelineConfig(
            **kwargs, local_assembly_mem_budget=mem_budget
        )

    def to_dict(self) -> dict:
        return {
            "reads": self.reads,
            "tenant": self.tenant,
            "config": dict(self.config),
            "mem_budget": self.mem_budget,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "JobSpec":
        return cls(
            reads=d["reads"],
            tenant=d.get("tenant", "default"),
            config=dict(d.get("config", {})),
            mem_budget=d.get("mem_budget"),
        )


@dataclass
class Job:
    """A submitted job and everything observed about it so far."""

    job_id: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    #: unix timestamps of each state entry (last entry wins on re-queue)
    timestamps: dict[str, float] = field(default_factory=dict)
    error: str | None = None
    #: machine-readable per-job metrics (queue wait, stage times, cache)
    metrics: dict[str, Any] = field(default_factory=dict)
    #: 1-based attempt counter; recovery bumps it
    attempt: int = 1

    def __post_init__(self) -> None:
        self.state = JobState(self.state)
        if not self.timestamps:
            self.timestamps = {JobState.QUEUED.value: time.time()}

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, new: JobState) -> None:
        """Move to *new*, enforcing the state machine; stamps the entry."""
        new = JobState(new)
        if new not in _TRANSITIONS[self.state]:
            raise ValueError(
                f"illegal job transition {self.state.value} -> {new.value}"
            )
        self.state = new
        self.timestamps[new.value] = time.time()

    def queue_wait_s(self) -> float | None:
        """Seconds between submission and the start of staging."""
        q = self.timestamps.get(JobState.QUEUED.value)
        s = self.timestamps.get(JobState.STAGING.value)
        if q is None or s is None:
            return None
        return max(0.0, s - q)

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "state": self.state.value,
            "timestamps": dict(self.timestamps),
            "error": self.error,
            "metrics": dict(self.metrics),
            "attempt": self.attempt,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Job":
        return cls(
            job_id=d["job_id"],
            spec=JobSpec.from_dict(d["spec"]),
            state=JobState(d["state"]),
            timestamps=dict(d.get("timestamps", {})),
            error=d.get("error"),
            metrics=dict(d.get("metrics", {})),
            attempt=int(d.get("attempt", 1)),
        )

    # -- persistence -----------------------------------------------------------

    def save(self, job_dir: str | Path) -> None:
        atomic_write_json(Path(job_dir) / "job.json", self.to_dict())

    @classmethod
    def load(cls, job_dir: str | Path) -> "Job":
        return cls.from_dict(
            json.loads((Path(job_dir) / "job.json").read_text())
        )
