"""Assembly-as-a-service: a multi-tenant job layer over the pipeline.

The ROADMAP's "millions of users, heavy traffic" direction: many
tenants submit assembly jobs; the service admits, queues and runs them
concurrently over a shared fleet of simulated GPUs, with the properties
a production system needs:

* **Admission control / load shedding** — a bounded queue
  (:class:`QueueFullError`) and per-tenant device-memory budgets
  (:class:`BudgetExceededError` when a single job could never fit;
  deferred scheduling when the tenant's *running* jobs already hold the
  budget).  Rejecting at submit time is the load-shedding valve: under
  overload the service refuses new work instead of collapsing.
* **A durable state machine** — every job is a directory with an
  atomically-written ``job.json`` (QUEUED -> STAGING -> RUNNING ->
  DONE/FAILED/CANCELLED).  A new service process re-queues jobs a dead
  predecessor left mid-flight (:meth:`JobQueue.recover`), and the
  hardened contig-generation checkpoint lets the re-run skip the de
  Bruijn prefix the first attempt already computed.
* **Result memoisation** — the :class:`~repro.service.cache.ResultCache`
  keys the dBG prefix on the packed-read-set digest, so a re-submitted
  identical dataset is a cache hit that goes straight to alignment.
* **Per-job metrics** — queue wait, per-stage seconds, cache hit/miss,
  GPU slot, attempt count, in a machine-readable ``report.json``
  (plus the :class:`~repro.perf.HostProfiler` summary when profiling).

Submission is asynchronous: ``submit`` returns as soon as the job record
is durable, and a pool of ``n_gpus`` workers (one per fleet slot) drains
the queue concurrently.  The file-backed queue doubles as the wire
protocol — ``repro submit`` from another process drops a job record that
the serve daemon picks up on its next poll.

Results are bit-identical to solo runs by construction: jobs share no
mutable state (each worker drives its own ``GpuContext``), and every
engine/overlap mode is bit-identical already (tested since PR 2).
"""

from __future__ import annotations

import json
import logging
import multiprocessing as mp
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.gpusim.device import V100, DeviceSpec
from repro.locking import ClaimFile, pid_alive
from repro.service.cache import ResultCache
from repro.service.job import (
    Job,
    JobSpec,
    JobState,
    atomic_write_json,
    new_job_id,
)

__all__ = [
    "AdmissionError",
    "QueueFullError",
    "BudgetExceededError",
    "UnknownJobError",
    "ServiceConfig",
    "JobQueue",
    "AssemblyService",
    "job_report",
    "execute_job",
    "WORKER_MODES",
]

#: fleet executor kinds: thread workers share the GIL; process workers
#: (a fork-started pool) run pipelines truly concurrently.
WORKER_MODES = ("thread", "process")


def job_report(job: Job) -> dict:
    """The machine-readable per-job report (written as ``report.json``
    next to a job's outputs; also what ``repro jobs --json`` emits)."""
    return {
        "job_id": job.job_id,
        "tenant": job.spec.tenant,
        "state": job.state.value,
        "attempt": job.attempt,
        "reads": job.spec.reads,
        "error": job.error,
        "timestamps": dict(job.timestamps),
        "metrics": dict(job.metrics),
    }

_LOG = logging.getLogger("repro.service")

_SERVICE_JSON = "service.json"


class AdmissionError(RuntimeError):
    """A job was refused at the door (load shedding)."""


class QueueFullError(AdmissionError):
    """The queue is at capacity; resubmit later."""


class BudgetExceededError(AdmissionError):
    """The job's memory demand exceeds its tenant's budget outright."""


class UnknownJobError(KeyError):
    """No job with that id exists in the service directory."""


@dataclass(frozen=True)
class ServiceConfig:
    """Operating limits of one service instance.

    Persisted as ``service.json`` in the service directory so the
    out-of-process ``repro submit`` applies the same admission rules the
    daemon enforces.
    """

    #: fleet size: concurrent jobs (one simulated GPU each)
    n_gpus: int = 2
    #: admission control: maximum jobs waiting (QUEUED) at once
    max_queued: int = 64
    #: per-job device-memory budget when the spec does not set one
    #: (None = the device's full global memory)
    default_mem_budget: int | None = None
    #: per-tenant caps on device memory held by *running* jobs; absent
    #: tenants are unbudgeted
    tenant_budgets: Mapping[str, int] = field(default_factory=dict)
    #: daemon poll interval (seconds) between queue scans
    poll_s: float = 0.2
    #: fleet executor: "thread" (GIL-shared, the PR 7 behaviour) or
    #: "process" (fork-started workers, one interpreter per GPU slot)
    workers: str = "thread"

    def __post_init__(self) -> None:
        if self.n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")
        if self.workers not in WORKER_MODES:
            raise ValueError(f"workers must be one of {WORKER_MODES}")
        if self.max_queued < 1:
            raise ValueError("max_queued must be >= 1")
        if self.default_mem_budget is not None and self.default_mem_budget < 1:
            raise ValueError("default_mem_budget must be >= 1 (or None)")
        for tenant, budget in self.tenant_budgets.items():
            if budget < 1:
                raise ValueError(f"tenant budget for {tenant!r} must be >= 1")
        if self.poll_s <= 0:
            raise ValueError("poll_s must be > 0")

    def to_dict(self) -> dict:
        return {
            "n_gpus": self.n_gpus,
            "max_queued": self.max_queued,
            "default_mem_budget": self.default_mem_budget,
            "tenant_budgets": dict(self.tenant_budgets),
            "poll_s": self.poll_s,
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ServiceConfig":
        return cls(
            n_gpus=int(d.get("n_gpus", 2)),
            max_queued=int(d.get("max_queued", 64)),
            default_mem_budget=d.get("default_mem_budget"),
            tenant_budgets={
                k: int(v) for k, v in d.get("tenant_budgets", {}).items()
            },
            poll_s=float(d.get("poll_s", 0.2)),
            workers=str(d.get("workers", "thread")),
        )

    def save(self, root: str | Path) -> None:
        atomic_write_json(Path(root) / _SERVICE_JSON, self.to_dict())

    @classmethod
    def load(cls, root: str | Path) -> "ServiceConfig | None":
        path = Path(root) / _SERVICE_JSON
        if not path.exists():
            return None
        try:
            return cls.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError, TypeError):
            _LOG.warning("unreadable %s; using defaults", path)
            return None


class JobQueue:
    """The durable, file-backed job store: one directory per job.

    Thread-safe within a process; across processes the atomic job.json
    writes plus the cancel sentinel file keep observers consistent.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()

    # -- paths -----------------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def _cancel_sentinel(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "cancel"

    def claim_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "claim"

    # -- cross-process exclusivity ---------------------------------------------

    def claim(self, job_id: str) -> ClaimFile | None:
        """Take the run claim on a job; None when a live worker holds it.

        With process workers (or two daemons pointed at one root) the
        in-memory ``_in_flight`` set no longer covers every runner, so
        exclusive execution is anchored on an ``O_EXCL`` claim file.  A
        crashed worker's claim (dead PID) is broken automatically.
        """
        claim = ClaimFile(self.claim_path(job_id))
        return claim if claim.acquire() else None

    def claimed_by_live_worker(self, job_id: str) -> bool:
        """True when a *live* process currently holds the run claim."""
        owner = ClaimFile(self.claim_path(job_id)).owner()
        return owner is not None and pid_alive(int(owner.get("pid", -1)))

    # -- core operations -------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        *,
        max_queued: int | None = None,
        tenant_budget: int | None = None,
        mem_demand: int | None = None,
    ) -> Job:
        """Admit *spec* as a new QUEUED job, or shed it.

        *max_queued* bounds the number of already-QUEUED jobs;
        *tenant_budget*/*mem_demand* reject a job whose demand could
        never fit its tenant's budget (no point queuing it).  A spec
        whose pipeline config cannot be built raises ``ValueError``
        before anything is written.
        """
        spec.pipeline_config()
        with self._lock:
            if max_queued is not None:
                n_queued = sum(
                    1 for j in self.jobs() if j.state is JobState.QUEUED
                )
                if n_queued >= max_queued:
                    raise QueueFullError(
                        f"queue is full ({n_queued}/{max_queued} queued); "
                        "resubmit later"
                    )
            if (
                tenant_budget is not None
                and mem_demand is not None
                and mem_demand > tenant_budget
            ):
                raise BudgetExceededError(
                    f"job needs {mem_demand} bytes of device memory but "
                    f"tenant {spec.tenant!r} is budgeted {tenant_budget}"
                )
            job = Job(job_id=new_job_id(), spec=spec)
            job_dir = self.job_dir(job.job_id)
            job_dir.mkdir(parents=True, exist_ok=False)
            job.save(job_dir)
            return job

    def jobs(self) -> list[Job]:
        """All jobs, submission-ordered (oldest first); skips torn records."""
        out: list[Job] = []
        for d in self.jobs_dir.iterdir():
            if not (d / "job.json").exists():
                continue
            try:
                out.append(Job.load(d))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                _LOG.warning("skipping unreadable job record %s (%s)", d, exc)
        out.sort(key=lambda j: (j.timestamps.get(JobState.QUEUED.value, 0.0), j.job_id))
        return out

    def get(self, job_id: str) -> Job:
        job_dir = self.job_dir(job_id)
        if not (job_dir / "job.json").exists():
            raise UnknownJobError(job_id)
        return Job.load(job_dir)

    def save(self, job: Job) -> None:
        job.save(self.job_dir(job.job_id))

    def cancel(self, job_id: str) -> Job:
        """Request cancellation; queued jobs cancel immediately.

        A STAGING/RUNNING job gets a sentinel file its worker checks at
        stage boundaries (cooperative cancellation — the kernel sweep of
        a batch is never interrupted mid-flight).  Cancelling a terminal
        job is a no-op.
        """
        with self._lock:
            job = self.get(job_id)
            if job.terminal:
                return job
            if job.state is JobState.QUEUED:
                job.transition(JobState.CANCELLED)
                self.save(job)
                return job
            self._cancel_sentinel(job_id).touch()
            return job

    def cancel_requested(self, job_id: str) -> bool:
        return self._cancel_sentinel(job_id).exists()

    def recover(self) -> list[Job]:
        """Re-queue jobs a dead process left mid-flight (STAGING/RUNNING).

        The attempt counter bumps so reports distinguish resumed runs;
        the result cache makes the re-run skip work the first attempt
        checkpointed.  A mid-flight job whose run claim is held by a
        *live* process is not dead — it belongs to another worker or
        daemon on this root — and is left alone.  Returns the re-queued
        jobs.
        """
        requeued: list[Job] = []
        with self._lock:
            for job in self.jobs():
                if job.state in (JobState.STAGING, JobState.RUNNING):
                    if self.claimed_by_live_worker(job.job_id):
                        continue
                    job.transition(JobState.QUEUED)
                    job.attempt += 1
                    self.save(job)
                    requeued.append(job)
        return requeued


class AssemblyService:
    """The scheduler: admits jobs, leases fleet slots, runs pipelines.

    Parameters
    ----------
    root:
        Service directory: ``jobs/`` (the queue), ``cache/`` (the result
        cache) and ``service.json`` (the persisted limits) live here.
    config:
        Operating limits; defaults to a previously persisted
        ``service.json`` in *root*, then to :class:`ServiceConfig`'s
        defaults.
    device:
        Simulated device spec of every fleet GPU (default V100).
    """

    def __init__(
        self,
        root: str | Path,
        config: ServiceConfig | None = None,
        device: DeviceSpec = V100,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.config = config or ServiceConfig.load(self.root) or ServiceConfig()
        self.config.save(self.root)
        self.device = device
        self.queue = JobQueue(self.root)
        self.cache = ResultCache(self.root / "cache")
        # RLock: a done-callback can fire synchronously inside
        # _try_schedule (future already finished) and must be able to
        # re-enter for _release.
        self._lock = threading.RLock()
        self._free_slots = set(range(self.config.n_gpus))
        self._tenant_running: dict[str, int] = {}
        self._in_flight: set[str] = set()
        self.worker_mode = self.config.workers
        if self.worker_mode == "process":
            try:
                ctx = mp.get_context("fork")
            except ValueError:  # pragma: no cover - no fork start method
                _LOG.warning("fork unavailable; falling back to thread fleet")
                self.worker_mode = "thread"
        if self.worker_mode == "process":
            self._executor: ThreadPoolExecutor | ProcessPoolExecutor = (
                ProcessPoolExecutor(max_workers=self.config.n_gpus, mp_context=ctx)
            )
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.n_gpus, thread_name_prefix="repro-job"
            )
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    def __enter__(self) -> "AssemblyService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Drain the worker fleet (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=True)

    # -- admission -------------------------------------------------------------

    def _mem_demand(self, spec: JobSpec) -> int:
        demand = spec.mem_budget or self.config.default_mem_budget
        if demand is None:
            demand = self.device.global_mem_bytes
        return min(demand, self.device.global_mem_bytes)

    def submit(
        self,
        reads: str | Path,
        tenant: str = "default",
        config: Mapping[str, Any] | None = None,
        mem_budget: int | None = None,
    ) -> Job:
        """Admit one job; raises :class:`AdmissionError` when shed."""
        if self._closed:
            raise RuntimeError("service is closed")
        spec = JobSpec(
            reads=str(reads),
            tenant=tenant,
            config=dict(config or {}),
            mem_budget=mem_budget,
        )
        return self.queue.submit(
            spec,
            max_queued=self.config.max_queued,
            tenant_budget=self.config.tenant_budgets.get(tenant),
            mem_demand=self._mem_demand(spec),
        )

    def cancel(self, job_id: str) -> Job:
        return self.queue.cancel(job_id)

    # -- scheduling ------------------------------------------------------------

    def _try_schedule(self) -> int:
        """Start every currently admissible QUEUED job; returns how many."""
        started = 0
        with self._lock:
            if self._closed:
                return 0
            for job in self.queue.jobs():
                if not self._free_slots:
                    break
                if job.state is not JobState.QUEUED:
                    continue
                if job.job_id in self._in_flight:
                    continue
                demand = self._mem_demand(job.spec)
                budget = self.config.tenant_budgets.get(job.spec.tenant)
                running = self._tenant_running.get(job.spec.tenant, 0)
                if budget is not None and running + demand > budget:
                    continue  # deferred until the tenant frees budget
                slot = min(self._free_slots)
                self._free_slots.discard(slot)
                self._tenant_running[job.spec.tenant] = running + demand
                self._in_flight.add(job.job_id)
                if self.worker_mode == "process":
                    fut = self._executor.submit(
                        _process_worker,
                        str(self.root), self.device, job.job_id, slot, demand,
                    )
                else:
                    fut = self._executor.submit(self._run_job, job, slot, demand)
                # Release via done-callback so a worker that dies hard
                # (e.g. a killed pool process) still frees its slot.
                fut.add_done_callback(
                    lambda f, j=job, s=slot, d=demand: self._on_done(f, j, s, d)
                )
                started += 1
        return started

    def _on_done(self, fut, job: Job, slot: int, demand: int) -> None:
        exc = fut.exception()
        if exc is not None:  # pragma: no cover - defensive
            _LOG.error("job %s worker died: %s", job.job_id, exc)
        self._release(job, slot, demand)

    def _release(self, job: Job, slot: int, demand: int) -> None:
        with self._lock:
            self._free_slots.add(slot)
            self._tenant_running[job.spec.tenant] = max(
                0, self._tenant_running.get(job.spec.tenant, 0) - demand
            )
            self._in_flight.discard(job.job_id)

    def _busy(self) -> bool:
        with self._lock:
            return bool(self._in_flight)

    def drain(self) -> list[Job]:
        """Run until the queue has no runnable work; returns final jobs.

        The ``repro serve --once`` path and the test harness: schedules,
        waits, re-scans (finished jobs may free tenant budget that makes
        deferred jobs runnable), and stops when nothing is queued or in
        flight.
        """
        while True:
            self._try_schedule()
            if self._busy():
                time.sleep(0.01)
                continue
            # nothing in flight — anything still QUEUED is admissible
            # (per-tenant budgets are per *running* job), so another
            # schedule pass either starts it or the queue is done.
            if self._try_schedule() == 0:
                break
        return self.queue.jobs()

    def serve_forever(self, stop: threading.Event | None = None) -> None:
        """The daemon loop: poll the spool, schedule, repeat until *stop*."""
        stop = stop or threading.Event()
        _LOG.info(
            "serving %s: fleet=%d max_queued=%d",
            self.root,
            self.config.n_gpus,
            self.config.max_queued,
        )
        while not stop.is_set():
            self._try_schedule()
            stop.wait(self.config.poll_s)

    # -- the worker ------------------------------------------------------------

    def _run_job(self, job: Job, slot: int, demand: int) -> None:
        try:
            execute_job(self.queue, self.cache, self.device, job.job_id, slot, demand)
        except BaseException:  # pragma: no cover - defensive
            _LOG.exception("job %s worker crashed", job.job_id)

    def recover(self) -> list[Job]:
        """Adopt a dead predecessor's mid-flight jobs (delegates to the
        queue); call once on startup before serving."""
        return self.queue.recover()


# -- the job runner (shared by thread and process fleets) --------------------


def _job_cancelled(queue: JobQueue, job: Job) -> bool:
    if not queue.cancel_requested(job.job_id):
        return False
    job.transition(JobState.CANCELLED)
    queue.save(job)
    return True


def execute_job(
    queue: JobQueue,
    cache: ResultCache,
    device: DeviceSpec,
    job_id: str,
    slot: int,
    demand: int,
) -> None:
    """Run one QUEUED job end to end under the cross-process run claim.

    Module-level (not a method) so the process fleet can run it in a
    pool worker: the worker reconstructs the queue/cache over the same
    directories and every state transition goes through the durable
    ``job.json``, which is the only channel the parent reads.
    """
    from repro.pipeline.checkpoint import checkpoint_key
    from repro.pipeline.pipeline import run_pipeline
    from repro.pipeline.stages import StageTimes
    from repro.sequence.fastq import load_read_batch

    claim = queue.claim(job_id)
    if claim is None:
        _LOG.warning("job %s already claimed by a live worker; skipping", job_id)
        return
    try:
        # the record on disk may be newer than the scheduler's snapshot
        # (e.g. an out-of-process cancel of a queued job); re-read first.
        job = queue.get(job_id)
        if job.state is not JobState.QUEUED or _job_cancelled(queue, job):
            return
        job.transition(JobState.STAGING)
        job.metrics["gpu_slot"] = slot
        job.metrics["mem_budget_bytes"] = demand
        job.metrics["worker_pid"] = os.getpid()
        queue.save(job)
        job_dir = queue.job_dir(job.job_id)
        try:
            times = StageTimes()
            with times.stage("file IO"):
                reads = load_read_batch(job.spec.reads, paired=True)
            pipeline_config = job.spec.pipeline_config(mem_budget=demand)
            key = checkpoint_key(reads, pipeline_config)
            cache_hit = cache.probe(key)
            job.metrics["checkpoint_key"] = key
            job.metrics["cache_hit"] = cache_hit
            job.metrics["queue_wait_s"] = job.queue_wait_s()
            if _job_cancelled(queue, job):
                return
            job.transition(JobState.RUNNING)
            queue.save(job)
            result = run_pipeline(
                reads,
                pipeline_config,
                times=times,
                checkpoint_dir=str(cache.dir_for(key)),
            )
            with times.stage("file IO"):
                result.write_fasta(job_dir)
            job.metrics["stage_seconds"] = dict(times.seconds)
            job.metrics["n_contigs"] = len(result.contigs)
            job.metrics["total_bases"] = result.contigs.total_bases()
            job.metrics["n_extended"] = result.local_assembly.n_extended
            job.metrics["extension_bases"] = (
                result.local_assembly.total_extension_bases
            )
            gpu_report = result.local_assembly.gpu_report
            if gpu_report is not None and gpu_report.host_profile is not None:
                job.metrics["host_profile"] = gpu_report.host_profile.summary()
            if _job_cancelled(queue, job):
                return
            job.transition(JobState.DONE)
            queue.save(job)
            atomic_write_json(job_dir / "report.json", job_report(job))
        except Exception as exc:
            _LOG.warning("job %s failed: %s", job.job_id, exc)
            job.error = f"{type(exc).__name__}: {exc}"
            job.transition(JobState.FAILED)
            queue.save(job)
            atomic_write_json(job_dir / "report.json", job_report(job))
    finally:
        claim.release()


def _process_worker(
    root: str, device: DeviceSpec, job_id: str, slot: int, demand: int
) -> str:
    """Pool-worker entry of the process fleet: rebuild the stores over
    the service directory and run the job in this interpreter."""
    queue = JobQueue(root)
    cache = ResultCache(Path(root) / "cache")
    execute_job(queue, cache, device, job_id, slot, demand)
    return job_id
