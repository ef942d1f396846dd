"""Host-side GPU local-assembly driver (§4.3 / Fig 11 of the paper).

The driver owns everything outside the kernels: contig binning, exact
hash-table sizing, batching under the device memory budget, packing tasks
into flat device buffers, launching per-bin kernels (bin 3 — the few
contigs with the most reads — first, so the GPU always has its largest
work set available), and unpacking extension results into one packed
:class:`~repro.core.tasks.ExtensionSet` in task order.

One single-threaded batch loop runs every mode; ``overlap`` decides what
the *modelled* stream timeline makes of it (placement there follows the
declared dependencies, never the host thread that issued an op):

* ``overlap="off"`` — the classic synchronous driver: stage, upload,
  launch, copy back, one batch at a time, every op chained on a
  serialised timeline, so the reported critical path equals the serial
  sum.
* ``overlap="on"`` — the §3.1 double-buffered pipeline, as a model:
  staging rides a host lane, uploads ride copy streams, kernels ride the
  compute stream, and events order them, so batch N+1's packing and
  transfers hide behind batch N's kernel.  Bin 3 launches first and bin
  2's transfers overlap bin 3's tail, exactly the prefetch/compute
  overlap MHM2 uses.  The memory budget is split ``prefetch + 1`` ways so
  the modelled double-residency is honest.

The host path is engineered to stay small next to the engine sweep it
drives (staging + unpacking are ~0.1% of a run, BENCH_overlap.json):

* every run, sanitized or not, follows one discipline: each batch stages
  into fresh host arrays with bulk NumPy, uploads into exactly sized
  device allocations on one of ``COPY_STREAMS`` copy streams, and the
  allocator resets once per wave after unpacking — so the device holds
  one wave at a time and ``high_water_bytes`` is the largest wave;
* on the batched engine, an overlapped run *fuses* each wave of up to
  ``prefetch + 1`` same-bin batches into one SoA sweep
  (:meth:`~repro.gpusim.kernel.GpuContext.launch_fused`), paying the
  per-op Python overhead once per wave instead of once per batch — this,
  not a second thread, is where the overlapped driver's wall-clock win
  comes from.  The per-warp counters split back per batch, so the
  report and the modelled timeline show the launches of the unfused
  schedule (instruction streams exactly; load-sector counts can move by
  a few where a fused batch's packed reads start mid-sector);
* a :class:`~repro.perf.HostProfiler` (``profile_host=True``) times every
  stage/upload/dispatch/unpack/free block so the claims are measured.

Results are bit-identical to :func:`repro.core.cpu_local_assembly.
run_local_assembly_cpu` — and across ``overlap`` modes and engines; what
differs is the *measured machine behaviour* (instructions, transactions,
predication, modelled time, now including the stream-timeline critical
path) that the experiments consume.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core.binning import ContigBins, bin_contigs
from repro.core.config import (
    ENGINE_MODES,
    KERNEL_VERSIONS,
    OVERLAP_MODES,
    SANITIZE_MODES,
    LocalAssemblyConfig,
)
from repro.core.extension_kernel import (
    extension_task_kernel_v1,
    extension_task_kernel_v2,
)
import repro.core.extension_kernel_batched  # noqa: F401  (registers the batched v2 impl)
from repro.core.gpu_batch import fuse_staged, stage_batch, upload_batch
from repro.core.ht_sizing import plan_batches
from repro.core.tasks import ExtensionSet, TaskSet, _concat
from repro.gpusim.batched import batched_impl
from repro.gpusim.counters import KernelCounters
from repro.gpusim.device import V100, DeviceSpec
from repro.gpusim.kernel import GpuContext, LaunchResult
from repro.perf import HostProfiler

__all__ = ["GpuLocalAssemblyReport", "GpuLocalAssembler"]

#: one kernel per ``KERNEL_VERSIONS`` entry
_KERNELS = {
    "v1": extension_task_kernel_v1,
    "v2": extension_task_kernel_v2,
}

#: timeline lane names used by the driver.
_STAGE_LANE = "host.stage"
_DRIVE_LANE = "host.drive"

#: copy streams the waves round-robin across (the compute stream is
#: always one — one device).
COPY_STREAMS = 2


@dataclass
class GpuLocalAssemblyReport:
    """Everything measured during one GPU local-assembly run."""

    extensions: ExtensionSet
    bins: ContigBins
    launches: list[LaunchResult] = field(default_factory=list)
    n_batches: int = 0
    transfer_time_s: float = 0.0
    transfer_bytes: int = 0
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    high_water_bytes: int = 0
    #: effective overlap mode of the run ("on" / "off"; a sanitized run
    #: serialises, so it reports "off" even when overlap was requested).
    overlap: str = "off"
    #: the measured critical path over the stream timelines: host staging
    #: and unpacking (measured thread-CPU seconds) plus device transfers
    #: and kernels (modelled V100 seconds), placed by their dependency
    #: structure.  With ``overlap="off"`` this is the serial sum of every
    #: op; with ``overlap="on"`` it is the pipeline's makespan.
    critical_path_s: float = 0.0
    #: the :class:`~repro.gpusim.streams.StreamTimeline` of the run —
    #: call ``timeline.save_chrome_trace(path)`` for a profiler view.
    timeline: "object" = field(default=None, repr=False)
    #: SanitizerReport when the run was sanitized, else None
    sanitizer: "object" = None
    #: :class:`~repro.perf.HostProfiler` with per-phase wall-clock records
    #: when the run had ``profile_host=True``, else None.
    host_profile: "object" = field(default=None, repr=False)

    @property
    def kernel_time_s(self) -> float:
        return sum(l.time_s for l in self.launches)

    @property
    def total_time_s(self) -> float:
        """Serially-summed modelled GPU-op time: transfers + kernels.

        Kept as the legacy scalar; :attr:`critical_path_s` is the
        pipeline-aware quantity measured over the stream timelines.
        """
        return self.kernel_time_s + self.transfer_time_s

    def bin_kernel_time_s(self, bin_name: str) -> float:
        """Kernel time attributed to one contig bin ("bin2" / "bin3").

        Matches on the structured :attr:`LaunchResult.bin` field, not on
        launch-name substrings (a launch named e.g. ``"rebin3_pass"`` must
        not leak into ``bin3``'s total).
        """
        return sum(l.time_s for l in self.launches if l.bin == bin_name)

    def host_lane_time_s(self) -> float:
        """Total measured host work (staging + unpacking) on the timeline."""
        if self.timeline is None:
            return 0.0
        return self.timeline.lane_busy_s(_STAGE_LANE) + self.timeline.lane_busy_s(
            _DRIVE_LANE
        )

    def host_dispatch_s(self) -> float:
        """Real host seconds spent driving the engine across all launches."""
        return sum(l.host_dispatch_s for l in self.launches)

    def merged_counters(self) -> KernelCounters:
        merged = KernelCounters()
        for l in self.launches:
            merged.merge(l.counters)
        return merged


class GpuLocalAssembler:
    """Runs local assembly on the simulated GPU.

    Parameters
    ----------
    config:
        Algorithm tunables (shared with the CPU path).
    device:
        Simulated device spec (default V100, as on Summit).
    kernel_version:
        ``"v2"`` — the paper's warp-cooperative kernel (default) —
        or ``"v1"`` — the thread-per-table development baseline used for
        the §4.2 roofline comparison.
    engine:
        Warp execution mode: ``"auto"`` (the batched SoA engine — it is
        54-92x faster than sequential interpretation on every recorded
        workload, see BENCH_engine.json), ``"sequential"`` or
        ``"batched"``.  v1 kernels have no batched twin and fall back to
        sequential interpretation.  All modes are bit-identical.
    sanitize:
        Dynamic checker mode (``"off"``, ``"memcheck"``, ``"racecheck"``,
        ``"initcheck"`` or ``"full"``).  Anything but ``"off"`` attaches a
        :class:`~repro.sanitize.Sanitizer` to the context and stores its
        report on :attr:`GpuLocalAssemblyReport.sanitizer`.  A sanitized
        run serialises the timeline (``overlap`` reports ``"off"``) and
        disables fused dispatch, so every launch stays individually
        attributable.
    overlap:
        ``"off"`` (default) — the synchronous driver; ``"on"`` — the
        double-buffered pipeline on the modelled stream timeline: batch
        N+1's staging and transfers overlap batch N's kernel.  The host
        runs the same single-threaded loop either way and extensions are
        bit-identical.
    prefetch:
        Depth of the overlapped pipeline: how many batches may be staged
        ahead of the one executing.  The device memory budget is split
        ``prefetch + 1`` ways so the modelled residency is honest; on the
        batched engine, each wave of up to ``prefetch + 1`` same-bin
        batches dispatches as one fused SoA sweep.
    batch_cap:
        Optional cap on tasks per batch (a batching quantum).  Applied on
        top of the memory-budget batching in *both* overlap modes, so
        serial and overlapped runs compare on identical batch schedules.
    mem_budget:
        Optional device-memory budget in bytes the driver batches under,
        capped at the device's global memory.  The job service uses this
        to enforce per-tenant memory budgets: a budgeted run packs fewer
        tasks per batch instead of claiming the whole device.  Results
        stay bit-identical; only the batch schedule changes.
    profile_host:
        Record per-phase host wall-clock timings
        (:class:`~repro.perf.HostProfiler`) on
        :attr:`GpuLocalAssemblyReport.host_profile`.
    """

    def __init__(
        self,
        config: LocalAssemblyConfig | None = None,
        device: DeviceSpec = V100,
        kernel_version: str = "v2",
        engine: str = "auto",
        sanitize: str = "off",
        overlap: str = "off",
        prefetch: int = 1,
        batch_cap: int | None = None,
        mem_budget: int | None = None,
        profile_host: bool = False,
    ) -> None:
        if kernel_version not in KERNEL_VERSIONS:
            raise ValueError(f"kernel_version must be one of {KERNEL_VERSIONS}")
        if engine not in ENGINE_MODES:
            raise ValueError(f"engine must be one of {ENGINE_MODES}")
        if overlap not in OVERLAP_MODES:
            raise ValueError(f"overlap must be one of {OVERLAP_MODES}")
        if prefetch < 1:
            raise ValueError("prefetch must be >= 1")
        if batch_cap is not None and batch_cap < 1:
            raise ValueError("batch_cap must be >= 1 (or None)")
        if mem_budget is not None and mem_budget < 1:
            raise ValueError("mem_budget must be >= 1 (or None)")
        if sanitize not in SANITIZE_MODES:
            raise ValueError(f"sanitize must be one of {SANITIZE_MODES}")
        self.config = config or LocalAssemblyConfig()
        self.device = device
        self.kernel_version = kernel_version
        self.engine = engine
        self.sanitize = sanitize
        self.overlap = overlap
        self.prefetch = prefetch
        self.batch_cap = batch_cap
        self.mem_budget = mem_budget
        self.profile_host = profile_host

    def run(self, tasks: TaskSet) -> GpuLocalAssemblyReport:
        """Extend every task; returns the report with all measurements."""
        bins = bin_contigs(tasks, self.config)
        # task i's copied-back extension codes; bin 1 (zero candidate
        # reads) is never offloaded (§3.1) and keeps its empty one
        spans = [np.empty(0, dtype=np.uint8)] * len(tasks)
        # A sanitized run keeps every op individually attributable: serialise.
        overlap_on = self.overlap == "on" and self.sanitize == "off"
        ctx = GpuContext(
            device=self.device,
            engine=self.engine,
            sanitize=self.sanitize,
            overlap="on" if overlap_on else "off",
        )
        prof = HostProfiler(enabled=self.profile_host)
        work = self._plan_work(tasks, bins, overlap_on)
        n_batches = self._run_batches(ctx, tasks, work, spans, prof)
        return GpuLocalAssemblyReport(
            extensions=ExtensionSet.of(tasks, _concat(spans), [s.size for s in spans]),
            bins=bins,
            launches=list(ctx.launches),
            n_batches=n_batches,
            transfer_time_s=ctx.transfer_time_s,
            transfer_bytes=ctx.transfer_bytes,
            h2d_bytes=ctx.h2d_bytes,
            d2h_bytes=ctx.d2h_bytes,
            high_water_bytes=ctx.allocator.high_water_bytes,
            overlap="on" if overlap_on else "off",
            critical_path_s=ctx.synchronize(),
            timeline=ctx.timeline,
            sanitizer=ctx.sanitizer_report(),
            host_profile=prof if self.profile_host else None,
        )

    # -- batch planning ----------------------------------------------------------

    def _plan_work(self, tasks, bins, overlap_on: bool) -> list[tuple[str, list[int], str]]:
        """The launch schedule: ``(bin_name, batch_task_indices, label)``
        rows, bin 3 first (§4.3: the GPU fares best with the most work).

        The overlapped pipeline needs at least two batches in flight to
        hide anything, and at most ``prefetch + 1`` of them resident on
        the device — so the memory budget is split that many ways, and a
        bin whose whole task list fits one batch is split evenly instead.
        An explicit ``batch_cap`` chunks further, identically in both
        overlap modes.
        """
        budget = self.device.global_mem_bytes
        if self.mem_budget is not None:
            budget = min(budget, self.mem_budget)
        parts = self.prefetch + 1
        if overlap_on:
            budget //= parts
        tasks_by_cid: dict[int, list[int]] = defaultdict(list)
        for i, t in enumerate(tasks):
            tasks_by_cid[t.cid].append(i)
        work: list[tuple[str, list[int], str]] = []
        for bin_name, cids in (("bin3", bins.bin3), ("bin2", bins.bin2)):
            bin_ids = [i for cid in cids for i in tasks_by_cid[cid]]
            if not bin_ids:
                continue
            planned = plan_batches([tasks[i] for i in bin_ids], budget)
            if self.batch_cap is not None:
                cap = self.batch_cap
                planned = [
                    ids[a : a + cap]
                    for ids in planned
                    for a in range(0, len(ids), cap)
                ]
            if overlap_on and len(planned) == 1 and len(planned[0]) > 1:
                planned = _split_even(planned[0], parts)
            for k, batch_ids in enumerate(planned):
                work.append(
                    (bin_name, [bin_ids[i] for i in batch_ids], f"{bin_name}.{k}")
                )
        return work

    def _n_warps(self, n_tasks: int) -> int:
        # v2: one warp per task; v1 (thread-per-table): one warp carries
        # 32 tasks, one per lane.
        if self.kernel_version == "v1":
            return (n_tasks + 31) // 32
        return n_tasks

    # -- the batch loop ----------------------------------------------------------

    def _run_batches(self, ctx: GpuContext, tasks, work, spans, prof) -> int:
        """Stage, upload, launch, unpack, free — one wave at a time;
        returns the number of batches.

        A wave is one batch, except on an overlapped, unsanitized
        batched-engine run, where up to ``prefetch + 1`` same-bin batches
        fuse into one SoA sweep.  Every op lands on the context's
        timeline with its dependencies declared; whether the run reads as
        the synchronous driver or the §3.1 pipeline is the timeline's
        ``serialize`` flag, not this loop.  Each wave's device buffers
        live from its upload to the allocator reset after its unpack.
        """
        kernel = _KERNELS[self.kernel_version]
        compute = ctx.stream("compute")
        # Fused dispatch needs the batched engine (and its BatchCounters
        # row-local accounting); anything else keeps per-batch launches.
        # An overlapped context is never sanitized (run() serialises those).
        fused_ok = (
            ctx.overlap == "on"
            and ctx.engine_mode == "batched"
            and batched_impl(kernel) is not None
        )
        wave_size = self.prefetch + 1 if fused_ok else 1
        n_batches = 0
        for w, wave in enumerate(_plan_waves(work, wave_size)):
            bin_name = wave[0][0]
            labels = [label for _, _, label in wave]
            sub_tasks = [len(ids) for _, ids, _ in wave]
            wave_ids = [i for _, ids, _ in wave for i in ids]
            wave_label = labels[0]
            if len(wave) > 1:
                wave_label += f"+{len(wave) - 1}"
            copy = ctx.stream(f"copy{w % COPY_STREAMS}")
            parts, staged_evs = [], []
            for _, ids, label in wave:
                with ctx.timeline.host_slice(f"stage {label}", _STAGE_LANE) as st:
                    with prof.phase("stage", label):
                        part = stage_batch([tasks[i] for i in ids], self.config)
                parts.append(part)
                staged_evs.append(st.event)
            staged = parts[0]
            if len(parts) > 1:
                with prof.phase("stage", f"fuse {wave_label}"):
                    staged = fuse_staged(parts)
            with prof.phase("upload", wave_label):
                batch, ev_h2d = upload_batch(ctx, staged, copy, tuple(staged_evs))
            with prof.phase("dispatch", wave_label):
                results = ctx.launch_fused(
                    f"extension_{bin_name}_{self.kernel_version}",
                    kernel,
                    [self._n_warps(n) for n in sub_tasks],
                    batch,
                    np.arange(batch.n_tasks),
                    bin_name=bin_name,
                    kernel_version=self.kernel_version,
                )
            # Per-sub kernel + D2H ops keep the modelled timeline
            # identical to the unfused schedule.
            deps = (ev_h2d,)
            lo = 0
            for res, label, n_sub in zip(results, labels, sub_tasks):
                ev_kernel = ctx.timeline.push(
                    compute, res.name, "kernel", res.time_s, deps
                )
                deps = (ev_kernel,)
                with prof.phase("unpack", label):
                    self._unpack(
                        ctx, batch, staged, spans, wave_ids, copy, ev_kernel,
                        label, lo, lo + n_sub,
                    )
                lo += n_sub
            with prof.phase("free", labels[-1]):
                ctx.allocator.reset()
            n_batches += len(wave)
        return n_batches

    # -- unpacking ---------------------------------------------------------------

    def _unpack(
        self, ctx, batch, staged, spans, wave_ids, copy_stream, ev_kernel,
        label, lo: int, hi: int,
    ) -> None:
        """Copy back only the per-task extension spans, each into its
        task's slot of *spans* (``wave_ids[j]`` is the task index of the
        wave's task *j*); the kernel already wrote codes.

        The kernel appends the extension at ``[init_len, seq_len)`` of
        each task's region in ``seq_buf``; everything else (the contig
        tails and unused capacity) never crosses the bus.  ``[lo, hi)`` is
        the task range of one batch within its (possibly fused) wave, so
        the byte totals match per-batch copies exactly.
        """
        regions = [
            (
                int(batch.seq_offsets[j]) + int(staged.seq_len_host[j]),
                int(batch.seq_offsets[j]) + int(batch.seq_len[j]),
            )
            for j in range(lo, hi)
        ]
        copied, ev_spans = ctx.from_device_regions_async(
            batch.seq_buf, regions, copy_stream,
            f"D2H ext {label}", (ev_kernel,),
        )
        _, ev_len = ctx.from_device_regions_async(
            batch.out_ext_len, [(lo, hi)], copy_stream,
            f"D2H ext_len {label}", (ev_kernel,),
        )
        with ctx.timeline.host_slice(
            f"unpack {label}", _DRIVE_LANE, deps=(ev_spans, ev_len)
        ):
            for j, span in zip(wave_ids[lo:hi], copied):
                spans[j] = span


def _split_even(ids: list[int], parts: int) -> list[list[int]]:
    """Split *ids* into up to *parts* contiguous near-equal chunks."""
    parts = min(parts, len(ids))
    bounds = np.linspace(0, len(ids), parts + 1).astype(int)
    return [ids[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _plan_waves(work: list, wave_size: int) -> list[list]:
    """Group consecutive same-bin rows of *work* into waves of up to
    *wave_size* (the fused-dispatch units; 1 = per-batch dispatch)."""
    waves: list[list] = []
    i = 0
    while i < len(work):
        j = i
        while j < len(work) and work[j][0] == work[i][0] and j - i < wave_size:
            j += 1
        waves.append(work[i:j])
        i = j
    return waves
