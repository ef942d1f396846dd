"""Kernel launching on the simulated device.

A kernel is a Python callable ``fn(warp, warp_id, *args)``; a *launch* runs
it once per warp.  Warps execute either one at a time on the
:class:`~repro.gpusim.warp.Warp` interpreter or all at once on the batched
SoA engine (:mod:`repro.gpusim.batched`).  Their results must be
order-independent (guaranteed by the atomic-based kernel designs and
checked by the differential tests), and the two execution modes produce
bit-identical :class:`LaunchResult`\\ s: counters accumulate as if the
warps ran concurrently either way, and the timing model then prices the
launch.

:class:`GpuContext` owns the device, its allocator and the log of
launches, playing the role of a CUDA stream + profiler.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.config import ENGINE_MODES, OVERLAP_MODES, SANITIZE_MODES
from repro.gpusim.batched import batched_impl, set_active_sanitizer
from repro.gpusim.counters import KernelCounters
from repro.gpusim.device import DeviceSpec, V100
from repro.gpusim.memory import DeviceAllocator, DeviceArray
from repro.gpusim.streams import Event, Stream, StreamTimeline
from repro.gpusim.timing import KernelTiming, TimingModel
from repro.gpusim.warp import Warp

__all__ = ["LaunchResult", "GpuContext"]

KernelFn = Callable[..., None]


@dataclass(frozen=True)
class LaunchResult:
    """Counters + modelled timing of one kernel launch."""

    name: str
    n_warps: int
    counters: KernelCounters
    timing: KernelTiming
    #: warp instructions issued by each warp — the load-imbalance signal
    #: the paper's §3.1 binning exists to control.
    per_warp_inst: tuple[int, ...] = ()
    #: structured launch identity (replaces substring-matching on *name*):
    #: the contig bin this launch processed ("bin2"/"bin3", "" if n/a) ...
    bin: str = ""
    #: ... and the kernel variant that ran ("v1"/"v2", "" if n/a).
    kernel: str = ""
    #: real host seconds spent driving the simulated kernel (the engine
    #: sweep), for the host-path profiler.  In a fused launch the sweep
    #: time is attributed to the fused sub-launches pro rata by warps.
    host_dispatch_s: float = 0.0

    def warp_imbalance(self) -> float:
        """max/mean per-warp instructions (1.0 = perfectly balanced)."""
        if not self.per_warp_inst:
            return 1.0
        arr = np.asarray(self.per_warp_inst, dtype=float)
        mean = arr.mean()
        return float(arr.max() / mean) if mean > 0 else 1.0

    @property
    def time_s(self) -> float:
        return self.timing.time_s


@dataclass
class GpuContext:
    """A simulated GPU: device spec, allocator, launch log.

    The ``engine`` field picks how a launch's warps are executed; all modes
    produce bit-identical :class:`LaunchResult`\\ s:

    * ``"sequential"`` — one :class:`Warp` interpreter per warp, in-process;
    * ``"batched"`` — the SoA engine (:mod:`repro.gpusim.batched`): all
      warps advance in lockstep through vectorised kernel steps.  Kernels
      without a registered batched implementation fall back to sequential;
    * ``"auto"`` (default) — ``"batched"``, which is 54-92x faster than
      sequential on every recorded workload (BENCH_engine.json,
      BENCH_batched.json).

    The context also owns a :class:`~repro.gpusim.streams.StreamTimeline`
    and the CUDA-style async API (:meth:`to_device_async`,
    :meth:`launch_async`, :meth:`from_device_async`): ops placed on
    different streams may overlap on the modelled clock when
    ``overlap="on"``, and serialise globally when ``overlap="off"``.
    """

    device: DeviceSpec = V100
    allocator: DeviceAllocator = None  # type: ignore[assignment]
    timing_model: TimingModel = None  # type: ignore[assignment]
    launches: list[LaunchResult] = field(default_factory=list)
    transfer_bytes: int = 0
    transfer_time_s: float = 0.0
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    engine_mode: str = field(default="auto", init=False)
    engine: str = "auto"
    sanitize: str = "off"
    overlap: str = "off"
    timeline: StreamTimeline = field(default=None, repr=False)  # type: ignore[assignment]
    sanitizer: "object" = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_MODES:
            raise ValueError(
                f"engine must be one of {ENGINE_MODES}, got {self.engine!r}"
            )
        if self.overlap not in OVERLAP_MODES:
            raise ValueError(
                f"overlap must be one of {OVERLAP_MODES}, got {self.overlap!r}"
            )
        self.engine_mode = "batched" if self.engine == "auto" else self.engine
        if self.timeline is None:
            self.timeline = StreamTimeline(serialize=self.overlap != "on")
        if self.sanitize != "off":
            from repro.sanitize.sanitizer import Sanitizer

            if self.sanitize not in SANITIZE_MODES:
                raise ValueError(
                    f"sanitize must be one of {SANITIZE_MODES}, "
                    f"got {self.sanitize!r}"
                )
            self.sanitizer = Sanitizer(self.sanitize)
        if self.allocator is None:
            self.allocator = DeviceAllocator(self.device.global_mem_bytes)
        if self.sanitizer is not None:
            self.allocator.sanitizer = self.sanitizer
        if self.timing_model is None:
            self.timing_model = TimingModel(self.device)

    # -- memory ----------------------------------------------------------------

    def alloc(self, shape, dtype) -> DeviceArray:
        return self.allocator.alloc(shape, dtype)

    def to_device(self, host) -> DeviceArray:
        """Copy host data in, accounting for transfer time."""
        darr = self.allocator.to_device(host)
        self._account_transfer(darr.nbytes, "h2d")
        return darr

    def from_device(self, darr: DeviceArray):
        """Copy device data out (returns the host array)."""
        self._account_transfer(darr.nbytes, "d2h")
        return darr.data.copy()

    def _account_transfer(self, nbytes: int, direction: str) -> float:
        """Book *nbytes* of host<->device traffic; returns its modelled time."""
        t = self.timing_model.transfer_time(nbytes)
        self.transfer_bytes += nbytes
        self.transfer_time_s += t
        if direction == "h2d":
            self.h2d_bytes += nbytes
        else:
            self.d2h_bytes += nbytes
        return t

    def mark_initialized(self, darr: DeviceArray) -> None:
        """Declare *darr* host-initialised (a NumPy-side memset) so
        initcheck does not flag reads of it.  No-op without a sanitizer."""
        if self.sanitizer is not None:
            self.sanitizer.mark_initialized(darr)

    def sanitizer_report(self):
        """The accumulated :class:`~repro.sanitize.SanitizerReport`, or
        None when the context runs with ``sanitize="off"``."""
        return None if self.sanitizer is None else self.sanitizer.report()

    # -- streams (CUDA-style async API) -----------------------------------------
    #
    # The *functional* effect of every async op is immediate (this is a
    # simulator: the copy/kernel runs in the calling thread); what is
    # asynchronous is the *modelled* op, placed on a stream of the
    # timeline by its declared dependencies.  With ``overlap="off"`` the
    # timeline serialises every op, reproducing the synchronous driver.

    def stream(self, name: str) -> Stream:
        """Get or create the named stream on this context's timeline."""
        return self.timeline.stream(name)

    def to_device_async(
        self, host, stream: Stream, name: str = "H2D",
        deps: tuple = (),
    ) -> tuple[DeviceArray, Event]:
        """Async host→device copy: data lands now, the modelled copy is
        placed on *stream* after *deps*.  Returns (array, done-event)."""
        darr = self.allocator.to_device(host)
        t = self._account_transfer(darr.nbytes, "h2d")
        done = self.timeline.push(stream, name, "h2d", t, deps, darr.nbytes)
        return darr, done

    def from_device_async(
        self, darr: DeviceArray, stream: Stream, name: str = "D2H",
        deps: tuple = (),
    ) -> tuple[np.ndarray, Event]:
        """Async device→host copy of a whole array."""
        t = self._account_transfer(darr.nbytes, "d2h")
        done = self.timeline.push(stream, name, "d2h", t, deps, darr.nbytes)
        return darr.data.copy(), done

    def from_device_regions_async(
        self,
        darr: DeviceArray,
        regions,
        stream: Stream,
        name: str = "D2H spans",
        deps: tuple = (),
    ) -> tuple[list[np.ndarray], Event]:
        """Async gathered device→host copy of element spans.

        *regions* is a sequence of ``(start, stop)`` element index pairs;
        only those bytes cross the bus (one strided copy — a
        ``cudaMemcpy2D`` analogue: a single launch/latency, the summed
        span bytes of traffic).  This is the driver's shrunk D2H path:
        it replaces copying a whole ``seq_buf`` when only the per-task
        extension spans are needed.
        """
        spans = [darr.data[int(a):int(b)].copy() for a, b in regions]
        nbytes = sum(s.nbytes for s in spans)
        t = self._account_transfer(nbytes, "d2h")
        done = self.timeline.push(stream, name, "d2h", t, deps, nbytes)
        return spans, done

    def launch_async(
        self,
        name: str,
        kernel_fn: KernelFn,
        n_warps: int,
        *args,
        stream: Stream,
        deps: tuple = (),
        bin_name: str = "",
        kernel_version: str = "",
    ) -> tuple["LaunchResult", Event]:
        """Run a launch and place its modelled time on *stream* after *deps*."""
        result = self.launch(
            name, kernel_fn, n_warps, *args,
            bin_name=bin_name, kernel_version=kernel_version,
        )
        done = self.timeline.push(
            stream, name, "kernel", result.time_s, deps
        )
        return result, done

    def synchronize(self) -> float:
        """Modelled completion time of everything placed on the timeline
        (cudaDeviceSynchronize): the measured critical path."""
        return self.timeline.end_s()

    def export_trace(self, path) -> None:
        """Write the timeline as a chrome://tracing JSON file."""
        self.timeline.save_chrome_trace(path)

    # -- launching ----------------------------------------------------------------

    def launch(
        self,
        name: str,
        kernel_fn: KernelFn,
        n_warps: int,
        *args,
        bin_name: str = "",
        kernel_version: str = "",
    ) -> LaunchResult:
        """Run *kernel_fn* for each of *n_warps* warps and price the launch
        (a fused launch of one sub-batch)."""
        return self.launch_fused(
            name, kernel_fn, [n_warps], *args,
            bin_name=bin_name, kernel_version=kernel_version,
        )[0]

    def launch_fused(
        self,
        name: str,
        kernel_fn: KernelFn,
        sub_warps: list[int],
        *args,
        bin_name: str = "",
        kernel_version: str = "",
    ) -> list[LaunchResult]:
        """One sweep over several fused sub-batches, reported as per-sub
        :class:`LaunchResult`\\ s — the one launch body.

        ``sub_warps[i]`` is sub-batch *i*'s warp count; the launch runs
        all ``sum(sub_warps)`` warps in one sweep (on the batched engine,
        paying the per-op Python overhead once instead of once per
        sub-batch) and splits the per-warp counters back into per-sub
        results.  Sound because the batched engine's accounting is
        row-local (see
        :meth:`~repro.gpusim.batched.BatchCounters.finalize_range`): each
        sub's instruction counters are those of the unfused launch, and
        only its load-sector count can move by a few, where its slice of
        a packed buffer starts mid-sector.

        More than one sub-batch requires a registered batched impl and an
        unsanitized context (sanitized runs keep per-batch launches for
        precise attribution); the interpreter runs one at a time.
        """
        n_total = int(sum(sub_warps))
        batched = None
        if self.engine_mode == "batched" and n_total > 0:
            batched = batched_impl(kernel_fn)
        if len(sub_warps) > 1 and (batched is None or self.sanitizer is not None):
            raise RuntimeError(
                f"fusing {name!r} needs a batched impl and sanitize='off'"
            )
        if self.sanitizer is not None:
            self.sanitizer.begin_launch(kernel_version or name, bin_name, n_total)
        t0 = time.perf_counter()
        if batched is not None:
            # Batched impls build their own WarpBatch; publish the
            # sanitizer for it around the call.
            if self.sanitizer is not None:
                set_active_sanitizer(self.sanitizer)
            try:
                swept = batched(n_total, self.device.sector_bytes, *args)
            finally:
                if self.sanitizer is not None:
                    set_active_sanitizer(None)
            parts = [
                swept.finalize_range(int(hi) - n_sub, int(hi))
                for n_sub, hi in zip(sub_warps, np.cumsum(sub_warps))
            ]
        else:
            counters = KernelCounters()
            per_warp: list[int] = []
            for warp_id in range(n_total):
                before = counters.warp_inst
                warp = Warp(
                    counters,
                    warp_id=warp_id,
                    sector_bytes=self.device.sector_bytes,
                    sanitizer=self.sanitizer,
                )
                kernel_fn(warp, warp_id, *args)
                per_warp.append(counters.warp_inst - before)
            parts = [(counters, per_warp)]
        dispatch_s = time.perf_counter() - t0
        results = []
        for i, (n_sub, (counters, per_warp)) in enumerate(zip(sub_warps, parts)):
            counters.n_warps_launched = n_sub
            result = LaunchResult(
                name=f"{name}[{i}]" if len(sub_warps) > 1 else name,
                n_warps=n_sub,
                counters=counters,
                timing=self.timing_model.kernel_timing(counters, n_sub),
                per_warp_inst=tuple(per_warp),
                bin=bin_name,
                kernel=kernel_version,
                host_dispatch_s=dispatch_s * n_sub / max(n_total, 1),
            )
            self.launches.append(result)
            results.append(result)
        return results

    # -- aggregation -----------------------------------------------------------------

    def total_kernel_time(self) -> float:
        return sum(l.time_s for l in self.launches)

    def merged_counters(self, name_prefix: str = "") -> KernelCounters:
        """Merge counters across launches (optionally filtered by name)."""
        merged = KernelCounters()
        for l in self.launches:
            if l.name.startswith(name_prefix):
                merged.merge(l.counters)
        return merged
