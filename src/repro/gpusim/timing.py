"""Analytic timing model: counters -> modelled kernel time.

The simulator is functional, so wall-clock Python time means nothing; this
model converts the *counted* work of a launch into V100 seconds using a
standard throughput ("roofline-consistent") model:

``t = max(t_issue, t_mem) / occupancy + launch_overhead``

* ``t_issue`` — warp instructions divided by the device's peak warp-issue
  rate (the roofline compute ceiling);
* ``t_mem`` — L1 transactions divided by the transaction bandwidth (the
  roofline memory ceiling);
* ``occupancy`` — fraction of latency-hiding capacity covered by the
  launch's warps.  Small launches cannot hide memory latency, which is the
  mechanism the paper invokes twice: bin-3-first launch ordering (§4.3,
  "GPUs fair better ... when the amount of work is larger") and the
  speedup decay at 1024 nodes (§4.4, "decrease in the amount of work that
  can be offloaded to one GPU").

The same model also prices host<->device transfers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.counters import KernelCounters
from repro.gpusim.device import DeviceSpec

__all__ = ["TimingModel", "KernelTiming"]


@dataclass(frozen=True)
class KernelTiming:
    """Modelled timing of one kernel launch."""

    time_s: float
    issue_time_s: float
    mem_time_s: float
    occupancy: float
    bound: str  # "compute" | "memory"


@dataclass(frozen=True)
class TimingModel:
    """Converts :class:`KernelCounters` into modelled seconds."""

    device: DeviceSpec

    def kernel_timing(self, counters: KernelCounters, n_warps: int) -> KernelTiming:
        dev = self.device
        occ = dev.occupancy(n_warps)
        t_issue = counters.warp_inst / (dev.peak_warp_gips * 1e9)
        t_mem = counters.total_transactions / dev.peak_transactions_per_s
        busy = max(t_issue, t_mem)
        time_s = busy / occ + dev.kernel_launch_overhead_s
        return KernelTiming(
            time_s=time_s,
            issue_time_s=t_issue,
            mem_time_s=t_mem,
            occupancy=occ,
            bound="compute" if t_issue >= t_mem else "memory",
        )

    def kernel_time(self, counters: KernelCounters, n_warps: int) -> float:
        return self.kernel_timing(counters, n_warps).time_s

    def transfer_time(self, nbytes: int) -> float:
        """Host<->device copy time (one direction)."""
        return nbytes / self.device.h2d_bandwidth_bytes + 5e-6
