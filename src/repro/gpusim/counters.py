"""Instruction and memory-transaction counters for simulated kernels.

These are the quantities the paper's Instruction Roofline analysis (§4.2,
Figs 8-10) is built from:

* **warp instructions** — one per issued instruction regardless of how many
  lanes are active (this is what "warp GIPS" counts);
* **thread instructions** — warp instructions weighted by active lanes;
  the gap between ``32 * warp_inst`` and ``thread_inst`` is *thread
  predication*, the dotted-line gap in Figs 8/9;
* **memory transactions** — 32-byte sectors moved per access, split by
  space (global vs local) and direction; instruction intensity is
  ``warp_inst / transactions``;
* per-class instruction counts (global/local memory, integer, floating
  point, control, atomic, shuffle/sync) for the Fig 10 breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping

__all__ = ["KernelCounters"]


@dataclass
class KernelCounters:
    """Mutable counter set shared by all warps of a kernel launch."""

    # issue counts
    warp_inst: int = 0
    thread_inst: int = 0
    predicated_off: int = 0

    # instruction classes (warp-level counts)
    global_ld_inst: int = 0
    global_st_inst: int = 0
    local_ld_inst: int = 0
    local_st_inst: int = 0
    atomic_inst: int = 0
    int_inst: int = 0
    fp_inst: int = 0
    control_inst: int = 0
    shuffle_inst: int = 0
    sync_inst: int = 0

    # memory transactions (32-byte sectors)
    global_ld_transactions: int = 0
    global_st_transactions: int = 0
    local_transactions: int = 0
    atomic_transactions: int = 0

    # bookkeeping
    n_warps_launched: int = 0
    labels: dict[str, int] = field(default_factory=dict)

    # -- derived metrics ----------------------------------------------------

    @property
    def global_transactions(self) -> int:
        return self.global_ld_transactions + self.global_st_transactions + self.atomic_transactions

    @property
    def total_transactions(self) -> int:
        """All L1 transactions (global + local), the roofline denominator."""
        return self.global_transactions + self.local_transactions

    @property
    def global_mem_inst(self) -> int:
        return self.global_ld_inst + self.global_st_inst + self.atomic_inst

    @property
    def local_mem_inst(self) -> int:
        return self.local_ld_inst + self.local_st_inst

    @property
    def predication_ratio(self) -> float:
        """Fraction of lane-slots wasted to predication (0 = none)."""
        slots = 32 * self.warp_inst
        return self.predicated_off / slots if slots else 0.0

    def instruction_intensity(self) -> float:
        """Warp instructions per L1 transaction (roofline x-coordinate)."""
        t = self.total_transactions
        return self.warp_inst / t if t else float("inf")

    def ldst_instruction_intensity(self) -> float:
        """Memory-instruction intensity — the paper's open 'Global (ldst)' dot."""
        t = self.global_transactions
        return (self.global_mem_inst) / t if t else float("inf")

    # -- combination ---------------------------------------------------------

    def merge(self, other: "KernelCounters") -> None:
        """Accumulate *other* into self (used to merge per-launch stats)."""
        for f in fields(self):
            if f.name == "labels":
                for k, v in other.labels.items():
                    self.labels[k] = self.labels.get(k, 0) + v
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def copy(self) -> "KernelCounters":
        out = KernelCounters()
        out.merge(self)
        return out

    @classmethod
    def from_per_warp(
        cls,
        arrays: Mapping[str, Iterable[int]],
        labels: Mapping[str, Iterable[int]] | None = None,
    ) -> "KernelCounters":
        """Collapse per-warp counter arrays into one launch-wide counter set.

        Used by the batched SoA engine, which accumulates every field as a
        ``(n_warps,)`` array and only sums at the end of the launch.  Label
        totals of zero are dropped, matching the sequential interpreter
        which only creates a label entry when a nonzero amount is added.
        """
        out = cls()
        for name, arr in arrays.items():
            setattr(out, name, int(sum(int(v) for v in arr)))
        for key, arr in (labels or {}).items():
            total = int(sum(int(v) for v in arr))
            if total:
                out.labels[key] = total
        return out

    def breakdown(self) -> dict[str, int]:
        """Instruction-class breakdown in the shape of Fig 10."""
        return {
            "global_memory_inst": self.global_mem_inst,
            "local_memory_inst": self.local_mem_inst,
            "int_inst": self.int_inst,
            "fp_inst": self.fp_inst,
            "control_inst": self.control_inst,
            "shuffle_sync_inst": self.shuffle_inst + self.sync_inst,
        }
