"""Dynamic checkers over the gpusim memory model (compute-sanitizer style).

A :class:`Sanitizer` instruments every device-memory operation the
simulator executes.  Three checkers, composable via the mode knob:

* **memcheck** — shadow allocation tracking: out-of-bounds element
  indices, out-of-bounds spans and use-after-free/use-after-reset
  accesses.  Faulting lanes are recorded and suppressed (the launch
  continues, as under ``compute-sanitizer --tool memcheck``).
* **racecheck** — per-address shadow state remembering the last *writer*
  ``(warp, lane, epoch, atomic)``.  A new access conflicts when it
  touches an address written by another lane without an intervening
  ``__syncwarp`` (same warp; epochs advance on sync), or written by
  another warp at all (kernel launches are the only inter-warp sync
  point in the model), unless both accesses are atomic.  Cooperative
  span operations execute converged (lane ``-1``) and therefore never
  conflict within their own warp.  Write-after-read hazards are not
  tracked (reads leave no shadow record) — same first-order coverage
  compute-sanitizer's racecheck documents for shared-memory hazards.
* **initcheck** — a per-allocation element bitmap of written elements;
  reads (including the read half of atomic RMWs) of never-written
  elements are reported.  ``to_device`` copies and explicit
  :meth:`mark_initialized` calls (host-side initialisation) set the
  bitmap; plain ``alloc`` does not, matching ``cudaMalloc``'s
  uninitialised contents even though the simulator zero-fills.

The shadow state lives entirely outside the simulated arrays, so enabling
a sanitizer can never change kernel results — only observe them.
"""

from __future__ import annotations

import numpy as np

from repro.sanitize.report import (
    MAX_ERRORS,
    SANITIZE_MODES,
    SanitizerError,
    SanitizerReport,
)

__all__ = ["Sanitizer"]

#: per-call cap on materialised errors of one kind (a single bad launch
#: can fault on every lane of every instruction; the report caps anyway).
_PER_CALL_CAP = 8


class Sanitizer:
    """Shadow-state checker attached to one :class:`GpuContext`."""

    def __init__(self, mode: str = "full") -> None:
        if mode not in SANITIZE_MODES:
            raise ValueError(f"sanitize mode must be one of {SANITIZE_MODES}")
        self.mode = mode
        self.memcheck = mode in ("memcheck", "full")
        self.racecheck = mode in ("racecheck", "full")
        self.initcheck = mode in ("initcheck", "full")
        self.errors: list[SanitizerError] = []
        self.n_suppressed = 0
        self.n_checked = 0
        #: init bitmaps, keyed by base address (addresses are never reused)
        self._init: dict[int, np.ndarray] = {}
        #: racecheck last-writer shadow, cleared at every launch boundary
        self._race: dict[int, dict[str, np.ndarray]] = {}
        self._epochs = np.zeros(1, dtype=np.int64)
        self._kernel = ""
        self._bin = ""

    # -- lifecycle hooks -----------------------------------------------------

    def begin_launch(self, kernel: str, bin_name: str, n_warps: int) -> None:
        """A kernel launch starts: label errors, reset the race shadow.

        A launch boundary is a device-wide synchronisation point, so the
        last-writer state and all warp sync epochs start fresh.
        """
        self._kernel = kernel
        self._bin = bin_name
        if self.racecheck:
            self._race.clear()
            self._epochs = np.zeros(max(int(n_warps), 1), dtype=np.int64)

    def warp_sync(self, warp_id: int) -> None:
        """``__syncwarp`` executed by one warp: advance its epoch."""
        if self.racecheck:
            self._epochs[warp_id] += 1

    def on_alloc(self, darr) -> None:
        if self.initcheck:
            self._init[darr.base_addr] = np.zeros(darr.data.size, dtype=bool)

    def on_free(self, darr) -> None:
        # Keep the init bitmap: a use-after-free is memcheck's error, and
        # initcheck alone should not double-report the same access.
        pass

    def on_reset(self) -> None:
        """Allocator reset: all outstanding shadow state is dropped."""
        self._init.clear()
        self._race.clear()

    def mark_initialized(self, darr) -> None:
        """Host-side initialisation of a whole allocation (e.g. a memset
        done with NumPy before the first launch)."""
        if self.initcheck:
            bm = self._init.get(darr.base_addr)
            if bm is None:
                bm = np.zeros(darr.data.size, dtype=bool)
                self._init[darr.base_addr] = bm
            bm[:] = True

    # -- error recording -------------------------------------------------------

    def _record(
        self, checker: str, kind: str, warp, lane, address, message: str, **details
    ) -> None:
        if len(self.errors) >= MAX_ERRORS:
            self.n_suppressed += 1
            return
        self.errors.append(
            SanitizerError(
                checker=checker,
                kind=kind,
                kernel=self._kernel,
                bin=self._bin,
                warp=int(warp),
                lane=int(lane),
                address=int(address),
                message=message,
                details=details,
            )
        )

    def report(self) -> SanitizerReport:
        return SanitizerReport(
            mode=self.mode,
            errors=list(self.errors),
            n_suppressed=self.n_suppressed,
            n_checked=self.n_checked,
        )

    # -- shadow state ---------------------------------------------------------

    def _bitmap(self, darr) -> np.ndarray:
        bm = self._init.get(darr.base_addr)
        if bm is None:
            bm = np.zeros(darr.data.size, dtype=bool)
            self._init[darr.base_addr] = bm
        return bm

    def _shadow(self, darr) -> dict[str, np.ndarray]:
        sh = self._race.get(darr.base_addr)
        if sh is None:
            n = darr.data.size
            sh = {
                "warp": np.full(n, -1, dtype=np.int64),
                "lane": np.zeros(n, dtype=np.int64),
                "epoch": np.zeros(n, dtype=np.int64),
                "atomic": np.zeros(n, dtype=bool),
            }
            self._race[darr.base_addr] = sh
        return sh

    # -- the checks ------------------------------------------------------------

    def access(
        self,
        darr,
        idx,
        warps,
        lanes,
        *,
        write: bool,
        atomic: bool = False,
        op: str = "",
    ):
        """Check a set of per-lane element accesses to *darr*.

        *idx*, *warps* and *lanes* broadcast against each other; *lanes*
        may be ``-1`` for cooperative accesses.  Returns a keep-mask over
        the accesses when memcheck suppressed faulting lanes, else None
        (the caller masks its data movement with it).
        """
        idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        n = idx.size
        if n == 0:
            return None
        self.n_checked += n
        # per-access warp/lane arrays, made only where a check reads them
        # (most calls pass scalars and find nothing)
        warps = np.asarray(warps, dtype=np.int64)
        lanes = np.asarray(lanes, dtype=np.int64)

        def per_access(a):
            return np.broadcast_to(a, idx.shape)

        opname = op or ("store" if write else "load")
        keep = None
        if self.memcheck:
            if getattr(darr, "freed", False):
                warps, lanes = per_access(warps), per_access(lanes)
                self._record(
                    "memcheck",
                    "use_after_free",
                    warps[0],
                    lanes[0],
                    darr.base_addr,
                    f"{opname} touches a freed device allocation",
                    op=opname,
                )
                return np.zeros(n, dtype=bool)
            bad = (idx < 0) | (idx >= darr.data.size)
            if bad.any():
                warps, lanes = per_access(warps), per_access(lanes)
                kind = "oob_store" if write else "oob_load"
                for j in np.nonzero(bad)[0][:_PER_CALL_CAP].tolist():
                    self._record(
                        "memcheck",
                        kind,
                        warps[j],
                        lanes[j],
                        darr.base_addr + int(idx[j]) * darr.itemsize,
                        f"{opname} index {int(idx[j])} outside "
                        f"[0, {darr.data.size})",
                        op=opname,
                        index=int(idx[j]),
                    )
                keep = ~bad
                idx, warps, lanes = idx[keep], warps[keep], lanes[keep]
                if idx.size == 0:
                    return keep
        if self.initcheck and (not write or atomic):
            # atomics observe the old value: their read half is checked too
            bm = self._bitmap(darr)
            uninit = ~bm[idx]
            if uninit.any():
                warps, lanes = per_access(warps), per_access(lanes)
                for j in np.nonzero(uninit)[0][:_PER_CALL_CAP].tolist():
                    self._record(
                        "initcheck",
                        "uninit_load",
                        warps[j],
                        lanes[j],
                        darr.base_addr + int(idx[j]) * darr.itemsize,
                        f"{opname} of never-written element {int(idx[j])}",
                        op=opname,
                        index=int(idx[j]),
                    )
        if self.racecheck:
            self._race_check(darr, idx, per_access(warps), per_access(lanes), write, atomic, opname)
        if self.initcheck and write:
            self._bitmap(darr)[idx] = True
        return keep

    def _race_check(self, darr, idx, warps, lanes, write, atomic, opname) -> None:
        sh = self._shadow(darr)
        # Two lanes of one instruction storing to the same address: which
        # store lands is undefined on hardware (the simulator picks lane
        # order, which is exactly why this must be flagged).
        if write and not atomic and idx.size > 1:
            order = np.argsort(idx, kind="stable")
            si = idx[order]
            dup = np.zeros(si.size, dtype=bool)
            dup[1:] = si[1:] == si[:-1]
            for pos in np.nonzero(dup)[0][:_PER_CALL_CAP].tolist():
                j, jp = int(order[pos]), int(order[pos - 1])
                self._record(
                    "racecheck",
                    "race",
                    warps[j],
                    lanes[j],
                    darr.base_addr + int(idx[j]) * darr.itemsize,
                    f"lanes {int(lanes[jp])} and {int(lanes[j])} of warp "
                    f"{int(warps[j])} store to the same address in one "
                    f"non-atomic instruction",
                    op=opname,
                    other_warp=int(warps[jp]),
                    other_lane=int(lanes[jp]),
                )
        pw = sh["warp"][idx]
        has_prev = pw >= 0
        if has_prev.any():
            pl = sh["lane"][idx]
            pe = sh["epoch"][idx]
            pa = sh["atomic"][idx]
            cur_epoch = self._epochs[warps]
            same_warp = pw == warps
            # Cooperative (span) ops run converged: ordered with respect
            # to everything their own warp does.  Same lane = program
            # order.  Epoch changed = a __syncwarp intervened.
            benign_same = (pl == -1) | (lanes == -1) | (pl == lanes) | (pe != cur_epoch)
            conflict = has_prev & ~(pa & atomic)
            conflict &= np.where(same_warp, ~benign_same, True)
            for j in np.nonzero(conflict)[0][:_PER_CALL_CAP].tolist():
                kind_a = "atomic" if atomic else ("store" if write else "load")
                kind_b = "atomic store" if pa[j] else "store"
                scope = "warp-internal" if same_warp[j] else "cross-warp"
                self._record(
                    "racecheck",
                    "race",
                    warps[j],
                    lanes[j],
                    darr.base_addr + int(idx[j]) * darr.itemsize,
                    f"{scope} hazard: {kind_a} by warp {int(warps[j])} lane "
                    f"{int(lanes[j])} vs {kind_b} by warp {int(pw[j])} lane "
                    f"{int(pl[j])} with no sync between",
                    op=opname,
                    other_warp=int(pw[j]),
                    other_lane=int(pl[j]),
                    other_atomic=bool(pa[j]),
                )
        if write:
            sh["warp"][idx] = warps
            sh["lane"][idx] = lanes
            sh["epoch"][idx] = self._epochs[warps]
            sh["atomic"][idx] = atomic

    def span(
        self,
        darr,
        start,
        length,
        warp,
        *,
        write: bool,
        op: str = "",
    ) -> bool:
        """Check one warp-cooperative contiguous span access (lane ``-1``).

        Returns False when memcheck suppressed the whole span (freed
        array or out-of-bounds range), True otherwise.
        """
        start, length = int(start), int(length)
        if length <= 0:
            return True
        self.n_checked += length
        warp = int(warp)
        opname = op or ("store_span" if write else "load_span")
        if self.memcheck:
            if getattr(darr, "freed", False):
                self._record(
                    "memcheck",
                    "use_after_free",
                    warp,
                    -1,
                    darr.base_addr,
                    f"{opname} touches a freed device allocation",
                    op=opname,
                )
                return False
            if start < 0 or start + length > darr.data.size:
                kind = "oob_store" if write else "oob_load"
                self._record(
                    "memcheck",
                    kind,
                    warp,
                    -1,
                    darr.base_addr + start * darr.itemsize,
                    f"{opname} [{start}, {start + length}) outside "
                    f"[0, {darr.data.size})",
                    op=opname,
                    start=start,
                    length=length,
                )
                return False
        sl = slice(start, start + length)
        if self.initcheck and not write:
            bm = self._bitmap(darr)
            uninit = ~bm[sl]
            if uninit.any():
                first = start + int(np.argmax(uninit))
                self._record(
                    "initcheck",
                    "uninit_load",
                    warp,
                    -1,
                    darr.base_addr + first * darr.itemsize,
                    f"{opname} reads never-written element {first} "
                    f"({int(uninit.sum())} uninitialised in span)",
                    op=opname,
                    index=first,
                )
        if self.racecheck:
            sh = self._shadow(darr)
            pw = sh["warp"][sl]
            conflict = (pw >= 0) & (pw != warp)
            if conflict.any():
                j = int(np.argmax(conflict))
                self._record(
                    "racecheck",
                    "race",
                    warp,
                    -1,
                    darr.base_addr + (start + j) * darr.itemsize,
                    f"cross-warp hazard: {opname} by warp {warp} vs store "
                    f"by warp {int(pw[j])} lane {int(sh['lane'][sl][j])} "
                    f"with no sync between",
                    op=opname,
                    other_warp=int(pw[j]),
                    other_lane=int(sh["lane"][sl][j]),
                )
            if write:
                sh["warp"][sl] = warp
                sh["lane"][sl] = -1
                sh["epoch"][sl] = self._epochs[warp]
                sh["atomic"][sl] = False
        if self.initcheck and write:
            self._bitmap(darr)[sl] = True
        return True

    def byte_gather(self, darr, starts, nbytes, warps, lanes, op: str = "") -> None:
        """Check per-lane byte-offset read streams (the key-compare gathers).

        Each lane reads ``[starts[i], starts[i] + nbytes)`` bytes; the
        touched *elements* are checked as reads.
        """
        nbytes = int(nbytes)
        starts = np.atleast_1d(np.asarray(starts, dtype=np.int64))
        if nbytes <= 0 or starts.size == 0:
            return
        warps = np.broadcast_to(np.asarray(warps, dtype=np.int64), starts.shape)
        lanes = np.broadcast_to(np.asarray(lanes, dtype=np.int64), starts.shape)
        opname = op or "gather_span"
        e0 = starts // darr.itemsize
        e1 = (starts + nbytes - 1) // darr.itemsize + 1
        self.n_checked += int((e1 - e0).sum())
        if self.memcheck:
            if getattr(darr, "freed", False):
                self._record(
                    "memcheck",
                    "use_after_free",
                    warps[0],
                    lanes[0],
                    darr.base_addr,
                    f"{opname} touches a freed device allocation",
                    op=opname,
                )
                return
            bad = (starts < 0) | (e1 > darr.data.size)
            if bad.any():
                for j in np.nonzero(bad)[0][:_PER_CALL_CAP].tolist():
                    self._record(
                        "memcheck",
                        "oob_load",
                        warps[j],
                        lanes[j],
                        darr.base_addr + int(starts[j]),
                        f"{opname} of {nbytes} bytes at byte offset "
                        f"{int(starts[j])} overruns [0, {darr.nbytes})",
                        op=opname,
                        byte_start=int(starts[j]),
                        nbytes=nbytes,
                    )
                ok = ~bad
                starts, warps, lanes, e0, e1 = (
                    starts[ok], warps[ok], lanes[ok], e0[ok], e1[ok]
                )
                if starts.size == 0:
                    return
        if not (self.initcheck or self.racecheck):
            return
        width = int((e1 - e0).max())
        cols = np.arange(width, dtype=np.int64)
        grid = e0[:, None] + cols[None, :]
        valid = cols[None, :] < (e1 - e0)[:, None]
        idx = grid[valid]
        w2 = np.broadcast_to(warps[:, None], grid.shape)[valid]
        l2 = np.broadcast_to(lanes[:, None], grid.shape)[valid]
        if self.initcheck:
            bm = self._bitmap(darr)
            uninit = ~bm[idx]
            if uninit.any():
                for j in np.nonzero(uninit)[0][:_PER_CALL_CAP].tolist():
                    self._record(
                        "initcheck",
                        "uninit_load",
                        w2[j],
                        l2[j],
                        darr.base_addr + int(idx[j]) * darr.itemsize,
                        f"{opname} reads never-written element {int(idx[j])}",
                        op=opname,
                        index=int(idx[j]),
                    )
        if self.racecheck:
            self._race_check(darr, idx, w2, l2, False, False, opname)
