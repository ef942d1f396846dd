"""CUDA-style streams and events for the simulated device.

A real overlapped GPU driver hides host→device transfers and host-side
staging behind kernel execution by issuing work on multiple *streams* and
ordering it with *events* (cudaStreamWaitEvent / cudaEventRecord).  The
simulator reproduces that machinery on its modelled clock:

* a :class:`Stream` is a serialised lane of operations with its own
  modelled cursor — ops on one stream run back to back, ops on different
  streams may overlap;
* an :class:`Event` captures a point on a stream's clock; another stream
  that ``wait()``\\ s on it will not start subsequent ops earlier;
* the :class:`StreamTimeline` owns every lane, *places* each op by its
  dependency structure (start = max of the lane cursor and all awaited
  events) and exposes the **critical path** — the makespan of the whole
  timeline — which is what the driver now reports as its GPU-path time
  instead of summing kernel + transfer serially.

Two kinds of duration coexist on the time axis:

* **device ops** (H2D, kernels, D2H) carry *modelled* V100 seconds from
  :class:`~repro.gpusim.timing.TimingModel`;
* **host ops** (batch staging, result unpacking) carry *measured* CPU
  seconds of the thread that did the work (``time.thread_time``, so
  other threads timesharing the core — the service's job fleet — do not
  inflate them).

Placement is simulated, never wall-clock: the host thread that issues an
op does not matter, only the declared dependencies do.  That keeps the
timeline deterministic up to host-op durations and immune to the GIL /
scheduler artifacts of running a "GPU" in Python.

``serialize=True`` (the ``overlap=off`` mode) chains *every* op globally
— the timeline then degenerates to the old fully-synchronous driver and
its makespan equals the serial sum of all op durations.

The timeline exports a ``chrome://tracing`` / Perfetto JSON trace
(:meth:`StreamTimeline.chrome_trace`) as the profiling hook: one row per
stream plus one per host lane, kernels/copies as complete ("X") slices.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["Event", "Stream", "StreamTimeline", "TimelineOp", "HOST_LANE"]

#: default lane name for host-side slices.
HOST_LANE = "host"


@dataclass(frozen=True)
class TimelineOp:
    """One placed operation: a complete slice on one lane."""

    name: str
    #: "h2d" | "kernel" | "d2h" | "host"
    cat: str
    lane: str
    start_s: float
    dur_s: float
    nbytes: int = 0

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s


class Event:
    """A point on a stream's modelled clock (cudaEvent analogue).

    Created unrecorded; :meth:`Stream.record` stamps it.  Waiting on an
    unrecorded event is an error — the simulator has no "not yet
    recorded means pass-through" ambiguity to hide bugs in.
    """

    __slots__ = ("time_s", "recorded", "lane")

    def __init__(self) -> None:
        self.time_s = 0.0
        self.recorded = False
        self.lane = ""

    def _record(self, time_s: float, lane: str) -> None:
        self.time_s = time_s
        self.recorded = True
        self.lane = lane

    def elapsed_since(self, earlier: "Event") -> float:
        """Modelled seconds between two recorded events (cudaEventElapsedTime)."""
        if not (self.recorded and earlier.recorded):
            raise ValueError("both events must be recorded")
        return self.time_s - earlier.time_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.time_s:.3e}s @{self.lane}" if self.recorded else "unrecorded"
        return f"Event({state})"


class Stream:
    """A serialised lane of modelled operations with its own clock."""

    def __init__(self, timeline: "StreamTimeline", name: str) -> None:
        self.timeline = timeline
        self.name = name
        #: modelled time at which the last enqueued op finishes.
        self.cursor_s = 0.0

    def wait(self, event: Event) -> None:
        """Subsequent ops on this stream start no earlier than *event*."""
        if not event.recorded:
            raise ValueError(f"stream {self.name!r} waiting on unrecorded event")
        with self.timeline._lock:
            self.cursor_s = max(self.cursor_s, event.time_s)

    def record(self) -> Event:
        """Capture this stream's current cursor as an event."""
        ev = Event()
        with self.timeline._lock:
            ev._record(self.cursor_s, self.name)
        return ev

    def synchronize(self) -> float:
        """Modelled completion time of everything enqueued so far."""
        return self.cursor_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream({self.name!r}, cursor={self.cursor_s:.3e}s)"


class _HostSlice:
    """Handle yielded by :meth:`StreamTimeline.host_slice`; carries the
    completion :class:`Event` once the ``with`` block exits."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event: Event | None = None


class StreamTimeline:
    """All lanes of one simulated device run, with op placement.

    With ``serialize=True`` every pushed op additionally waits for the
    global end of the timeline, collapsing all concurrency — the
    ``overlap=off`` semantics.
    """

    def __init__(self, serialize: bool = False) -> None:
        self.serialize = serialize
        self.ops: list[TimelineOp] = []
        self._streams: dict[str, Stream] = {}
        #: running end of the last-finishing op (kept, not rescanned).
        self._end_s = 0.0
        #: guards ops + every stream cursor, should a caller push from
        #: more than one thread (the driver itself pushes from one).
        self._lock = threading.Lock()

    # -- lanes -----------------------------------------------------------------

    def stream(self, name: str) -> Stream:
        """Get (or lazily create) the stream named *name*."""
        with self._lock:
            if name not in self._streams:
                self._streams[name] = Stream(self, name)
            return self._streams[name]

    @property
    def streams(self) -> tuple[Stream, ...]:
        return tuple(self._streams.values())

    # -- placement -------------------------------------------------------------

    def push(
        self,
        stream: Stream,
        name: str,
        cat: str,
        dur_s: float,
        deps: tuple = (),
        nbytes: int = 0,
    ) -> Event:
        """Place one op on *stream* and return its completion event.

        Start time = max(stream cursor, every dependency event, and —
        under ``serialize`` — the current end of the whole timeline).
        """
        if dur_s < 0:
            raise ValueError(f"op {name!r} has negative duration {dur_s}")
        for ev in deps:
            if not ev.recorded:
                raise ValueError(f"op {name!r} depends on an unrecorded event")
        with self._lock:
            start = stream.cursor_s
            for ev in deps:
                start = max(start, ev.time_s)
            if self.serialize:
                start = max(start, self._end_s)
            op = TimelineOp(
                name=name, cat=cat, lane=stream.name,
                start_s=start, dur_s=dur_s, nbytes=nbytes,
            )
            self.ops.append(op)
            stream.cursor_s = op.end_s
            self._end_s = max(self._end_s, op.end_s)
            done = Event()
            done._record(op.end_s, stream.name)
        return done

    @contextmanager
    def host_slice(self, name: str, lane: str = HOST_LANE, deps: tuple = ()):
        """Measure a block of host work and place it on a host lane.

        The duration is the calling thread's CPU time (so concurrent
        lanes on an oversubscribed box do not inflate each other); the
        placement follows *deps* like any other op.  Yields a
        :class:`_HostSlice` whose ``event`` is set on exit.
        """
        handle = _HostSlice()
        t0 = time.thread_time()
        try:
            yield handle
        finally:
            dur = max(0.0, time.thread_time() - t0)
            handle.event = self.push(self.stream(lane), name, "host", dur, deps)

    # -- aggregation -----------------------------------------------------------

    def end_s(self) -> float:
        """End of the last placed op (0.0 for an empty timeline)."""
        with self._lock:
            return self._end_s

    def makespan(self) -> float:
        """The measured critical path: timeline start (0) to last op end."""
        return self.end_s()

    def lane_busy_s(self, lane: str) -> float:
        """Total op duration on one lane (busy time, not span)."""
        with self._lock:
            return sum(op.dur_s for op in self.ops if op.lane == lane)

    def device_span_s(self) -> float:
        """First device-op start to last device-op end (host lanes excluded)."""
        with self._lock:
            dev = [op for op in self.ops if op.cat != "host"]
        if not dev:
            return 0.0
        return max(op.end_s for op in dev) - min(op.start_s for op in dev)

    # -- trace export ----------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The timeline as a ``chrome://tracing`` / Perfetto JSON object.

        Complete ("X") slices, microsecond timestamps, one tid per lane
        (host lanes first), thread-name metadata so the viewer labels
        rows.  Load via chrome://tracing or https://ui.perfetto.dev.
        """
        with self._lock:
            ops = list(self.ops)
        lanes: list[str] = []
        for op in ops:
            if op.lane not in lanes:
                lanes.append(op.lane)
        lanes.sort(key=lambda l: (0 if l.startswith("host") else 1, l))
        tid = {lane: i for i, lane in enumerate(lanes)}
        events: list[dict] = [
            {
                "ph": "M", "pid": 0, "tid": tid[lane],
                "name": "thread_name", "args": {"name": lane},
            }
            for lane in lanes
        ]
        for op in ops:
            ev = {
                "ph": "X", "pid": 0, "tid": tid[op.lane],
                "name": op.name, "cat": op.cat,
                "ts": op.start_s * 1e6, "dur": op.dur_s * 1e6,
            }
            if op.nbytes:
                ev["args"] = {"nbytes": op.nbytes}
            events.append(ev)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save_chrome_trace(self, path) -> None:
        """Write :meth:`chrome_trace` as JSON to *path*."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
