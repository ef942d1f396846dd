"""Streams, events and the placed timeline (repro.gpusim.streams).

The contract under test: ops on one stream serialise, ops on different
streams overlap unless ordered by events, ``serialize=True`` collapses
all concurrency, and the chrome-trace export is structurally valid.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.gpusim.kernel import GpuContext
from repro.gpusim.streams import HOST_LANE, Event, StreamTimeline


class TestStreamPlacement:
    def test_ops_on_one_stream_serialize(self):
        tl = StreamTimeline()
        s = tl.stream("s0")
        tl.push(s, "a", "kernel", 1.0)
        tl.push(s, "b", "kernel", 2.0)
        assert [op.start_s for op in tl.ops] == [0.0, 1.0]
        assert tl.end_s() == 3.0

    def test_ops_on_different_streams_overlap(self):
        tl = StreamTimeline()
        tl.push(tl.stream("s0"), "a", "kernel", 2.0)
        tl.push(tl.stream("s1"), "b", "h2d", 1.5)
        assert [op.start_s for op in tl.ops] == [0.0, 0.0]
        assert tl.makespan() == 2.0  # not 3.5: they overlap

    def test_event_orders_across_streams(self):
        tl = StreamTimeline()
        ev = tl.push(tl.stream("copy"), "H2D", "h2d", 1.0)
        tl.push(tl.stream("compute"), "K", "kernel", 2.0, deps=(ev,))
        kernel_op = tl.ops[-1]
        assert kernel_op.start_s == 1.0
        assert tl.makespan() == 3.0

    def test_record_and_wait(self):
        tl = StreamTimeline()
        a, b = tl.stream("a"), tl.stream("b")
        tl.push(a, "x", "kernel", 4.0)
        ev = a.record()
        assert ev.recorded and ev.time_s == 4.0
        b.wait(ev)
        tl.push(b, "y", "kernel", 1.0)
        assert tl.ops[-1].start_s == 4.0
        assert b.synchronize() == 5.0

    def test_waiting_on_unrecorded_event_raises(self):
        tl = StreamTimeline()
        with pytest.raises(ValueError, match="unrecorded"):
            tl.stream("s").wait(Event())
        with pytest.raises(ValueError, match="unrecorded"):
            tl.push(tl.stream("s"), "op", "kernel", 1.0, deps=(Event(),))

    def test_elapsed_since(self):
        tl = StreamTimeline()
        s = tl.stream("s")
        e0 = s.record()
        tl.push(s, "x", "kernel", 2.5)
        e1 = s.record()
        assert e1.elapsed_since(e0) == 2.5
        with pytest.raises(ValueError):
            e1.elapsed_since(Event())

    def test_negative_duration_rejected(self):
        tl = StreamTimeline()
        with pytest.raises(ValueError, match="negative"):
            tl.push(tl.stream("s"), "op", "kernel", -1.0)

    def test_serialize_collapses_concurrency(self):
        tl = StreamTimeline(serialize=True)
        tl.push(tl.stream("s0"), "a", "kernel", 2.0)
        tl.push(tl.stream("s1"), "b", "h2d", 1.5)
        tl.push(tl.stream("s0"), "c", "d2h", 0.5)
        # every op chained globally: makespan == serial sum
        assert tl.makespan() == pytest.approx(4.0)
        starts = [op.start_s for op in tl.ops]
        assert starts == [0.0, 2.0, 3.5]


class TestHostSlices:
    def test_host_slice_measures_and_places(self):
        tl = StreamTimeline()
        with tl.host_slice("pack") as h:
            sum(range(10000))
        assert h.event is not None and h.event.recorded
        (op,) = tl.ops
        assert op.cat == "host" and op.lane == HOST_LANE
        assert op.dur_s >= 0.0
        assert tl.lane_busy_s(HOST_LANE) == op.dur_s

    def test_host_slice_respects_deps(self):
        tl = StreamTimeline()
        ev = tl.push(tl.stream("compute"), "K", "kernel", 3.0)
        with tl.host_slice("unpack", "host.drive", deps=(ev,)):
            pass
        assert tl.ops[-1].start_s == 3.0

    def test_device_span_excludes_host_ops(self):
        tl = StreamTimeline()
        with tl.host_slice("pack"):
            pass
        assert tl.device_span_s() == 0.0
        tl.push(tl.stream("s"), "K", "kernel", 2.0)
        assert tl.device_span_s() == pytest.approx(2.0)


class TestChromeTrace:
    def test_trace_structure(self, tmp_path):
        tl = StreamTimeline()
        ev = tl.push(tl.stream("copy0"), "H2D", "h2d", 1e-3, nbytes=4096)
        tl.push(tl.stream("compute"), "K", "kernel", 2e-3, deps=(ev,))
        with tl.host_slice("stage"):
            pass
        trace = tl.chrome_trace()
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        lanes = {e["args"]["name"]: e["tid"] for e in meta}
        assert set(lanes) == {"copy0", "compute", HOST_LANE}
        # host lanes get the lowest tids so they render on top
        assert lanes[HOST_LANE] < lanes["compute"]
        k = next(e for e in slices if e["name"] == "K")
        assert k["ts"] == pytest.approx(1e3) and k["dur"] == pytest.approx(2e3)
        h2d = next(e for e in slices if e["name"] == "H2D")
        assert h2d["args"]["nbytes"] == 4096

        path = tmp_path / "trace.json"
        tl.save_chrome_trace(path)
        assert json.loads(path.read_text()) == trace


def _noop_kernel(warp, warp_id, out):
    warp.global_store(out, warp_id, 1)


class TestContextAsyncApi:
    def test_auto_engine_resolves_to_batched(self):
        ctx = GpuContext()
        assert ctx.engine == "auto" and ctx.engine_mode == "batched"

    def test_to_device_async_accounts_and_places(self):
        ctx = GpuContext(overlap="on")
        host = np.arange(1024, dtype=np.int64)
        darr, ev = ctx.to_device_async(host, ctx.stream("copy0"))
        assert np.array_equal(darr.data, host)
        assert ctx.h2d_bytes == host.nbytes == ctx.transfer_bytes
        assert ev.recorded and ev.time_s == ctx.synchronize()
        (op,) = ctx.timeline.ops
        assert op.cat == "h2d" and op.nbytes == host.nbytes

    def test_from_device_regions_async_charges_only_spans(self):
        ctx = GpuContext(overlap="on")
        darr = ctx.to_device(np.arange(1000, dtype=np.int32))
        spans, ev = ctx.from_device_regions_async(
            darr, [(0, 10), (500, 520)], ctx.stream("copy0")
        )
        assert [s.tolist() for s in spans] == [
            list(range(10)), list(range(500, 520))
        ]
        assert ctx.d2h_bytes == 30 * 4  # span bytes only, not 4000
        assert ev.recorded

    def test_launch_async_places_modelled_kernel_time(self):
        ctx = GpuContext(engine="sequential", overlap="on")
        out = ctx.alloc(4, np.int64)
        upl = ctx.stream("copy0").record()
        result, ev = ctx.launch_async(
            "k", _noop_kernel, 4, out, stream=ctx.stream("compute"),
            deps=(upl,),
        )
        assert result.time_s > 0
        op = ctx.timeline.ops[-1]
        assert op.cat == "kernel" and op.dur_s == result.time_s
        assert ctx.synchronize() == pytest.approx(op.end_s)

    def test_export_trace(self, tmp_path):
        ctx = GpuContext(overlap="on")
        ctx.to_device_async(np.zeros(8), ctx.stream("copy0"))
        path = tmp_path / "t.json"
        ctx.export_trace(path)
        assert "traceEvents" in json.loads(path.read_text())

    def test_overlap_validation(self):
        with pytest.raises(ValueError, match="overlap"):
            GpuContext(overlap="maybe")

    def test_overlap_off_context_serializes_timeline(self):
        ctx = GpuContext(overlap="off")
        ctx.to_device_async(np.zeros(1 << 20, dtype=np.uint8),
                            ctx.stream("copy0"))
        ctx.to_device_async(np.zeros(1 << 20, dtype=np.uint8),
                            ctx.stream("copy1"))
        total = sum(op.dur_s for op in ctx.timeline.ops)
        assert ctx.synchronize() == pytest.approx(total)
