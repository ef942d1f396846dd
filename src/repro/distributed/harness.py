"""One rank harness: launch, mailbox, failure route, tracing — no stage logic.

Every distributed stage of MetaHipMer2 is the same five steps: local
work, one-sided put, fence, get, owner-side reduce.  :func:`run_ranks`
owns them once, for every stage; a :class:`Stage` supplies only a name,
its phase names, the layout of its wire rows and owned tables, and two
pure callables (``docs/architecture.md``, Layer 6, has the long form):

* ``produce(rank, clock) -> (rows, dest_counts, carry)`` — the local
  work before the fence.  *rows* are in outbox layout (destination 0's
  rows first, then destination 1's, …), ``dest_counts[d]`` says how many
  go to rank *d*, *carry* is whatever the rank wants back after the
  fence.  The stage closes the phases it runs itself with
  ``clock.mark(name)``; ``clock.profiler`` is the rank's
  :class:`~repro.perf.HostProfiler` for finer breakdowns.
* ``consume(rank, inbox, carry) -> owned tables`` — the owner-side
  reduce over every row destined to *rank* (source 0's first).

A stage with no exchange (local assembly) leaves ``wire`` and
``consume`` unset and its ``produce`` returns the owned tables directly.

Two transports sit behind one mailbox interface and the same rank body
(:func:`_rank_body`) runs on both.  **Shared segments**: one forked
process per rank; outboxes and owned tables are exactly-sized named
segments (``repro-<token>-out<r>``, ``-own<r>.<i>``) that peers and the
parent attach by constructed name, offsets come from a shared ``(R, R)``
counts matrix, a barrier is the fence.  No bytes move through pipes or
pickles, and whatever the stage's callables close over — the reads, a
built seed index — is inherited across ``fork``, not sent.  **Lists**:
the ranks take turns in the calling process and the shuffle is
:func:`exchange_rows`.  Which one runs follows from the platform, never
from a caller: segments when :func:`procrank_available` and there is
more than one rank, lists otherwise (``report.mode`` says which).

Failure route: every derivable segment name is registered under the
launch token before the first fork.  A rank that raises aborts the
barrier and exits 1; the parent waits on the process sentinels and
aborts the barrier itself the moment any rank exits non-zero, so a rank
killed outright still wakes its peers at once; ranks alive at the
deadline are terminated.  The caller gets one ``RuntimeError`` naming
the ranks that failed, not the peers that merely stopped at the broken
fence (``TimeoutError`` for a hang), and ``/dev/shm`` is as it was.
``sanitize="rankcheck"`` traces every segment access the harness makes
and checks happens-before and leaks (:mod:`repro.sanitize.rankcheck`).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import shutil
import sys
import tempfile
import threading
import time
import traceback
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field
from multiprocessing.connection import wait as wait_sentinels
from pathlib import Path

import numpy as np

from repro.distributed.shmem import (
    attach_shared_array,
    cleanup_launch_segments,
    create_named_shared_array,
    create_shared_array,
    launch_token,
    register_launch_segment,
    shared_memory_available,
)
from repro.perf import HostProfiler
from repro.sanitize.rankcheck import (
    RANK_SANITIZE_MODES,
    RankTracer,
    SegmentLedger,
    build_rank_report,
    check_happens_before,
)

__all__ = [
    "Stage",
    "RankClock",
    "RankMetrics",
    "RankRunReport",
    "RankRun",
    "run_ranks",
    "exchange_rows",
    "procrank_available",
]

_STATUS_OK = 1
_STATUS_BROKEN = -1  # stopped at a broken fence: a casualty, not the cause

# Test-only fault injection (fork-inherited module globals, so tests can
# flip them in the parent and the rank children see the values):
# _INJECT_RACE makes the last rank re-write rank 0's outbox *after* the
# barrier — value-neutral (same bytes), so results stay bit-identical,
# but it is exactly the unsynchronized cross-rank write rankcheck must
# flag.  _CRASH_RANK crashes that rank between publishing its outbox and
# reaching the barrier — the abort route whose cleanup the crash tests
# prove leaves /dev/shm empty.
_INJECT_RACE = False
_CRASH_RANK: int | None = None


def procrank_available() -> bool:
    """True when real process ranks can run here (fork + shared memory)."""
    if sys.platform == "win32":  # pragma: no cover - POSIX-only repo
        return False
    try:
        mp.get_context("fork")
    except ValueError:  # pragma: no cover - no fork start method
        return False
    return shared_memory_available()


def exchange_rows(
    rows_by_src: list[np.ndarray], counts: np.ndarray
) -> list[np.ndarray]:
    """The alltoallv shuffle as a pure function: slice every source's
    grouped rows into per-destination inboxes.

    ``counts[src, dest]`` is the row count source *src* sends to *dest*
    (what the shared counts matrix holds at the fence).  Returns one
    concatenated inbox per destination.  The tests assert the union of
    inboxes is a permutation of the union of outboxes — no record is
    lost, duplicated or torn by the shuffle.
    """
    n_ranks = len(rows_by_src)
    counts = np.asarray(counts, dtype=np.int64)
    inboxes: list[list[np.ndarray]] = [[] for _ in range(n_ranks)]
    for src, rows in enumerate(rows_by_src):
        offs = np.zeros(n_ranks + 1, dtype=np.int64)
        np.cumsum(counts[src], out=offs[1:])
        if int(offs[-1]) != len(rows):
            raise ValueError(
                f"rank {src}: counts row sums to {int(offs[-1])}, "
                f"outbox has {len(rows)} rows"
            )
        for dest in range(n_ranks):
            inboxes[dest].append(rows[offs[dest] : offs[dest + 1]])
    width = rows_by_src[0].shape[1] if rows_by_src else 0
    return [
        np.concatenate(parts)
        if parts
        else np.empty((0, width), dtype=np.uint64)
        for parts in inboxes
    ]


# -- what a stage supplies ---------------------------------------------------


@dataclass(frozen=True)
class Stage:
    """One ranked stage, as the harness sees it (module docstring).

    ``wire`` is the ``(dtype, width)`` of an outbox row and ``owned`` the
    ``(dtype, ncols)`` of each row table a rank ends up owning — what a
    peer or the parent needs to attach a published segment.  ``phases``
    are in execution order; the harness itself closes the last three of
    an exchanging stage (after the put, the get and the publication) and
    the last one of a stage without exchange.
    """

    name: str
    phases: tuple[str, ...]
    produce: Callable
    consume: Callable | None = None
    wire: tuple | None = None
    owned: tuple = ()


class RankClock:
    """One rank's phase clock: wall seconds by phase name, mirrored into
    the rank's :class:`~repro.perf.HostProfiler` when profiling is on."""

    def __init__(self, rank: int, profile: bool) -> None:
        self.profiler = HostProfiler(enabled=profile)
        self.seconds: dict[str, float] = {}
        self._label = f"rank{rank}"
        self._t0 = time.perf_counter()

    def restart(self) -> None:
        """Start the next phase now (time since the last mark was not
        this rank's work: the fence wait, or another rank's turn)."""
        self._t0 = time.perf_counter()

    def mark(self, phase: str) -> None:
        """Close *phase*: everything since the last mark or restart."""
        now = time.perf_counter()
        self.seconds[phase] = now - self._t0
        self.profiler.add(phase, self._label, self._t0, now - self._t0)
        self._t0 = now

    def phase_seconds(self, phases: tuple[str, ...]) -> list[float]:
        """Seconds of *phases*, in order (0.0 for one that never closed)."""
        return [self.seconds.get(p, 0.0) for p in phases]


# -- what a launch returns ---------------------------------------------------


@dataclass
class RankMetrics:
    """Measured per-rank accounting of one ranked stage."""

    rank: int
    wall_s: float
    cpu_s: float
    exchange_s: float  # the get: attach peers, copy out this rank's rows
    phase_s: dict[str, float]  # seconds keyed by the stage's phase names
    sent: int  # rows put for other ranks
    recv: int  # rows got from other ranks

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RankRunReport:
    """One measured multi-rank run of a stage."""

    n_ranks: int
    mode: str  # "procrank" (forked, shared segments) or "inproc" (lists)
    wall_s: float  # parent-side wall clock of the launch
    per_rank: list[RankMetrics] = field(default_factory=list)
    profiles: list[dict] | None = None  # per-rank HostProfiler JSON
    sanitizer: dict | None = None  # SanitizerReport JSON (sanitize=rankcheck)

    @property
    def cpu_critical_s(self) -> float:
        """Max per-rank CPU seconds: the strong-scaling critical path on
        hosts where wall clock measures time-slicing, not work."""
        return max((m.cpu_s for m in self.per_rank), default=0.0)

    @property
    def cpu_total_s(self) -> float:
        return sum(m.cpu_s for m in self.per_rank)

    def to_dict(self) -> dict:
        d = {
            "n_ranks": self.n_ranks,
            "mode": self.mode,
            "wall_s": self.wall_s,
            "cpu_critical_s": self.cpu_critical_s,
            "cpu_total_s": self.cpu_total_s,
            "per_rank": [m.to_dict() for m in self.per_rank],
        }
        if self.sanitizer is not None:
            d["sanitizer"] = self.sanitizer
        return d


@dataclass
class RankRun:
    """What :func:`run_ranks` hands back to the stage's own merge step."""

    owned: list[tuple[np.ndarray, ...]]  # per rank, in ``Stage.owned`` order
    counts: np.ndarray  # (R, R) rows sent, [src, dest]; zeros without exchange
    report: RankRunReport


# -- the mailbox: two transports, one interface ------------------------------


class _ListBox:
    """List transport: every rank's outbox stays in this interpreter and
    the shuffle is :func:`exchange_rows`, run once at the first get."""

    def __init__(self, n_ranks: int) -> None:
        self.counts = np.zeros((n_ranks, n_ranks), dtype=np.int64)
        self.owned: list[tuple] = [()] * n_ranks
        self._rows: list = [None] * n_ranks
        self._inboxes: list[np.ndarray] | None = None

    def put(self, rank: int, rows: np.ndarray, dest_counts: np.ndarray) -> None:
        self._rows[rank] = rows
        self.counts[rank, :] = dest_counts

    def get(self, rank: int) -> np.ndarray:
        if self._inboxes is None:
            self._inboxes = exchange_rows(self._rows, self.counts)
        return self._inboxes[rank]

    def publish(self, rank: int, owned: tuple) -> None:
        self.owned[rank] = tuple(owned)


def _seg_name(token: str, label: str) -> str:
    """Segment name of *label* (``out<r>``, ``own<r>.<i>``: the tracer's names)."""
    return f"repro-{token}-{label}"


def _row_bytes(arr: np.ndarray, r: int) -> tuple[int, int]:
    """Byte range of row *r* of a control array (what the tracer records)."""
    return r * arr[r].nbytes, (r + 1) * arr[r].nbytes


@dataclass
class _Control:
    """What the parent shares with its forked ranks (inherited pages)."""

    token: str
    counts: np.ndarray  # (R, R) int64, row r written by rank r before the fence
    own_rows: np.ndarray  # (R, len(stage.owned)) int64 row counts
    metrics: np.ndarray  # (R, 2 + len(stage.phases)) float64: wall, cpu, phases
    status: np.ndarray  # (R, 1) int64, 0 until the rank finishes or stops
    barrier: object
    timeout_s: float
    scratch: str | None  # directory for per-rank profile / trace dumps
    profile: bool
    trace: bool


class _ShmBox:
    """Shared-segment transport of one forked rank; records every segment
    access it makes on the rank's tracer."""

    def __init__(self, stage: Stage, ctl: _Control, tracer: RankTracer) -> None:
        self.stage, self.ctl, self.tracer = stage, ctl, tracer
        self._rows: np.ndarray | None = None

    def _create(self, label: str, arr: np.ndarray, shape: tuple, dtype) -> None:
        """Publish *arr* as the exactly-sized named segment *label*."""
        seg = create_named_shared_array(_seg_name(self.ctl.token, label), shape, dtype)
        if arr.size:
            seg[...] = arr
        self.tracer.write(label, 0, seg.nbytes)

    def put(self, rank: int, rows: np.ndarray, dest_counts: np.ndarray) -> None:
        dtype, width = self.stage.wire
        self._create(f"out{rank}", rows, (len(rows), width), dtype)
        self.ctl.counts[rank, :] = dest_counts
        self.tracer.write("counts", *_row_bytes(self.ctl.counts, rank))
        self._rows = rows

    def get(self, rank: int) -> np.ndarray:
        dtype, width = self.stage.wire
        counts, token = self.ctl.counts, self.ctl.token
        n_ranks = len(counts)
        row_bytes = width * np.dtype(dtype).itemsize
        inbox = np.empty((int(counts[:, rank].sum()), width), dtype=dtype)
        offs = np.zeros(n_ranks + 1, dtype=np.int64)
        attached: list = []
        at = 0
        try:
            for src in range(n_ranks):
                np.cumsum(counts[src], out=offs[1:])
                self.tracer.read("counts", *_row_bytes(counts, src))
                if src == rank:
                    box = self._rows  # own outbox: already local
                else:
                    name, shape = _seg_name(token, f"out{src}"), (int(offs[-1]), width)
                    box = attach_shared_array(name, shape, dtype)
                    attached.append(box)
                lo, hi = int(offs[rank]), int(offs[rank + 1])
                if hi > lo:
                    inbox[at : at + hi - lo] = box[lo:hi]
                    at += hi - lo
                self.tracer.read(f"out{src}", lo * row_bytes, hi * row_bytes)
                if _INJECT_RACE and rank == n_ranks - 1 and rank != 0 and src == 0:
                    # the bytes already there, written post-fence into a
                    # peer's put epoch: the hazard rankcheck exists to flag
                    snap = np.array(box)
                    box[...] = snap
                    self.tracer.write("out0", 0, snap.nbytes)
        finally:
            for box in attached:
                box.close()
        return inbox

    def publish(self, rank: int, owned: tuple) -> None:
        for i, (arr, (dtype, ncols)) in enumerate(
            zip(owned, self.stage.owned, strict=True)
        ):
            self._create(f"own{rank}.{i}", arr, (len(arr), ncols), dtype)
            self.ctl.own_rows[rank, i] = len(arr)
        self.tracer.write("own_rows", *_row_bytes(self.ctl.own_rows, rank))


# -- the rank body, shared by both transports --------------------------------


def _rank_body(
    stage: Stage, rank: int, n_ranks: int, box, clock: RankClock
) -> Iterator[None]:
    """Everything one rank does, on either transport.  An exchanging
    stage yields exactly once, at the fence: the caller resumes the body
    only when every rank's put is visible."""
    clock.restart()
    if stage.consume is None:
        owned = stage.produce(rank, clock)
    else:
        rows, dest_counts, carry = stage.produce(rank, clock)
        dest_counts = np.asarray(dest_counts, dtype=np.int64)
        # The torn-header guard: a counts row that disagrees with its
        # outbox would make every peer mis-slice silently.
        if dest_counts.shape != (n_ranks,) or int(dest_counts.sum()) != len(rows):
            raise ValueError(
                f"rank {rank}: counts row {dest_counts.tolist()} does not "
                f"describe an outbox of {len(rows)} rows for {n_ranks} ranks"
            )
        box.put(rank, rows, dest_counts)
        clock.mark(stage.phases[-3])
        yield
        clock.restart()
        inbox = box.get(rank)
        clock.mark(stage.phases[-2])
        owned = stage.consume(rank, inbox, carry)
    box.publish(rank, owned)
    clock.mark(stage.phases[-1])


def _rank_main(stage: Stage, rank: int, n_ranks: int, ctl: _Control) -> None:
    """Body of one rank process (fork-started: args are inherited, not
    pickled; the control arrays are the parent's pages)."""
    barrier = ctl.barrier
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        clock = RankClock(rank, ctl.profile)
        tracer = RankTracer(rank)
        box = _ShmBox(stage, ctl, tracer)
        for _ in _rank_body(stage, rank, n_ranks, box, clock):
            if rank == _CRASH_RANK:
                raise RuntimeError("injected crash between publish and barrier")
            # Fence: every outbox and counts row is published past this point.
            barrier.wait(timeout=ctl.timeout_s)
            tracer.barrier()
        ctl.metrics[rank, 2:] = clock.phase_seconds(stage.phases)
        ctl.metrics[rank, 0] = time.perf_counter() - wall0
        ctl.metrics[rank, 1] = time.process_time() - cpu0
        tracer.write("metrics", *_row_bytes(ctl.metrics, rank))
        tracer.write("status", *_row_bytes(ctl.status, rank))
        if ctl.trace:
            tracer.dump(Path(ctl.scratch) / f"trace{rank}.json")
        if ctl.profile:
            clock.profiler.save_json(Path(ctl.scratch) / f"prof{rank}.json")
        ctl.status[rank] = _STATUS_OK
    except threading.BrokenBarrierError:
        ctl.status[rank] = _STATUS_BROKEN  # a peer failed or never arrived
        sys.exit(1)
    except Exception:
        traceback.print_exc()
        try:
            barrier.abort()  # wake peers instead of deadlocking them
        except Exception:
            pass
        sys.exit(1)


# -- the launcher ------------------------------------------------------------


def _join_ranks(procs: list, barrier, deadline: float) -> None:
    """Wait on the process sentinels until every rank has exited or the
    deadline passes.  The moment a rank exits non-zero the barrier is
    aborted from here, so a rank that died without a word (killed, no
    exception, nothing published) wakes its peers at the fence."""
    pending = {p.sentinel: p for p in procs}
    while pending:
        left = max(0.0, deadline - time.monotonic())
        ready = wait_sentinels(list(pending), timeout=left)
        if not ready:
            break  # deadline: the caller terminates whoever is left
        for sentinel in ready:
            p = pending.pop(sentinel)
            p.join()
            if p.exitcode != 0:
                barrier.abort()


def _collect_owned(
    token: str, stage: Stage, own_rows: np.ndarray
) -> list[tuple[np.ndarray, ...]]:
    """Copy every rank's published arrays out of their segments."""
    owned = []
    segs: list = []
    try:
        for r, rows in enumerate(own_rows.tolist()):
            arrays = []
            for i, (n, (dtype, ncols)) in enumerate(zip(rows, stage.owned)):
                name = _seg_name(token, f"own{r}.{i}")
                seg = attach_shared_array(name, (n, ncols), dtype)
                segs.append(seg)
                arrays.append(np.array(seg))
            owned.append(tuple(arrays))
    finally:
        for seg in segs:
            seg.close()
    return owned


def _run_forked(
    stage: Stage, n_ranks: int, timeout_s: float, profile: bool, trace: bool
) -> tuple[list, np.ndarray, np.ndarray, list[dict] | None, list]:
    """Shared-segment transport: one forked process per rank.  Returns
    ``(owned, counts, metrics, profiles, events)``: metrics rows are
    ``[wall_s, cpu_s, *phase seconds]``, events the per-rank tracer
    streams (empty untraced)."""
    ctx = mp.get_context("fork")
    token = launch_token()
    # Register every derivable name *before* forking: if anything below
    # raises, the atexit sweep still unlinks whatever got created.
    for r in range(n_ranks):
        register_launch_segment(token, _seg_name(token, f"out{r}"))
        for i in range(len(stage.owned)):
            register_launch_segment(token, _seg_name(token, f"own{r}.{i}"))

    control: list = []
    procs: list = []
    scratch = None
    try:
        for cols, dtype in (  # one row per rank; see _Control
            (n_ranks, np.int64), (len(stage.owned), np.int64),
            (2 + len(stage.phases), np.float64), (1, np.int64),
        ):
            control.append(create_shared_array((n_ranks, cols), dtype))
        counts, own_rows, metrics, status = control
        barrier = ctx.Barrier(n_ranks)
        if profile or trace:
            scratch = tempfile.mkdtemp(prefix="repro-ranks-")
        ctl = _Control(
            token, counts, own_rows, metrics, status, barrier,
            timeout_s, scratch, profile, trace,
        )
        for r in range(n_ranks):
            name = f"repro-{stage.name}-rank{r}"
            p = ctx.Process(target=_rank_main, args=(stage, r, n_ranks, ctl), name=name)
            p.start()
            procs.append(p)
        # each side of the fence gets timeout_s
        budget = timeout_s * (2 if stage.consume is not None else 1)
        _join_ranks(procs, barrier, time.monotonic() + budget)
        hung = [p.name for p in procs if p.is_alive()]
        if hung:
            raise TimeoutError(f"rank processes hung past timeout: {hung}")
        bad = [
            (p.name, p.exitcode, int(status[i, 0]))
            for i, p in enumerate(procs)
            if p.exitcode != 0 or status[i, 0] != _STATUS_OK
        ]
        if bad:
            cause = [name for name, _, st in bad if st != _STATUS_BROKEN]
            raise RuntimeError(
                f"ranks failed: {', '.join(cause) or 'the fence timed out'}; "
                f"(name, exit code, status) of every rank that did not "
                f"finish: {bad}"
            )

        owned = _collect_owned(token, stage, own_rows)
        ranks = range(n_ranks)
        events, profiles = [], None
        if trace:
            events = [RankTracer.load(Path(scratch) / f"trace{r}.json") for r in ranks]
        if profile:
            profiles = [
                json.loads((Path(scratch) / f"prof{r}.json").read_text()) for r in ranks
            ]
        return owned, np.array(counts), np.array(metrics), profiles, events
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=5.0)
        cleanup_launch_segments(token)
        for arr in control:
            arr.unlink()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def _run_lists(
    stage: Stage, n_ranks: int, profile: bool
) -> tuple[list, np.ndarray, np.ndarray, list[dict] | None, list]:
    """List transport: the ranks take turns in this process — all of
    them up to the fence, then all of them past it.  Returns what
    :func:`_run_forked` does; with no segments there are no events."""
    box = _ListBox(n_ranks)
    clocks = [RankClock(r, profile) for r in range(n_ranks)]
    bodies = [_rank_body(stage, r, n_ranks, box, clocks[r]) for r in range(n_ranks)]
    metrics = np.zeros((n_ranks, 2 + len(stage.phases)))
    for _ in range(2):
        for r, body in enumerate(bodies):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                next(body, None)
            except Exception as exc:
                raise RuntimeError(
                    f"ranks failed: repro-{stage.name}-rank{r} (in-process): {exc!r}"
                ) from exc
            metrics[r, 0] += time.perf_counter() - wall0
            metrics[r, 1] += time.process_time() - cpu0
    for r, clock in enumerate(clocks):
        metrics[r, 2:] = clock.phase_seconds(stage.phases)
    profiles = [c.profiler.to_json() for c in clocks] if profile else None
    return box.owned, box.counts, metrics, profiles, []


def run_ranks(
    stage: Stage,
    n_ranks: int,
    timeout_s: float = 120.0,
    profile: bool = False,
    sanitize: str = "off",
) -> RankRun:
    """Run *stage* across *n_ranks* ranks and collect what they own.

    *timeout_s* bounds the fence wait and each side of it; *profile*
    attaches one :class:`~repro.perf.HostProfiler` dump per rank to the
    report; ``sanitize="rankcheck"`` attaches the race-and-leak report as
    ``report.sanitizer``.  Transports, failure route and tracing are
    described in the module docstring.
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    if sanitize not in RANK_SANITIZE_MODES:
        raise ValueError(
            f"unknown sanitize mode {sanitize!r}; expected one of "
            f"{RANK_SANITIZE_MODES}"
        )
    check = sanitize == "rankcheck"
    ledger = SegmentLedger()
    shm_before = ledger.snapshot() if check else frozenset()
    forked = n_ranks > 1 and procrank_available()
    wall0 = time.perf_counter()
    if forked:
        result = _run_forked(stage, n_ranks, timeout_s, profile, check)
    else:
        result = _run_lists(stage, n_ranks, profile)
    owned, counts, metrics, profiles, events = result
    mode = "procrank" if forked else "inproc"
    report = RankRunReport(n_ranks, mode, time.perf_counter() - wall0, [], profiles)
    exchange = stage.phases[-2] if stage.consume is not None else ""
    for r, (wall_s, cpu_s, *seconds) in enumerate(metrics.tolist()):
        phase_s = dict(zip(stage.phases, seconds))
        exchange_s, local = phase_s.get(exchange, 0.0), int(counts[r, r])
        sent, recv = int(counts[r].sum()) - local, int(counts[:, r].sum()) - local
        report.per_rank.append(
            RankMetrics(r, wall_s, cpu_s, exchange_s, phase_s, sent, recv)
        )
    if check:
        # The list transport is trivially clean (no events, no segments)
        # but still reports.  The leak diff runs *after* the launch's own
        # cleanup: anything live now genuinely escaped its lifecycle.
        races, n_checked = check_happens_before(events)
        leaked = ledger.leaked(shm_before, ledger.snapshot())
        report.sanitizer = build_rank_report(races, leaked, n_checked).to_dict()
    return RankRun(owned, counts, report)
