"""Device-side batch layout for GPU local assembly.

The driver packs a batch of extension tasks into flat device buffers
(§3.2's memory-minimisation scheme):

* ``reads_buf``/``quals_buf`` — all candidate reads back to back; hash
  table keys are *pointers into this buffer* (Fig 6), never k-mer copies;
* ``seq_buf`` — per task, the last ``k_max`` bases of the contig followed
  by room for the extension the walks will append (sized exactly from the
  k-shift round bound, so the GPU can never truncate a walk the CPU
  would complete);
* ``ht_ptr``/``ht_hi``/``ht_total`` — all per-task hash tables packed into
  single allocations, located through the ``ht_sizes`` prefix offsets;
* ``vis_ptr`` — the per-task visited tables used for loop detection.

Two host-path mechanisms keep the per-batch cost flat (the pinned-buffer
discipline MetaCache-GPU style batching lives on):

* a :class:`StagingArena` recycles the host staging arrays across batches
  (grow-only, keyed by buffer role), so staging batch N+1 reuses batch
  N-1's memory instead of reallocating;
* a :class:`DeviceArena` recycles same-shape-class *device* allocations
  across batches, so upload N+1 pays one memcpy instead of
  alloc + memset + copy.  Buffers recycled through the arena skip the
  host-side ``EMPTY_PTR`` memsets entirely: every kernel clears each
  task's table/visited region at the start of every k-round
  (``_clear_tables`` / ``_clear_group``), so the upload-time fill never
  survives to a read.  The arena path is therefore reserved for
  unsanitized runs; sanitized contexts keep the fill + ``mark_initialized``
  contract so initcheck stays precise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import LocalAssemblyConfig
from repro.core.ht_sizing import HashTableLayout
from repro.core.tasks import ExtensionTask
from repro.gpusim.kernel import GpuContext
from repro.gpusim.memory import DeviceArray, DeviceOutOfMemory

__all__ = [
    "DeviceBatch",
    "StagedBatch",
    "StagingArena",
    "DeviceArena",
    "LRUDict",
    "WIN_CACHE_CAP",
    "max_rounds",
    "ext_capacity",
    "stage_batch",
    "fuse_staged",
    "upload_batch",
    "pack_batch",
    "free_batch",
    "EMPTY_PTR",
]

#: ht_ptr value marking an empty slot.
EMPTY_PTR = np.int64(-1)

#: bound on per-batch window-plan cache entries (see :class:`LRUDict`).
WIN_CACHE_CAP = 4096


class LRUDict(dict):
    """A size-bounded dict evicting the least-recently-used entry.

    Backs :attr:`DeviceBatch.win_cache`: a long mixed-length launch keys
    the window-plan cache by ``(read index, k)`` across every k-shift
    round, which is unbounded growth on adversarial workloads.  The LRU
    bound keeps the batch's footprint flat while still serving the
    build/walk locality that makes the cache worthwhile.
    """

    __slots__ = ("maxsize",)

    def __init__(self, maxsize: int = WIN_CACHE_CAP) -> None:
        super().__init__()
        self.maxsize = int(maxsize)

    def __getitem__(self, key):
        value = super().pop(key)
        super().__setitem__(key, value)  # refresh recency
        return value

    def get(self, key, default=None):
        try:
            value = super().pop(key)
        except KeyError:
            return default
        super().__setitem__(key, value)
        return value

    def __setitem__(self, key, value) -> None:
        if super().__contains__(key):
            super().__delitem__(key)
        elif len(self) >= self.maxsize:
            super().__delitem__(next(iter(self)))  # oldest entry
        super().__setitem__(key, value)


def max_rounds(config: LocalAssemblyConfig) -> int:
    """Upper bound on table-build rounds per task.

    The k-shift machine moves monotonically up then terminates, or down
    then terminates, so the round count is bounded by the number of k
    values reachable upward plus downward plus the initial one.
    """
    up = (config.k_max - config.k_init) // config.k_step
    down = (config.k_init - config.k_min) // config.k_step
    return up + down + 1


def ext_capacity(config: LocalAssemblyConfig) -> int:
    """Per-task extension buffer size: every round may append a full walk."""
    return max_rounds(config) * config.max_walk_len


@dataclass
class DeviceBatch:
    """All device allocations + host metadata for one batch of tasks."""

    tasks: list[ExtensionTask]
    config: LocalAssemblyConfig
    layout: HashTableLayout

    # flat read data
    reads_buf: DeviceArray
    quals_buf: DeviceArray
    read_offsets: np.ndarray  # host metadata: per-read start, len n_reads+1
    task_read_start: np.ndarray  # per task: first read index, len n_tasks+1

    # per-task sequence buffers (contig tail + extension space)
    seq_buf: DeviceArray
    seq_offsets: np.ndarray  # per task start in seq_buf
    seq_len: np.ndarray  # host-tracked current length per task
    tail_cap: int
    ext_cap: int

    # packed hash tables
    ht_ptr: DeviceArray
    ht_hi: DeviceArray  # shape (total_slots * 4,)
    ht_total: DeviceArray

    # visited tables
    vis_ptr: DeviceArray
    vis_slots: int

    # outputs
    out_ext_len: DeviceArray

    #: per-(read index, k) window-plan cache (see
    #: :func:`repro.core.extension_kernel.read_window_plan`) — valid for
    #: the batch's lifetime because the packed reads are immutable;
    #: LRU-bounded so long mixed-length launches cannot grow it without
    #: limit.
    win_cache: dict = field(default_factory=LRUDict, repr=False, compare=False)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def ht_region(self, t: int) -> tuple[int, int]:
        return self.layout.region(t)

    def vis_region(self, t: int) -> tuple[int, int]:
        return t * self.vis_slots, (t + 1) * self.vis_slots

    def task_reads(self, t: int) -> range:
        return range(int(self.task_read_start[t]), int(self.task_read_start[t + 1]))


@dataclass
class StagedBatch:
    """Host-side staging of one batch: everything :func:`upload_batch`
    needs, built by pure NumPy work with no device/context access.

    This is the unit the driver stages per batch (the pinned-host-buffer
    analogue) and the timeline's ``host.stage`` lane accounts for.  When
    built through a :class:`StagingArena`, the upload-consumed arrays
    (``reads_host``/``quals_host``/``seq_host``) are views into the
    arena's recycled buffers — valid until the arena is staged into
    again (the driver fuses/uploads a wave before staging the next).  The
    metadata arrays (offsets, ``seq_len_host``) are always fresh: they
    outlive staging inside the :class:`DeviceBatch`.
    """

    tasks: list[ExtensionTask]
    config: LocalAssemblyConfig
    layout: HashTableLayout
    reads_host: np.ndarray
    quals_host: np.ndarray
    read_offsets: np.ndarray
    task_read_start: np.ndarray
    seq_host: np.ndarray
    seq_offsets: np.ndarray
    #: per-task initial (tail) lengths — the driver's ``init_len``.
    seq_len_host: np.ndarray
    tail_cap: int
    ext_cap: int
    vis_slots: int

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)


class StagingArena:
    """Reusable host staging buffers, grow-only per buffer role.

    ``take`` hands out a view of a persistent backing buffer instead of a
    fresh allocation; the caller owns the view until it asks for the same
    role again.  The driver keeps one arena per batch a wave holds, so a
    staged batch's arrays stay valid until its wave is fused and uploaded,
    and reuses them for the next wave.
    """

    def __init__(self) -> None:
        self._bufs: dict[tuple, np.ndarray] = {}

    def take(self, role: str, n: int, dtype, zero: bool = False) -> np.ndarray:
        key = (role, np.dtype(dtype).str)
        buf = self._bufs.get(key)
        if buf is None or buf.size < n:
            grown = 0 if buf is None else buf.size * 2
            buf = np.empty(max(int(n), grown, 64), dtype=dtype)
            self._bufs[key] = buf
        out = buf[: int(n)]
        if zero:
            out.fill(0)
        return out


def _fused_layout(task_bases: np.ndarray) -> HashTableLayout:
    """A :class:`HashTableLayout` from precomputed per-task read bases —
    same values as :func:`~repro.core.ht_sizing.plan_layout`, without the
    per-task Python property walk."""
    sizes = np.maximum(task_bases, 1).astype(np.int64, copy=False)
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return HashTableLayout(sizes=sizes, offsets=offsets)


def stage_batch(
    tasks: list[ExtensionTask],
    config: LocalAssemblyConfig,
    arena: StagingArena | None = None,
) -> StagedBatch:
    """Pack *tasks* into flat host staging arrays (no device traffic).

    The packing is bulk NumPy end to end: per-task read blocks come from
    the tasks' pack-once caches (:meth:`ExtensionTask.packed_reads`) and
    concatenate in one pass, and the contig tails land in ``seq_host``
    through one precomputed gather/scatter instead of a per-task copy
    loop.  With *arena* given, every output array is a view into the
    arena's recycled buffers.
    """
    n = len(tasks)
    packed = [t.packed_reads() for t in tasks]
    n_reads_per_task = np.fromiter(
        (p[2].size for p in packed), dtype=np.int64, count=n
    )
    n_reads = int(n_reads_per_task.sum())

    def _take(role, size, dtype, zero=False):
        if arena is not None:
            return arena.take(role, size, dtype, zero=zero)
        return np.zeros(size, dtype=dtype) if zero else np.empty(size, dtype=dtype)

    # Lifetime rule: the arena only backs arrays *consumed* by the upload
    # (reads/quals/seq copies) or purely scratch (read_lengths).  The
    # metadata arrays below are retained inside the DeviceBatch and read
    # during kernel execution and unpacking — long after the arena slot
    # may have been recycled for a later batch — so they are always fresh
    # allocations (a few KB per batch).
    task_read_start = np.empty(n + 1, dtype=np.int64)
    task_read_start[0] = 0
    np.cumsum(n_reads_per_task, out=task_read_start[1:])

    read_lengths = _take("read_lengths", n_reads, np.int64)
    for i, p in enumerate(packed):
        read_lengths[task_read_start[i] : task_read_start[i + 1]] = p[2]
    read_offsets = np.empty(n_reads + 1, dtype=np.int64)
    read_offsets[0] = 0
    np.cumsum(read_lengths, out=read_offsets[1:])
    total_bases = int(read_offsets[-1])

    reads_host = _take("reads", total_bases, np.uint8)
    quals_host = _take("quals", total_bases, np.uint8)
    if total_bases:
        np.concatenate([p[0] for p in packed], out=reads_host)
        np.concatenate([p[1] for p in packed], out=quals_host)
    # per-task table sizes fall out of the same offsets (§3.2 sizing)
    task_bases = read_offsets[task_read_start[1:]] - read_offsets[task_read_start[:-1]]

    # sequence buffers: contig tails scattered in one bulk gather
    tail_cap = config.k_max
    e_cap = ext_capacity(config)
    per_task_seq = tail_cap + e_cap
    seq_offsets = np.arange(n + 1, dtype=np.int64) * per_task_seq
    seq_host = _take("seq", n * per_task_seq, np.uint8, zero=True)
    clen = np.fromiter((t.contig.size for t in tasks), dtype=np.int64, count=n)
    tlen = np.minimum(clen, tail_cap)
    seq_len_host = tlen.copy()
    total_tail = int(tlen.sum())
    if total_tail:
        contigs_cat = np.concatenate([t.contig for t in tasks])
        cend = np.cumsum(clen)
        pos = np.arange(total_tail, dtype=np.int64) - np.repeat(
            np.cumsum(tlen) - tlen, tlen
        )
        seq_host[np.repeat(seq_offsets[:-1], tlen) + pos] = contigs_cat[
            np.repeat(cend - tlen, tlen) + pos
        ]

    return StagedBatch(
        tasks=tasks,
        config=config,
        layout=_fused_layout(task_bases),
        reads_host=reads_host,
        quals_host=quals_host,
        read_offsets=read_offsets,
        task_read_start=task_read_start,
        seq_host=seq_host,
        seq_offsets=seq_offsets,
        seq_len_host=seq_len_host,
        tail_cap=tail_cap,
        ext_cap=e_cap,
        vis_slots=2 * config.max_walk_len,
    )


def fuse_staged(staged_list: list[StagedBatch]) -> StagedBatch:
    """Concatenate several staged batches into one launch-ready batch.

    The batched SoA engine runs every warp of a launch in lockstep, so a
    wave of same-bin batches can dispatch as *one* sweep and pay the
    per-launch Python overhead once — provided their staging arrays fuse
    into a single coherent layout.  All inputs must share a config (the
    driver only fuses batches from one plan).  Because every per-task
    region is located through offsets, fusing is pure rebasing: read and
    base offsets shift by the running totals, sequence regions are
    already fixed-stride, and the hash-table layout re-chains from the
    concatenated sizes.  The outputs are fresh arrays (``concatenate``
    copies), so the inputs' arena slots are free to recycle afterwards.
    """
    if len(staged_list) == 1:
        return staged_list[0]
    first = staged_list[0]
    tasks = [t for s in staged_list for t in s.tasks]
    n = len(tasks)

    zero = np.zeros(1, dtype=np.int64)
    ro_parts, trs_parts = [zero], [zero]
    base_bases = 0
    base_reads = 0
    for s in staged_list:
        ro_parts.append(s.read_offsets[1:] + base_bases)
        trs_parts.append(s.task_read_start[1:] + base_reads)
        base_bases += int(s.read_offsets[-1])
        base_reads += int(s.task_read_start[-1])

    per_task_seq = first.tail_cap + first.ext_cap
    return StagedBatch(
        tasks=tasks,
        config=first.config,
        layout=_fused_layout(np.concatenate([s.layout.sizes for s in staged_list])),
        reads_host=np.concatenate([s.reads_host for s in staged_list]),
        quals_host=np.concatenate([s.quals_host for s in staged_list]),
        read_offsets=np.concatenate(ro_parts),
        task_read_start=np.concatenate(trs_parts),
        seq_host=np.concatenate([s.seq_host for s in staged_list]),
        seq_offsets=np.arange(n + 1, dtype=np.int64) * per_task_seq,
        seq_len_host=np.concatenate([s.seq_len_host for s in staged_list]),
        tail_cap=first.tail_cap,
        ext_cap=first.ext_cap,
        vis_slots=first.vis_slots,
    )


class DeviceArena:
    """Recycles same-shape-class device allocations across batches.

    The pinned-buffer-pool analogue on the device side: ``free_batch``
    parks a finished batch's buffers here instead of returning them to the
    allocator, and the next batch's upload reuses any buffer whose role,
    element count and dtype match exactly (so transfer accounting stays
    byte-exact).  On a capacity miss the pool drains back to the
    allocator and the allocation retries — recycling is an optimisation,
    never a reason to OOM.
    """

    def __init__(self, ctx: GpuContext) -> None:
        self.ctx = ctx
        self._free: dict[tuple, list[DeviceArray]] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(role: str, n: int, dtype) -> tuple:
        return (role, int(n), np.dtype(dtype).str)

    def alloc(self, role: str, n: int, dtype) -> DeviceArray:
        pool = self._free.get(self._key(role, n, dtype))
        if pool:
            self.hits += 1
            return pool.pop()
        self.misses += 1
        try:
            return self.ctx.alloc(int(n), dtype)
        except DeviceOutOfMemory:
            self.drain()
            return self.ctx.alloc(int(n), dtype)

    def to_device_async(self, role, host, stream, name, deps):
        """H2D into a recycled buffer when one fits, else a fresh upload."""
        pool = self._free.get(self._key(role, host.size, host.dtype))
        if pool:
            self.hits += 1
            darr = pool.pop()
            done = self.ctx.upload_into_async(darr, host, stream, name, deps)
            return darr, done
        self.misses += 1
        try:
            return self.ctx.to_device_async(host, stream, name, deps)
        except DeviceOutOfMemory:
            self.drain()
            return self.ctx.to_device_async(host, stream, name, deps)

    def release(self, role: str, darr: DeviceArray) -> None:
        self._free.setdefault(
            self._key(role, darr.data.size, darr.data.dtype), []
        ).append(darr)

    def drain(self) -> None:
        """Return every pooled buffer to the allocator."""
        for pool in self._free.values():
            for darr in pool:
                self.ctx.allocator.free(darr)
        self._free.clear()


def upload_batch(
    ctx: GpuContext,
    staged: StagedBatch,
    stream=None,
    deps: tuple = (),
    arena: DeviceArena | None = None,
):
    """Create device buffers for *staged* and copy the host data in.

    With *stream* given, the copies go through the async API and the
    return value is ``(DeviceBatch, done_event)`` — the event marks the
    completion of the batch's H2D traffic on that stream.  Without one,
    the copies are the classic synchronous ``to_device`` calls and the
    return is just the :class:`DeviceBatch`.

    With *arena* given (requires *stream*; unsanitized contexts only),
    allocations recycle through the :class:`DeviceArena` and the
    redundant ``EMPTY_PTR`` memsets of ``ht_ptr``/``vis_ptr`` are
    skipped: every kernel re-clears each task's regions at the start of
    every k-round, so the fill is never observable.  Data buffers and
    outputs stay byte-identical to the non-arena path.
    """
    tasks = staged.tasks
    total_slots = staged.layout.total_slots

    if arena is not None:
        if stream is None:
            raise ValueError("arena-backed upload_batch requires a stream")
        reads_buf, _ = arena.to_device_async(
            "reads", staged.reads_host, stream, "H2D reads", deps
        )
        quals_buf, _ = arena.to_device_async(
            "quals", staged.quals_host, stream, "H2D quals", deps
        )
        seq_buf, done = arena.to_device_async(
            "seq", staged.seq_host, stream, "H2D seq", deps
        )
    elif stream is not None:
        reads_buf, _ = ctx.to_device_async(
            staged.reads_host, stream, "H2D reads", deps
        )
        quals_buf, _ = ctx.to_device_async(
            staged.quals_host, stream, "H2D quals", deps
        )
        seq_buf, done = ctx.to_device_async(
            staged.seq_host, stream, "H2D seq", deps
        )
    else:
        reads_buf = ctx.to_device(staged.reads_host)
        quals_buf = ctx.to_device(staged.quals_host)
        seq_buf = ctx.to_device(staged.seq_host)
        done = None
    # Kernels update the per-task length in place, so copy: the staged
    # initial lengths stay untouched for unpacking.
    seq_len = np.array(staged.seq_len_host, dtype=np.int64)
    if arena is not None:
        ht_ptr = arena.alloc("ht_ptr", total_slots, np.int64)
        ht_hi = arena.alloc("ht_hi", total_slots * 4, np.uint32)
        ht_total = arena.alloc("ht_total", total_slots * 4, np.uint32)
        vis_ptr = arena.alloc("vis_ptr", len(tasks) * staged.vis_slots, np.int64)
        out_ext_len = arena.alloc("out_ext_len", max(len(tasks), 1), np.int32)
        out_ext_len.data.fill(0)  # deterministic output buffer
    else:
        ht_ptr = ctx.alloc(total_slots, np.int64)
        ht_ptr.data[...] = EMPTY_PTR
        ctx.mark_initialized(ht_ptr)  # host-side memset (a cudaMemset analogue)
        ht_hi = ctx.alloc(total_slots * 4, np.uint32)
        ht_total = ctx.alloc(total_slots * 4, np.uint32)
        vis_ptr = ctx.alloc(len(tasks) * staged.vis_slots, np.int64)
        vis_ptr.data[...] = EMPTY_PTR
        ctx.mark_initialized(vis_ptr)
        out_ext_len = ctx.alloc(max(len(tasks), 1), np.int32)

    batch = DeviceBatch(
        tasks=tasks,
        config=staged.config,
        layout=staged.layout,
        reads_buf=reads_buf,
        quals_buf=quals_buf,
        read_offsets=staged.read_offsets,
        task_read_start=staged.task_read_start,
        seq_buf=seq_buf,
        seq_offsets=staged.seq_offsets,
        seq_len=seq_len,
        tail_cap=staged.tail_cap,
        ext_cap=staged.ext_cap,
        ht_ptr=ht_ptr,
        ht_hi=ht_hi,
        ht_total=ht_total,
        vis_ptr=vis_ptr,
        vis_slots=staged.vis_slots,
        out_ext_len=out_ext_len,
    )
    if stream is not None:
        return batch, done
    return batch


def pack_batch(
    ctx: GpuContext,
    tasks: list[ExtensionTask],
    config: LocalAssemblyConfig,
) -> DeviceBatch:
    """Pack *tasks* into device buffers on *ctx* (counts transfer cost).

    The synchronous composition of :func:`stage_batch` +
    :func:`upload_batch`, kept for callers that don't pipeline.
    """
    return upload_batch(ctx, stage_batch(tasks, config))


#: (attribute, arena role) pairs of a batch's device buffers.
_BATCH_BUFFERS = (
    ("reads_buf", "reads"),
    ("quals_buf", "quals"),
    ("seq_buf", "seq"),
    ("ht_ptr", "ht_ptr"),
    ("ht_hi", "ht_hi"),
    ("ht_total", "ht_total"),
    ("vis_ptr", "vis_ptr"),
    ("out_ext_len", "out_ext_len"),
)


def free_batch(
    ctx: GpuContext, batch: DeviceBatch, arena: DeviceArena | None = None
) -> None:
    """Release all of *batch*'s device allocations.

    The driver frees a wave this way once its extensions are unpacked
    (sanitized runs ``reset`` the whole allocator per batch instead).
    With *arena* given the buffers park in the recycling pool instead of
    going back to the allocator.
    """
    for attr, role in _BATCH_BUFFERS:
        darr = getattr(batch, attr)
        if arena is not None:
            arena.release(role, darr)
        else:
            ctx.allocator.free(darr)


class TaskListView:
    """Minimal TaskSet-shaped view over a plain task list (for layout)."""

    def __init__(self, tasks: list) -> None:
        self._tasks = tasks

    def __iter__(self):
        return iter(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)
