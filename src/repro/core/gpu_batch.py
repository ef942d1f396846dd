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
  single allocations, located through the ``ht_sizes`` prefix offsets.
  Unsanitized batched launches write only ``ht_ptr``: their derived build
  keeps the tallies on its agent table, and the dense tallies stay zero;
* ``vis_ptr`` — the per-task visited tables used for loop detection.

Every run, sanitized or not, takes the one host path of §3.2/§4.3:
:func:`stage_batch` packs a batch into fresh host arrays,
:func:`upload_batch` sizes it into exact device allocations on a copy
stream (the ``EMPTY_PTR`` fills included), and the driver resets the
allocator once per wave after unpacking, so the device holds one wave's
buffers at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import LocalAssemblyConfig
from repro.core.ht_sizing import HashTableLayout
from repro.core.tasks import ExtensionTask
from repro.gpusim.kernel import GpuContext
from repro.gpusim.memory import DeviceArray
from repro.gpusim.streams import Event, Stream

__all__ = [
    "DeviceBatch",
    "StagedBatch",
    "LRUDict",
    "WIN_CACHE_CAP",
    "max_rounds",
    "ext_capacity",
    "stage_batch",
    "fuse_staged",
    "upload_batch",
    "pack_batch",
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
    analogue) and the timeline's ``host.stage`` lane accounts for.
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
) -> StagedBatch:
    """Pack *tasks* into flat host staging arrays (no device traffic).

    The packing is bulk NumPy end to end: per-task read blocks are the
    tasks' packed arrays (:meth:`ExtensionTask.packed_reads`) and
    concatenate in one pass, and the contig tails land in ``seq_host``
    through one precomputed gather/scatter instead of a per-task copy
    loop.
    """
    n = len(tasks)
    packed = [t.packed_reads() for t in tasks]
    n_reads_per_task = np.fromiter(
        (p[2].size for p in packed), dtype=np.int64, count=n
    )
    n_reads = int(n_reads_per_task.sum())

    task_read_start = np.empty(n + 1, dtype=np.int64)
    task_read_start[0] = 0
    np.cumsum(n_reads_per_task, out=task_read_start[1:])

    read_offsets = np.empty(n_reads + 1, dtype=np.int64)
    read_offsets[0] = 0
    if n_reads:
        np.cumsum(np.concatenate([p[2] for p in packed]), out=read_offsets[1:])
    total_bases = int(read_offsets[-1])

    reads_host = np.empty(total_bases, dtype=np.uint8)
    quals_host = np.empty(total_bases, dtype=np.uint8)
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
    seq_host = np.zeros(n * per_task_seq, dtype=np.uint8)
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
    concatenated sizes.
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


def upload_batch(
    ctx: GpuContext,
    staged: StagedBatch,
    stream: Stream,
    deps: tuple = (),
) -> tuple[DeviceBatch, Event]:
    """Create exactly sized device buffers for *staged* and copy it in.

    The copies are placed on *stream* after *deps*; the returned event
    marks the completion of the batch's H2D traffic.  The hash and
    visited tables are filled with ``EMPTY_PTR`` on the host (a
    ``cudaMemset`` analogue) and marked initialised for initcheck.
    """
    tasks = staged.tasks
    total_slots = staged.layout.total_slots
    reads_buf, _ = ctx.to_device_async(staged.reads_host, stream, "H2D reads", deps)
    quals_buf, _ = ctx.to_device_async(staged.quals_host, stream, "H2D quals", deps)
    seq_buf, done = ctx.to_device_async(staged.seq_host, stream, "H2D seq", deps)
    ht_ptr = ctx.alloc(total_slots, np.int64)
    ht_ptr.data[...] = EMPTY_PTR
    ctx.mark_initialized(ht_ptr)
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
        # kernels update the per-task length in place, so copy: the
        # staged initial lengths stay untouched for unpacking
        seq_len=np.array(staged.seq_len_host, dtype=np.int64),
        tail_cap=staged.tail_cap,
        ext_cap=staged.ext_cap,
        ht_ptr=ht_ptr,
        ht_hi=ht_hi,
        ht_total=ht_total,
        vis_ptr=vis_ptr,
        vis_slots=staged.vis_slots,
        out_ext_len=out_ext_len,
    )
    return batch, done


def pack_batch(
    ctx: GpuContext,
    tasks: list[ExtensionTask],
    config: LocalAssemblyConfig,
) -> DeviceBatch:
    """:func:`stage_batch` + :func:`upload_batch` on the ``copy0`` stream."""
    batch, _ = upload_batch(ctx, stage_batch(tasks, config), ctx.stream("copy0"))
    return batch
