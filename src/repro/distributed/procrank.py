"""The ranked stages: k-mer analysis, alignment and local assembly as
stage bodies on the one rank harness (:mod:`repro.distributed.harness`).

A stage here is a pair of pure functions handed to
:func:`~repro.distributed.harness.run_ranks` — what a rank does with its
shard before the fence, what an owner does with its inbox after it —
plus the parent-side merge of what the ranks end up owning.  Launching,
the mailbox, the choice of transport, crash handling, tracing and
cleanup belong to the harness and are the same for all three.

* **k-mer analysis** (:func:`distributed_count_proc`): rank *r* counts
  its contiguous pair-aligned partition of the reads and puts one wire
  record per distinct local k-mer, grouped by the shared owner hash;
  owners sum what they receive into their disjoint slice of the spectrum.
* **alignment** (:func:`ranked_align`): the packed seed index is built
  once in the parent and *inherited* by the ranks exactly as the reads
  are — nothing is broadcast.  Rank *r* aligns its read shard and puts
  the winner rows to owner ``cid % n_ranks``; an owner holds every row
  of its contigs, so it applies the per-end recruitment caps exactly.
* **local assembly** (:func:`ranked_extend_tasks`): no exchange — tasks
  are dealt to ranks up front and the extensions come back as code tables.

Every result is bit-identical to its single-process counterpart at every
rank count — the invariant the tests enforce — so
``PipelineConfig.kmer_ranks`` and ``aln_ranks`` can never change a contig.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.distributed.comm import CommCostModel
from repro.distributed.harness import (
    RankMetrics,
    RankRun,
    RankRunReport,
    Stage,
    exchange_rows,
    procrank_available,
    run_ranks,
)
from repro.distributed.rank import (
    RECORD_BYTES,
    ExchangeStats,
    _partition_bounds,
    exchange_stats,
    merge_spectra,
    owner_of_words,
    pack_records,
    partition_part,
    record_width,
    spectrum_from_records,
)
from repro.pipeline.kmer_counts import KmerSpectrum, count_kmers
from repro.sequence.kmer import words_per_kmer
from repro.sequence.read import ReadBatch

__all__ = [
    "distributed_count_proc",
    "ranked_align",
    "ranked_extend_tasks",
    "kmer_stage",
    "align_stage",
    "la_stage",
    "procrank_available",
    "pack_for_exchange",
    "exchange_rows",
    "RankMetrics",
    "RankRunReport",
    "RANK_PHASES",
    "ALN_RANK_PHASES",
    "aln_wire_rows",
    "rows_from_wire",
    "group_rows_by_owner",
]

#: per-rank phases of the distributed count, in execution order.
RANK_PHASES = ("count", "pack", "exchange", "merge")

#: per-rank phases of the ranked alignment, in execution order.
ALN_RANK_PHASES = ("align", "pack", "exchange", "flags")


# -- k-mer analysis ----------------------------------------------------------


def pack_for_exchange(
    spec: KmerSpectrum, n_ranks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group a local spectrum's wire rows by destination rank.

    Returns ``(rows, dest_counts)``: rows are ordered rank 0's records
    first, then rank 1's, … (stable within a destination), and
    ``dest_counts[d]`` is how many rows go to rank *d*.  This ordering
    is the outbox layout: destination *d*'s slice starts at
    ``cumsum(dest_counts)[d]``.
    """
    rows = pack_records(spec)
    if not len(spec):
        return rows, np.zeros(n_ranks, dtype=np.int64)
    owners = owner_of_words(spec.words, n_ranks)
    order = np.argsort(owners, kind="stable")
    dest_counts = np.bincount(owners, minlength=n_ranks).astype(np.int64)
    return rows[order], dest_counts


def kmer_stage(
    batch: ReadBatch, k: int, n_ranks: int, min_count: int = 1, min_qual: int = 0
) -> tuple[Stage, Callable[[RankRun], KmerSpectrum]]:
    """The k-mer analysis stage body and its parent-side merge.

    Returns ``(stage, finish)``: hand *stage* to
    :func:`~repro.distributed.harness.run_ranks` and the run to *finish*
    for the merged, ``min_count``-filtered global spectrum.  Owners
    filter; *finish* merges their disjoint survivors.
    """
    width = record_width(words_per_kmer(k))

    def produce(rank, clock):
        part = partition_part(batch, n_ranks, rank)
        local = count_kmers(part, k, min_count=1, min_qual=min_qual)
        clock.mark("count")
        return (*pack_for_exchange(local, n_ranks), None)

    def consume(rank, inbox, carry):
        # the owner's reduce: records of one k-mer from every source sum.
        # An owner holds each of its k-mers' complete count, so it applies
        # min_count exactly and ships only the survivors.
        owned = merge_spectra([spectrum_from_records(inbox, k)], k)
        return (pack_records(owned.filtered(min_count) if min_count > 1 else owned),)

    def finish(run: RankRun) -> KmerSpectrum:
        # disjoint, already-filtered shards: the merge only sorts them
        return merge_spectra([spectrum_from_records(rows, k) for (rows,) in run.owned], k)

    wire = (np.uint64, width)
    return Stage("kmer", RANK_PHASES, produce, consume, wire, (wire,)), finish


def distributed_count_proc(
    batch: ReadBatch,
    k: int,
    n_ranks: int,
    min_count: int = 1,
    min_qual: int = 0,
    profile: bool = False,
    timeout_s: float = 120.0,
    comm: CommCostModel | None = None,
    sanitize: str = "off",
) -> tuple[KmerSpectrum, ExchangeStats, RankRunReport]:
    """Count k-mers across *n_ranks* ranks; merge the owned shards.

    Returns the merged global spectrum (bit-identical to the sequential
    :func:`count_kmers` at every rank count), exchange statistics
    measured from the counts matrix (with the modelled alltoall time as
    an overlay), and a :class:`RankRunReport` of per-rank measurements.

    ``sanitize="rankcheck"`` attaches the harness's race-and-leak report
    as ``report.sanitizer`` (tracing is observation only: results stay
    bit-identical).

    One rank, or a host without fork/shared memory, runs the same stage
    body in-process (``report.mode == "inproc"``).
    """
    stage, finish = kmer_stage(batch, k, n_ranks, min_count, min_qual)
    run = run_ranks(stage, n_ranks, timeout_s, profile, sanitize)
    row_bytes = RECORD_BYTES(words_per_kmer(k))
    stats = exchange_stats(run.counts, row_bytes, comm or CommCostModel())
    return finish(run), stats, run.report


# -- local assembly (the fig13 measured path) --------------------------------


def la_stage(
    tasks, n_ranks: int, **extend_kwargs
) -> tuple[Stage, Callable[[RankRun], object]]:
    """The local-assembly stage body (no exchange) and its merge.

    Tasks are dealt greedily by descending read count (LPT scheduling:
    next-heaviest task to the currently lightest rank) — the task-cost
    distribution is heavy-tailed (§3.1's bin 3), so plain round-robin
    leaves the rank that drew the hot contigs as the straggler.  A rank
    owns an ``(n, 2)`` ``[task_index, length]`` table and its extension
    codes as a one-column table, in table order; the merge gathers them
    back into task order, the :class:`~repro.core.tasks.ExtensionSet` of
    a one-rank run.
    """
    from repro.core.local_assembler import extend_tasks
    from repro.core.tasks import ExtensionSet, TaskSet

    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    shards: list[list[int]] = [[] for _ in range(n_ranks)]
    loads = [0] * n_ranks
    for i in sorted(range(len(tasks)), key=lambda i: -tasks[i].n_reads):
        r = loads.index(min(loads))
        shards[r].append(i)
        loads[r] += tasks[i].n_reads + 1  # +1: empty tasks still cost dispatch

    def produce(rank, clock):
        ids = shards[rank]
        extensions, _ = extend_tasks(TaskSet([tasks[i] for i in ids]), **extend_kwargs)
        table = np.stack([np.array(ids, dtype=np.int64), extensions.lengths()], axis=1)
        return table, extensions.codes.reshape(-1, 1)

    def finish(run: RankRun) -> ExtensionSet:
        tables, codes = zip(*run.owned)
        table, codes = np.concatenate(tables), np.concatenate(codes).ravel()
        order = np.argsort(table[:, 0])
        lengths = table[order, 1]
        start = np.cumsum(table[:, 1]) - table[:, 1]  # row's first code
        idx = np.repeat(start[order] - (np.cumsum(lengths) - lengths), lengths)
        idx += np.arange(idx.size, dtype=np.int64)
        return ExtensionSet.of(tasks, codes[idx], lengths)

    owned = ((np.int64, 2), (np.uint8, 1))
    return Stage("la", ("extend",), produce, owned=owned), finish


def ranked_extend_tasks(
    tasks, n_ranks: int, timeout_s: float = 300.0, **extend_kwargs
) -> tuple[object, RankRunReport]:
    """Run local assembly across *n_ranks* ranks; returns the
    :class:`~repro.core.tasks.ExtensionSet` and the run report.

    Every task is one row and the merge puts rows back in task order, so
    the result is independent of the partition — array-equal to a
    single-rank run by construction, which the fig13 bench asserts.
    """
    stage, finish = la_stage(tasks, n_ranks, **extend_kwargs)
    run = run_ranks(stage, n_ranks, timeout_s)
    return finish(run), run.report


# -- alignment ---------------------------------------------------------------

#: wire row layout of one winner alignment (all int64):
#: read, seq_in_read, cid, offset, is_rc, matches, mismatches, ov_len
_ALN_COLS = 8
#: owner rows append the recruit flags: ... , left, right
_ALN_OWN_COLS = _ALN_COLS + 2
_ALN_ROW_BYTES = _ALN_COLS * 8


def aln_wire_rows(rows) -> np.ndarray:
    """Flatten an :class:`~repro.pipeline.alignment.AlnRows` into the
    ``(n, 8)`` int64 wire matrix (column order in :data:`_ALN_COLS`'s
    doc comment)."""
    w = np.empty((len(rows), _ALN_COLS), dtype=np.int64)
    w[:, 0] = rows.read
    w[:, 1] = rows.seq_in_read
    w[:, 2] = rows.cid
    w[:, 3] = rows.offset
    w[:, 4] = rows.is_rc
    w[:, 5] = rows.matches
    w[:, 6] = rows.mismatches
    w[:, 7] = rows.ov_len
    return w


def rows_from_wire(
    wire: np.ndarray, n_seed_hits: int = 0, n_reads_aligned: int = 0
):
    """Inverse of :func:`aln_wire_rows` (columns become views)."""
    from repro.pipeline.alignment import AlnRows

    w = np.ascontiguousarray(wire, dtype=np.int64)
    return AlnRows(
        read=w[:, 0],
        seq_in_read=w[:, 1],
        cid=w[:, 2],
        offset=w[:, 3],
        is_rc=w[:, 4].astype(bool),
        matches=w[:, 5],
        mismatches=w[:, 6],
        ov_len=w[:, 7],
        n_seed_hits=n_seed_hits,
        n_reads_aligned=n_reads_aligned,
    )


def group_rows_by_owner(
    wire: np.ndarray, n_ranks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group wire rows by owner rank (``cid % n_ranks``), stably.

    Returns ``(rows, dest_counts)`` in outbox layout: owner 0's rows
    first, then owner 1's, …, each destination slice still in emission
    order (the stable sort preserves it) — which is what lets owners
    apply the first-N-per-cid recruitment caps exactly.
    """
    if wire.shape[0] == 0:
        return wire, np.zeros(n_ranks, dtype=np.int64)
    owner = wire[:, 2] % n_ranks
    order = np.argsort(owner, kind="stable")
    dest_counts = np.bincount(owner, minlength=n_ranks).astype(np.int64)
    return wire[order], dest_counts


def _emission_order(wire: np.ndarray) -> np.ndarray:
    """*wire* sorted back into global emission order (read, seq_in_read)."""
    return wire[np.lexsort((wire[:, 1], wire[:, 0]))]


def align_stage(
    contigs,
    reads: ReadBatch,
    n_ranks: int,
    seed_len: int = 17,
    max_reads_per_end: int | None = None,
    **aln_params,
) -> tuple[Stage, Callable[[RankRun], object]]:
    """The alignment stage body and its parent-side merge.

    Returns ``(stage, finish)`` like :func:`kmer_stage`; *finish* gives
    the :class:`~repro.pipeline.alignment.AlignmentResult`.  *aln_params*
    go to :func:`~repro.pipeline.alignment.align_core`.  The seed index
    is built here, once, before any rank exists: ranks inherit it across
    ``fork`` as they inherit the reads.
    """
    from repro.pipeline.alignment import (
        MAX_READS_PER_END,
        PackedSeedIndex,
        align_core,
        materialise_alignment,
        recruit_flags,
    )

    if max_reads_per_end is None:
        max_reads_per_end = MAX_READS_PER_END
    index = PackedSeedIndex(contigs, seed_len=seed_len)
    contig_len_of = contigs.lengths_by_cid()
    read_lengths = reads.lengths()
    bounds = _partition_bounds(reads, n_ranks)

    def produce(rank, clock):
        shard = partition_part(reads, n_ranks, rank)
        rows = align_core(
            index, shard, read_base=int(bounds[rank]), profile=clock.profiler,
            **aln_params,
        )
        clock.mark("align")
        wire, dest_counts = group_rows_by_owner(aln_wire_rows(rows), n_ranks)
        return wire, dest_counts, (rows.n_seed_hits, rows.n_reads_aligned)

    def consume(rank, inbox, carry):
        # Owner holds ALL rows of its cids; restoring global emission
        # order makes the first-N-per-cid caps identical to the
        # single-process pass.
        inbox = _emission_order(inbox)
        left, right = recruit_flags(
            rows_from_wire(inbox), read_lengths, contig_len_of, max_reads_per_end
        )
        own = np.empty((inbox.shape[0], _ALN_OWN_COLS), dtype=np.int64)
        own[:, :_ALN_COLS] = inbox
        own[:, _ALN_COLS] = left
        own[:, _ALN_COLS + 1] = right
        return own, np.array([carry], dtype=np.int64)

    def finish(run: RankRun):
        merged = _emission_order(np.concatenate([own for own, _ in run.owned]))
        tallies = np.concatenate([tally for _, tally in run.owned]).sum(axis=0)
        rows = rows_from_wire(merged[:, :_ALN_COLS], *tallies.tolist())
        return materialise_alignment(
            rows, contigs, reads, max_reads_per_end,
            recruit_left=merged[:, _ALN_COLS].astype(bool),
            recruit_right=merged[:, _ALN_COLS + 1].astype(bool),
        )

    wire, owned = (np.int64, _ALN_COLS), ((np.int64, _ALN_OWN_COLS), (np.int64, 2))
    return Stage("aln", ALN_RANK_PHASES, produce, consume, wire, owned), finish


def ranked_align(
    contigs,
    reads: ReadBatch,
    n_ranks: int,
    seed_len: int = 17,
    read_seed_stride: int = 8,
    min_identity: float = 0.9,
    min_overlap: int = 30,
    max_reads_per_end: int | None = None,
    profile: bool = False,
    timeout_s: float = 120.0,
    comm: CommCostModel | None = None,
):
    """Align *reads* to *contigs* across *n_ranks* ranks.

    Returns ``(AlignmentResult, ExchangeStats, RankRunReport)``.  The
    result is bit-identical to the single-process
    :func:`~repro.pipeline.alignment.align_reads` at every rank count;
    the stats measure the alignment-row shuffle (64-byte rows;
    ``total_kmers_sent`` carries the row count — the field predates this
    exchange) and the report's per-rank phases are
    :data:`ALN_RANK_PHASES`.

    One rank, or a host without fork/shared memory, runs the same stage
    body in-process (``report.mode == "inproc"``).
    """
    stage, finish = align_stage(
        contigs, reads, n_ranks, seed_len, max_reads_per_end,
        read_seed_stride=read_seed_stride,
        min_identity=min_identity,
        min_overlap=min_overlap,
    )
    run = run_ranks(stage, n_ranks, timeout_s, profile)
    stats = exchange_stats(run.counts, _ALN_ROW_BYTES, comm or CommCostModel())
    return finish(run), stats, run.report
