"""Partitioning, ownership and the k-mer wire format (the UPC++ substitute).

MetaHipMer2 runs one UPC++ rank per core; reads are partitioned across
ranks and the k-mer analysis stage hash-partitions k-mers so each rank
owns a disjoint shard of the global spectrum.  This module holds the
pure pieces of that structure, shared by every ranked stage
(:mod:`repro.distributed.procrank`):

* :func:`partition_reads` splits an interleaved paired batch across ranks
  (whole pairs, contiguous blocks — MHM2's file-splitting behaviour);
* :func:`owner_of_words` is the owner hash; the k-mer exchange moves one
  ``[words | ext]`` row per counted window (:data:`WINDOW_BYTES`) and an
  owner returns its shard as :func:`pack_records` rows;
* :func:`merge_spectra` joins spectra into one sorted spectrum, summing
  k-mers that repeat across them (MHM2's insert-time reduce);
* :func:`exchange_stats` prices a measured ``[src, dest]`` counts matrix.

The invariant tested is the one MHM2 relies on: the distributed spectrum
is exactly the spectrum of the union of the reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.comm import CommCostModel
from repro.pipeline.kmer_counts import KmerSpectrum
from repro.sequence.kmer import SortedKmers, words_per_kmer
from repro.sequence.read import ReadBatch

__all__ = [
    "partition_reads",
    "ExchangeStats",
    "exchange_stats",
    "merge_spectra",
    "owner_of_words",
    "pack_records",
    "spectrum_from_records",
    "record_width",
    "WINDOW_BYTES",
]


def owner_of_words(words: np.ndarray, n_ranks: int) -> np.ndarray:
    """Destination rank of each k-mer: hash-partition on word 0.

    The one sharding rule: every transport and every caller that models
    exchange volume uses it, so they shard the spectrum identically.
    The owners come in the narrowest unsigned type that holds them
    (``uint8`` up to 256 ranks), so grouping by owner is one radix pass.
    """
    mix = (words[:, 0] * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
    return (mix % np.uint64(n_ranks)).astype(np.min_scalar_type(n_ranks - 1))


def WINDOW_BYTES(nw: int) -> int:
    """Bytes on the wire per k-mer window: its *nw* canonical words and one
    packed extension slot (:func:`~repro.pipeline.kmer_counts.kmer_windows`),
    all ``uint64`` — 16 B at k <= 32.  What the cost model prices."""
    return 8 * (nw + 1)


# -- wire format of one k-mer record ----------------------------------------
#
# An owner hands its filtered shard to the parent as flat uint64 rows, one
# per distinct k-mer: ``[words .. | count | left_ext x5 | right_ext x5]``.
# Counts and extension tallies are non-negative int64, so viewing them as
# uint64 is lossless.

#: uint64 slots per record beyond the packed k-mer words.
_META_SLOTS = 1 + 5 + 5


def record_width(nw: int) -> int:
    """uint64 slots per record for *nw*-word k-mers."""
    return nw + _META_SLOTS


def pack_records(spec: KmerSpectrum) -> np.ndarray:
    """Flatten a spectrum into ``(n, record_width)`` uint64 wire rows."""
    nw = spec.words.shape[1]  # an empty spectrum still knows its width
    out = np.empty((len(spec), record_width(nw)), dtype=np.uint64)
    if len(spec):
        out[:, :nw] = spec.words
        out[:, nw] = spec.counts.view(np.uint64)
        out[:, nw + 1 : nw + 6] = spec.left_ext.view(np.uint64)
        out[:, nw + 6 :] = spec.right_ext.view(np.uint64)
    return out


def spectrum_from_records(rows: np.ndarray, k: int) -> KmerSpectrum:
    """Inverse of :func:`pack_records` (rows need not be sorted/unique)."""
    nw = words_per_kmer(k)
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    if rows.size and rows.shape[1] != record_width(nw):
        raise ValueError(
            f"record rows have width {rows.shape[1]}, "
            f"expected {record_width(nw)} for k={k}"
        )
    return KmerSpectrum(
        k=k,
        words=rows[:, :nw].copy(),
        counts=rows[:, nw].copy().view(np.int64),
        left_ext=rows[:, nw + 1 : nw + 6].copy().view(np.int64),
        right_ext=rows[:, nw + 6 :].copy().view(np.int64),
    )


def _partition_bounds(batch: ReadBatch, n_ranks: int) -> np.ndarray:
    """Read-index boundaries of the contiguous pair-aligned partition."""
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    n_units = len(batch) // 2 if batch.paired else len(batch)
    unit = 2 if batch.paired else 1
    return np.linspace(0, n_units, n_ranks + 1).astype(np.int64) * unit


def partition_part(batch: ReadBatch, n_ranks: int, rank: int) -> ReadBatch:
    """Rank *rank*'s slice of the partition: views of the parent's arrays
    (the block is contiguous), so a worker process copies no read."""
    bounds = _partition_bounds(batch, n_ranks)
    if not 0 <= rank < n_ranks:
        raise ValueError(f"rank {rank} out of range for {n_ranks} ranks")
    return batch.read_range(int(bounds[rank]), int(bounds[rank + 1]))


def partition_reads(batch: ReadBatch, n_ranks: int) -> list[ReadBatch]:
    """Split a paired batch into *n_ranks* contiguous pair-aligned parts."""
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    return [partition_part(batch, n_ranks, r) for r in range(n_ranks)]


@dataclass
class ExchangeStats:
    """Volume and modelled time of the k-mer all-to-all."""

    n_ranks: int
    total_kmers_sent: int
    bytes_per_rank_max: int
    modelled_time_s: float


def exchange_stats(
    counts: np.ndarray, row_bytes: int, comm: CommCostModel
) -> ExchangeStats:
    """Exchange volume measured from a ``[src, dest]`` counts matrix of
    *row_bytes*-byte rows; only off-diagonal rows cross ranks.
    ``total_kmers_sent`` carries the row count whatever the rows are."""
    n_ranks = counts.shape[0]
    offdiag = counts.copy()
    np.fill_diagonal(offdiag, 0)
    bytes_max = int(offdiag.sum(axis=1).max()) * row_bytes
    return ExchangeStats(
        n_ranks=n_ranks,
        total_kmers_sent=int(offdiag.sum()),
        bytes_per_rank_max=bytes_max,
        modelled_time_s=comm.alltoall_time(bytes_max, n_ranks),
    )


def merge_spectra(shards: list[KmerSpectrum], k: int) -> KmerSpectrum:
    """Merge per-rank spectra (disjoint or overlapping) into one.

    Overlapping keys have their counts and extension tallies summed — the
    reduction MHM2's distributed hash table performs on insert: one
    :class:`~repro.sequence.kmer.SortedKmers` sort over the concatenated
    rows, then one ``np.add.reduceat`` per column over its runs.
    """
    shards = [s for s in shards if len(s)]
    if not shards:
        return KmerSpectrum.empty(k)
    words = np.concatenate([s.words for s in shards])
    index = SortedKmers(words, k)

    def total(column: str) -> np.ndarray:
        rows = np.concatenate([getattr(s, column) for s in shards])
        return np.add.reduceat(rows[index.order], index.starts)

    return KmerSpectrum(
        k, words[index.first], total("counts"), total("left_ext"), total("right_ext")
    )
