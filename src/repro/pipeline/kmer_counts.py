"""Vectorised k-mer counting over packed read batches.

This is the engine behind the *k-mer analysis* stage.  It never loops
over individual k-mers in Python: every k-mer window of the **entire
concatenated** base array is packed into 2-bit uint64 words in one
vectorised pass, windows that cross read boundaries or contain ``N`` are
masked out, the valid windows are canonicalised in place in word space
(:func:`~repro.sequence.kmer.canonical_rows`), and one
:class:`~repro.sequence.kmer.SortedKmers` sort groups them into distinct
k-mers.  Runs below ``min_count`` get no tally row; the extension tallies
are one ``np.bincount`` each.

The pass is one pass, not blocked, and its memory is kept down instead:
no per-base read-id array, ``uint8`` extension columns, and every
per-window array dropped as soon as it is consumed.  Its transient is
~30 bytes per counted 21-mer window (``bench_smoke`` gates it).

The output (:class:`KmerSpectrum`) records, per distinct canonical k-mer:

* total count,
* left/right extension-base counts (4 bases + "none"), oriented relative
  to the canonical form,

which is exactly the UFX ("k-mer with extensions") representation
MetaHipMer's contig generation consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.sequence.dna import N_CODE
from repro.sequence.kmer import (
    SortedKmers,
    canonical_rows,
    pack_kmers,
    unpack_kmer,
    words_per_kmer,
)
from repro.sequence.read import ReadBatch

__all__ = ["KmerSpectrum", "count_kmers", "NO_EXT"]

#: Extension-slot index meaning "no neighbouring base" (read boundary).
NO_EXT = 4

#: Extension slot of the complementary base (NO_EXT stays NO_EXT).
_COMP_EXT = np.array([3, 2, 1, 0, NO_EXT], dtype=np.uint8)


@dataclass(frozen=True)
class KmerSpectrum:
    """Distinct canonical k-mers with counts and extension tallies.

    Attributes
    ----------
    k:
        The k-mer length.
    words:
        ``(n_distinct, words_per_kmer(k))`` packed canonical k-mers,
        lexicographically sorted.
    counts:
        Occurrences of each k-mer (both strands merged).
    left_ext / right_ext:
        ``(n_distinct, 5)`` tallies of the base preceding/following each
        occurrence (columns A,C,G,T,none), in canonical orientation.
    """

    k: int
    words: np.ndarray
    counts: np.ndarray
    left_ext: np.ndarray
    right_ext: np.ndarray

    @classmethod
    def empty(cls, k: int) -> "KmerSpectrum":
        """The spectrum holding no k-mer."""
        ext = np.zeros((0, 5), dtype=np.int64)
        words = np.empty((0, words_per_kmer(k)), dtype=np.uint64)
        return cls(k, words, np.zeros(0, dtype=np.int64), ext, ext)

    def __len__(self) -> int:
        return int(self.counts.size)

    def kmer(self, i: int) -> str:
        """String form of distinct k-mer *i* (for tests/debugging)."""
        return unpack_kmer(self.words[i], self.k)

    def filtered(self, min_count: int) -> "KmerSpectrum":
        """Drop k-mers below *min_count* (the error filter: singletons
        are overwhelmingly sequencing errors)."""
        keep = self.counts >= min_count
        return KmerSpectrum(
            k=self.k,
            words=self.words[keep],
            counts=self.counts[keep],
            left_ext=self.left_ext[keep],
            right_ext=self.right_ext[keep],
        )

    def lookup(self, words: np.ndarray) -> int:
        """Row index of a packed canonical k-mer, or -1 if absent."""
        words = np.asarray(words, dtype=np.uint64).ravel()
        return int(self.lookup_many(words[None, :])[0])

    @cached_property
    def _index(self) -> SortedKmers:
        # built on first lookup, once per spectrum; the rows are sorted and
        # distinct, so run i is row i
        return SortedKmers(self.words, self.k)

    def lookup_many(self, words: np.ndarray) -> np.ndarray:
        """Row indices of ``(n, words_per_kmer(k))`` packed k-mers, -1 where
        absent; rows of another width raise ``ValueError``."""
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim == 1:
            words = words[None, :]
        return self._index.find(words)


def count_kmers(
    batch: ReadBatch, k: int, min_count: int = 1, min_qual: int = 0
) -> KmerSpectrum:
    """Count canonical k-mers (with extensions) across a read batch.

    Parameters
    ----------
    batch:
        Packed reads.
    k:
        k-mer length (odd and >= 1 — odd for unambiguous canonicalisation).
    min_count:
        Threshold applied before the tallies; ``min_count=2`` drops
        singletons as the paper's pipeline does.
    min_qual:
        Bases below this Phred score are masked to N before windowing
        (MetaHipMer's quality-aware counting): k-mers containing them are
        never counted, and they never vote as extensions.  0 disables.

    The result depends only on the reads, not on how the pass is laid out
    in memory: a window counts when it holds no N and its k bases lie in
    one read (:func:`_inside_reads`).
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"k must be odd and >= 1 for canonical k-mers, got {k}")
    bases = batch.bases
    if min_qual > 0:
        bases = np.where(batch.quals < min_qual, np.uint8(N_CODE), bases)
    words, valid = pack_kmers(bases, k)
    valid &= _inside_reads(batch.offsets, k, valid.size)

    # Extensions in read orientation; NO_EXT across a read boundary (an N
    # is NO_EXT already).  before[p] is base p - 1, after[p] base p, each
    # unless p starts a read (or is the end).
    no_ext = np.array([NO_EXT], dtype=np.uint8)
    before = np.concatenate([no_ext, bases])
    after = np.concatenate([bases, no_ext])
    before[batch.offsets] = after[batch.offsets] = NO_EXT
    left = before[: valid.size][valid]
    right = after[k : k + valid.size][valid]
    del before, after
    canon, is_rc = canonical_rows(words[valid], k)
    del words, valid
    # When the canonical form is the rc, left/right swap and complement.
    left, right = (
        np.where(is_rc, _COMP_EXT[right], left),
        np.where(is_rc, _COMP_EXT[left], right),
    )
    del is_rc

    index = SortedKmers(canon, k)
    counts, order = index.counts, index.order
    keep = counts >= min_count
    kept = int(np.count_nonzero(keep))
    out_words = canon[index.first[keep]]
    del canon, index
    # each window's tally row in sorted order; windows of dropped runs
    # share one spare row, cut off below
    row = np.where(keep, np.cumsum(keep) - 1, kept)
    slot = np.repeat(row * 5, counts)
    size = 5 * (kept + 1)
    left_ext = np.bincount(slot + left[order], minlength=size)
    slot += right[order]
    right_ext = np.bincount(slot, minlength=size)
    return KmerSpectrum(
        k,
        out_words,
        counts[keep],
        left_ext.reshape(-1, 5)[:kept],
        right_ext.reshape(-1, 5)[:kept],
    )


def _inside_reads(offsets: np.ndarray, k: int, n_win: int) -> np.ndarray:
    """Mask of the *n_win* window starts whose k bases lie inside one read.

    The last ``min(k - 1, length)`` starts of every read cross its end.
    Those spans are disjoint, so +1/-1 marks at their ends and one
    ``int8`` running sum find them: O(reads) marks, no per-base read id.
    """
    ends = offsets[1:]
    lo = np.minimum(np.maximum(ends - (k - 1), offsets[:-1]), n_win)
    edge = np.zeros(n_win + 1, dtype=np.int8)
    np.add.at(edge, lo, 1)
    np.add.at(edge, np.minimum(ends, n_win), -1)
    return np.cumsum(edge[:n_win], dtype=np.int8) == 0
