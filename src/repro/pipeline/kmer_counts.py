"""Vectorised k-mer counting over packed read batches.

This is the engine behind the *k-mer analysis* stage (and the host-side
sizing pass of the GPU local-assembly driver).  It never loops over
individual k-mers in Python: every k-mer window of the **entire
concatenated** base array is packed into 2-bit uint64 words in one
vectorised pass, windows that cross read boundaries or contain ``N`` are
masked out, canonicalisation is done by packing the reverse-complemented
array, and aggregation uses a single ``lexsort`` + group-reduce.

The output (:class:`KmerSpectrum`) records, per distinct canonical k-mer:

* total count,
* left/right extension-base counts (4 bases + "none"), oriented relative
  to the canonical form,

which is exactly the UFX ("k-mer with extensions") representation
MetaHipMer's contig generation consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sequence.dna import N_CODE, revcomp_codes
from repro.sequence.kmer import (
    pack_kmers,
    rows_less,
    searchsorted_rows,
    unpack_kmer,
    words_per_kmer,
)
from repro.sequence.read import ReadBatch

__all__ = ["KmerSpectrum", "count_kmers", "NO_EXT"]

#: Extension-slot index meaning "no neighbouring base" (read boundary).
NO_EXT = 4


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

    def lookup_many(self, words: np.ndarray) -> np.ndarray:
        """Row indices of ``(n, nw)`` packed k-mers, -1 where absent.

        One vectorised ``searchsorted`` over the whole query block
        (multi-word rows compared via big-endian byte keys) instead of a
        Python-loop binary search per query.
        """
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim == 1:
            words = words[None, :]
        if len(self) == 0 or words.shape[0] == 0:
            return np.full(words.shape[0], -1, dtype=np.int64)
        idx = searchsorted_rows(self.words, words)
        idx = np.minimum(idx, len(self) - 1)
        hit = np.all(self.words[idx] == words, axis=1)
        return np.where(hit, idx, -1).astype(np.int64)


def _read_ids(batch: ReadBatch) -> np.ndarray:
    """Read index of every base position in the concatenated array."""
    lengths = batch.lengths()
    return np.repeat(np.arange(len(batch), dtype=np.int64), lengths)


def count_kmers(
    batch: ReadBatch, k: int, min_count: int = 1, min_qual: int = 0
) -> KmerSpectrum:
    """Count canonical k-mers (with extensions) across a read batch.

    Parameters
    ----------
    batch:
        Packed reads.
    k:
        k-mer length (odd — required for unambiguous canonicalisation).
    min_count:
        Post-filter threshold; ``min_count=2`` drops singletons as the
        paper's pipeline does.
    min_qual:
        Bases below this Phred score are masked to N before windowing
        (MetaHipMer's quality-aware counting): k-mers containing them are
        never counted, and they never vote as extensions.  0 disables.
    """
    if k % 2 == 0:
        raise ValueError(f"k must be odd for canonical k-mers, got {k}")
    bases = batch.bases
    if min_qual > 0:
        bases = np.where(batch.quals < min_qual, N_CODE, bases)
    n = bases.size
    nw = words_per_kmer(k)
    if n < k:
        empty_w = np.empty((0, nw), dtype=np.uint64)
        z = np.zeros(0, dtype=np.int64)
        e = np.zeros((0, 5), dtype=np.int64)
        return KmerSpectrum(k, empty_w, z, e, e)

    fwd_words, no_n = pack_kmers(bases, k)
    rid = _read_ids(batch)
    same_read = rid[: n - k + 1] == rid[k - 1 :]
    valid = no_n & same_read
    starts = np.nonzero(valid)[0]
    if starts.size == 0:
        empty_w = np.empty((0, nw), dtype=np.uint64)
        z = np.zeros(0, dtype=np.int64)
        e = np.zeros((0, 5), dtype=np.int64)
        return KmerSpectrum(k, empty_w, z, e, e)

    fwd = fwd_words[starts]

    # Reverse complements: packing the revcomp of the whole array gives the
    # rc of window i at reversed position n-k-i.
    rc_bases = revcomp_codes(bases)
    rc_all, _ = pack_kmers(rc_bases, k)
    rc = rc_all[n - k - starts]

    # Lexicographic choice between fwd and rc (row-wise, word-major).
    use_rc = rows_less(rc, fwd)
    canon = np.where(use_rc[:, None], rc, fwd)

    # Extensions in read orientation.
    left_pos = starts - 1
    right_pos = starts + k
    has_left = np.zeros(starts.size, dtype=bool)
    np.greater_equal(left_pos, 0, out=has_left)
    has_left &= rid[np.maximum(left_pos, 0)] == rid[starts]
    has_right = right_pos < n
    has_right &= rid[np.minimum(right_pos, n - 1)] == rid[starts]
    left_base = np.where(has_left, bases[np.maximum(left_pos, 0)], N_CODE)
    right_base = np.where(has_right, bases[np.minimum(right_pos, n - 1)], N_CODE)
    left_base = np.minimum(left_base, NO_EXT).astype(np.int64)
    right_base = np.minimum(right_base, NO_EXT).astype(np.int64)

    # When the canonical form is the rc, left/right swap and complement.
    def _comp(b: np.ndarray) -> np.ndarray:
        out = 3 - b
        out[b >= NO_EXT] = NO_EXT
        return out

    canon_left = np.where(use_rc, _comp(right_base), left_base)
    canon_right = np.where(use_rc, _comp(left_base), right_base)

    # Group identical canonical k-mers.
    order = np.lexsort(tuple(canon[:, w] for w in range(nw - 1, -1, -1)))
    sorted_w = canon[order]
    new_group = np.ones(order.size, dtype=bool)
    new_group[1:] = np.any(sorted_w[1:] != sorted_w[:-1], axis=1)
    group_id = np.cumsum(new_group) - 1
    n_groups = int(group_id[-1]) + 1

    counts = np.bincount(group_id, minlength=n_groups).astype(np.int64)
    left_ext = np.zeros((n_groups, 5), dtype=np.int64)
    right_ext = np.zeros((n_groups, 5), dtype=np.int64)
    np.add.at(left_ext, (group_id, canon_left[order]), 1)
    np.add.at(right_ext, (group_id, canon_right[order]), 1)
    words = sorted_w[new_group]

    spec = KmerSpectrum(k=k, words=words, counts=counts, left_ext=left_ext, right_ext=right_ext)
    return spec.filtered(min_count) if min_count > 1 else spec
