"""k-mer extraction, canonicalisation and 2-bit packing.

A *k-mer* is a length-``k`` substring of a read or contig.  The de Bruijn
stages of the pipeline (k-mer analysis, contig generation, local assembly)
all operate on k-mers, so extraction must be cheap and allocation-free.

Three forms are provided:

* **string k-mers** — convenience API for tests and small examples;
* **windowed code views** — ``sliding_window_view`` over a ``uint8`` code
  array, giving an ``(n_kmers, k)`` *view* (no copy);
* **packed words** — each k-mer packed into ``ceil(k/32)`` ``uint64`` words
  (2 bits per base, first base in the most-significant position of word 0),
  used as sort and hash-table keys.  Packing is fully vectorised, and de Bruijn
  neighbours and reverse complements are formed in word space
  (:func:`successor_kmers`, :func:`predecessor_kmers`,
  :func:`revcomp_packed`) without unpacking.

Every stage that groups packed k-mers — counting, merging per-rank
spectra, spectrum lookup and the local-assembly tables — sorts them
through one type, :class:`SortedKmers`: one ``argsort`` of one folded
``uint64`` key per row, runs of equal rows, and ``find`` by binary search.

MetaHipMer iterates k through {21, 33, 55, 77, 99}; all helpers here accept
any odd k ≥ 1 (odd k makes a k-mer never equal to its own reverse
complement, so canonicalisation is unambiguous).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.sequence.dna import N_CODE, decode, encode, revcomp

__all__ = [
    "DEFAULT_K_SERIES",
    "kmers_of",
    "iter_kmers",
    "canonical",
    "kmer_window",
    "valid_kmer_mask",
    "words_per_kmer",
    "pack_kmers",
    "pack_kmer",
    "unpack_kmer",
    "unpack_kmers",
    "base_at",
    "successor_kmers",
    "predecessor_kmers",
    "revcomp_packed",
    "rows_less",
    "canonical_rows",
    "rows_as_keys",
    "SortedKmers",
    "count_distinct_kmers",
]

#: The k progression MetaHipMer2 uses for its iterative de Bruijn rounds.
DEFAULT_K_SERIES = (21, 33, 55, 77, 99)


def kmers_of(seq: str, k: int) -> list[str]:
    """All k-mers of *seq*, in order, excluding any containing ``N``.

    >>> kmers_of("ACGTA", 3)
    ['ACG', 'CGT', 'GTA']
    """
    return list(iter_kmers(seq, k))


def iter_kmers(seq: str, k: int) -> Iterator[str]:
    """Lazily yield the k-mers of *seq* that contain no ``N``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    upper = seq.upper()
    for i in range(len(upper) - k + 1):
        kmer = upper[i : i + k]
        if "N" not in kmer:
            yield kmer


def canonical(kmer: str) -> str:
    """Lexicographic minimum of a k-mer and its reverse complement.

    The global k-mer analysis stage counts canonical k-mers so that the two
    strands of a fragment are merged.  (Local assembly, by contrast, works
    strand-directed and does *not* canonicalise.)
    """
    rc = revcomp(kmer)
    return kmer if kmer <= rc else rc


def kmer_window(codes: np.ndarray, k: int) -> np.ndarray:
    """Return an ``(n-k+1, k)`` sliding *view* of a code array.

    No data is copied; rows alias the input.  Caller must not mutate.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    if codes.size < k:
        return np.empty((0, k), dtype=np.uint8)
    return sliding_window_view(codes, k)


def valid_kmer_mask(codes: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of windows that contain no ``N`` code.

    Computed with a prefix-sum over the N indicator so it is O(n), not
    O(n*k).
    """
    codes = np.asarray(codes, dtype=np.uint8)
    n_win = codes.size - k + 1
    if n_win <= 0:
        return np.zeros(0, dtype=bool)
    is_n = codes >= N_CODE
    if not is_n.any():
        return np.ones(n_win, dtype=bool)
    csum = np.cumsum(is_n, dtype=np.int32)
    # Window starting at i spans codes[i:i+k]; valid iff zero Ns inside:
    # csum[i+k-1] - csum[i-1] == 0 (with csum[-1] taken as 0).
    out = csum[k - 1 :].copy()
    out[1:] -= csum[: n_win - 1]
    return out == 0


def words_per_kmer(k: int) -> int:
    """Number of uint64 words needed to hold a 2-bit-packed k-mer."""
    return (k + 31) // 32


def pack_kmers(codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pack every k-mer window of *codes* into 2-bit uint64 words.

    Returns ``(words, valid)`` where ``words`` has shape
    ``(n-k+1, words_per_kmer(k))`` and ``valid`` marks windows free of N.
    Invalid windows contain unspecified word values and must be filtered by
    the caller using ``valid``.

    Layout: base ``j`` of the k-mer occupies bits
    ``[62 - 2*(j mod 32), 63 - 2*(j mod 32)]`` of word ``j // 32`` — i.e.
    bases fill each word from the most-significant end, so packed words sort
    in the same order as the underlying strings.

    Packing is by length doubling: ``run[i]``, the 32 bases from position
    *i* (zeros past the end), is built from runs of 1, 2, 4, 8 and 16
    bases by OR-combining shifted neighbours, so word *w* of window *i* is
    ``run[i + 32 * w]`` with the slots past base *k* cleared — five array
    passes whatever k is, not k.  N codes are sanitised to 0 so shifts
    stay in range; ``valid`` filters those windows out.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    n_win = codes.size - k + 1
    nw = words_per_kmer(k)
    if n_win <= 0:
        return np.empty((0, nw), dtype=np.uint64), np.zeros(0, dtype=bool)
    valid = valid_kmer_mask(codes, k)
    run = np.concatenate([np.minimum(codes, 3), np.zeros(31, dtype=np.uint8)])
    run = run.astype(np.uint64)
    for half in (1, 2, 4, 8, 16):
        nxt = run[: run.size - half] << np.uint64(2 * half)
        nxt |= run[half:]
        run = nxt
    keep = np.full(nw, ~np.uint64(0))
    keep[-1] <<= np.uint64(64 * nw - 2 * k)
    return sliding_window_view(run, 32 * nw - 31)[:n_win, ::32] & keep, valid


def pack_kmer(kmer: str) -> np.ndarray:
    """Pack a single k-mer string; returns a ``(words_per_kmer(k),)`` array."""
    codes = encode(kmer)
    if np.any(codes >= 4):
        raise ValueError(f"cannot pack k-mer containing N: {kmer!r}")
    words, _ = pack_kmers(codes, len(kmer))
    return words[0]


def unpack_kmer(words: np.ndarray, k: int) -> str:
    """Inverse of :func:`pack_kmer`."""
    words = np.asarray(words, dtype=np.uint64).ravel()
    codes = np.empty(k, dtype=np.uint8)
    for j in range(k):
        w = j // 32
        shift = np.uint64(62 - 2 * (j % 32))
        codes[j] = np.uint8((words[w] >> shift) & np.uint64(3))
    return decode(codes)


def _base_shift(j: int) -> np.uint64:
    """Bit offset of base *j* inside its word (word ``j // 32``)."""
    return np.uint64(62 - 2 * (j % 32))


def base_at(words: np.ndarray, j: int) -> np.ndarray:
    """Code of base *j* of every ``(n, nw)`` packed row, as ``uint8``."""
    return ((words[:, j // 32] >> _base_shift(j)) & np.uint64(3)).astype(np.uint8)


def unpack_kmers(words: np.ndarray, k: int) -> np.ndarray:
    """Unpack ``(n, words_per_kmer(k))`` packed rows to ``(n, k)`` codes.

    Vectorised inverse of :func:`pack_kmers` for valid (N-free) rows; the
    per-row loop of :func:`unpack_kmer` is O(k) Python per call, this is
    O(k) NumPy column passes total.
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim == 1:
        words = words[None, :]
    n = words.shape[0]
    codes = np.empty((n, k), dtype=np.uint8)
    for j in range(k):
        codes[:, j] = base_at(words, j)
    return codes


def _shift_rows_left(words: np.ndarray, bits: int) -> np.ndarray:
    """Each row, read as one big-endian bit string, shifted left by
    ``0 <= bits < 64``; zeros enter at the low end of the last word."""
    if bits == 0:
        return words.copy()
    out = words << np.uint64(bits)
    out[:, :-1] |= words[:, 1:] >> np.uint64(64 - bits)
    return out


def successor_kmers(words: np.ndarray, k: int, base: np.ndarray) -> np.ndarray:
    """Packed ``kmer[1:] + base`` for every ``(n, nw)`` row — the right
    de Bruijn neighbour reached through extension code ``base[i]`` (0..3).

    Pure word-space: one cross-word 2-bit shift, then the new base is
    OR-ed into slot ``k - 1`` (which the shift filled from the zero pad).
    """
    words = np.asarray(words, dtype=np.uint64)
    out = _shift_rows_left(words, 2)
    out[:, (k - 1) // 32] |= np.asarray(base).astype(np.uint64) << _base_shift(k - 1)
    return out


def predecessor_kmers(words: np.ndarray, k: int, base: np.ndarray) -> np.ndarray:
    """Packed ``base + kmer[:-1]`` for every ``(n, nw)`` row — the left
    de Bruijn neighbour (inverse direction of :func:`successor_kmers`)."""
    words = np.asarray(words, dtype=np.uint64)
    out = words >> np.uint64(2)
    out[:, 1:] |= words[:, :-1] << np.uint64(62)
    # the old last base slid into pad slot k (when the last word has
    # one); keep only the slots of bases 0..k-1 there
    used = k - 32 * (words.shape[1] - 1)
    out[:, -1] &= ~np.uint64(0) << np.uint64(64 - 2 * used)
    out[:, 0] |= np.asarray(base).astype(np.uint64) << np.uint64(62)
    return out


def revcomp_packed(words: np.ndarray, k: int) -> np.ndarray:
    """Reverse complement of ``(n, nw)`` packed k-mers, in word space.

    Complementing a 2-bit code is a bit flip (``3 - c == ~c & 3``);
    reversing the bases is reversing the word order plus the 2-bit groups
    inside each word (swap pairs, swap nibbles, byte-swap).  That leaves
    the bases in the *low* ``2k`` bits, so one cross-word shift by the
    pad width restores the most-significant-first layout and drops the
    (flipped) pad bits.
    """
    words = np.asarray(words, dtype=np.uint64)
    x = ~words[:, ::-1]
    m2, m4 = np.uint64(0x3333333333333333), np.uint64(0x0F0F0F0F0F0F0F0F)
    x = ((x >> np.uint64(2)) & m2) | ((x & m2) << np.uint64(2))
    x = ((x >> np.uint64(4)) & m4) | ((x & m4) << np.uint64(4))
    x = x.byteswap()
    return _shift_rows_left(x, 64 * words.shape[1] - 2 * k)


def rows_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise lexicographic ``a < b`` over ``(n, nw)`` packed rows
    (word-major, i.e. the order of the underlying k-mer strings)."""
    less = np.zeros(a.shape[0], dtype=bool)
    undecided = np.ones(a.shape[0], dtype=bool)
    for w in range(a.shape[1]):
        less |= undecided & (a[:, w] < b[:, w])
        undecided &= a[:, w] == b[:, w]
    return less


def canonical_rows(words: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical form of ``(n, nw)`` packed k-mers: the lesser of each row
    and its reverse complement, and whether that is the reverse complement."""
    rc = revcomp_packed(words, k)
    is_rc = rows_less(rc, words)
    return np.where(is_rc[:, None], rc, words), is_rc


def rows_as_keys(words: np.ndarray) -> np.ndarray:
    """Collapse ``(n, nw)`` uint64 rows into one sortable key per row.

    For single-word rows this is a plain ``uint64`` view (no copy).  For
    multi-word rows each row is re-laid-out big-endian and viewed as a
    fixed-width ``S{8*nw}`` byte string: NumPy compares ``S`` keys by
    memcmp, which on big-endian words equals row-lexicographic uint64
    order — so the keys sort (and equality-compare) exactly like the
    original rows, enabling 1-D ``searchsorted`` over multi-word k-mers.
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim == 1:
        words = words[None, :]
    nw = words.shape[1]
    if nw == 1:
        return words[:, 0]
    be = np.ascontiguousarray(words).astype(">u8")
    return be.view(f"S{8 * nw}").ravel()


def _check_width(words: np.ndarray, k: int) -> None:
    if words.ndim != 2 or words.shape[1] != words_per_kmer(k):
        raise ValueError(
            f"packed k-mer rows must have shape (n, {words_per_kmer(k)}) for k={k}, "
            f"got {words.shape}"
        )


class SortedKmers:
    """``(n, words_per_kmer(k))`` packed k-mer rows, optionally tagged with a
    group id, sorted once into runs of equal rows.

    Each ``(group, k-mer)`` row is folded into ONE order-preserving
    ``uint64`` key and the keys are sorted by one ``argsort`` (a multi-key
    ``lexsort`` over word columns is an order of magnitude slower).  Columns
    fold most-significant first: the group id (omitted when ``n_groups`` is
    1), then each k-mer word right-justified to its used bits.  A column
    that no longer fits, and is wider than a rank can be, is replaced by its
    dense rank among the built rows' distinct values (``np.unique``: at
    most ``log2(rows)`` bits); if the pair still does not fit, the key
    folded so far is ranked too, which always suffices (two columns of at
    most ``log2(rows)`` bits each).  The distinct values are kept so that
    :meth:`find` folds query rows into the same key space.  Runs come in
    ``(group, k-mer string)`` order; nothing here depends on the order
    ``argsort`` leaves equal keys in.

    Attributes
    ----------
    order:
        ``(n,)`` input row at each sorted position.
    run:
        ``(n,)`` run index of each sorted row.
    starts:
        ``(n_runs,)`` sorted position of each run's first row.
    first:
        ``(n_runs,)`` input row of each run's first sorted row.
    counts:
        ``(n_runs,)`` rows per run.
    offsets:
        ``(n_groups + 1,)`` run offset prefix: group *g* owns runs
        ``offsets[g]:offsets[g + 1]``.
    """

    def __init__(
        self, words: np.ndarray, k: int, group: np.ndarray | None = None, n_groups: int = 1
    ) -> None:
        words = np.asarray(words, dtype=np.uint64)
        _check_width(words, k)
        n = words.shape[0]
        self.k = k
        self._group_bits = int(n_groups - 1).bit_length()
        self._distinct: dict[tuple[str, int], np.ndarray] = {}
        self._rank_bits = max(1, int(n - 1).bit_length())  # widest possible rank
        keys = self._fold(words, group, learn=True)[0]
        self.order = np.argsort(keys)
        sorted_keys = keys[self.order]
        is_start = np.ones(n, dtype=bool)
        is_start[1:] = sorted_keys[1:] != sorted_keys[:-1]
        self.run = np.cumsum(is_start) - 1
        self.starts = np.flatnonzero(is_start)
        self.first = self.order[self.starts]
        self.counts = np.diff(self.starts, append=n)
        per_group = [len(self)]
        if self._group_bits:
            per_group = np.bincount(group[self.first], minlength=n_groups)
        self.offsets = np.concatenate([[0], np.cumsum(per_group)])
        self._run_keys = sorted_keys[self.starts]

    def __len__(self) -> int:
        """Number of runs (distinct rows)."""
        return int(self.starts.size)

    def _columns(self, words: np.ndarray, group: np.ndarray | None):
        if self._group_bits:
            yield np.asarray(group).astype(np.uint64), self._group_bits
        for w in range(words.shape[1]):
            bits = min(64, 2 * self.k - 64 * w)
            yield words[:, w] >> np.uint64(64 - bits), bits

    def _fold(
        self, words: np.ndarray, group: np.ndarray | None, learn: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(key, present)`` of every row; a query row holding a ranked
        value the build never saw cannot equal a built row: not present."""
        present = np.ones(words.shape[0], dtype=bool)

        def squeeze(slot: tuple[str, int], col: np.ndarray) -> tuple[np.ndarray, int]:
            if learn:
                distinct, ranks = np.unique(col, return_inverse=True)
                self._distinct[slot] = distinct
            else:
                distinct = self._distinct[slot]
                ranks = np.minimum(np.searchsorted(distinct, col), distinct.size - 1)
                np.logical_and(present, distinct[ranks] == col, out=present)
            return ranks.astype(np.uint64), max(1, int(distinct.size - 1).bit_length())

        columns = self._columns(words, group)
        key, key_bits = next(columns)
        for i, (col, bits) in enumerate(columns):
            if key_bits + bits > 64 and bits > self._rank_bits:
                col, bits = squeeze(("word", i), col)
            if key_bits + bits > 64:
                key, key_bits = squeeze(("prefix", i), key)
            key = (key << np.uint64(bits)) | col
            key_bits += bits
        return key, present

    def find(self, words: np.ndarray, group: np.ndarray | None = None) -> np.ndarray:
        """Run index of every query row (``(group, k-mer)`` when sorted with
        groups); -1 where no built row equals it."""
        words = np.asarray(words, dtype=np.uint64)
        _check_width(words, self.k)
        if not len(self):
            return np.full(words.shape[0], -1, dtype=np.int64)
        keys, present = self._fold(words, group)
        pos = np.minimum(np.searchsorted(self._run_keys, keys), len(self) - 1)
        return np.where(present & (self._run_keys[pos] == keys), pos, -1)


def count_distinct_kmers(seq: str, k: int, canonicalise: bool = False) -> int:
    """Number of distinct (optionally canonical) k-mers in *seq*."""
    seen: set[str] = set()
    for km in iter_kmers(seq, k):
        seen.add(canonical(km) if canonicalise else km)
    return len(seen)
