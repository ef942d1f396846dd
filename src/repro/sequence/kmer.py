"""k-mer extraction, canonicalisation and 2-bit packing.

A *k-mer* is a length-``k`` substring of a read or contig.  The de Bruijn
stages of the pipeline (k-mer analysis, contig generation, local assembly)
all operate on k-mers, so extraction must be cheap and allocation-free.

Three forms are provided:

* **string k-mers** — convenience API for tests and small examples;
* **windowed code views** — ``sliding_window_view`` over a ``uint8`` code
  array, giving an ``(n_kmers, k)`` *view* (no copy) used by the CPU
  reference implementation;
* **packed words** — each k-mer packed into ``ceil(k/32)`` ``uint64`` words
  (2 bits per base, first base in the most-significant position of word 0),
  used as hash-table keys.  Packing is fully vectorised, and de Bruijn
  neighbours and reverse complements are formed in word space
  (:func:`successor_kmers`, :func:`predecessor_kmers`,
  :func:`revcomp_packed`) without unpacking.

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
    "rows_as_keys",
    "searchsorted_rows",
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
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    n_win = codes.size - k + 1
    nw = words_per_kmer(k)
    if n_win <= 0:
        return np.empty((0, nw), dtype=np.uint64), np.zeros(0, dtype=bool)
    if nw == 1:
        return _pack_windows_1w(codes, k)[:, None], valid_kmer_mask(codes, k)
    win = kmer_window(codes, k)  # (n_win, k) view
    words = np.zeros((n_win, nw), dtype=np.uint64)
    # Column-at-a-time packing: one small temp per base position instead of
    # materialising an (n_win, k) uint64 matrix.  N codes are sanitised to
    # 0 so shifts stay in range; `valid` filters those windows out.
    for j in range(k):
        w = j // 32
        shift = np.uint64(62 - 2 * (j % 32))
        col = win[:, j].astype(np.uint64)
        np.minimum(col, 3, out=col)
        words[:, w] |= col << shift
    return words, valid_kmer_mask(codes, k)


def _pack_windows_1w(codes: np.ndarray, k: int) -> np.ndarray:
    """Single-word (k ≤ 32) window packing by length doubling.

    Builds packed windows of length 1, 2, 4, … by OR-combining shifted
    neighbours, then assembles length *k* from its binary decomposition —
    O(log k) array passes instead of the k column passes of the generic
    path.  Output matches the generic layout exactly (base 0 in the most
    significant bits); N codes are sanitised to 0, as in the generic path.
    """
    n_win = codes.size - k + 1
    v = np.minimum(codes, 3).astype(np.uint64)
    powers: list[tuple[int, np.ndarray]] = [(1, v)]
    length = 1
    while length * 2 <= k:
        nxt = v[: v.size - length] << np.uint64(2 * length)
        nxt |= v[length:]
        v = nxt
        length *= 2
        powers.append((length, v))
    res: np.ndarray | None = None
    covered = 0
    for length, arr in reversed(powers):
        if covered + length > k:
            continue
        chunk = arr[covered : covered + n_win]
        if res is None:
            res = chunk.copy()
        else:
            res <<= np.uint64(2 * length)
            res |= chunk
        covered += length
    assert res is not None and covered == k
    res <<= np.uint64(64 - 2 * k)
    return res


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


def searchsorted_rows(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Row-wise ``searchsorted``: left insertion points of *queries* rows
    into the lexicographically sorted ``(n, nw)`` *table* rows."""
    return np.searchsorted(rows_as_keys(table), rows_as_keys(queries))


def count_distinct_kmers(seq: str, k: int, canonicalise: bool = False) -> int:
    """Number of distinct (optionally canonical) k-mers in *seq*."""
    seen: set[str] = set()
    for km in iter_kmers(seq, k):
        seen.add(canonical(km) if canonicalise else km)
    return len(seen)
