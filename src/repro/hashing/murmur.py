"""MurmurHash2 — the hash function used by the paper's GPU hash tables.

The paper (§3.3) inserts k-mers with *murmurhash2* (Austin Appleby).  We
implement the classic 32-bit ``MurmurHash2`` and the 64-bit
``MurmurHash64A`` faithfully (verified against reference vectors in the
tests), plus a vectorised variant that hashes every row of a byte matrix at
once — that is what the simulated warp kernels call, so hashing thousands of
k-mers costs a handful of NumPy passes instead of a Python loop per k-mer.

All arithmetic is modulo 2**32 / 2**64, implemented with NumPy unsigned
integers (overflow wraps, which is exactly what we need).
"""

from __future__ import annotations

import numpy as np

__all__ = ["murmurhash2_32", "murmurhash64a", "murmurhash2_rows"]

_M32 = np.uint32(0x5BD1E995)
_R32 = 24
_M64 = np.uint64(0xC6A4A7935BD1E995)
_R64 = np.uint64(47)


def murmurhash2_32(data: bytes | np.ndarray, seed: int = 0x9747B28C) -> int:
    """Reference scalar MurmurHash2 (32-bit) of a byte string.

    Implemented with plain Python integers (masked to 32 bits) — it is on
    the simulated DNA-walk hot path, where NumPy scalar arithmetic would
    dominate the simulator's own runtime.
    """
    buf = bytes(data) if not isinstance(data, np.ndarray) else data.astype(np.uint8).tobytes()
    n = len(buf)
    m = 0x5BD1E995
    mask = 0xFFFFFFFF
    h = (seed ^ n) & mask
    i = 0
    while n - i >= 4:
        k = buf[i] | (buf[i + 1] << 8) | (buf[i + 2] << 16) | (buf[i + 3] << 24)
        k = (k * m) & mask
        k ^= k >> _R32
        k = (k * m) & mask
        h = (h * m) & mask
        h ^= k
        i += 4
    rem = n - i
    if rem == 3:
        h ^= buf[i + 2] << 16
    if rem >= 2:
        h ^= buf[i + 1] << 8
    if rem >= 1:
        h ^= buf[i]
        h = (h * m) & mask
    h ^= h >> 13
    h = (h * m) & mask
    h ^= h >> 15
    return h


def murmurhash64a(data: bytes | np.ndarray, seed: int = 0x9747B28C) -> int:
    """Reference scalar MurmurHash64A of a byte string."""
    buf = np.frombuffer(bytes(data), dtype=np.uint8) if not isinstance(data, np.ndarray) else data.astype(np.uint8)
    n = buf.size
    with np.errstate(over="ignore"):
        h = np.uint64(seed) ^ (np.uint64(n) * _M64)
        i = 0
        while n - i >= 8:
            k = np.uint64(0)
            for b in range(8):
                k |= np.uint64(int(buf[i + b])) << np.uint64(8 * b)
            k *= _M64
            k ^= k >> _R64
            k *= _M64
            h ^= k
            h *= _M64
            i += 8
        rem = n - i
        for b in range(rem - 1, -1, -1):
            h ^= np.uint64(int(buf[i + b])) << np.uint64(8 * b)
        if rem:
            h *= _M64
        h ^= h >> _R64
        h *= _M64
        h ^= h >> _R64
    return int(h)


def murmurhash2_rows(rows: np.ndarray, seed: int = 0x9747B28C) -> np.ndarray:
    """Vectorised MurmurHash2 (32-bit) over each row of a byte matrix.

    Parameters
    ----------
    rows:
        ``(n, width)`` uint8 array; every row is hashed as a *width*-byte
        message.  All rows share one width, which is exactly the k-mer case
        (width = k).
    seed:
        Hash seed (same default as the scalar version).

    Returns
    -------
    ``(n,)`` uint32 array, bit-identical to calling
    :func:`murmurhash2_32` on each row.
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    if rows.ndim != 2:
        raise ValueError("rows must be 2-D (n, width)")
    n, width = rows.shape
    n_words = width // 4
    with np.errstate(over="ignore"):
        h = np.full(n, np.uint32(seed) ^ np.uint32(width), dtype=np.uint32)
        if n_words:
            # Each aligned 4-byte group is one little-endian u32 word, so a
            # single view replaces the per-byte cast/shift/or assembly.
            body = np.ascontiguousarray(rows[:, : n_words * 4]).view(
                np.dtype("<u4")
            )
            for j in range(n_words):
                k = body[:, j].copy()
                k *= _M32
                k ^= k >> np.uint32(_R32)
                k *= _M32
                h *= _M32
                h ^= k
        i = n_words * 4
        rem = width - i
        if rem == 3:
            h ^= rows[:, i + 2].astype(np.uint32) << np.uint32(16)
        if rem >= 2:
            h ^= rows[:, i + 1].astype(np.uint32) << np.uint32(8)
        if rem >= 1:
            h ^= rows[:, i].astype(np.uint32)
            h *= _M32
        h ^= h >> np.uint32(13)
        h *= _M32
        h ^= h >> np.uint32(15)
    return h
