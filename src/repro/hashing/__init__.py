"""Hashing substrate: MurmurHash2 (the kernels' table hash)."""

from repro.hashing.murmur import murmurhash2_32, murmurhash2_rows, murmurhash64a

__all__ = [
    "murmurhash2_32",
    "murmurhash2_rows",
    "murmurhash64a",
]
