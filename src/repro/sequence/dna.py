"""Low-level DNA sequence representation and manipulation.

Two representations are used throughout the package:

* **Python strings** over the alphabet ``ACGT`` (plus ``N`` for ambiguous
  bases) at API boundaries, because they are convenient for tests, examples
  and FASTQ I/O.
* **NumPy ``uint8`` code arrays** (``A=0, C=1, G=2, T=3, N=4``) in every hot
  path: packed read batches, k-mer extraction, hash-table kernels. This is
  the structure-of-arrays layout recommended for NumPy HPC code — no per-base
  Python objects ever appear in a kernel.

The 2-bit codes are chosen so that ``complement(code) == 3 - code``, which
lets reverse complement be a single vectorised subtraction.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BASES",
    "BASE_TO_CODE",
    "CODE_TO_BASE",
    "N_CODE",
    "encode",
    "decode",
    "complement_base",
    "revcomp",
    "revcomp_codes",
    "is_valid_dna",
    "gc_content",
    "random_dna",
    "hamming_distance",
]

#: Canonical base ordering; index = 2-bit code.
BASES = "ACGT"

#: Code used for an ambiguous base ('N').  It never participates in k-mers.
N_CODE = np.uint8(4)

#: 256-entry lookup: ASCII byte -> base code (A/C/G/T -> 0..3, everything
#: else -> 4).  Lower-case bases are accepted.
BASE_TO_CODE = np.full(256, N_CODE, dtype=np.uint8)
for _i, _b in enumerate(BASES):
    BASE_TO_CODE[ord(_b)] = _i
    BASE_TO_CODE[ord(_b.lower())] = _i

#: Inverse lookup: code -> ASCII byte.  Code 4 maps back to 'N'.
CODE_TO_BASE = np.frombuffer(b"ACGTN", dtype=np.uint8).copy()

_COMPLEMENT = {"A": "T", "C": "G", "G": "C", "T": "A", "N": "N"}


def encode(seq: str) -> np.ndarray:
    """Encode a DNA string into a ``uint8`` code array.

    Any character outside ``ACGTacgt`` becomes :data:`N_CODE`.

    >>> encode("ACGTN").tolist()
    [0, 1, 2, 3, 4]
    """
    raw = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
    return BASE_TO_CODE[raw]


def decode(codes: np.ndarray) -> str:
    """Decode a ``uint8`` code array back into a DNA string.

    Codes above 3 decode to ``'N'``.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    clipped = np.minimum(codes, 4)
    return CODE_TO_BASE[clipped].tobytes().decode("ascii")


def complement_base(base: str) -> str:
    """Return the Watson-Crick complement of a single base character."""
    try:
        return _COMPLEMENT[base.upper()]
    except KeyError:
        raise ValueError(f"not a DNA base: {base!r}") from None


def revcomp(seq: str) -> str:
    """Reverse complement of a DNA string (string API).

    >>> revcomp("AACG")
    'CGTT'
    """
    return decode(revcomp_codes(encode(seq)))


#: complement of each base code, indexed by code
_COMPLEMENT_CODES = np.array([3, 2, 1, 0, N_CODE], dtype=np.uint8)


def revcomp_codes(codes: np.ndarray) -> np.ndarray:
    """Reverse complement of a code array (vectorised).

    ``complement(c) == 3 - c`` for A/C/G/T; N (code 4) maps to itself.
    """
    return np.take(_COMPLEMENT_CODES, np.asarray(codes, dtype=np.uint8)[::-1])


def is_valid_dna(seq: str, allow_n: bool = True) -> bool:
    """True when *seq* contains only ``ACGT`` (and ``N`` if *allow_n*)."""
    allowed = set("ACGTacgt")
    if allow_n:
        allowed |= {"N", "n"}
    return all(ch in allowed for ch in seq)


def gc_content(seq: str) -> float:
    """Fraction of G/C bases among non-N bases (0.0 for empty/all-N)."""
    codes = encode(seq)
    acgt = codes[codes != N_CODE]
    if acgt.size == 0:
        return 0.0
    return float(np.count_nonzero((acgt == 1) | (acgt == 2)) / acgt.size)


def random_dna(length: int, rng: np.random.Generator, gc: float = 0.5) -> str:
    """Generate a random DNA string with target GC fraction *gc*.

    Used by genome generators; deterministic given *rng*.
    """
    if not 0.0 <= gc <= 1.0:
        raise ValueError(f"gc must be in [0, 1], got {gc}")
    p = np.array([(1 - gc) / 2, gc / 2, gc / 2, (1 - gc) / 2])
    codes = rng.choice(4, size=length, p=p).astype(np.uint8)
    return decode(codes)


def hamming_distance(a: str, b: str) -> int:
    """Number of mismatching positions between equal-length strings."""
    if len(a) != len(b):
        raise ValueError("hamming_distance requires equal-length sequences")
    if not a:
        return 0
    return int(np.count_nonzero(encode(a) != encode(b)))
