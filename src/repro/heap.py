"""Heap policy for the block-by-block stages.

Alignment, k-mer counting and CPU local assembly each work in blocks: a
block allocates a few MiB of NumPy arrays and frees them before the next
block starts.  glibc's ``malloc`` serves a request above its *mmap
threshold* with a fresh mapping and returns heap top above its *trim
threshold* to the kernel.  Both thresholds start at 128 KiB and only rise
(to at most 32 and 64 MiB on 64-bit) when a freed mapping was larger.
With no input-sized temporary left to raise them, every block's arrays
are mapped or trimmed, handed back, and faulted in again page by page on
the next block: on the ``arctic`` benchmark input that was 46 k minor
faults per run instead of 6 k.

:func:`retain_freed_pages` pins both thresholds at glibc's own ceilings
for the process.  Freed block arrays then stay in the heap for the next
block; arrays of 32 MiB and more are still mapped and returned, so the
peak resident size does not grow.  Nothing computed depends on it.
"""

from __future__ import annotations

import ctypes
import sys

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: glibc's ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit, and twice it (the
#: trim threshold its dynamic rule pairs with that mmap threshold).
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def retain_freed_pages() -> bool:
    """Set the policy for this process (again is harmless); ``False``
    where ``malloc`` is not glibc's (nothing is changed there)."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )
