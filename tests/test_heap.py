"""The heap policy keeps freed block arrays' pages for the next block.

Each check runs in a fresh interpreter, so the allocator starts from its
defaults rather than from whatever earlier tests left behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_CHILD = """
import json, resource, sys
import numpy as np
from repro.heap import retain_freed_pages

applied = retain_freed_pages() if sys.argv[1] == "1" else None

def block():
    arrays = [np.ones(1 << 18) for _ in range(8)]  # eight touched 2 MiB arrays
    del arrays

block()
f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(4):
    block()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
print(json.dumps({"applied": applied, "faults": faults}))
"""


def _blocks(policy: bool) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, "1" if policy else "0"],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent)),
    )
    return json.loads(out.stdout)


def test_freed_block_pages_are_reused():
    kept = _blocks(True)
    if not kept["applied"]:
        pytest.skip("malloc is not glibc's")
    default = _blocks(False)
    # four blocks of 16 MiB: 4 096 pages each when re-faulted
    assert default["faults"] > 4 * 2048
    assert kept["faults"] < 256
