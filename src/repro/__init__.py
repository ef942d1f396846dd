"""Reproduction of *Accelerating Large Scale de novo Metagenome Assembly Using
GPUs* (Awan et al., SC '21).

This package implements a MetaHipMer2-style metagenome assembly pipeline in
Python/NumPy together with a functional SIMT ("GPU") simulator, and uses them
to reproduce the paper's central contribution: a warp-level GPU implementation
of the *local assembly* stage (contig extension via per-extension k-mer hash
tables and sequential DNA mer-walks).

Subpackages
-----------
``repro.sequence``
    DNA/read/k-mer substrate, FASTQ I/O and synthetic metagenome communities.
``repro.hashing``
    MurmurHash2 and open-addressing hash-table building blocks.
``repro.gpusim``
    Functional SIMT simulator: warps, memory-transaction counting, warp
    intrinsics, kernel launches, instruction counters and the Instruction
    Roofline model.
``repro.pipeline``
    The assembly pipeline stages (merge reads, k-mer analysis, contig
    generation, alignment, scaffolding) and the orchestrator.
``repro.core``
    The paper's contribution: CPU reference local assembly and the
    GPU (simulated) local-assembly kernels with binning, exact hash-table
    sizing, k-mer pointer compression and the walk state machine.
``repro.distributed``
    Simulated multi-node (Summit-like) execution and strong-scaling models.
``repro.analysis``
    Assembly statistics and experiment reporting helpers.
"""

import os

from repro._version import __version__

__all__ = ["__version__"]

# The program makes no BLAS call, but ``import numpy`` starts one OpenBLAS
# worker per further core, and each spins ~0.13 CPU-s waiting for work
# before it sleeps for good.  Every subpackage imports numpy after this
# line; a thread count the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
