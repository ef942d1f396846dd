"""Re-export of :mod:`repro.sequence.contigs`: benchmarks/e2e/trace.py
imports ``Contig`` and ``ContigSet`` from here; ROADMAP 1(c) deletes it."""

from repro.sequence.contigs import Contig, ContigSet  # noqa: F401
