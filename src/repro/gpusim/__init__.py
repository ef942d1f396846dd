"""Functional SIMT ("GPU") simulator.

Stands in for CUDA + V100 hardware (see DESIGN.md §2): kernels written
against the :class:`~repro.gpusim.warp.Warp` API execute functionally on
the host while counting warp instructions, predication and 32-byte memory
transactions; an analytic V100 timing model prices each launch; the
Instruction Roofline module reproduces the paper's §4.2 analysis.

Nothing is re-exported: import each name from the module that defines
it (``repro.gpusim.kernel.GpuContext``, ``repro.gpusim.device.V100``, …).
Every ranked run reaches this package for ``gpusim.shmem`` alone and
reports read ``gpusim.counters`` with no simulator behind them, so the
package itself must cost nothing to import.
"""

__all__: list[str] = []
