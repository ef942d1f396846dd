"""Configuration for the local-assembly module (CPU and GPU paths share it),
and the one definition of every mode string a run can be configured with.

The defaults mirror the constants the paper states or implies:

* reads are Illumina short reads of length ≤ 300 (§3.2 worst case uses 300);
* the shortest k-mer "for reasonable accuracy is 21" (§3.2);
* candidate reads per contig end are capped at 3000 (§3.1);
* mer-walks run at most ~300 steps ("a DNA walk can be up to 300 steps
  long", §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LocalAssemblyConfig",
    "ENGINE_MODES",
    "KERNEL_VERSIONS",
    "OVERLAP_MODES",
    "SANITIZE_MODES",
    "RANK_SANITIZE_MODES",
]

# The mode tuples live here, below every layer that validates against
# them, so checking a config (input arrives from job.json and the CLI)
# imports neither the simulator nor the sanitizers.

#: valid ``GpuContext(engine=...)`` values.  ``"auto"`` resolves to
#: ``"batched"`` — the SoA engine is 54-92x faster than the sequential
#: interpreter on every recorded workload (BENCH_engine.json,
#: BENCH_batched.json).  Kernels without a batched implementation (e.g.
#: v1) fall back to sequential interpretation per launch.
ENGINE_MODES = ("auto", "sequential", "batched")

#: valid GPU extension-kernel versions: ``"v2"`` is the paper's
#: warp-cooperative kernel, ``"v1"`` the thread-per-table baseline of the
#: §4.2 roofline comparison.
KERNEL_VERSIONS = ("v1", "v2")

#: valid ``GpuContext(overlap=...)`` values: ``"on"`` lets ops on
#: different streams overlap on the modelled timeline, ``"off"``
#: serialises every op (the classic synchronous driver).
OVERLAP_MODES = ("off", "on")

#: valid ``sanitize=`` values of the simulated GPU.  ``"full"`` enables
#: all three checkers.
SANITIZE_MODES = ("off", "memcheck", "racecheck", "initcheck", "full")

#: valid ``sanitize=`` values of the distributed layer.
RANK_SANITIZE_MODES = ("off", "rankcheck")


@dataclass(frozen=True)
class LocalAssemblyConfig:
    """Tunables of the local assembly algorithm.

    Attributes
    ----------
    k_init:
        Mer length of the first walk attempt (normally the pipeline's k).
    k_min / k_max / k_step:
        Bounds and stride of the up/down-shifting state machine (§2.3).
    max_walk_len:
        Maximum bases appended by a single walk.
    hi_q_thresh:
        Phred score at/above which an extension base counts as
        high-quality.
    min_viable:
        High-quality occurrences needed for an extension base to be
        considered real; total occurrences are used as a fallback at the
        same threshold (low-coverage rescue).
    dominance_ratio:
        When several bases are viable, the top base still wins (no fork)
        if its count is at least this multiple of the runner-up.
    max_reads_per_end:
        The paper's empirical cap on candidate reads (§3.1).
    bin2_max_reads:
        Contigs with fewer candidate reads than this go to bin 2 (§3.1:
        "fewer than 10 reads"); those with zero go to bin 1.
    """

    k_init: int = 21
    k_min: int = 13
    k_max: int = 63
    k_step: int = 8
    max_walk_len: int = 300
    hi_q_thresh: int = 20
    min_viable: int = 2
    dominance_ratio: float = 2.0
    max_reads_per_end: int = 3000
    bin2_max_reads: int = 10

    def __post_init__(self) -> None:
        if not (0 < self.k_min <= self.k_init <= self.k_max):
            raise ValueError(
                f"need k_min <= k_init <= k_max, got "
                f"{self.k_min}/{self.k_init}/{self.k_max}"
            )
        if self.k_step < 1:
            raise ValueError("k_step must be >= 1")
        if self.max_walk_len < 1:
            raise ValueError("max_walk_len must be >= 1")
        if self.dominance_ratio < 1.0:
            raise ValueError("dominance_ratio must be >= 1.0")
