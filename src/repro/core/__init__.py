"""The paper's contribution: local assembly, CPU reference + GPU kernels.

Public entry points:

* :func:`repro.core.local_assembler.extend_tasks` — pipeline-facing API;
* :class:`repro.core.driver.GpuLocalAssembler` — the GPU driver (§4.3),
  imported from its own module: it pulls in the whole simulator, which a
  CPU run never loads;
* :func:`repro.core.cpu_local_assembly.run_local_assembly_cpu` — baseline;
* :func:`repro.core.binning.bin_contigs` — §3.1 contig binning;
* :mod:`repro.core.ht_sizing` — §3.2 memory math.
"""

from repro.core.binning import ContigBins, bin_contigs, bin_distribution
from repro.core.config import LocalAssemblyConfig
from repro.core.cpu_local_assembly import (
    CpuAssemblyStats,
    TaskResult,
    run_local_assembly_cpu,
)
from repro.core.extension import (
    ExtCounts,
    KShiftState,
    WalkStatus,
    classify_extension,
    kshift_next,
)
from repro.core.ht_sizing import (
    HashTableLayout,
    compression_factor,
    ht_sizes,
    load_factor_bound,
    plan_batches,
    plan_layout,
    worst_case_load_factor,
)
from repro.core.dump import load_tasks, save_tasks
from repro.core.local_assembler import LocalAssemblyReport, extend_tasks
from repro.core.tasks import (
    LEFT,
    RIGHT,
    ExtensionTask,
    TaskSet,
    apply_extensions,
    tasks_from_candidates,
)

__all__ = [
    "ContigBins",
    "bin_contigs",
    "bin_distribution",
    "LocalAssemblyConfig",
    "CpuAssemblyStats",
    "TaskResult",
    "run_local_assembly_cpu",
    "ExtCounts",
    "KShiftState",
    "WalkStatus",
    "classify_extension",
    "kshift_next",
    "HashTableLayout",
    "compression_factor",
    "ht_sizes",
    "load_factor_bound",
    "plan_batches",
    "plan_layout",
    "worst_case_load_factor",
    "LocalAssemblyReport",
    "extend_tasks",
    "load_tasks",
    "save_tasks",
    "LEFT",
    "RIGHT",
    "ExtensionTask",
    "TaskSet",
    "apply_extensions",
    "tasks_from_candidates",
]
