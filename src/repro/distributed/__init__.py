"""Simulated multi-node execution and Summit-scale models (see DESIGN.md §2)."""

from repro.distributed.comm import CommCostModel
from repro.distributed.procrank import (
    RankMetrics,
    RankRunReport,
    distributed_count_proc,
    procrank_available,
    ranked_extend_tasks,
)
from repro.distributed.rank import (
    ExchangeStats,
    merge_spectra,
    partition_reads,
)
from repro.distributed.strong_scaling import (
    PAPER_NODES,
    ScalingRow,
    la_scaling_table,
    pipeline_scaling_table,
)
from repro.distributed.summit import (
    ARCTICSYNTH_PROFILE,
    WA_PROFILE,
    DatasetProfile,
    GpuLocalAssemblyScaleModel,
    StageScaling,
    SummitNodeSpec,
    SummitScaleModel,
)

__all__ = [
    "CommCostModel",
    "ExchangeStats",
    "RankMetrics",
    "RankRunReport",
    "distributed_count_proc",
    "procrank_available",
    "ranked_extend_tasks",
    "merge_spectra",
    "partition_reads",
    "PAPER_NODES",
    "ScalingRow",
    "la_scaling_table",
    "pipeline_scaling_table",
    "ARCTICSYNTH_PROFILE",
    "WA_PROFILE",
    "DatasetProfile",
    "GpuLocalAssemblyScaleModel",
    "StageScaling",
    "SummitNodeSpec",
    "SummitScaleModel",
]
