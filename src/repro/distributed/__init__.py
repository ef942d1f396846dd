"""Real process ranks over the read-proportional stages (see DESIGN.md §2).

The Summit-scale analytic models (:mod:`repro.distributed.summit`,
:mod:`repro.distributed.strong_scaling`) are imported from their own
modules — a ranked run never evaluates them.
"""

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
]
