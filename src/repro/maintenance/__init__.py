"""Dynamic-graph support: incremental supports *and* bitruss numbers.

:class:`DynamicBipartiteGraph` maintains exact butterfly supports under
edge updates; :class:`IncrementalBitruss` (attach one with
:meth:`DynamicBipartiteGraph.enable_incremental`) maintains the bitruss
numbers themselves through exact localized re-peeling.  Both mutate
through one entry point, ``apply_batch``: a single-edge update is a batch
of one.
"""

from repro.maintenance.dynamic import ApplyOutcome, DynamicBipartiteGraph
from repro.maintenance.incremental import (
    AdaptiveBudget,
    BatchReport,
    DirtyTrackerError,
    IncrementalBitruss,
    RepairReport,
)

__all__ = [
    "AdaptiveBudget",
    "ApplyOutcome",
    "BatchReport",
    "DirtyTrackerError",
    "DynamicBipartiteGraph",
    "IncrementalBitruss",
    "RepairReport",
]
