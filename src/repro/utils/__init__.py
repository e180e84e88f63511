"""Shared utilities: vertex priorities, peeling queues, array helpers and
instrumentation."""

from repro.utils.arrays import sorted_unique
from repro.utils.bucket_queue import BucketQueue
from repro.utils.priority import vertex_priorities
from repro.utils.stats import IndexSizeModel, PhaseTimer, UpdateCounter

__all__ = [
    "BucketQueue",
    "IndexSizeModel",
    "PhaseTimer",
    "UpdateCounter",
    "sorted_unique",
    "vertex_priorities",
]
