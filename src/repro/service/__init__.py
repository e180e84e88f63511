"""Service layer: compute-once / query-many serving of decompositions.

The paper's decomposition is expensive to produce and cheap to exploit —
every application (community search, fraud, recommendation) only ever
*reads* φ.  This package turns a finished decomposition into a serving
stack:

* :mod:`repro.service.artifacts` — freeze a decomposition (CSR arrays,
  per-edge φ, provenance metadata) into a single ``.npz`` file with
  integrity checks, so it is computed once and reopened instantly;
* :mod:`repro.service.hierarchy` — the nested k-bitruss containment
  forest, built by a φ-descending sweep of array operations, one batch
  per level, and stored in flat numpy arrays, making every structural
  query output-linear;
* :mod:`repro.service.engine` — :class:`~repro.service.engine.QueryEngine`,
  the online query surface (``k_bitruss``, ``community``, ``max_k``,
  ``hierarchy_path``, φ statistics, batches) with an LRU result cache.
"""

from repro.service.artifacts import (
    ArtifactError,
    ArtifactIntegrityError,
    DecompositionArtifact,
    StaleArtifactError,
    build_artifact,
    load_artifact,
    save_artifact,
)
from repro.service.engine import QueryEngine
from repro.service.hierarchy import BitrussHierarchy, build_hierarchy

__all__ = [
    "ArtifactError",
    "ArtifactIntegrityError",
    "BitrussHierarchy",
    "DecompositionArtifact",
    "QueryEngine",
    "StaleArtifactError",
    "build_artifact",
    "build_hierarchy",
    "load_artifact",
    "save_artifact",
]
