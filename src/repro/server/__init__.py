"""Network serving: many datasets, one process, hot-swappable artifacts.

The paper's economics are compute-once / query-many; :mod:`repro.service`
built the query-many half as an in-process library.  This package puts it
on the wire with nothing beyond the standard library:

* :mod:`repro.server.registry` — :class:`ArtifactRegistry`, a named map of
  live datasets (artifact + :class:`~repro.service.engine.QueryEngine`)
  with versioned **atomic hot-swap**: a rebuilt artifact replaces the live
  engine in one reference assignment while in-flight requests finish on
  the engine they leased;
* :mod:`repro.server.batching` — :class:`QueryCoalescer`, which lets
  identical concurrent queries share one computation (and one encoded
  response body) and folds heterogeneous queries arriving within a small
  window into a single :meth:`~repro.service.engine.QueryEngine.batch`
  call;
* :mod:`repro.server.http` — :class:`BitrussServer`, a minimal asyncio
  HTTP/1.1 JSON server exposing the full query surface plus ``/healthz``
  and ``/metrics`` observability, with structured error payloads;
* :mod:`repro.server.updates` — :class:`UpdateManager`, the live refresh
  loop: ``POST /{ds}/edges`` mutations land in a
  :class:`~repro.maintenance.dynamic.DynamicBipartiteGraph`, small
  batches are repaired incrementally, larger ones re-decompose in a
  debounced background task off the hot path, and the fresh artifact is
  hot-swapped into the registry.

``repro-bitruss serve --dataset github --port 8642`` is the CLI front
door (see :mod:`repro.cli`).
"""

from repro.server.batching import QueryCoalescer, SharedResult
from repro.server.http import BitrussServer, HTTPError, jsonify
from repro.server.registry import (
    ArtifactRegistry,
    DatasetEntry,
    Lease,
    UnknownDatasetError,
)
from repro.server.updates import UpdateManager

__all__ = [
    "ArtifactRegistry",
    "BitrussServer",
    "DatasetEntry",
    "HTTPError",
    "Lease",
    "QueryCoalescer",
    "SharedResult",
    "UnknownDatasetError",
    "UpdateManager",
    "jsonify",
]
