"""Unified observability layer: metrics, spans, phase profiling, logging.

A dependency-free (stdlib + numpy-free) telemetry toolkit threaded through
every pillar of the codebase:

* :mod:`repro.obs.metrics` — process-local :class:`MetricsRegistry` with
  ``Counter`` / ``Gauge`` / fixed-bucket ``Histogram`` primitives and a
  Prometheus text-format encoder.  Cheap enough for hot paths: plain
  attribute bumps, no locks on the single-threaded asyncio path, and
  plain-dict snapshots so the process-global registry merges into the
  server's at scrape time.
* :mod:`repro.obs.trace` — lightweight trace ids.  One trace id per HTTP
  request, carried in a :mod:`contextvars` variable, propagated through
  the query coalescer and executor hops.
* :mod:`repro.obs.spans` — the one timing primitive.  ``span(name)``
  records a span inside a trace (the per-request waterfalls behind
  ``/debug/traces``, kept in :mod:`repro.obs.store`) and, with profiling
  on (``REPRO_PROFILE=1`` or the CLI ``--profile`` flags), adds to a
  nested phase tree aggregated by name path (the paper's counting /
  index-build / peeling decomposition made first-class) that surfaces in
  logs, bench JSONs, ``/metrics`` and ``repro-bitruss stats``.  With
  neither, it is a shared no-op at near-zero cost.
* :mod:`repro.obs.bench` — the performance-trajectory plane: schema'd
  :class:`BenchResult` documents with an :class:`EnvFingerprint` of the
  producing machine/build, ``publish()`` into canonical per-bench JSONs
  plus a longitudinal ``trajectory.jsonl``, and a noise-aware regression
  detector (relative threshold + MAD window) behind ``repro-bitruss
  bench diff``.
* :mod:`repro.obs.log` — stdlib-``logging`` helpers: a JSON formatter
  with trace-id correlation and the shared ``repro.*`` logger tree the
  server, update manager and CLI log through instead of bare prints.

The per-run sinks in :mod:`repro.utils.stats` stay: ``PhaseTimer`` is a
sink over spans (each ``timer.time(...)`` block is a span), so every
instrumented algorithm phase appears in the tree for free.
"""

from repro.obs import bench, log, metrics, spans, store, trace
from repro.obs.bench import BenchResult, Contract, EnvFingerprint, Metric
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, get_registry
from repro.obs.spans import Span, SpanRecorder, get_recorder, span
from repro.obs.store import TraceRecord, TraceStore
from repro.obs.trace import current_trace_id, new_trace_id

__all__ = [
    "BenchResult",
    "Contract",
    "EnvFingerprint",
    "Metric",
    "bench",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "TraceRecord",
    "TraceStore",
    "current_trace_id",
    "get_recorder",
    "get_registry",
    "log",
    "metrics",
    "new_trace_id",
    "span",
    "spans",
    "store",
    "trace",
]
