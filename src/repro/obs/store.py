"""Completed-trace retention: recent ring, top-K slowest, rollups.

The :class:`SpanRecorder` assembles spans per trace; once a root span
closes and the trace survives sampling, the server hands the span list
to a :class:`TraceStore`, which keeps

* the last N completed traces (a deque — the "what just happened" view),
* the K slowest traces ever seen (a min-heap — the "what hurts" view,
  which tail promotion feeds even when head sampling is dialed down),
* per-(endpoint, dataset) rollups (count / total / max duration).

Each retained trace is a :class:`TraceRecord`, able to render itself as
a parent-linked waterfall (``/debug/traces/{id}``) or as Chrome
trace-event JSON (``?format=chrome``) loadable in Perfetto or
``chrome://tracing``.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.obs.spans import Span


class TraceRecord:
    """One completed, retained trace: its spans plus derived summary."""

    __slots__ = (
        "trace_id",
        "name",
        "endpoint",
        "dataset",
        "status",
        "start_ns",
        "duration_ns",
        "added_at",
        "spans",
    )

    def __init__(self, spans: List[Span]) -> None:
        if not spans:
            raise ValueError("a TraceRecord needs at least one span")
        self.spans = list(spans)
        roots = [s for s in self.spans if s.parent_id is None]
        root = roots[0] if roots else min(self.spans, key=lambda s: s.start_ns)
        self.trace_id = root.trace_id
        self.name = root.name
        self.endpoint = str(root.attrs.get("endpoint", ""))
        self.dataset = str(root.attrs.get("dataset", ""))
        self.status = root.status
        self.start_ns = min(s.start_ns for s in self.spans)
        end_ns = max(s.end_ns if s.end_ns is not None else s.start_ns for s in self.spans)
        root_end = root.end_ns if root.end_ns is not None else end_ns
        self.duration_ns = max(root_end - root.start_ns, 0)
        self.added_at = time.time()

    def summary(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "endpoint": self.endpoint,
            "dataset": self.dataset,
            "status": self.status,
            "duration_ms": self.duration_ns / 1e6,
            "spans": len(self.spans),
            "completed_unix": self.added_at,
        }

    def waterfall(self) -> Dict[str, Any]:
        """Parent-linked span tree with millisecond offsets from trace start.

        Spans whose parent never made it into the record (evicted) graft
        at the top level rather than disappearing.
        """
        by_id = {s.span_id: s for s in self.spans}
        children: Dict[Optional[str], List[Span]] = {}
        for s in self.spans:
            key = s.parent_id if s.parent_id in by_id else None
            children.setdefault(key, []).append(s)

        def node(s: Span) -> Dict[str, Any]:
            kids = sorted(
                children.get(s.span_id, ()), key=lambda c: (c.start_ns, c.span_id)
            )
            out: Dict[str, Any] = {
                "name": s.name,
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "start_ms": (s.start_ns - self.start_ns) / 1e6,
                "duration_ms": s.duration_ns / 1e6,
                "status": s.status,
                "pid": s.pid,
                "attrs": dict(s.attrs),
            }
            if s.error:
                out["error"] = s.error
            if kids:
                out["children"] = [node(c) for c in kids]
            return out

        roots = sorted(children.get(None, ()), key=lambda c: (c.start_ns, c.span_id))
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "endpoint": self.endpoint,
            "dataset": self.dataset,
            "status": self.status,
            "duration_ms": self.duration_ns / 1e6,
            "completed_unix": self.added_at,
            "spans": [node(r) for r in roots],
        }

    def chrome(self) -> Dict[str, Any]:
        """Chrome trace-event JSON (complete ``X`` events, µs timestamps).

        Load at https://ui.perfetto.dev or ``chrome://tracing``.
        """
        events: List[Dict[str, Any]] = []
        for pid in sorted({s.pid for s in self.spans}):
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"repro pid {pid}"},
                }
            )
        for s in sorted(self.spans, key=lambda s: (s.start_ns, s.span_id)):
            end_ns = s.end_ns if s.end_ns is not None else s.start_ns
            events.append(
                {
                    "ph": "X",
                    "name": s.name,
                    "cat": "repro",
                    "ts": (s.start_ns - self.start_ns) / 1e3,
                    "dur": max(end_ns - s.start_ns, 0) / 1e3,
                    "pid": s.pid,
                    "tid": s.tid,
                    "args": {
                        "trace_id": s.trace_id,
                        "span_id": s.span_id,
                        "parent_id": s.parent_id,
                        "status": s.status,
                        **{k: v for k, v in s.attrs.items()},
                    },
                }
            )
        return {"displayTimeUnit": "ms", "traceEvents": events}


class TraceStore:
    """Bounded retention of completed traces, lock-guarded.

    ``recent`` is a deque of the last N records; ``slowest`` a min-heap
    of the K largest durations ever seen (a slow trace stays inspectable
    long after it scrolls out of ``recent``); rollups aggregate count /
    total / max duration per (endpoint, dataset).
    """

    def __init__(self, recent: int = 128, slowest: int = 32) -> None:
        self.recent_capacity = max(1, int(recent))
        self.slowest_capacity = max(1, int(slowest))
        self._lock = threading.Lock()
        self._recent: "deque[TraceRecord]" = deque(maxlen=self.recent_capacity)
        self._slowest: List[tuple] = []  # (duration_ns, seq, record) min-heap
        self._seq = itertools.count()
        self._added = 0
        self._rollups: Dict[tuple, List[float]] = {}  # key -> [count, total_ns, max_ns]

    def add(self, spans: List[Span]) -> Optional[TraceRecord]:
        if not spans:
            return None
        record = TraceRecord(spans)
        with self._lock:
            self._added += 1
            self._recent.append(record)
            entry = (record.duration_ns, next(self._seq), record)
            if len(self._slowest) < self.slowest_capacity:
                heapq.heappush(self._slowest, entry)
            elif entry[0] > self._slowest[0][0]:
                heapq.heapreplace(self._slowest, entry)
            agg = self._rollups.setdefault(
                (record.endpoint, record.dataset), [0, 0.0, 0.0]
            )
            agg[0] += 1
            agg[1] += record.duration_ns
            agg[2] = max(agg[2], record.duration_ns)
        return record

    def get(self, trace_id: str) -> Optional[TraceRecord]:
        with self._lock:
            for record in reversed(self._recent):
                if record.trace_id == trace_id:
                    return record
            for _, _, record in self._slowest:
                if record.trace_id == trace_id:
                    return record
        return None

    @staticmethod
    def _matches(
        record: TraceRecord, endpoint: Optional[str], dataset: Optional[str]
    ) -> bool:
        if endpoint is not None and record.endpoint != endpoint:
            return False
        if dataset is not None and record.dataset != dataset:
            return False
        return True

    def recent_traces(
        self,
        *,
        endpoint: Optional[str] = None,
        dataset: Optional[str] = None,
        limit: int = 50,
    ) -> List[TraceRecord]:
        """Newest-first retained traces, optionally filtered."""
        out: List[TraceRecord] = []
        with self._lock:
            for record in reversed(self._recent):
                if self._matches(record, endpoint, dataset):
                    out.append(record)
                    if len(out) >= limit:
                        break
        return out

    def slowest_traces(
        self,
        *,
        endpoint: Optional[str] = None,
        dataset: Optional[str] = None,
        limit: int = 50,
    ) -> List[TraceRecord]:
        """Slowest-first retained traces, optionally filtered."""
        with self._lock:
            ranked = sorted(self._slowest, key=lambda e: (-e[0], e[1]))
        out: List[TraceRecord] = []
        for _, _, record in ranked:
            if self._matches(record, endpoint, dataset):
                out.append(record)
                if len(out) >= limit:
                    break
        return out

    def rollups(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = sorted(self._rollups.items())
        out = []
        for (endpoint, dataset), (count, total_ns, max_ns) in items:
            out.append(
                {
                    "endpoint": endpoint,
                    "dataset": dataset,
                    "count": int(count),
                    "total_ms": total_ns / 1e6,
                    "avg_ms": (total_ns / count) / 1e6 if count else 0.0,
                    "max_ms": max_ns / 1e6,
                }
            )
        return out

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "recent": len(self._recent),
                "recent_capacity": self.recent_capacity,
                "slowest": len(self._slowest),
                "slowest_capacity": self.slowest_capacity,
                "traces_added": self._added,
            }

    def reset(self) -> None:
        with self._lock:
            self._recent.clear()
            self._slowest.clear()
            self._rollups.clear()
            self._added = 0
