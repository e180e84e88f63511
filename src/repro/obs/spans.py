"""Spans: the one timing primitive, for request traces and the phase tree.

Call sites wrap work in ``with span(name):``.  What that records depends
on the context it runs in:

* **inside a trace** (a trace id is set, see :mod:`repro.obs.trace`) it
  records a :class:`Span` — one timed operation with a trace id, its own
  span id and a parent span id, so a request's spans assemble into a
  tree ("why was *this request* slow");
* **with profiling on** (``REPRO_PROFILE=1`` or the CLI ``--profile``
  flags) it adds its duration and count to the node of the **phase
  tree** reached by its name path ("where does a *run* spend its time");
  the paper's counting / index-build / peeling split reads like::

      index construction             0.0090s
        bloom discovery              0.0045s
        assemble                     0.0028s
      peeling                        0.0849s
        frontier refill              0.0002s
        batch updates                0.0783s x240

* otherwise it returns one shared no-op context manager, so an untraced,
  unprofiled site costs a contextvar read and two flag checks; hot loops
  can stay instrumented.

Both parents come from one per-context cursor (a :mod:`contextvars`
variable holding the open span and the open tree node), as in Dapper
(Sigelman et al., 2010): a span's parent is whatever was open in the
context it runs in, so threads and asyncio tasks nest independently,
and ``contextvars.copy_context`` carries the cursor across executor
hops and into tasks created under a span.

>>> enable_profiling(True); reset_tree()
>>> with span("outer"):
...     for _ in range(3):
...         with span("inner"):
...             pass
>>> (outer,) = tree()["children"]
>>> outer["name"], outer["count"], [(c["name"], c["count"]) for c in outer["children"]]
('outer', 1, [('inner', 3)])
>>> enable_profiling(False); reset_tree()

The cost model keeps tracing safe to leave on in production:

* inside a trace, each span is one small object, two monotonic clock
  reads and one lock-guarded ring-buffer write (``tests/test_spans.py``
  pins the total below 3% of a ``bit-bu-csr`` decompose);
* **head sampling** (``REPRO_TRACE_SAMPLE``, default 1.0) decides per
  trace, deterministically from the trace id, and **tail promotion**
  retains any trace whose root crosses the slow threshold even when the
  head decision said drop, so the slowest requests are always
  inspectable.

The :class:`SpanRecorder` is process-global (:func:`get_recorder`); the
server drains completed traces out of it into a
:class:`repro.obs.store.TraceStore` for the ``/debug/traces`` plane.
:class:`~repro.utils.stats.PhaseTimer` (the per-run sink every algorithm
accepts) enters a span for each ``timer.time(...)`` block, so those
phases appear in the tree and in request waterfalls too.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from contextvars import ContextVar
from random import randbytes
from typing import Any, Dict, List, Optional

from repro.obs import trace

_ENV_PROFILE = "REPRO_PROFILE"
_ENV_SAMPLE = "REPRO_TRACE_SAMPLE"
_ENV_BUFFER = "REPRO_TRACE_BUFFER"
_ENV_SLOW_MS = "REPRO_TRACE_SLOW_MS"

_DEFAULT_CAPACITY = 4096
_DEFAULT_SLOW_MS = 250.0
_MAX_OPEN_TRACES = 256
_MAX_SPANS_PER_TRACE = 512


def new_span_id() -> str:
    """A fresh 8-hex-char span id (``random`` reseeds in forked children)."""
    return randbytes(4).hex()


class Span:
    """One timed operation inside a trace.

    Timestamps are ``time.monotonic_ns()``.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_ns",
        "end_ns",
        "attrs",
        "status",
        "error",
        "pid",
        "tid",
    )

    def __init__(
        self,
        trace_id: str,
        name: str,
        *,
        parent_id: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
        span_id: Optional[str] = None,
        start_ns: Optional[int] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id if span_id is not None else new_span_id()
        self.parent_id = parent_id
        self.name = name
        self.start_ns = start_ns if start_ns is not None else time.monotonic_ns()
        self.end_ns: Optional[int] = None
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}
        self.status = "open"
        self.error: Optional[str] = None
        self.pid = os.getpid()
        self.tid = threading.get_ident()

    def finish(self, error: Optional[BaseException] = None) -> None:
        """Stamp the end time and final status (``ok`` or ``error``)."""
        self.end_ns = time.monotonic_ns()
        if error is not None:
            self.status = "error"
            self.error = f"{type(error).__name__}: {error}"
        else:
            self.status = "ok"

    @property
    def duration_ns(self) -> int:
        end = self.end_ns if self.end_ns is not None else time.monotonic_ns()
        return end - self.start_ns

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe form."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attrs": dict(self.attrs),
            "status": self.status,
            "error": self.error,
            "pid": self.pid,
            "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        span = cls(
            data["trace_id"],
            data["name"],
            parent_id=data.get("parent_id"),
            attrs=dict(data.get("attrs") or {}),
            span_id=data["span_id"],
            start_ns=data["start_ns"],
        )
        span.end_ns = data.get("end_ns")
        span.status = data.get("status", "ok")
        span.error = data.get("error")
        span.pid = data.get("pid", span.pid)
        span.tid = data.get("tid", span.tid)
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id}, span={self.span_id}, "
            f"parent={self.parent_id}, {self.duration_ns / 1e6:.3f}ms, {self.status})"
        )


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "")
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "")
    if not raw:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        return default


class SpanRecorder:
    """Lock-guarded ring buffer of completed spans plus per-trace assembly.

    Two stores under one lock:

    * a fixed-capacity **ring** of the most recent completed spans across
      all traces (the raw flight recorder — oldest entries overwritten,
      never an allocation beyond the preallocated slots);
    * an **open-trace map** accumulating each live trace's spans until
      :meth:`finish_trace` decides retention: keep if the head-sampling
      decision said so *or* the trace crossed the slow threshold (tail
      promotion), else drop.  Bounded by ``max_open_traces`` (oldest
      trace evicted) and ``max_spans_per_trace`` (excess spans counted
      as dropped, ring still written).
    """

    def __init__(
        self,
        capacity: int = _DEFAULT_CAPACITY,
        *,
        sample: float = 1.0,
        slow_s: float = _DEFAULT_SLOW_MS / 1000.0,
        max_open_traces: int = _MAX_OPEN_TRACES,
        max_spans_per_trace: int = _MAX_SPANS_PER_TRACE,
    ) -> None:
        self.capacity = max(1, int(capacity))
        self.sample = float(sample)
        self.slow_s = float(slow_s)
        self.max_open_traces = max(1, int(max_open_traces))
        self.max_spans_per_trace = max(1, int(max_spans_per_trace))
        self._lock = threading.Lock()
        self._ring: List[Optional[Span]] = [None] * self.capacity
        self._head = 0
        self._recorded = 0
        self._dropped = 0
        self._evicted_traces = 0
        self._retained_traces = 0
        self._discarded_traces = 0
        self._open: "OrderedDict[str, List[Span]]" = OrderedDict()

    def configure(
        self, *, sample: Optional[float] = None, slow_s: Optional[float] = None
    ) -> None:
        """Adjust the sampling rate / tail-promotion threshold at runtime."""
        if sample is not None:
            self.sample = float(sample)
        if slow_s is not None:
            self.slow_s = float(slow_s)

    def sample_trace(self, trace_id: str) -> bool:
        """The head-sampling decision for ``trace_id``.

        Deterministic in the trace id (a hash, not a coin flip), so a
        trace is kept or dropped as a whole.
        """
        if self.sample >= 1.0:
            return True
        if self.sample <= 0.0:
            return False
        digest = hashlib.blake2b(trace_id.encode("ascii", "replace"), digest_size=8)
        return int.from_bytes(digest.digest(), "big") / 2.0**64 < self.sample

    def record(self, span: Span) -> None:
        """Append a completed span to the ring and its trace's open buffer."""
        with self._lock:
            self._ring[self._head] = span
            self._head = (self._head + 1) % self.capacity
            self._recorded += 1
            buf = self._open.get(span.trace_id)
            if buf is None:
                if len(self._open) >= self.max_open_traces:
                    self._open.popitem(last=False)
                    self._evicted_traces += 1
                buf = []
                self._open[span.trace_id] = buf
            if len(buf) < self.max_spans_per_trace:
                buf.append(span)
            else:
                self._dropped += 1

    def finish_trace(self, trace_id: str) -> Optional[List[Span]]:
        """Close a trace and decide retention.

        Returns the trace's spans (start-ordered) when the trace is
        retained — head-sampled, or promoted because its root span (the
        longest span as a fallback) crossed ``slow_s`` — else None.
        """
        with self._lock:
            spans = self._open.pop(trace_id, None)
        if not spans:
            return None
        if not self.sample_trace(trace_id):
            roots = [s for s in spans if s.parent_id is None]
            anchor = roots[0] if roots else max(spans, key=lambda s: s.duration_ns)
            if self.slow_s <= 0.0 or anchor.duration_s < self.slow_s:
                self._discarded_traces += 1
                return None
        self._retained_traces += 1
        return sorted(spans, key=lambda s: (s.start_ns, s.span_id))

    def take_trace(self, trace_id: str) -> List[Span]:
        """Pop a trace's open spans unconditionally."""
        with self._lock:
            spans = self._open.pop(trace_id, None)
        if not spans:
            return []
        return sorted(spans, key=lambda s: (s.start_ns, s.span_id))

    def spans(self) -> List[Span]:
        """A snapshot of the ring, oldest first."""
        with self._lock:
            tail = self._ring[self._head :] + self._ring[: self._head]
        return [s for s in tail if s is not None]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "sample": self.sample,
                "slow_ms": self.slow_s * 1000.0,
                "recorded": self._recorded,
                "dropped": self._dropped,
                "open_traces": len(self._open),
                "evicted_traces": self._evicted_traces,
                "retained_traces": self._retained_traces,
                "discarded_traces": self._discarded_traces,
            }

    def reset(self) -> None:
        with self._lock:
            self._ring = [None] * self.capacity
            self._head = 0
            self._recorded = 0
            self._dropped = 0
            self._evicted_traces = 0
            self._retained_traces = 0
            self._discarded_traces = 0
            self._open.clear()


_RECORDER = SpanRecorder(
    capacity=_env_int(_ENV_BUFFER, _DEFAULT_CAPACITY),
    sample=_env_float(_ENV_SAMPLE, 1.0),
    slow_s=_env_float(_ENV_SLOW_MS, _DEFAULT_SLOW_MS) / 1000.0,
)


def get_recorder() -> SpanRecorder:
    """The process-global recorder."""
    return _RECORDER


def configure(
    *, sample: Optional[float] = None, slow_s: Optional[float] = None
) -> None:
    """Adjust the global recorder's knobs (``serve --trace-sample``)."""
    _RECORDER.configure(sample=sample, slow_s=slow_s)


# ------------------------------------------------------------ phase tree


class _Node:
    """One phase-tree node: the spans reached by one name path."""

    __slots__ = ("name", "seconds", "count", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self.count = 0
        self.children: Dict[str, "_Node"] = {}

    def child(self, name: str) -> "_Node":
        node = self.children.get(name)
        if node is None:
            # setdefault is atomic, so racing threads share one node.
            node = self.children.setdefault(name, _Node(name))
        return node

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "count": self.count,
            "children": [child.to_dict() for child in list(self.children.values())],
        }


_TREE_LOCK = threading.Lock()
_ROOT = _Node("total")
_profiling = os.environ.get(_ENV_PROFILE, "").strip().lower() in (
    "1", "true", "yes", "on"
)


def profiling() -> bool:
    """Whether spans currently feed the phase tree."""
    return _profiling


def enable_profiling(on: bool = True) -> None:
    """Turn the phase tree on (or off with ``enable_profiling(False)``)."""
    global _profiling
    _profiling = bool(on)


def tree() -> dict:
    """The phase tree as plain dicts (the root node is ``"total"``)."""
    return _ROOT.to_dict()


def reset_tree() -> None:
    """Drop everything the phase tree recorded.

    Spans open across the reset finish on the old tree, which nothing
    reads any more.
    """
    global _ROOT
    _ROOT = _Node("total")


def render_tree(tree: dict, *, min_seconds: float = 0.0) -> str:
    """Render a :func:`tree` dict as an indented table."""
    lines: List[str] = []

    def walk(node: dict, depth: int) -> None:
        if depth >= 0:
            if node["seconds"] < min_seconds and not node["children"]:
                return
            label = "  " * depth + str(node["name"])
            count = int(node.get("count", 0))
            suffix = f" x{count}" if count > 1 else ""
            lines.append(f"{label:<44s} {node['seconds']:9.4f}s{suffix}")
        for child in node.get("children", ()):
            walk(child, depth + 1)

    walk(tree, -1)
    return "\n".join(lines) if lines else "(no phases recorded)"


def leaf_seconds(tree: dict) -> float:
    """Sum of leaf-node seconds — the tree's covered wall time."""
    children = tree.get("children", ())
    if not children:
        return float(tree.get("seconds", 0.0))
    return sum(leaf_seconds(child) for child in children)


# ------------------------------------------------------------ the span


class _SpanContext:
    """Times one span: records it in a trace and/or adds it to the tree.

    While open it is also its context's cursor (``_STATE``): the next
    span entered in that context takes ``span`` as its parent span and
    ``node`` as its parent node.  Leaving it puts the previous cursor
    back, so a context copied into a thread or a task keeps the position
    it was copied at and never moves its parent's.
    """

    __slots__ = ("_name", "_attrs", "trace_id", "span", "node", "_prev", "_start")

    def __init__(
        self, name: str, attrs: Dict[str, Any], trace_id: Optional[str]
    ) -> None:
        self._name = name
        self._attrs = attrs
        self.trace_id = trace_id

    def __enter__(self) -> Optional[Span]:
        prev = self._prev = _STATE.get()
        node = None
        if _profiling:
            parent_node = prev.node if prev is not None else None
            if parent_node is None:
                parent_node = _ROOT
            node = parent_node.child(self._name)
        span = None
        tid = self.trace_id
        if tid is not None:
            parent = prev.span if prev is not None and prev.trace_id == tid else None
            span = Span(
                tid,
                self._name,
                parent_id=parent.span_id if parent is not None else None,
                attrs=self._attrs,
            )
        self.span = span
        self.node = node
        _STATE.set(self)
        self._start = time.perf_counter()
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        _STATE.set(self._prev)
        if self.span is not None:
            self.span.finish(error=exc)
            _RECORDER.record(self.span)
        node = self.node
        if node is not None:
            with _TREE_LOCK:
                node.seconds += elapsed
                node.count += 1
        return False


_STATE: ContextVar[Optional[_SpanContext]] = ContextVar(
    "repro_span_cursor", default=None
)


def current_span() -> Optional[Span]:
    """The innermost open span of the current trace, if any."""
    cursor = _STATE.get()
    if cursor is None or cursor.trace_id is None:
        return None
    if cursor.trace_id != trace.current_trace_id():
        return None
    return cursor.span


def detach() -> None:
    """Leave the current trace and tree path for the rest of this context.

    For a background task created inside a request: the task copies the
    request's context, so without this its spans would join a trace that
    has already finished and nest under the request in the phase tree.
    """
    trace.set_trace_id(None)
    _STATE.set(None)


_NOOP = nullcontext()


def span(name: str, **attrs: Any):
    """Time ``name`` in the current context.

    Records a :class:`Span` inside a trace (unless sampling is hard off,
    ``sample <= 0``) and adds to the phase tree while profiling is on;
    with neither, returns one shared no-op.  Entering it yields the
    :class:`Span` when one is recorded, else None.
    """
    tid = trace.current_trace_id()
    if tid is None or _RECORDER.sample <= 0.0:
        if not _profiling:
            return _NOOP
        tid = None
    return _SpanContext(name, attrs, tid)
