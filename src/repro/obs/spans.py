"""Always-on span recording: a bounded flight recorder for live tracing.

Where :mod:`repro.obs.phases` answers "where does a *run* spend its
time" (opt-in, aggregate), spans answer "why was *this request* slow"
(always on, per trace).  A :class:`Span` is one timed operation with a
trace id, its own span id and a parent span id, so a request's spans
assemble into a tree.

The cost model keeps this safe to leave on in production:

* outside a trace (bare library calls, CLI runs without ``--trace``)
  :func:`span` degrades to :func:`repro.obs.phases.phase` — a shared
  no-op unless profiling is enabled;
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
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from contextvars import ContextVar
from typing import Any, Dict, List, Optional

from repro.obs import phases, trace

_ENV_SAMPLE = "REPRO_TRACE_SAMPLE"
_ENV_BUFFER = "REPRO_TRACE_BUFFER"
_ENV_SLOW_MS = "REPRO_TRACE_SLOW_MS"

_DEFAULT_CAPACITY = 4096
_DEFAULT_SLOW_MS = 250.0
_MAX_OPEN_TRACES = 256
_MAX_SPANS_PER_TRACE = 512


def new_span_id() -> str:
    """A fresh 8-hex-char span id."""
    return os.urandom(4).hex()


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


class _TraceState:
    """Per-trace mutable cursor: the currently open span for parentage.

    One instance per (context, trace id); spans of one trace open and
    close strictly nested within a single logical flow (the request's
    task plus executor hops via ``contextvars.copy_context``), so plain
    attribute mutation is safe without a lock.
    """

    __slots__ = ("trace_id", "current")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.current: Optional[Span] = None


_STATE: ContextVar[Optional[_TraceState]] = ContextVar(
    "repro_trace_state", default=None
)


def _state_for(trace_id: str) -> _TraceState:
    # The trace-id contextvar is the source of truth: a stale state left
    # behind by a previous request on the same connection task is detected
    # by trace-id mismatch and replaced.  The state object itself travels
    # by reference through ``contextvars.copy_context`` (executor hops,
    # coalescer flush tasks), so one trace's spans share one cursor.
    state = _STATE.get()
    if state is None or state.trace_id != trace_id:
        state = _TraceState(trace_id)
        _STATE.set(state)
    return state


def current_span() -> Optional[Span]:
    """The innermost open span of the current trace, if any."""
    tid = trace.current_trace_id()
    if tid is None:
        return None
    state = _STATE.get()
    if state is None or state.trace_id != tid:
        return None
    return state.current


class _SpanContext:
    """Context manager recording one span (and feeding the phase tree)."""

    __slots__ = ("_state", "_name", "_attrs", "_span", "_parent", "_phase", "_bridge")

    def __init__(
        self,
        state: _TraceState,
        name: str,
        attrs: Dict[str, Any],
        bridge_phases: bool = True,
    ) -> None:
        self._state = state
        self._name = name
        self._attrs = attrs
        self._bridge = bridge_phases

    def __enter__(self) -> Span:
        self._phase = phases.phase(self._name) if self._bridge else phases._NOOP
        self._phase.__enter__()
        parent = self._state.current
        self._parent = parent
        self._span = Span(
            self._state.trace_id,
            self._name,
            parent_id=parent.span_id if parent is not None else None,
            attrs=self._attrs,
        )
        self._state.current = self._span
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._state.current = self._parent
        self._span.finish(error=exc)
        _RECORDER.record(self._span)
        self._phase.__exit__(exc_type, exc, tb)
        return False


def span(name: str, **attrs: Any):
    """A span context for the current trace.

    Outside any trace — or with sampling hard-off (``sample <= 0``) —
    this degrades to :func:`repro.obs.phases.phase`, i.e. a shared no-op
    unless profiling is on: the always-on recorder costs a contextvar
    read and a float compare on untraced paths.
    """
    tid = trace.current_trace_id()
    if tid is None or _RECORDER.sample <= 0.0:
        return phases.phase(name)
    return _SpanContext(_state_for(tid), name, attrs)


def trace_span(name: str, **attrs: Any):
    """A span context that never creates a phase-tree node.

    For request-plumbing sites (coalescer windows, per-query ops) that
    belong in waterfalls but would distort the aggregate phase tree's
    established shape; outside a trace this is the shared no-op.
    """
    tid = trace.current_trace_id()
    if tid is None or _RECORDER.sample <= 0.0:
        return phases._NOOP
    return _SpanContext(_state_for(tid), name, attrs, bridge_phases=False)

