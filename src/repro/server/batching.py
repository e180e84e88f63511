"""Request coalescing: share computations, fold windows into one batch.

Two distinct amortizations, both transparent to callers:

1. **Identical-query sharing** — concurrent requests for the same
   ``(dataset, query)`` pair attach to one in-flight future instead of
   each paying an engine call; the encoded response body is also built
   once and shared (see :meth:`SharedResult.encoded`).
2. **Window folding** — *different* queries that arrive within a small
   window (default 2 ms) are concatenated into a single
   :meth:`repro.service.engine.QueryEngine.batch` call, so one executor
   hop, one entry lock acquisition and one warm LRU/hierarchy traversal
   serve the whole window.

The unit of submission is a *list* of queries (single-query endpoints
submit one-element lists; ``POST /{ds}/batch`` submits the client's whole
list), so HTTP batch requests coalesce exactly like scalar ones: the flush
flattens every pending list, runs one engine batch, and slices results
back per submitter.

Failure isolation: the HTTP layer pre-validates queries against the live
graph before submitting, so a malformed request is rejected with a 400
*before* it can poison a shared batch.  If the engine call itself fails,
every waiter in that flush observes the same exception.
"""

from __future__ import annotations

import asyncio
import json
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace

Query = Dict[str, object]
#: Runs a flattened query list against the live engine; returns
#: (results, version) where ``version`` is the artifact version answered.
BatchRunner = Callable[[List[Query]], Awaitable[Tuple[List[object], int]]]


def canonical_key(queries: Sequence[Query]) -> str:
    """Order-insensitive-keys canonical form of a query list.

    Two requests coalesce iff their canonical keys match; JSON with sorted
    keys is exact for the engine's query dicts (strings, ints, short
    lists).
    """
    return json.dumps(queries, sort_keys=True, separators=(",", ":"))


#: ``stats()`` key → help of its ``repro_coalescer_{key}_total`` counter.
_COUNTERS = {
    "submitted": "Query-list submissions.",
    "merged": "Submissions merged onto an identical in-flight request.",
    "flushes": "Engine batches flushed.",
    "queries_flushed": "Individual queries carried by flushed batches.",
}


class SharedResult:
    """One submission's results plus a memoized encoded response body.

    ``values`` has one element per query in the submitted list.  The
    response body for merged identical requests is byte-identical, so
    :meth:`encoded` builds it once and every waiter reuses the bytes.

    ``trace_ids`` records the trace id of every submission that rode the
    flushed window (merged identical requests included), so a shared
    computation remains attributable to each request it served.
    """

    __slots__ = ("values", "version", "trace_ids", "_body")

    def __init__(
        self,
        values: List[object],
        version: int,
        trace_ids: Tuple[str, ...] = (),
    ) -> None:
        self.values = values
        self.version = version
        self.trace_ids = trace_ids
        self._body: Optional[bytes] = None

    def encoded(self, encode: Callable[["SharedResult"], bytes]) -> bytes:
        """The response body, built on first call and then shared."""
        if self._body is None:
            self._body = encode(self)
        return self._body


class _Pending:
    """One window's accumulating queries for a single dataset."""

    __slots__ = ("items", "task")

    def __init__(self) -> None:
        # (key, queries, future) per distinct submission in the window.
        self.items: List[Tuple[str, List[Query], asyncio.Future]] = []
        self.task: Optional[asyncio.Task] = None


class QueryCoalescer:
    """Merge identical and fold heterogeneous concurrent queries.

    Parameters
    ----------
    window:
        Seconds a newly opened batch waits for co-travellers before
        flushing.  0 still merges whatever lands in the same event-loop
        tick.
    max_batch:
        Flush immediately once a window holds this many distinct
        submissions (bounds worst-case latency under heavy fan-in).

    All state lives on the event loop; no locks.  Counts go into the
    coalescer's own :attr:`metrics` registry, which :meth:`stats` reads
    and the server's ``/metrics`` scrape merges.
    """

    def __init__(self, *, window: float = 0.002, max_batch: int = 64) -> None:
        if window < 0:
            raise ValueError("window must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.window = window
        self.max_batch = max_batch
        self._inflight: Dict[Tuple[str, str], asyncio.Future] = {}
        self._trace_ids: Dict[Tuple[str, str], List[str]] = {}
        self._pending: Dict[str, _Pending] = {}
        self.metrics = obs_metrics.MetricsRegistry()
        self._counts = {
            key: self.metrics.counter(f"repro_coalescer_{key}_total", help)
            for key, help in _COUNTERS.items()
        }

    # ---------------------------------------------------------- interface

    async def submit(
        self, dataset: str, queries: Sequence[Query], runner: BatchRunner
    ) -> SharedResult:
        """Resolve ``queries`` for ``dataset``, sharing work where possible.

        Returns the :class:`SharedResult` (possibly computed for an
        earlier identical request).  A whole window is executed by the
        runner of the submission that *opened* (or force-flushed) it, so
        ``dataset`` is really a namespace: only submissions whose runners
        are interchangeable may share one — the HTTP layer embeds the
        pinned artifact version (``"name@v3"``) so requests validated
        against different engines can never fold together.
        """
        self._counts["submitted"].inc()
        queries = [dict(q) for q in queries]
        key = (dataset, canonical_key(queries))
        trace_id = obs_trace.current_trace_id()
        if trace_id is not None:
            # Record every rider, mergers included, so the shared result
            # stays attributable to each request it served.
            self._trace_ids.setdefault(key, []).append(trace_id)
        shared = self._inflight.get(key)
        if shared is not None:
            self._counts["merged"].inc()
            # The fold span measures how long this rider waited on the
            # shared in-flight computation it merged onto.
            with obs_spans.span("coalescer fold", merged=True, queries=len(queries)):
                return await asyncio.shield(shared)

        # The fold span is open before a flush task is created, so the
        # task's copied context nests its flush span under this fold.
        with obs_spans.span("coalescer fold", merged=False, queries=len(queries)):
            loop = asyncio.get_running_loop()
            future: asyncio.Future = loop.create_future()
            self._inflight[key] = future
            pending = self._pending.get(dataset)
            if pending is None:
                pending = self._pending[dataset] = _Pending()
            pending.items.append((key[1], queries, future))
            if len(pending.items) >= self.max_batch:
                self._flush_now(dataset, runner)
            elif pending.task is None:
                pending.task = loop.create_task(self._window_flush(dataset, runner))
            return await asyncio.shield(future)

    def stats(self) -> Dict[str, object]:
        """Counter snapshot for ``/metrics``."""
        return {
            "window_s": self.window,
            "max_batch": self.max_batch,
            **{key: int(c.value()) for key, c in self._counts.items()},
            "inflight": len(self._inflight),
        }

    # ----------------------------------------------------------- plumbing

    async def _window_flush(self, dataset: str, runner: BatchRunner) -> None:
        try:
            await asyncio.sleep(self.window)
        except asyncio.CancelledError:
            return
        pending = self._pending.get(dataset)
        if pending is not None and pending.task is asyncio.current_task():
            pending.task = None
            await self._flush(dataset, runner)

    def _flush_now(self, dataset: str, runner: BatchRunner) -> None:
        pending = self._pending.get(dataset)
        if pending is not None and pending.task is not None:
            pending.task.cancel()
            pending.task = None
        asyncio.get_running_loop().create_task(self._flush(dataset, runner))

    async def _flush(self, dataset: str, runner: BatchRunner) -> None:
        pending = self._pending.pop(dataset, None)
        if pending is None or not pending.items:
            return
        items = pending.items
        flat: List[Query] = []
        offsets: List[Tuple[int, int]] = []
        for _, queries, _ in items:
            offsets.append((len(flat), len(flat) + len(queries)))
            flat.extend(queries)
        self._counts["flushes"].inc()
        self._counts["queries_flushed"].inc(len(flat))
        try:
            # The flush task's context was copied inside the fold span of
            # the submission that opened (or filled) the window, so this
            # span lands in that trace, nested under that fold.
            with obs_spans.span(
                "coalescer flush", submissions=len(items), queries=len(flat)
            ):
                results, version = await runner(flat)
        except Exception as exc:  # noqa: BLE001 - forwarded to every waiter
            for key, _, future in items:
                self._inflight.pop((dataset, key), None)
                self._trace_ids.pop((dataset, key), None)
                if not future.done():
                    future.set_exception(exc)
            return
        for (key, _, future), (lo, hi) in zip(items, offsets):
            self._inflight.pop((dataset, key), None)
            trace_ids = tuple(self._trace_ids.pop((dataset, key), ()))
            if not future.done():
                future.set_result(
                    SharedResult(results[lo:hi], version, trace_ids)
                )
