"""A minimal asyncio HTTP/1.1 JSON server over the query engine surface.

Stdlib only: connections are ``asyncio.start_server`` streams, requests
are parsed by hand (request line, headers, ``Content-Length`` body), and
responses are JSON with explicit ``Content-Length`` so keep-alive works.
One process hosts many datasets through an
:class:`~repro.server.registry.ArtifactRegistry`; engine calls run on a
small thread pool under the entry's lock, and — unless disabled — go
through the :class:`~repro.server.batching.QueryCoalescer` so concurrent
identical requests share one computation and one encoded body.

Endpoints
---------
====================================  ======  =====================================
``/healthz``                          GET     liveness + hosted dataset count
``/metrics``                          GET     counters, cache info, versions
``/datasets``                         GET     hosted datasets summary
``/debug/vars``                       GET     statusz snapshot (versions, RSS, ...)
``/debug/traces``                     GET     recent + slowest retained traces
``/debug/traces/{id}``                GET     span waterfall (``?format=chrome``)
``/{ds}/stats``                       GET     :meth:`QueryEngine.stats`
``/{ds}/histogram``                   GET     :meth:`QueryEngine.phi_histogram`
``/{ds}/community?k=&upper=|lower=``  GET     :meth:`QueryEngine.community`
``/{ds}/max_k?upper=|lower=``         GET     :meth:`QueryEngine.max_k`
``/{ds}/hierarchy_path?u=&v=|eid=``   GET     :meth:`QueryEngine.hierarchy_path`
``/{ds}/batch``                       POST    :meth:`QueryEngine.batch`
``/{ds}/edges``                       POST    mutations → debounced rebuild
====================================  ======  =====================================

Every error is a structured payload
``{"error": {"status", "type", "message", ...}}``; queries are validated
against the live graph *before* entering a shared batch, so one malformed
request can never poison the answers of the requests it coalesced with.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import os
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace
from repro.obs.store import TraceStore
from repro.server.batching import QueryCoalescer, SharedResult
from repro.server.registry import ArtifactRegistry, UnknownDatasetError
from repro.server.updates import MutationError, UpdateManager
from repro.service.artifacts import StaleArtifactError

_LOG = obs_log.get_logger("server")

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Content type of the OpenMetrics exposition (exemplar-capable).
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: Inbound ``X-Trace-Id`` values we adopt (and echo back).  Anything else
#: — overlong, non-hex, control characters — gets a freshly minted id, so
#: a client can neither inject bytes into response headers nor grow them
#: without bound.
_TRACE_ID_RE = re.compile(r"[0-9a-f]{1,64}")


def _rss_bytes() -> Optional[int]:
    """Resident set size of this process, or None where unreadable."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


def _max_rss_bytes() -> Optional[int]:
    try:
        import resource

        # ru_maxrss is kilobytes on Linux, bytes on macOS.
        scale = 1 if sys.platform == "darwin" else 1024
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale
    except (ImportError, ValueError):  # pragma: no cover - non-posix
        return None

#: Engine ops reachable over the wire, with their allowed parameter keys.
_QUERY_OPS: Dict[str, frozenset] = {
    "k_bitruss": frozenset({"op", "k"}),
    "community": frozenset({"op", "k", "upper", "lower"}),
    "max_k": frozenset({"op", "upper", "lower"}),
    "hierarchy_path": frozenset({"op", "edge", "eid"}),
    "phi_histogram": frozenset({"op"}),
    "stats": frozenset({"op"}),
    "phi_of": frozenset({"op", "u", "v"}),
}

#: The routes the server answers, by path shape: ``/{route}``,
#: ``/debug/{route}`` and ``/{ds}/{op}``.  Metric labels are drawn from
#: these names plus :data:`_OTHER`.
_ROOT_ROUTES = frozenset({"healthz", "metrics", "datasets"})
_DEBUG_ROUTES = frozenset({"vars", "traces"})
_SINGLE_OPS = ("stats", "histogram", "community", "max_k", "hierarchy_path")
_DATASET_OPS = frozenset(_SINGLE_OPS + ("batch", "edges"))
_OTHER = "other"

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HTTPError(Exception):
    """An error with a status code and a structured JSON payload."""

    def __init__(
        self,
        status: int,
        kind: str,
        message: str,
        **extra: object,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.extra = extra

    def payload(self) -> Dict[str, object]:
        body: Dict[str, object] = {
            "status": self.status,
            "type": self.kind,
            "message": str(self),
        }
        body.update(self.extra)
        return {"error": body}


def jsonify(obj: object) -> object:
    """Engine results → JSON-safe values, deterministically ordered.

    Communities flatten to sorted vertex/edge lists, numpy scalars and
    arrays to python ints/lists, tuples to lists, non-string dict keys to
    strings (matching what JSON can carry).  Tests reuse this to assert
    HTTP parity with direct engine calls.
    """
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if (
        hasattr(obj, "k")
        and hasattr(obj, "upper")
        and hasattr(obj, "lower")
        and hasattr(obj, "edges")
    ):  # Community (duck-typed: apps must stay importable lazily)
        return {
            "k": int(obj.k),
            "upper": sorted(int(u) for u in obj.upper),
            "lower": sorted(int(v) for v in obj.lower),
            "edges": sorted([int(u), int(v)] for u, v in obj.edges),
        }
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [jsonify(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [jsonify(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonify(x) for x in obj)
    return str(obj)


def _dumps(payload: object) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


class BitrussServer:
    """Serve an :class:`ArtifactRegistry` over HTTP/1.1.

    Parameters
    ----------
    registry:
        The datasets to host.
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    coalesce:
        Route queries through a :class:`QueryCoalescer` (default); off,
        every request pays its own engine call — the naive baseline the
        server benchmark measures against.
    window, max_batch:
        Coalescer tuning (see :class:`QueryCoalescer`).
    updates:
        An :class:`UpdateManager` enabling ``POST /{ds}/edges`` for the
        datasets attached to it.
    executor_threads:
        Size of the engine-call thread pool.
    slow_query_s:
        When set, any non-scrape request slower than this many seconds is
        logged as a WARNING on the ``repro.server.slow`` logger.
    """

    #: Cap on header lines per request (a client streaming endless small
    #: headers must not grow the headers dict without bound).
    MAX_HEADERS = 100

    def __init__(
        self,
        registry: ArtifactRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 8642,
        coalesce: bool = True,
        window: float = 0.002,
        max_batch: int = 64,
        updates: Optional[UpdateManager] = None,
        executor_threads: int = 4,
        max_body: int = 8 << 20,
        slow_query_s: Optional[float] = None,
        trace_sample: Optional[float] = None,
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self.updates = updates
        self.max_body = max_body
        self.slow_query_s = slow_query_s
        # The always-on tracing plane: the process-global span recorder
        # assembles per-request spans; completed traces that survive
        # sampling land in the store behind /debug/traces.
        self._recorder = obs_spans.get_recorder()
        self.trace_store = TraceStore()
        if trace_sample is not None:
            obs_spans.configure(sample=trace_sample)
        if slow_query_s is not None and slow_query_s > 0:
            # Tail promotion tracks the slow-query threshold: any request
            # the slow log would flag is also guaranteed inspectable.
            obs_spans.configure(slow_s=slow_query_s)
        self.coalescer = (
            QueryCoalescer(window=window, max_batch=max_batch)
            if coalesce
            else None
        )
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads, thread_name_prefix="repro-serve"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_at = time.time()
        # The server owns its HTTP series registry (separate from the
        # process-global one library code writes to) so concurrent server
        # instances in one process never cross-pollute each other's
        # request counts.  Both /metrics payloads read these families.
        self._metrics = obs_metrics.MetricsRegistry()
        self._m_requests = self._metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint and dataset.",
            ("endpoint", "dataset"),
        )
        self._m_errors = self._metrics.counter(
            "repro_http_errors_total",
            "HTTP requests answered with a 4xx/5xx status, by endpoint.",
            ("endpoint",),
        )
        self._m_latency = self._metrics.histogram(
            "repro_http_request_seconds",
            "HTTP request latency in seconds, by endpoint "
            "(scrapes of /metrics are excluded).",
            ("endpoint",),
        )
        self._m_active = self._metrics.gauge(
            "repro_server_active_requests", "Requests currently in flight."
        )
        self._metrics.gauge(
            "repro_process_start_time_seconds",
            "Unix time the server object was created.",
        ).set(self._started_at)

    # ---------------------------------------------------------- lifecycle

    async def start(self) -> "BitrussServer":
        """Bind and start accepting connections (raises ``OSError`` if the
        port is taken)."""
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's foreground mode)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and release the thread pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False)

    async def __aenter__(self) -> "BitrussServer":
        return await self.start()

    async def __aexit__(self, *_exc) -> None:
        await self.stop()

    # --------------------------------------------------------- connection

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except HTTPError as exc:
                    # Unframeable request (bad request line, bad or huge
                    # Content-Length): answer once, then close — the
                    # stream position can no longer be trusted.  It was
                    # never routed, so it counts under ``other``.
                    self._m_requests.inc(labels=(_OTHER, ""))
                    self._m_errors.inc(labels=(_OTHER,))
                    self._write_response(
                        writer, exc.status, _dumps(exc.payload()), keep=False
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep = headers.get("connection", "keep-alive").lower() != "close"
                status, payload, ctype, trace_id = await self._serve_one(
                    method, target, headers, body
                )
                self._write_response(
                    writer,
                    status,
                    payload,
                    keep,
                    content_type=ctype,
                    trace_id=trace_id,
                )
                await writer.drain()
                if not keep:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError):
                # Shutdown (stop() closing the listener) cancels handlers
                # blocked in wait_closed; the transport is going away
                # either way, so swallow rather than spam stderr.
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            line = await reader.readline()
        except ValueError:  # asyncio stream limit (64 KiB) exceeded
            raise HTTPError(
                400, "line_too_long", "request line exceeds the stream limit"
            )
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise HTTPError(400, "bad_request_line", "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for _ in range(self.MAX_HEADERS):
            try:
                raw = await reader.readline()
            except ValueError:
                raise HTTPError(
                    400, "line_too_long", "header line exceeds the stream limit"
                )
            if raw == b"":
                # EOF before the blank line: the client died (or lied) mid
                # headers.  Treating this as end-of-headers would silently
                # accept a truncated request and then misread the body.
                raise HTTPError(
                    400, "truncated_request", "connection closed mid-headers"
                )
            if raw in (b"\r\n", b"\n"):
                break
            line = raw.decode("latin-1")
            name, sep, value = line.partition(":")
            name = name.strip().lower()
            if not sep or not name:
                # A colon-less line would otherwise become a header *name*
                # with an empty value — free smuggling surface for a parser
                # mismatch with any front proxy.
                raise HTTPError(
                    400, "bad_header", f"malformed header line {line.strip()!r}"
                )
            if name == "content-length" and name in headers:
                # Duplicate Content-Length is the classic request-smuggling
                # vector: two framings, pick-your-own parser.  Refuse.
                raise HTTPError(
                    400, "bad_header", "duplicate Content-Length header"
                )
            headers[name] = value.strip()
        else:
            raise HTTPError(
                400,
                "too_many_headers",
                f"more than {self.MAX_HEADERS} header lines",
            )
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise HTTPError(
                400, "bad_header", "Content-Length must be an integer"
            )
        if length < 0:
            raise HTTPError(
                400, "bad_header", "Content-Length must be non-negative"
            )
        if length > self.max_body:
            raise HTTPError(
                413,
                "payload_too_large",
                f"body of {length} bytes exceeds the {self.max_body}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        keep: bool,
        *,
        content_type: str = "application/json",
        trace_id: Optional[str] = None,
    ) -> None:
        trace_header = f"X-Trace-Id: {trace_id}\r\n" if trace_id else ""
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep else 'close'}\r\n"
            f"{trace_header}"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    # ------------------------------------------------------------ routing

    def _endpoint_of(self, target: str) -> Tuple[str, str]:
        """(endpoint, dataset) metric labels for a request target.

        Labels come from a fixed vocabulary so that no request path can
        create a new series: ``/debug/*`` routes collapse to two-segment
        labels (``debug/traces``, ``debug/vars``) and so never carry a
        trace id, every path the router does not serve is labelled
        ``other``, and so is a dataset name the registry does not host.
        """
        segments = [s for s in urlsplit(target).path.split("/") if s]
        if not segments:
            return "index", ""
        if segments[0] == "debug":
            sub = segments[1] if len(segments) > 1 else ""
            return f"debug/{sub if sub in _DEBUG_ROUTES else _OTHER}", ""
        if len(segments) == 1:
            name = segments[0]
            return (name if name in _ROOT_ROUTES else _OTHER), ""
        if len(segments) == 2:
            name, op = segments
            return (
                op if op in _DATASET_OPS else _OTHER,
                name if name in self.registry else _OTHER,
            )
        return _OTHER, ""

    def _metrics_format(self, headers: Dict[str, str], target: str) -> str:
        """Content negotiation for ``/metrics``: query param or Accept.

        Returns ``"json"`` (the legacy payload), ``"prometheus"`` (text
        exposition) or ``"openmetrics"`` (exposition + exemplars + EOF).
        """
        params = parse_qs(urlsplit(target).query)
        fmt = params.get("format", [""])[-1].lower()
        if fmt:
            return fmt if fmt in ("prometheus", "openmetrics") else "json"
        accept = headers.get("accept", "")
        if "application/openmetrics-text" in accept:
            return "openmetrics"
        if "text/plain" in accept and "application/json" not in accept:
            return "prometheus"
        return "json"

    async def _serve_one(
        self, method: str, target: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, bytes, str, str]:
        """Route one request → (status, body bytes, content type, trace id)."""
        self._m_active.inc()
        endpoint, dataset = self._endpoint_of(target)
        raw_tid = headers.get("x-trace-id", "")
        trace_id = (
            raw_tid if _TRACE_ID_RE.fullmatch(raw_tid) else obs_trace.new_trace_id()
        )
        token = obs_trace.set_trace_id(trace_id)
        # Self-inspection traffic (scrapes, /debug/*) is never traced, so
        # the recorder and trace store only ever hold real query traffic.
        traced = endpoint != "metrics" and not endpoint.startswith("debug/")
        root_ctx = root_span = None
        if traced:
            root_ctx = obs_spans.span(
                f"{method} {urlsplit(target).path}",
                endpoint=endpoint,
                dataset=dataset,
                method=method,
            )
            root_span = root_ctx.__enter__()
        start = time.perf_counter()
        status = 200
        ctype = "application/json"
        try:
            fmt = (
                self._metrics_format(headers, target)
                if endpoint == "metrics"
                else "json"
            )
            if fmt != "json":
                self._require(method, "GET", "/metrics")
                openmetrics = fmt == "openmetrics"
                payload = self.metrics_prometheus(
                    openmetrics=openmetrics
                ).encode("utf-8")
                ctype = (
                    OPENMETRICS_CONTENT_TYPE
                    if openmetrics
                    else PROMETHEUS_CONTENT_TYPE
                )
            else:
                payload = await self._route(method, target, body)
            return status, payload, ctype, trace_id
        except HTTPError as exc:
            status = exc.status
            return status, _dumps(exc.payload()), "application/json", trace_id
        except UnknownDatasetError as exc:
            err = HTTPError(
                404,
                "unknown_dataset",
                f"no dataset {exc.args[0]!r}; hosted: {self.registry.names()}",
            )
            status = 404
            return status, _dumps(err.payload()), "application/json", trace_id
        except StaleArtifactError as exc:
            err = HTTPError(503, "stale_artifact", str(exc))
            status = 503
            return status, _dumps(err.payload()), "application/json", trace_id
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            _LOG.exception("unhandled error serving %s %s", method, target)
            err = HTTPError(500, "internal", f"{type(exc).__name__}: {exc}")
            status = 500
            return status, _dumps(err.payload()), "application/json", trace_id
        finally:
            self._m_active.dec()
            if root_ctx is not None:
                if root_span is not None:
                    root_span.attrs["status"] = status
                root_ctx.__exit__(None, None, None)
                retained = self._recorder.finish_trace(trace_id)
                if retained:
                    self.trace_store.add(retained)
            self._record_request(
                endpoint, dataset, time.perf_counter() - start, status
            )
            obs_trace.reset_trace_id(token)

    def _record_request(
        self, endpoint: str, dataset: str, elapsed: float, status: int
    ) -> None:
        """Account one finished request in the HTTP series registry.

        Scrapes of ``/metrics`` and hits on ``/debug/*`` are counted as
        requests but excluded from the latency histogram and the
        slow-query log, so self-inspection can never perturb the latency
        signal it reports.
        """
        self._m_requests.inc(labels=(endpoint, dataset))
        if status >= 400:
            self._m_errors.inc(labels=(endpoint,))
        if endpoint == "metrics" or endpoint.startswith("debug/"):
            return
        trace_id = obs_trace.current_trace_id()
        self._m_latency.observe(
            elapsed,
            labels=(endpoint,),
            exemplar={"trace_id": trace_id} if trace_id else None,
        )
        if self.slow_query_s is not None and elapsed >= self.slow_query_s:
            obs_log.log_slow_query(
                endpoint=endpoint,
                dataset=dataset,
                seconds=elapsed,
                threshold=self.slow_query_s,
                status=status,
                trace_id=obs_trace.current_trace_id(),
            )

    async def _route(self, method: str, target: str, body: bytes) -> bytes:
        split = urlsplit(target)
        params = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        segments = [s for s in split.path.split("/") if s]
        if segments and segments[0] == "debug":
            return self._route_debug(method, segments, params)
        if not segments:
            self._require(method, "GET", "/")
            return _dumps(self._index_payload())
        if segments == ["healthz"]:
            self._require(method, "GET", "/healthz")
            return _dumps({"status": "ok", "datasets": len(self.registry)})
        if segments == ["metrics"]:
            self._require(method, "GET", "/metrics")
            return _dumps(jsonify(self.metrics()))
        if segments == ["datasets"]:
            self._require(method, "GET", "/datasets")
            return _dumps(jsonify(self._datasets_payload()))
        if len(segments) != 2:
            raise HTTPError(404, "unknown_route", f"no route {split.path!r}")

        name, op = segments
        if op in _SINGLE_OPS:
            self._require(method, "GET", f"/{{ds}}/{op}")
            query = self._query_from_params(name, op, params)
            return await self._answer_single(name, query)
        if op == "batch":
            self._require(method, "POST", "/{ds}/batch")
            return await self._answer_batch(name, self._parse_json(body))
        if op == "edges":
            self._require(method, "POST", "/{ds}/edges")
            return self._apply_edges(name, self._parse_json(body))
        raise HTTPError(
            404,
            "unknown_route",
            f"no route /{{ds}}/{op}; choose from stats, histogram, "
            "community, max_k, hierarchy_path, batch, edges",
        )

    def _route_debug(
        self, method: str, segments: List[str], params: Dict[str, str]
    ) -> bytes:
        """The ``/debug/*`` plane: live traces and a statusz snapshot."""
        if segments == ["debug", "vars"]:
            self._require(method, "GET", "/debug/vars")
            return _dumps(jsonify(self.debug_vars()))
        if len(segments) >= 2 and segments[1] == "traces":
            if len(segments) == 2:
                self._require(method, "GET", "/debug/traces")
                endpoint = params.get("endpoint")
                dataset = params.get("dataset")
                limit = self._int_param(params, "limit") or 20
                payload = {
                    "recent": [
                        r.summary()
                        for r in self.trace_store.recent_traces(
                            endpoint=endpoint, dataset=dataset, limit=limit
                        )
                    ],
                    "slowest": [
                        r.summary()
                        for r in self.trace_store.slowest_traces(
                            endpoint=endpoint, dataset=dataset, limit=limit
                        )
                    ],
                    "rollups": self.trace_store.rollups(),
                    "recorder": self._recorder.stats(),
                    "store": self.trace_store.stats(),
                }
                return _dumps(jsonify(payload))
            if len(segments) == 3:
                self._require(method, "GET", "/debug/traces/{id}")
                record = self.trace_store.get(segments[2])
                if record is None:
                    raise HTTPError(
                        404,
                        "unknown_trace",
                        f"no retained trace {segments[2]!r}; the store keeps "
                        f"the last {self.trace_store.recent_capacity} traces "
                        f"plus the {self.trace_store.slowest_capacity} slowest",
                    )
                if params.get("format", "").lower() == "chrome":
                    return _dumps(record.chrome())
                return _dumps(jsonify(record.waterfall()))
        raise HTTPError(
            404,
            "unknown_route",
            "no such debug route; choose from /debug/traces, "
            "/debug/traces/{id}, /debug/vars",
        )

    def debug_vars(self) -> Dict[str, object]:
        """The ``/debug/vars`` statusz snapshot (also handy in-process)."""
        from repro.obs.bench import get_fingerprint

        data = self.metrics()
        return {
            **data,
            "registry_versions": {
                entry.name: entry.version for entry in self.registry
            },
            "process": {
                "pid": os.getpid(),
                "python": sys.version.split()[0],
                "rss_bytes": _rss_bytes(),
                "max_rss_bytes": _max_rss_bytes(),
            },
            # The same EnvFingerprint the bench trajectory records, so a
            # scrape is attributable to an exact build + machine + knobs.
            "build": get_fingerprint().to_dict(),
            "tracing": {
                "recorder": self._recorder.stats(),
                "store": self.trace_store.stats(),
            },
        }

    def _require(self, method: str, expected: str, route: str) -> None:
        if method != expected:
            raise HTTPError(
                405, "method_not_allowed", f"{route} only accepts {expected}"
            )

    def _parse_json(self, body: bytes) -> object:
        if not body:
            raise HTTPError(400, "bad_json", "request body must be JSON")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HTTPError(400, "bad_json", f"invalid JSON body: {exc}")

    # ----------------------------------------------------- param handling

    def _int_param(self, params: Dict[str, str], key: str) -> Optional[int]:
        if key not in params:
            return None
        try:
            return int(params[key])
        except ValueError:
            raise HTTPError(
                400, "bad_parameter", f"parameter {key!r} must be an integer"
            )

    def _query_from_params(
        self, name: str, op: str, params: Dict[str, str]
    ) -> Dict[str, object]:
        """URL params → one engine-batch query dict (validated later)."""
        if op == "stats":
            return {"op": "stats"}
        if op == "histogram":
            return {"op": "phi_histogram"}
        query: Dict[str, object] = {}
        if op in ("community",):
            k = self._int_param(params, "k")
            if k is None:
                raise HTTPError(400, "bad_parameter", "parameter 'k' is required")
            query["k"] = k
        for key in ("upper", "lower"):
            value = self._int_param(params, key)
            if value is not None:
                query[key] = value
        if op == "hierarchy_path":
            eid = self._int_param(params, "eid")
            u, v = self._int_param(params, "u"), self._int_param(params, "v")
            if eid is not None:
                query["eid"] = eid
            if u is not None or v is not None:
                if u is None or v is None:
                    raise HTTPError(
                        400, "bad_parameter", "give both 'u' and 'v' (or 'eid')"
                    )
                query["edge"] = [u, v]
        query["op"] = op
        return query

    def _validate_queries(self, engine, queries: List[Dict[str, object]]) -> None:
        """Reject malformed queries before they can enter a shared batch.

        ``engine`` must be the same object the query will later execute
        on (the caller pins it first), so a hot-swap between validation
        and execution can never remap a resolved edge id or turn a range
        check stale.
        """
        graph = engine.graph
        for i, query in enumerate(queries):
            if not isinstance(query, dict):
                raise HTTPError(
                    400, "bad_query", f"query #{i} must be a JSON object"
                )
            op = query.get("op")
            allowed = _QUERY_OPS.get(op)  # type: ignore[arg-type]
            if allowed is None:
                raise HTTPError(
                    400,
                    "unknown_op",
                    f"query #{i}: unknown op {op!r}; "
                    f"choose from {sorted(_QUERY_OPS)}",
                )
            unexpected = set(query) - allowed
            if unexpected:
                raise HTTPError(
                    400,
                    "bad_query",
                    f"query #{i} ({op}): unexpected keys {sorted(unexpected)}",
                )
            if op in ("k_bitruss", "community"):
                k = query.get("k")
                if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                    raise HTTPError(
                        400,
                        "bad_parameter",
                        f"query #{i} ({op}): 'k' must be a non-negative integer",
                    )
            if op in ("community", "max_k"):
                upper, lower = query.get("upper"), query.get("lower")
                if (upper is None) == (lower is None):
                    raise HTTPError(
                        400,
                        "bad_parameter",
                        f"query #{i} ({op}): give exactly one of 'upper'/'lower'",
                    )
                if upper is not None and not (
                    isinstance(upper, int) and 0 <= upper < graph.num_upper
                ):
                    raise HTTPError(
                        400,
                        "bad_parameter",
                        f"query #{i} ({op}): upper vertex {upper!r} out of "
                        f"range [0, {graph.num_upper})",
                    )
                if lower is not None and not (
                    isinstance(lower, int) and 0 <= lower < graph.num_lower
                ):
                    raise HTTPError(
                        400,
                        "bad_parameter",
                        f"query #{i} ({op}): lower vertex {lower!r} out of "
                        f"range [0, {graph.num_lower})",
                    )
            if op == "hierarchy_path":
                eid, edge = query.get("eid"), query.get("edge")
                if (eid is None) == (edge is None):
                    raise HTTPError(
                        400,
                        "bad_parameter",
                        f"query #{i}: give exactly one of 'eid'/'edge'",
                    )
                if edge is not None:
                    query["eid"] = self._resolve_edge(graph, edge, i)
                    del query["edge"]
                    eid = query["eid"]
                if not (isinstance(eid, int) and 0 <= eid < graph.num_edges):
                    raise HTTPError(
                        400,
                        "bad_parameter",
                        f"query #{i}: edge id {eid!r} out of range "
                        f"[0, {graph.num_edges})",
                    )
            if op == "phi_of":
                self._resolve_edge(graph, [query.get("u"), query.get("v")], i)

    def _resolve_edge(self, graph, edge: object, i: int) -> int:
        if (
            not isinstance(edge, (list, tuple))
            or len(edge) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in edge)
        ):
            raise HTTPError(
                400,
                "bad_parameter",
                f"query #{i}: 'edge' must be an [upper, lower] integer pair",
            )
        try:
            return int(graph.edge_id(edge[0], edge[1]))
        except KeyError:
            raise HTTPError(
                404,
                "unknown_edge",
                f"query #{i}: edge ({edge[0]}, {edge[1]}) is not in the graph",
            )

    # ---------------------------------------------------------- answering

    async def _run_batch(
        self,
        name: str,
        queries: List[Dict[str, object]],
        *,
        engine=None,
        version: Optional[int] = None,
    ) -> Tuple[List[object], int]:
        """One engine call on the thread pool, under a version lease."""
        loop = asyncio.get_running_loop()
        with self.registry.acquire(name, engine=engine, version=version) as lease:
            engine, entry = lease.engine, lease.entry

            def _call() -> List[object]:
                # The engine's LRU is a plain OrderedDict; the entry lock
                # serializes engine calls across pool threads.
                with entry.lock:
                    return engine.batch(queries)

            # run_in_executor does not carry contextvars across the thread
            # hop; copy the context so the engine's spans keep their trace
            # id and parent under the request (or flush) span.
            ctx = contextvars.copy_context()
            results = await loop.run_in_executor(
                self._executor, lambda: ctx.run(_call)
            )
            return results, lease.version

    async def _answer_single(
        self, name: str, query: Dict[str, object]
    ) -> bytes:
        # Pin the (engine, version) pair once: validation, edge-id
        # resolution and execution all see the same graph even if a
        # hot-swap lands mid-request.  The coalescer namespace carries the
        # version, so requests pinned to different engines can never fold
        # into (or merge onto) each other's windows — the flush always
        # runs on the engine every member was validated against.
        entry = self.registry.get(name)
        engine, version = entry.engine, entry.version
        self._validate_queries(engine, [query])
        if self.coalescer is not None:
            shared = await self.coalescer.submit(
                f"{name}@v{version}",
                [query],
                lambda qs: self._run_batch(name, qs, engine=engine, version=version),
            )
            return shared.encoded(
                lambda s: _dumps(
                    {
                        "dataset": name,
                        "version": s.version,
                        "result": jsonify(s.values[0]),
                    }
                )
            )
        results, version = await self._run_batch(
            name, [query], engine=engine, version=version
        )
        return _dumps(
            {"dataset": name, "version": version, "result": jsonify(results[0])}
        )

    async def _answer_batch(self, name: str, payload: object) -> bytes:
        if isinstance(payload, dict):
            payload = payload.get("queries")
        if not isinstance(payload, list) or not payload:
            raise HTTPError(
                400,
                "bad_query",
                "batch body must be a non-empty JSON list of query objects "
                '(or {"queries": [...]})',
            )
        queries: List[Dict[str, object]] = [
            dict(q) if isinstance(q, dict) else q for q in payload
        ]
        entry = self.registry.get(name)
        engine, version = entry.engine, entry.version
        self._validate_queries(engine, queries)
        if self.coalescer is not None:
            shared = await self.coalescer.submit(
                f"{name}@v{version}",
                queries,
                lambda qs: self._run_batch(name, qs, engine=engine, version=version),
            )
            values, version = shared.values, shared.version
        else:
            values, version = await self._run_batch(
                name, queries, engine=engine, version=version
            )
        return _dumps(
            {
                "dataset": name,
                "version": version,
                "results": [jsonify(v) for v in values],
            }
        )

    def _apply_edges(self, name: str, payload: object) -> bytes:
        entry = self.registry.get(name)
        if self.updates is None or not self.updates.is_mutable(name):
            raise HTTPError(
                409,
                "immutable_dataset",
                f"dataset {name!r} was not started with mutations enabled",
            )
        ops = payload.get("ops") if isinstance(payload, dict) else payload
        try:
            # Deliberately synchronous on the loop thread: apply() must be
            # serialized with the rebuild loop's snapshot() (both touch the
            # dynamic mirror), and per-op incremental support maintenance
            # is local work — only the rebuild is heavy, and that runs in
            # the executor.
            outcome = self.updates.apply(name, ops)  # type: ignore[arg-type]
        except MutationError as exc:
            raise HTTPError(
                400,
                "bad_mutation",
                str(exc),
                applied=getattr(exc, "applied", 0),
            )
        return _dumps(
            {"dataset": name, "version": entry.version, **jsonify(outcome)}
        )

    # ------------------------------------------------------ observability

    def _index_payload(self) -> Dict[str, object]:
        return {
            "service": "repro-bitruss",
            "datasets": self.registry.names(),
            "endpoints": [
                "/healthz",
                "/metrics",
                "/datasets",
                "/debug/vars",
                "/debug/traces",
                "/debug/traces/{id}",
                "/{ds}/stats",
                "/{ds}/histogram",
                "/{ds}/community?k=&upper=|lower=",
                "/{ds}/max_k?upper=|lower=",
                "/{ds}/hierarchy_path?u=&v=|eid=",
                "POST /{ds}/batch",
                "POST /{ds}/edges",
            ],
        }

    def _datasets_payload(self) -> List[Dict[str, object]]:
        return [
            {
                "name": entry.name,
                "version": entry.version,
                "num_edges": entry.engine.graph.num_edges,
                "max_k": entry.artifact.max_k,
                "algorithm": entry.artifact.algorithm,
                "mutable": bool(
                    self.updates is not None
                    and self.updates.is_mutable(entry.name)
                ),
                "stale": entry.engine.stale,
            }
            for entry in self.registry
        ]

    def metrics(self) -> Dict[str, object]:
        """The ``/metrics`` payload (also handy in-process, e.g. benches).

        The server counts read the labelled HTTP families:
        ``by_endpoint`` sums finished requests over datasets,
        ``requests_total`` adds the ones still in flight.
        """
        by_endpoint: Dict[str, int] = {}
        for (endpoint, _), n in self._m_requests.series().items():
            by_endpoint[endpoint] = by_endpoint.get(endpoint, 0) + int(n)
        active = int(self._m_active.value())
        payload: Dict[str, object] = {
            "server": {
                "requests_total": sum(by_endpoint.values()) + active,
                "errors_total": int(self._m_errors.total()),
                "active_requests": active,
                "by_endpoint": by_endpoint,
                "process_start_time": self._started_at,
                "uptime_seconds": time.time() - self._started_at,
            },
            "datasets": self.registry.metrics(),
        }
        if self.coalescer is not None:
            payload["coalescer"] = self.coalescer.stats()
        if self.updates is not None:
            payload["updates"] = self.updates.stats()
        if obs_spans.profiling():
            payload["profile"] = obs_spans.tree()
        return payload

    def metrics_prometheus(self, *, openmetrics: bool = False) -> str:
        """The Prometheus text exposition of the same families.

        Built fresh per scrape: the process-global, server, coalescer and
        update-manager registries are merged into a scratch registry.
        On top go the two lifetime totals (sums of the labelled HTTP
        families) and the state that lives in objects, read at scrape
        time: uptime, each dataset's version, edge count and engine cache
        counts, the cache-hit and coalescer fold ratios, and each mutable
        dataset's tracker sync.  With ``openmetrics=True`` histogram
        buckets carry trace-id exemplars and the output ends with the
        ``# EOF`` terminator.
        """
        reg = obs_metrics.MetricsRegistry()
        sources = [obs_metrics.get_registry(), self._metrics]
        if self.coalescer is not None:
            sources.append(self.coalescer.metrics)
        if self.updates is not None:
            sources.append(self.updates.metrics)
        for source in sources:
            reg.merge_snapshot(source.snapshot())
        reg.counter(
            "repro_server_requests_total", "All HTTP requests since start."
        ).inc(self._m_requests.total() + self._m_active.value())
        reg.counter(
            "repro_server_errors_total", "All error responses since start."
        ).inc(self._m_errors.total())
        reg.gauge(
            "repro_process_uptime_seconds", "Seconds since server start."
        ).set(time.time() - self._started_at)
        version_g = reg.gauge(
            "repro_dataset_artifact_version",
            "Live artifact version per hosted dataset.",
            ("dataset",),
        )
        edges_g = reg.gauge(
            "repro_dataset_edges",
            "Edges in the served graph per dataset.",
            ("dataset",),
        )
        hits_c = reg.counter(
            "repro_dataset_cache_hits_total",
            "Query-cache hits per dataset.",
            ("dataset",),
        )
        misses_c = reg.counter(
            "repro_dataset_cache_misses_total",
            "Query-cache misses per dataset.",
            ("dataset",),
        )
        hit_rate_g = reg.gauge(
            "repro_dataset_cache_hit_rate",
            "hits / (hits + misses) per dataset (0 when unqueried).",
            ("dataset",),
        )
        if self.updates is not None:
            dirty_g = reg.gauge(
                "repro_incremental_tracker_dirty",
                "1 while a dataset's phi tracker has lost sync and is "
                "waiting on the scheduled rebuild to reseed it.",
                ("dataset",),
            )
        for entry in self.registry:
            labels = (entry.name,)
            version_g.set(entry.version, labels)
            edges_g.set(entry.engine.graph.num_edges, labels)
            cache = entry.engine.cache_info()
            hits, misses = cache["hits"], cache["misses"]
            hits_c.set_to(hits, labels)
            misses_c.set_to(misses, labels)
            hit_rate_g.set(hits / (hits + misses) if hits + misses else 0.0, labels)
            if self.updates is not None and self.updates.is_mutable(entry.name):
                dirty_g.set(float(self.updates.tracker_dirty(entry.name)), labels)
        if self.coalescer is not None:
            flushes = reg.get("repro_coalescer_flushes_total").value()
            submitted = reg.get("repro_coalescer_submitted_total").value()
            reg.gauge(
                "repro_coalescer_fold_ratio",
                "Submissions per engine batch (submitted / flushes).",
            ).set(submitted / flushes if flushes else 0.0)
        return reg.to_prometheus(openmetrics=openmetrics)

    def __repr__(self) -> str:
        return (
            f"BitrussServer({self.registry.names()!r}, "
            f"http://{self.host}:{self.port}, "
            f"coalesce={self.coalescer is not None})"
        )
