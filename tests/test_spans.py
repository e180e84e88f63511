"""The live tracing plane: span recording, trace store, /debug endpoints.

Covers the :mod:`repro.obs.spans` flight recorder (ring-buffer bounds,
deterministic head sampling, tail promotion, concurrent-writer safety),
trace-id context primitives under exceptions and nesting, the
:mod:`repro.obs.store` retention/waterfall/Chrome-export surfaces, the
server's ``/debug/*`` plane and OpenMetrics exemplars, worker-span
grafting across the process boundary, and the always-on overhead
contract (< 3% of a ``bit-bu-csr`` decompose).
"""

import asyncio
import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.graph.generators import erdos_renyi_bipartite, paper_figure4_graph
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace
from repro.obs.spans import Span, SpanRecorder
from repro.obs.store import TraceRecord, TraceStore
from repro.server import ArtifactRegistry, BitrussServer
from repro.service import QueryEngine, build_artifact
from tests.conftest import tree_paths


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(autouse=True)
def _clean_tracing_state():
    """Each test starts with a pristine global recorder and no trace."""
    recorder = obs_spans.get_recorder()
    saved = (recorder.sample, recorder.slow_s)
    recorder.reset()
    recorder.configure(sample=1.0, slow_s=0.25)
    obs_spans.enable_profiling(False)
    obs_spans.reset_tree()
    obs_metrics.reset_registry()
    yield
    recorder.reset()
    recorder.configure(sample=saved[0], slow_s=saved[1])
    obs_spans.enable_profiling(False)
    obs_spans.reset_tree()
    obs_metrics.reset_registry()


# -------------------------------------------------------------------- spans


class TestSpan:
    def test_finish_stamps_status_and_duration(self):
        span = Span("t1", "op")
        assert span.status == "open"
        span.finish()
        assert span.status == "ok" and span.error is None
        assert span.end_ns >= span.start_ns
        assert span.duration_ns == span.end_ns - span.start_ns

    def test_finish_with_error_captures_type_and_message(self):
        span = Span("t1", "op")
        span.finish(error=ValueError("boom"))
        assert span.status == "error"
        assert span.error == "ValueError: boom"

    def test_dict_round_trip_preserves_identity(self):
        span = Span("t1", "op", parent_id="aaaa", attrs={"k": 1})
        span.finish()
        clone = Span.from_dict(json.loads(json.dumps(span.to_dict())))
        assert clone.to_dict() == span.to_dict()


class TestSpanRecorder:
    @staticmethod
    def _finished(trace_id, name="op", parent_id=None):
        span = Span(trace_id, name, parent_id=parent_id)
        span.finish()
        return span

    def test_ring_keeps_newest_at_capacity(self):
        rec = SpanRecorder(capacity=4)
        for i in range(6):
            rec.record(self._finished("t", name=f"op{i}"))
        names = [s.name for s in rec.spans()]
        assert names == ["op2", "op3", "op4", "op5"]  # oldest first
        assert rec.stats()["recorded"] == 6

    def test_head_sampling_is_deterministic_and_calibrated(self):
        rec = SpanRecorder(sample=0.5)
        ids = [f"{i:016x}" for i in range(2000)]
        first = [rec.sample_trace(t) for t in ids]
        assert first == [rec.sample_trace(t) for t in ids]  # stable
        kept = sum(first)
        assert 800 < kept < 1200  # hash is calibrated, not a constant
        assert all(SpanRecorder(sample=1.0).sample_trace(t) for t in ids[:50])
        assert not any(SpanRecorder(sample=0.0).sample_trace(t) for t in ids[:50])

    def test_finish_trace_retains_sampled_traces(self):
        rec = SpanRecorder(sample=1.0)
        rec.record(self._finished("aa"))
        spans = rec.finish_trace("aa")
        assert spans is not None and len(spans) == 1
        assert rec.finish_trace("aa") is None  # popped exactly once
        assert rec.stats()["retained_traces"] == 1

    def test_tail_promotion_keeps_slow_unsampled_trace(self):
        rec = SpanRecorder(sample=0.0, slow_s=0.001)
        slow = Span("slow", "root")
        slow.end_ns = slow.start_ns + 5_000_000  # 5 ms > 1 ms threshold
        slow.status = "ok"
        rec.record(slow)
        retained = rec.finish_trace("slow")
        assert retained is not None and retained[0].name == "root"

        fast = self._finished("fast")
        rec.record(fast)
        assert rec.finish_trace("fast") is None  # under threshold: dropped
        stats = rec.stats()
        assert stats["retained_traces"] == 1
        assert stats["discarded_traces"] == 1

    def test_take_trace_pops_unconditionally(self):
        rec = SpanRecorder(sample=0.0, slow_s=0.0)
        rec.record(self._finished("w1"))
        assert len(rec.take_trace("w1")) == 1  # worker harvest ignores sampling
        assert rec.take_trace("w1") == []

    def test_per_trace_span_cap_counts_drops(self):
        rec = SpanRecorder(capacity=64, max_spans_per_trace=3)
        for _ in range(5):
            rec.record(self._finished("t"))
        assert len(rec.finish_trace("t")) == 3
        assert rec.stats()["dropped"] == 2

    def test_open_trace_cap_evicts_oldest(self):
        rec = SpanRecorder(max_open_traces=2)
        for tid in ("t1", "t2", "t3"):
            rec.record(self._finished(tid))
        assert rec.finish_trace("t1") is None  # evicted to admit t3
        assert rec.finish_trace("t3") is not None
        assert rec.stats()["evicted_traces"] == 1

    def test_concurrent_writers_lose_nothing_under_capacity(self):
        threads, per_thread = 8, 100
        rec = SpanRecorder(capacity=threads * per_thread)
        barrier = threading.Barrier(threads)

        def hammer(worker):
            barrier.wait()
            for i in range(per_thread):
                rec.record(
                    self._finished(f"t{worker}", name=f"w{worker}-{i}")
                )

        pool = [
            threading.Thread(target=hammer, args=(w,)) for w in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

        ring = rec.spans()
        assert len(ring) == threads * per_thread  # nothing lost
        names = [s.name for s in ring]
        assert len(set(names)) == len(names)  # nothing duplicated
        stats = rec.stats()
        assert stats["recorded"] == threads * per_thread
        for w in range(threads):
            assert len(rec.finish_trace(f"t{w}")) == per_thread

    def test_concurrent_writers_over_capacity_keep_ring_exact(self):
        threads, per_thread, capacity = 8, 100, 64
        rec = SpanRecorder(capacity=capacity, max_spans_per_trace=1024)
        barrier = threading.Barrier(threads)

        def hammer(worker):
            barrier.wait()
            for i in range(per_thread):
                rec.record(self._finished("shared", name=f"w{worker}-{i}"))

        pool = [
            threading.Thread(target=hammer, args=(w,)) for w in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

        ring = rec.spans()
        assert len(ring) == capacity  # full, never more
        assert len({s.name for s in ring}) == capacity  # distinct survivors
        assert rec.stats()["recorded"] == threads * per_thread


# ------------------------------------------------------- trace-id primitives


class TestTraceContextPrimitives:
    def test_trace_context_restores_on_exception(self):
        assert obs_trace.current_trace_id() is None
        with pytest.raises(RuntimeError):
            with obs_trace.trace_context("abc123"):
                assert obs_trace.current_trace_id() == "abc123"
                raise RuntimeError("boom")
        assert obs_trace.current_trace_id() is None

    def test_nested_contexts_restore_in_order(self):
        with obs_trace.trace_context("outer1"):
            with obs_trace.trace_context("inner1"):
                assert obs_trace.current_trace_id() == "inner1"
            assert obs_trace.current_trace_id() == "outer1"
        assert obs_trace.current_trace_id() is None

    def test_set_and_reset_tokens_nest(self):
        t1 = obs_trace.set_trace_id("first1")
        t2 = obs_trace.set_trace_id("second")
        assert obs_trace.current_trace_id() == "second"
        obs_trace.reset_trace_id(t2)
        assert obs_trace.current_trace_id() == "first1"
        obs_trace.reset_trace_id(t1)
        assert obs_trace.current_trace_id() is None

    def test_exception_inside_nested_context_unwinds_cleanly(self):
        with obs_trace.trace_context("keepme"):
            with pytest.raises(ValueError):
                with obs_trace.trace_context("fleeting"):
                    raise ValueError("x")
            assert obs_trace.current_trace_id() == "keepme"


# ---------------------------------------------------------------- span() API


class TestSpanApi:
    def test_outside_trace_is_shared_noop(self):
        assert obs_spans.span("a") is obs_spans.span("b")

    def test_sample_zero_disables_even_inside_trace(self):
        obs_spans.configure(sample=0.0)
        with obs_trace.trace_context("abc123"):
            assert obs_spans.span("a") is obs_spans.span("b")
        assert obs_spans.get_recorder().stats()["recorded"] == 0

    def test_nested_spans_are_parent_linked(self):
        rec = obs_spans.get_recorder()
        with obs_trace.trace_context("abc123"):
            with obs_spans.span("outer") as outer:
                with obs_spans.span("inner") as inner:
                    assert obs_spans.current_span() is inner
                assert obs_spans.current_span() is outer
        spans = rec.finish_trace("abc123")
        by_name = {s.name: s for s in spans}
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].parent_id == by_name["outer"].span_id

    def test_exception_marks_span_error_and_restores_cursor(self):
        rec = obs_spans.get_recorder()
        with obs_trace.trace_context("abc123"):
            with obs_spans.span("root"):
                with pytest.raises(KeyError):
                    with obs_spans.span("bad"):
                        raise KeyError("missing")
                assert obs_spans.current_span().name == "root"
        by_name = {s.name: s for s in rec.finish_trace("abc123")}
        assert by_name["bad"].status == "error"
        assert "KeyError" in by_name["bad"].error
        assert by_name["root"].status == "ok"

    def test_traced_span_feeds_waterfall_and_tree(self):
        obs_spans.enable_profiling(True)
        with obs_trace.trace_context("abc123"):
            with obs_spans.span("algo step"):
                with obs_spans.span("plumbing"):
                    pass
        by_name = {s.name: s for s in obs_spans.get_recorder().finish_trace("abc123")}
        assert by_name["plumbing"].parent_id == by_name["algo step"].span_id
        (step,) = obs_spans.tree()["children"]
        assert step["name"] == "algo step" and step["count"] == 1
        assert [(c["name"], c["count"]) for c in step["children"]] == [
            ("plumbing", 1)
        ]

    def test_env_knobs_shape_the_recorder(self):
        script = (
            "from repro.obs import spans\n"
            "rec = spans.get_recorder()\n"
            "assert rec.sample == 0.25, rec.sample\n"
            "assert rec.capacity == 77, rec.capacity\n"
            "assert abs(rec.slow_s - 0.05) < 1e-9, rec.slow_s\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={
                "PYTHONPATH": "src",
                "REPRO_TRACE_SAMPLE": "0.25",
                "REPRO_TRACE_BUFFER": "77",
                "REPRO_TRACE_SLOW_MS": "50",
            },
            cwd=str(Path(__file__).parent.parent),
        )
        assert proc.returncode == 0


class TestSpanCursor:
    """Each thread and task nests its spans under its own open span."""

    def test_threads_build_one_exact_tree(self):
        obs_spans.enable_profiling(True)
        threads, per_thread = 4, 2000
        barrier = threading.Barrier(threads)

        def hammer(worker):
            barrier.wait()
            for _ in range(per_thread):
                with obs_spans.span("engine batch"):
                    with obs_spans.span(f"query:{worker}"):
                        pass

        pool = [threading.Thread(target=hammer, args=(w,)) for w in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-span as often as possible
        try:
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)

        expected = {("engine batch",): threads * per_thread}
        for w in range(threads):
            expected[("engine batch", f"query:{w}")] = per_thread
        assert tree_paths(obs_spans.tree()) == expected
        # Every span closed: a new one lands at the root again.
        with obs_spans.span("after"):
            pass
        assert ("after",) in tree_paths(obs_spans.tree())

    def test_tasks_interleaving_across_await_nest_correctly(self):
        obs_spans.enable_profiling(True)

        async def worker(name, mine, theirs):
            with obs_spans.span(name):
                mine.set()
                await theirs.wait()  # the other task opens its span meanwhile
                for _ in range(3):
                    with obs_spans.span("step", task=name):
                        await asyncio.sleep(0)

        async def scenario():
            with obs_trace.trace_context("a5a5a5a5"):
                with obs_spans.span("outer"):
                    first, second = asyncio.Event(), asyncio.Event()
                    await asyncio.gather(
                        worker("task:0", first, second),
                        worker("task:1", second, first),
                    )

        run(scenario())
        assert tree_paths(obs_spans.tree()) == {
            ("outer",): 1,
            ("outer", "task:0"): 1,
            ("outer", "task:0", "step"): 3,
            ("outer", "task:1"): 1,
            ("outer", "task:1", "step"): 3,
        }
        spans = obs_spans.get_recorder().finish_trace("a5a5a5a5")
        by_id = {s.span_id: s for s in spans}
        for s in spans:
            if s.name == "step":
                assert by_id[s.parent_id].name == s.attrs["task"]
            elif s.name.startswith("task:"):
                assert by_id[s.parent_id].name == "outer"
        assert [s.name for s in spans].count("step") == 6


class TestHierarchyBuildSpan:
    """Every hierarchy build records one ``hierarchy build`` span."""

    @staticmethod
    def _traced(fn):
        with obs_trace.trace_context("hier01"):
            with obs_spans.span("outer"):
                fn()
        return obs_spans.get_recorder().take_trace("hier01")

    def test_engine_construction_nests_under_the_caller(self):
        spans = self._traced(
            lambda: QueryEngine(build_artifact(paper_figure4_graph()))
        )
        by_name = {s.name: s for s in spans}
        builds = [s for s in spans if s.name == "hierarchy build"]
        assert len(builds) == 1
        assert builds[0].parent_id == by_name["outer"].span_id

    def test_refresh_records_the_build(self):
        engine = QueryEngine(build_artifact(paper_figure4_graph()))
        spans = self._traced(engine.refresh)
        assert [s.name for s in spans].count("hierarchy build") == 1

    def test_patch_records_the_build(self):
        engine = QueryEngine(build_artifact(paper_figure4_graph()))
        spans = self._traced(lambda: engine.patch(engine.graph, engine.phi))
        assert [s.name for s in spans].count("hierarchy build") == 1


# -------------------------------------------------------------- trace store


def _make_spans(trace_id, *, duration_ms=1.0, endpoint="stats", dataset="d"):
    root = Span(trace_id, f"GET /{dataset}/{endpoint}")
    root.attrs.update({"endpoint": endpoint, "dataset": dataset})
    child = Span(trace_id, "work", parent_id=root.span_id)
    child.finish()
    root.end_ns = root.start_ns + int(duration_ms * 1e6)
    root.status = "ok"
    return [root, child]


class TestTraceStore:
    def test_recent_is_bounded_and_newest_first(self):
        store = TraceStore(recent=3, slowest=2)
        for i in range(5):
            store.add(_make_spans(f"{i:08x}"))
        recent = store.recent_traces()
        assert [r.trace_id for r in recent] == ["00000004", "00000003", "00000002"]

    def test_slowest_set_keeps_top_k_by_duration(self):
        store = TraceStore(recent=2, slowest=2)
        for i, ms in enumerate([5.0, 1.0, 9.0, 3.0, 7.0]):
            store.add(_make_spans(f"{i:08x}", duration_ms=ms))
        slowest = store.slowest_traces()
        assert [round(r.duration_ns / 1e6) for r in slowest] == [9, 7]

    def test_get_finds_evicted_recent_via_slowest(self):
        store = TraceStore(recent=1, slowest=4)
        slow = store.add(_make_spans("aaaa0000", duration_ms=50.0))
        for i in range(3):
            store.add(_make_spans(f"{i:08x}", duration_ms=1.0))
        assert store.get("aaaa0000") is slow

    def test_filters_and_rollups(self):
        store = TraceStore()
        store.add(_make_spans("a" * 8, endpoint="stats", dataset="d1"))
        store.add(_make_spans("b" * 8, endpoint="histogram", dataset="d1"))
        store.add(_make_spans("c" * 8, endpoint="stats", dataset="d2"))
        assert len(store.recent_traces(endpoint="stats")) == 2
        assert len(store.recent_traces(dataset="d1")) == 1 + 1
        assert len(store.recent_traces(endpoint="stats", dataset="d2")) == 1
        rollups = {(r["endpoint"], r["dataset"]): r for r in store.rollups()}
        assert rollups[("stats", "d1")]["count"] == 1
        assert rollups[("histogram", "d1")]["count"] == 1

    def test_waterfall_nests_children_and_offsets(self):
        record = TraceRecord(_make_spans("ab" * 4))
        tree = record.waterfall()
        (root,) = tree["spans"]
        assert root["start_ms"] == 0.0
        (child,) = root["children"]
        assert child["parent_id"] == root["span_id"]
        assert child["start_ms"] >= 0.0

    def test_chrome_export_is_well_formed(self):
        doc = TraceRecord(_make_spans("ab" * 4)).chrome()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} <= {"X", "M"}
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 2
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in xs)
        assert [e["ts"] for e in xs] == sorted(e["ts"] for e in xs)
        json.dumps(doc)  # JSON-serialisable end to end


# ------------------------------------------------------------------- server


async def raw_http(port, method, target, headers=None):
    """One exchange returning (status, header dict, raw body bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        writer.write(
            f"{method} {target} HTTP/1.1\r\nHost: t\r\n{extra}"
            "Content-Length: 0\r\nConnection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    hdrs = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        hdrs[key.strip().lower()] = value.strip()
    return status, hdrs, body


@pytest.fixture(scope="module")
def fig4_artifact():
    return build_artifact(paper_figure4_graph(), algorithm="bit-bu-csr")


def make_server(artifact, **kwargs):
    registry = ArtifactRegistry()
    registry.register("fig4", artifact)
    return BitrussServer(registry, port=0, **kwargs)


class TestDebugPlane:
    def test_traced_request_yields_full_waterfall(self, fig4_artifact):
        async def scenario():
            async with make_server(fig4_artifact) as server:
                await raw_http(
                    server.port,
                    "GET",
                    "/fig4/stats",
                    headers={"X-Trace-Id": "feedface"},
                )
                status, _, body = await raw_http(
                    server.port, "GET", "/debug/traces/feedface"
                )
                assert status == 200
                tree = json.loads(body)
                assert tree["trace_id"] == "feedface"
                assert tree["endpoint"] == "stats"
                assert tree["dataset"] == "fig4"
                (root,) = tree["spans"]
                assert root["name"] == "GET /fig4/stats"

                def names(node):
                    yield node["name"]
                    for child in node.get("children", ()):
                        yield from names(child)

                seen = set(names(root))
                assert {"coalescer flush", "engine batch", "query:stats"} <= seen

        run(scenario())

    def test_traces_listing_and_filters(self, fig4_artifact):
        async def scenario():
            async with make_server(fig4_artifact) as server:
                await raw_http(server.port, "GET", "/fig4/stats")
                await raw_http(server.port, "GET", "/fig4/histogram")
                _, _, body = await raw_http(server.port, "GET", "/debug/traces")
                payload = json.loads(body)
                assert {r["endpoint"] for r in payload["recent"]} == {
                    "stats",
                    "histogram",
                }
                assert payload["recorder"]["retained_traces"] == 2
                assert payload["store"]["traces_added"] == 2

                _, _, body = await raw_http(
                    server.port, "GET", "/debug/traces?endpoint=stats"
                )
                filtered = json.loads(body)
                assert all(
                    r["endpoint"] == "stats" for r in filtered["recent"]
                )
                assert len(filtered["recent"]) == 1

        run(scenario())

    def test_unknown_trace_is_404(self, fig4_artifact):
        async def scenario():
            async with make_server(fig4_artifact) as server:
                status, _, body = await raw_http(
                    server.port, "GET", "/debug/traces/deadbeef"
                )
                assert status == 404
                assert json.loads(body)["error"]["type"] == "unknown_trace"

        run(scenario())

    def test_chrome_export_schema(self, fig4_artifact):
        async def scenario():
            async with make_server(fig4_artifact) as server:
                await raw_http(
                    server.port,
                    "GET",
                    "/fig4/stats",
                    headers={"X-Trace-Id": "cafe0001"},
                )
                status, hdrs, body = await raw_http(
                    server.port, "GET", "/debug/traces/cafe0001?format=chrome"
                )
                assert status == 200
                assert hdrs["content-type"] == "application/json"
                doc = json.loads(body)
                events = doc["traceEvents"]
                assert events and {e["ph"] for e in events} <= {"X", "M"}
                xs = [e for e in events if e["ph"] == "X"]
                assert [e["ts"] for e in xs] == sorted(e["ts"] for e in xs)
                assert all(e["dur"] >= 0 for e in xs)
                assert any(e["name"] == "GET /fig4/stats" for e in xs)

        run(scenario())

    def test_debug_vars_snapshot(self, fig4_artifact):
        async def scenario():
            async with make_server(fig4_artifact) as server:
                await raw_http(server.port, "GET", "/fig4/stats")
                status, _, body = await raw_http(
                    server.port, "GET", "/debug/vars"
                )
                assert status == 200
                payload = json.loads(body)
                assert payload["process"]["rss_bytes"] > 0
                assert payload["registry_versions"] == {"fig4": 1}
                assert payload["tracing"]["recorder"]["capacity"] >= 1
                assert payload["tracing"]["store"]["traces_added"] == 1
                assert "coalescer" in payload and "server" in payload

        run(scenario())

    def test_debug_requests_excluded_from_latency_and_traces(
        self, fig4_artifact
    ):
        async def scenario():
            async with make_server(fig4_artifact) as server:
                for _ in range(3):
                    await raw_http(server.port, "GET", "/debug/vars")
                    await raw_http(server.port, "GET", "/debug/traces")
                _, _, body = await raw_http(
                    server.port, "GET", "/metrics?format=prometheus"
                )
                text = body.decode()
                # Counted as requests, invisible to the latency histogram.
                assert re.search(
                    r'repro_http_requests_total\{endpoint="debug/vars"[^}]*\} 3',
                    text,
                )
                assert 'repro_http_request_seconds_bucket{endpoint="debug' not in text
                # And never retained as traces.
                _, _, body = await raw_http(server.port, "GET", "/debug/traces")
                assert json.loads(body)["store"]["traces_added"] == 0

        run(scenario())

    def test_openmetrics_exemplars_join_buckets_to_traces(self, fig4_artifact):
        async def scenario():
            async with make_server(fig4_artifact) as server:
                await raw_http(
                    server.port,
                    "GET",
                    "/fig4/stats",
                    headers={"X-Trace-Id": "beef0042"},
                )
                status, hdrs, body = await raw_http(
                    server.port, "GET", "/metrics?format=openmetrics"
                )
                assert status == 200
                assert hdrs["content-type"].startswith(
                    "application/openmetrics-text"
                )
                text = body.decode()
                assert text.rstrip().endswith("# EOF")
                matches = re.findall(
                    r'repro_http_request_seconds_bucket\{[^}]*\} \d+ '
                    r'# \{trace_id="([0-9a-f]+)"\} [0-9.e+-]+ \d+(?:\.\d+)?',
                    text,
                )
                assert "beef0042" in matches

                # The classic exposition stays exemplar-free.
                _, _, body = await raw_http(
                    server.port, "GET", "/metrics?format=prometheus"
                )
                assert b"# {" not in body and b"# EOF" not in body

        run(scenario())

    def test_trace_sample_zero_server_records_nothing(self, fig4_artifact):
        async def scenario():
            async with make_server(fig4_artifact, trace_sample=0.0) as server:
                await raw_http(
                    server.port,
                    "GET",
                    "/fig4/stats",
                    headers={"X-Trace-Id": "feed0099"},
                )
                status, _, _ = await raw_http(
                    server.port, "GET", "/debug/traces/feed0099"
                )
                assert status == 404
                _, _, body = await raw_http(server.port, "GET", "/debug/traces")
                payload = json.loads(body)
                assert payload["recent"] == []
                assert payload["recorder"]["recorded"] == 0

        run(scenario())


# ----------------------------------------------------------------- overhead


class TestTracingOverhead:
    def test_active_span_overhead_under_three_percent_on_bit_bu_csr(
        self, monkeypatch
    ):
        """Always-on contract: recording costs < 3% of a traced decompose.

        Same deterministic methodology as the phases no-op bound: count
        every span() entry a traced bit-bu-csr run makes, measure the
        per-call cost of the *active* recording path directly, and
        compare their product against the run's wall time.
        """
        from repro.core.bit_bu_batch import bit_bu_csr

        graph = erdos_renyi_bipartite(300, 300, 2500, seed=7)
        bit_bu_csr(graph)  # warm caches (sorted CSR, priorities)

        calls = {"n": 0}
        real_span = obs_spans.span

        def counting_span(name, **attrs):
            calls["n"] += 1
            return real_span(name, **attrs)

        monkeypatch.setattr(obs_spans, "span", counting_span)
        with obs_trace.trace_context("0ve12head"):
            start = time.perf_counter()
            bit_bu_csr(graph)
            wall = time.perf_counter() - start
        monkeypatch.undo()
        obs_spans.get_recorder().take_trace("0ve12head")

        reps = 50_000
        with obs_trace.trace_context("ca11c057"):
            start = time.perf_counter()
            for _ in range(reps):
                with obs_spans.span("x"):
                    pass
            per_call = (time.perf_counter() - start) / reps
        obs_spans.get_recorder().take_trace("ca11c057")

        overhead = calls["n"] * per_call
        assert calls["n"] > 0
        assert overhead < 0.03 * wall, (
            f"{calls['n']} span() calls x {per_call * 1e9:.0f} ns "
            f"= {overhead * 1e3:.3f} ms vs {wall * 1e3:.1f} ms wall"
        )
