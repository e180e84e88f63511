"""repro.obs: metrics, phase profiling, tracing, logging, and their wiring.

Covers the unified observability layer end to end: the metric primitives
and their Prometheus exposition (pinned by a golden file), the phase tree
that spans build (including the no-op cost contract on the disabled
path), trace propagation through the coalescer and across pool worker
processes, the server's content-negotiated ``/metrics``, the slow-query
log, and the CLI's ``--profile``/``--json``/``--quiet`` surfaces.
"""

import asyncio
import json
import logging
import pickle
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.graph.generators import erdos_renyi_bipartite, paper_figure4_graph
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.server import (
    ArtifactRegistry,
    BitrussServer,
    QueryCoalescer,
    UpdateManager,
)
from repro.service import build_artifact
from tests.conftest import tree_paths

GOLDEN = Path(__file__).parent / "data" / "obs_prometheus_golden.txt"


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with profiling off and empty registries."""
    obs_spans.enable_profiling(False)
    obs_spans.reset_tree()
    obs_metrics.reset_registry()
    yield
    obs_spans.enable_profiling(False)
    obs_spans.reset_tree()
    obs_metrics.reset_registry()
    obs_log.configure(quiet=False)


# ------------------------------------------------------------------ metrics


class TestMetricsPrimitives:
    def test_counter_accumulates_per_label(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "help", ("op",))
        c.inc(labels=("a",))
        c.inc(2.5, labels=("a",))
        c.inc(labels=("b",))
        assert c.value(("a",)) == 3.5
        assert c.value(("b",)) == 1.0
        assert c.value(("never",)) == 0.0

    def test_counter_rejects_negative_and_bad_labels(self):
        c = MetricsRegistry().counter("c_total", "", ("op",))
        with pytest.raises(ValueError):
            c.inc(-1, labels=("a",))
        with pytest.raises(ValueError):
            c.inc(labels=())  # wrong arity

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("g")
        g.set(5)
        g.inc(2)
        g.dec(4)
        assert g.value() == 3.0

    def test_histogram_buckets_sum_count(self):
        h = MetricsRegistry().histogram("h", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 3.0):
            h.observe(v)
        assert h.bucket_counts() == [1, 2, 1]
        assert h.count() == 4
        assert h.sum() == pytest.approx(4.05)

    def test_histogram_rejects_unsorted_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(1.0, 0.1))
        with pytest.raises(ValueError):
            reg.histogram("h2", buckets=(0.1, 0.1))

    def test_registry_get_or_create_guards_kind_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("m", "", ("a",))
        assert reg.counter("m", "", ("a",)) is c
        with pytest.raises(ValueError):
            reg.gauge("m", "", ("a",))
        with pytest.raises(ValueError):
            reg.counter("m", "", ("a", "b"))

    def test_snapshot_merge_semantics(self):
        src = MetricsRegistry()
        src.counter("c_total").inc(2)
        src.gauge("g").set(7)
        src.histogram("h", buckets=(1.0,)).observe(0.5)

        snap = pickle.loads(pickle.dumps(src.snapshot()))  # picklable
        dst = MetricsRegistry()
        dst.counter("c_total").inc(1)
        dst.gauge("g").set(3)
        dst.histogram("h", buckets=(1.0,)).observe(2.0)
        dst.merge_snapshot(snap)

        assert dst.counter("c_total").value() == 3.0  # counters add
        assert dst.gauge("g").value() == 7.0  # gauges last-write-win
        h = dst.histogram("h", buckets=(1.0,))
        assert h.count() == 2 and h.bucket_counts() == [1, 1]

    def test_merge_rejects_mismatched_histogram_buckets(self):
        src = MetricsRegistry()
        src.histogram("h", buckets=(1.0,)).observe(0.5)
        dst = MetricsRegistry()
        dst.histogram("h", buckets=(2.0,))
        with pytest.raises(ValueError):
            dst.merge_snapshot(src.snapshot())


class TestPrometheusExposition:
    @staticmethod
    def _golden_registry() -> MetricsRegistry:
        reg = MetricsRegistry()
        c = reg.counter(
            "repro_test_requests_total", "Requests served.", ("endpoint",)
        )
        c.inc(3, labels=("stats",))
        c.inc(labels=("community",))
        reg.gauge("repro_test_active", "Active requests.").set(2)
        h = reg.histogram(
            "repro_test_seconds",
            "Request latency.",
            ("endpoint",),
            buckets=(0.01, 0.1, 1.0),
        )
        h.observe(0.005, ("stats",))
        h.observe(0.05, ("stats",))
        h.observe(2.0, ("stats",))
        return reg

    def test_exposition_matches_golden_file(self):
        assert self._golden_registry().to_prometheus() == GOLDEN.read_text()

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "", ("p",)).inc(labels=('a"b\\c\nd',))
        assert 'p="a\\"b\\\\c\\nd"' in reg.to_prometheus()


def parse_prometheus(text: str) -> dict:
    """Tiny exposition parser: {series name+labels: float value}."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        series[name] = float(value)
    return series


# ------------------------------------------------------------------- phases


class TestPhases:
    """The phase tree that spans build while profiling is on."""

    def test_disabled_phase_is_shared_noop(self):
        assert obs_spans.span("a") is obs_spans.span("b")

    def test_enabled_builds_nested_tree(self):
        obs_spans.enable_profiling(True)
        with obs_spans.span("outer"):
            with obs_spans.span("inner"):
                pass
            with obs_spans.span("inner"):
                pass
        tree = obs_spans.tree()
        (outer,) = tree["children"]
        assert outer["name"] == "outer" and outer["count"] == 1
        (inner,) = outer["children"]
        assert inner["name"] == "inner" and inner["count"] == 2
        assert outer["seconds"] >= inner["seconds"] >= 0.0

    def test_leaf_seconds_sums_leaves(self):
        def node(name, seconds, children=()):
            return {"name": name, "seconds": seconds, "count": 1,
                    "children": list(children)}

        tree = node("total", 0.0, [
            node("parent", 1.0, [node("leaf1", 0.25), node("leaf2", 0.5)]),
            node("leaf3", 0.125),
        ])
        assert obs_spans.leaf_seconds(tree) == pytest.approx(0.875)

    def test_render_tree_marks_repeat_counts(self):
        obs_spans.enable_profiling(True)
        for _ in range(3):
            with obs_spans.span("step"):
                pass
        rendered = obs_spans.render_tree(obs_spans.tree())
        assert "step" in rendered and "x3" in rendered
        assert obs_spans.render_tree({"name": "total", "seconds": 0.0,
                                      "count": 0, "children": []}) == (
            "(no phases recorded)"
        )

    def test_phase_timer_bridge_feeds_profiler(self):
        from repro.utils.stats import PhaseTimer

        obs_spans.enable_profiling(True)
        timer = PhaseTimer()
        with timer.time("bridged"):
            with obs_spans.span("inside"):
                pass
        (bridged,) = obs_spans.tree()["children"]
        assert bridged["name"] == "bridged" and bridged["count"] == 1
        assert [c["name"] for c in bridged["children"]] == ["inside"]
        assert timer.elapsed("bridged") >= 0.0 and "bridged" in timer.phases()

    def test_env_flag_enables_profiling(self):
        script = (
            "from repro.obs import spans; "
            "import sys; sys.exit(0 if spans.profiling() else 1)"
        )
        env_src = {"PYTHONPATH": "src", "REPRO_PROFILE": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env_src,
            cwd=str(Path(__file__).parent.parent),
        )
        assert proc.returncode == 0
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": "src"},
            cwd=str(Path(__file__).parent.parent),
        )
        assert proc.returncode == 1

    def test_noop_overhead_under_two_percent_on_bit_bu_csr(self, monkeypatch):
        """Disabled-path contract: instrumentation costs < 2% of runtime.

        Deterministic form of the acceptance bar: count every span()
        entry a bit-bu-csr run makes (every instrumented site calls it
        through the module), measure the per-call cost of the disabled
        path directly, and compare their product against the run's wall
        time (no noisy A/B of two full runs).
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
        start = time.perf_counter()
        bit_bu_csr(graph)
        wall = time.perf_counter() - start
        monkeypatch.undo()

        reps = 100_000
        start = time.perf_counter()
        for _ in range(reps):
            with obs_spans.span("x"):
                pass
        per_call = (time.perf_counter() - start) / reps

        overhead = calls["n"] * per_call
        assert calls["n"] > 0
        assert overhead < 0.02 * wall, (
            f"{calls['n']} span() calls x {per_call * 1e9:.0f} ns "
            f"= {overhead * 1e3:.3f} ms vs {wall * 1e3:.1f} ms wall"
        )


# -------------------------------------------------------------------- trace


class TestTrace:
    def test_trace_context_sets_and_restores(self):
        assert obs_trace.current_trace_id() is None
        with obs_trace.trace_context() as tid:
            assert obs_trace.current_trace_id() == tid
            with obs_trace.trace_context("abc") as inner:
                assert inner == "abc"
                assert obs_trace.current_trace_id() == "abc"
            assert obs_trace.current_trace_id() == tid
        assert obs_trace.current_trace_id() is None

    def test_trace_ids_are_distinct(self):
        ids = {obs_trace.new_trace_id() for _ in range(64)}
        assert len(ids) == 64

    def test_json_formatter_carries_trace_id_and_extras(self):
        record = logging.LogRecord(
            "repro.server", logging.INFO, __file__, 1, "served %d", (3,), None
        )
        record.dataset = "fig4"
        with obs_trace.trace_context("deadbeef"):
            payload = json.loads(obs_log.JsonFormatter().format(record))
        assert payload["message"] == "served 3"
        assert payload["trace_id"] == "deadbeef"
        assert payload["dataset"] == "fig4"
        assert payload["level"] == "info"

    def test_coalescer_collects_trace_ids_of_merged_waiters(self):
        async def scenario():
            coalescer = QueryCoalescer(window=0.01)

            async def runner(queries):
                return list(range(len(queries))), 1

            async def submit(tid):
                with obs_trace.trace_context(tid):
                    return await coalescer.submit(
                        "ds", [{"op": "stats"}], runner
                    )

            shared = await asyncio.gather(submit("t-one"), submit("t-two"))
            # Both waiters folded into one flush; the shared result carries
            # every contributing trace id.
            assert shared[0] is shared[1] or (
                shared[0].trace_ids == shared[1].trace_ids
            )
            assert sorted(shared[0].trace_ids) == ["t-one", "t-two"]

        run(scenario())



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


class TestServerObservability:
    def test_metrics_json_has_uptime_and_start_time(self, fig4_artifact):
        async def scenario():
            async with make_server(fig4_artifact) as server:
                status, _, body = await raw_http(server.port, "GET", "/metrics")
                assert status == 200
                payload = json.loads(body)
                srv = payload["server"]
                assert srv["process_start_time"] <= time.time()
                assert 0.0 <= srv["uptime_seconds"] < 3600.0
                # Legacy keys stay intact.
                assert {"requests_total", "errors_total", "by_endpoint"} <= set(srv)

        run(scenario())

    def test_metrics_content_negotiation(self, fig4_artifact):
        async def scenario():
            async with make_server(fig4_artifact) as server:
                await raw_http(server.port, "GET", "/fig4/stats")

                # Default scrape stays JSON.
                _, hdrs, body = await raw_http(server.port, "GET", "/metrics")
                assert hdrs["content-type"] == "application/json"
                json.loads(body)

                # Query param forces the exposition format...
                _, hdrs, body = await raw_http(
                    server.port, "GET", "/metrics?format=prometheus"
                )
                assert hdrs["content-type"].startswith("text/plain")
                series = parse_prometheus(body.decode())
                assert series['repro_http_requests_total{endpoint="stats",dataset="fig4"}'] == 1
                assert series["repro_server_active_requests"] == 1  # this scrape
                assert series['repro_dataset_artifact_version{dataset="fig4"}'] == 1

                # ... and so does an Accept: text/plain header.
                _, hdrs, body = await raw_http(
                    server.port, "GET", "/metrics",
                    headers={"Accept": "text/plain"},
                )
                assert hdrs["content-type"].startswith("text/plain")
                assert b"# TYPE repro_http_requests_total counter" in body

                # An explicit json format wins over the Accept header.
                _, hdrs, _ = await raw_http(
                    server.port, "GET", "/metrics?format=json",
                    headers={"Accept": "text/plain"},
                )
                assert hdrs["content-type"] == "application/json"

        run(scenario())

    def test_unknown_paths_add_at_most_one_series_each(self, fig4_artifact):
        shapes = {
            "unknown dataset and op": "/junk{i}/x{i}",
            "unknown op": "/fig4/x{i}",
            "unknown dataset": "/junk{i}/stats",
            "unknown route": "/junk{i}",
            "deep path": "/a/b/c{i}",
            "unknown debug route": "/debug/x{i}",
        }

        def request_series(body):
            return {
                name
                for name in parse_prometheus(body.decode())
                if name.startswith("repro_http_requests_total{")
            }

        async def scenario():
            async with make_server(fig4_artifact) as server:
                scrape = "/metrics?format=prometheus"
                for shape, template in shapes.items():
                    _, _, body = await raw_http(server.port, "GET", scrape)
                    before = request_series(body)
                    for i in range(20):
                        await raw_http(server.port, "GET", template.format(i=i))
                    _, _, body = await raw_http(server.port, "GET", scrape)
                    added = request_series(body) - before
                    # The scrape series itself may be new on the first pass.
                    added.discard(
                        'repro_http_requests_total{endpoint="metrics",dataset=""}'
                    )
                    assert len(added) <= 1, (shape, sorted(added))
                _, _, body = await raw_http(server.port, "GET", "/metrics")
                by_endpoint = json.loads(body)["server"]["by_endpoint"]
                assert set(by_endpoint) <= {"other", "debug/other", "stats", "metrics"}

        run(scenario())

    def test_histogram_buckets_are_cumulative_and_consistent(self, fig4_artifact):
        async def scenario():
            async with make_server(fig4_artifact) as server:
                for _ in range(5):
                    await raw_http(server.port, "GET", "/fig4/stats")
                _, _, body = await raw_http(
                    server.port, "GET", "/metrics?format=prometheus"
                )
                series = parse_prometheus(body.decode())
                buckets = [
                    (name, value)
                    for name, value in series.items()
                    if name.startswith("repro_http_request_seconds_bucket")
                    and 'endpoint="stats"' in name
                ]
                values = [v for _, v in buckets]
                assert values == sorted(values)  # cumulative => monotone
                inf = series[
                    'repro_http_request_seconds_bucket{endpoint="stats",le="+Inf"}'
                ]
                count = series[
                    'repro_http_request_seconds_count{endpoint="stats"}'
                ]
                assert inf == count == 5

        run(scenario())

    def test_scrapes_counted_but_excluded_from_latency(self, fig4_artifact):
        async def scenario():
            async with make_server(fig4_artifact) as server:
                for _ in range(3):
                    await raw_http(server.port, "GET", "/metrics")
                _, _, body = await raw_http(
                    server.port, "GET", "/metrics?format=prometheus"
                )
                text = body.decode()
                series = parse_prometheus(text)
                # Scrapes count as requests (the 4th — this prometheus one —
                # is still in flight while its own body is rendered, so the
                # completed-request family shows the 3 JSON scrapes) ...
                assert series[
                    'repro_http_requests_total{endpoint="metrics",dataset=""}'
                ] == 3
                # ... but never enter the latency histogram.
                assert 'repro_http_request_seconds_count{endpoint="metrics"}' not in series
                # The in-flight total counts all 4 at scrape time.
                assert series["repro_server_requests_total"] == 4

        run(scenario())

    def test_trace_id_header_echoed_and_generated(self, fig4_artifact):
        async def scenario():
            async with make_server(fig4_artifact) as server:
                # Well-formed client ids (lowercase hex, <= 64 chars) are
                # adopted and echoed back.
                _, hdrs, _ = await raw_http(
                    server.port, "GET", "/fig4/stats",
                    headers={"X-Trace-Id": "c11e47c405e4"},
                )
                assert hdrs["x-trace-id"] == "c11e47c405e4"
                _, hdrs, _ = await raw_http(server.port, "GET", "/fig4/stats")
                generated = hdrs["x-trace-id"]
                assert generated and generated != "c11e47c405e4"

        run(scenario())

    def test_trace_id_header_validated_before_echo(self, fig4_artifact):
        async def scenario():
            async with make_server(fig4_artifact) as server:
                # Non-hex, overlong or otherwise malformed ids are never
                # echoed back (response-header injection hygiene); the
                # server mints a fresh id instead.
                for bad in ("client-chosen", "ABCDEF", "a" * 65, "x" * 9000):
                    _, hdrs, _ = await raw_http(
                        server.port, "GET", "/fig4/stats",
                        headers={"X-Trace-Id": bad},
                    )
                    minted = hdrs["x-trace-id"]
                    assert minted != bad
                    assert re.fullmatch(r"[0-9a-f]{16}", minted)

        run(scenario())

    def test_slow_query_log_fires_past_threshold(self, fig4_artifact):
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        handler = Capture()
        logger = obs_log.slow_query_logger()
        logger.addHandler(handler)
        try:
            async def scenario():
                # Threshold 0: every non-scrape request is "slow".
                async with make_server(fig4_artifact, slow_query_s=0.0) as server:
                    await raw_http(
                        server.port, "GET", "/fig4/stats",
                        headers={"X-Trace-Id": "510fabe1"},
                    )
                    await raw_http(server.port, "GET", "/metrics")

            run(scenario())
        finally:
            logger.removeHandler(handler)

        (record,) = records  # the scrape must not log
        assert record.levelno == logging.WARNING
        assert record.endpoint == "stats"
        assert record.dataset == "fig4"
        assert record.trace_id == "510fabe1"
        assert "slow query" in record.getMessage()

    def test_no_slow_log_when_disabled(self, fig4_artifact):
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        handler = Capture()
        logger = obs_log.slow_query_logger()
        logger.addHandler(handler)
        try:
            async def scenario():
                async with make_server(fig4_artifact) as server:  # no threshold
                    await raw_http(server.port, "GET", "/fig4/stats")

            run(scenario())
        finally:
            logger.removeHandler(handler)
        assert records == []

    def test_profile_block_present_only_when_enabled(self, fig4_artifact):
        async def scenario():
            async with make_server(fig4_artifact) as server:
                _, _, body = await raw_http(server.port, "GET", "/metrics")
                assert "profile" not in json.loads(body)
                obs_spans.enable_profiling(True)
                await raw_http(server.port, "GET", "/fig4/stats")
                _, _, body = await raw_http(server.port, "GET", "/metrics")
                payload = json.loads(body)
                assert payload["profile"]["name"] == "total"

        run(scenario())


    def test_profile_tree_nests_requests_down_to_queries(self, fig4_artifact):
        """Concurrent requests: every engine batch sits under the request
        whose fold opened its flush, and the tree counts every flush once."""
        obs_spans.enable_profiling(True)
        targets = [
            "/fig4/stats",
            "/fig4/histogram",
            "/fig4/max_k?upper=0",
            "/fig4/community?k=1&upper=0",
        ] * 4

        async def scenario():
            async with make_server(fig4_artifact) as server:
                await asyncio.gather(
                    *(raw_http(server.port, "GET", t) for t in targets)
                )
                _, _, body = await raw_http(server.port, "GET", "/metrics")
                return json.loads(body)

        payload = run(scenario())
        batches = 0

        def walk(node, path):
            nonlocal batches
            for child in node["children"]:
                here = path + (child["name"],)
                if child["name"] == "engine batch":
                    assert here[0].startswith("GET /fig4/"), here
                    assert here[1:] == (
                        "coalescer fold", "coalescer flush", "engine batch"
                    ), here
                    assert child["children"] and all(
                        q["name"].startswith("query:") for q in child["children"]
                    )
                    batches += child["count"]
                walk(child, here)

        walk(payload["profile"], ())
        assert batches == payload["coalescer"]["flushes"] > 0

    def test_unframeable_requests_are_counted_per_endpoint(self, fig4_artifact):
        """Requests rejected before routing land in the labelled families."""
        unframeable = (
            b"GARBAGE\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nContent-Length: many\r\n\r\n",
            b"POST /fig4/batch HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
        )

        async def scenario():
            async with make_server(fig4_artifact) as server:
                statuses = [
                    (await raw_exchange(server.port, data))[0]
                    for data in unframeable
                ]
                assert statuses == [400, 400, 413]
                _, _, body = await raw_http(
                    server.port, "GET", "/metrics?format=prometheus"
                )
                series = parse_prometheus(body.decode())
                assert series[
                    'repro_http_requests_total{endpoint="other",dataset=""}'
                ] == 3
                assert series['repro_http_errors_total{endpoint="other"}'] == 3
                _, _, body = await raw_http(server.port, "GET", "/metrics")
                srv = json.loads(body)["server"]
                assert srv["by_endpoint"]["other"] == 3
                assert srv["errors_total"] == 3

        run(scenario())

    def test_server_totals_equal_labelled_family_sums(self, fig4_artifact):
        async def scenario():
            async with make_mutable_server(fig4_artifact) as server:
                return await drive_golden_script(server.port)

        series = parse_prometheus(run(scenario()))
        assert series["repro_server_requests_total"] == (
            family_sum(series, "repro_http_requests_total")
            + series["repro_server_active_requests"]
        )
        assert series["repro_server_errors_total"] == family_sum(
            series, "repro_http_errors_total"
        )
        assert family_sum(series, "repro_http_errors_total") == 3

    def test_exposition_matches_recorded_golden(self, fig4_artifact):
        """Every family, its type and labels, and every count value of a
        fixed request script stay as recorded."""

        async def scenario():
            async with make_mutable_server(fig4_artifact) as server:
                return await drive_golden_script(server.port)

        assert exposition_digest(run(scenario())) == SERVER_GOLDEN.read_text()

    def test_docs_catalog_lists_exactly_the_scraped_families(self, fig4_artifact):
        """The catalog in docs/observability.md names every family a
        mutable server exposes after a patch and both fallback kinds, and
        no other."""

        async def scenario():
            async with make_mutable_server(fig4_artifact) as server:
                port = server.port
                assert await post_edges(port, "insert", 0, 2) == "incremental"
                # Below the region a search needs: the search aborts.
                server.updates.rebuild_threshold = 0.15
                assert await post_edges(port, "insert", 1, 4) == "scheduled"
                await server.updates.wait_idle()
                # The predictor skips the search outright.
                assert await post_edges(port, "delete", 0, 0) == "scheduled"
                await server.updates.wait_idle()
                await raw_http(port, "GET", "/fig4/stats")
                _, _, body = await raw_http(
                    port, "GET", "/metrics?format=prometheus"
                )
                return body.decode()

        scraped = {
            line.split(" ")[2]
            for line in run(scenario()).splitlines()
            if line.startswith("# TYPE ")
        }
        catalog = set(
            re.findall(
                r"^\| `(repro_\w+)` \|",
                DOCS.read_text().split("### Metric catalog")[1].split("\n## ")[0],
                re.MULTILINE,
            )
        )
        assert sorted(scraped - catalog) == []
        assert sorted(catalog - scraped) == []


    def test_repair_outcomes_are_counted_per_server(self, fig4_artifact):
        """Two mutable servers in one process: a budget abort and a
        predicted fallback on one show in its own scrape only."""

        async def scenario():
            async with make_mutable_server(fig4_artifact) as hit, \
                    make_mutable_server(build_artifact(
                        paper_figure4_graph(), algorithm="bit-bu-csr"
                    )) as quiet:
                hit.updates.rebuild_threshold = 0.15
                assert await post_edges(hit.port, "insert", 1, 4) == "scheduled"
                await hit.updates.wait_idle()
                assert await post_edges(hit.port, "delete", 0, 0) == "scheduled"
                await hit.updates.wait_idle()
                scrapes = []
                for server in (hit, quiet):
                    _, _, body = await raw_http(
                        server.port, "GET", "/metrics?format=prometheus"
                    )
                    scrapes.append(parse_prometheus(body.decode()))
                return scrapes

        hit, quiet = run(scenario())
        aborts = 'repro_incremental_budget_aborts_total{dataset="fig4"}'
        predicted = 'repro_updates_predicted_fallbacks_total{dataset="fig4"}'
        assert hit[aborts] == 1 and hit[predicted] == 1
        assert hit['repro_incremental_predictor_misses_total{dataset="fig4"}'] == 1
        for family in (
            "repro_incremental_budget_aborts_total",
            "repro_incremental_predictor_hits_total",
            "repro_incremental_predictor_misses_total",
            "repro_updates_predicted_fallbacks_total",
        ):
            assert family_sum(quiet, family) == 0, family


SERVER_GOLDEN = Path(__file__).parent / "data" / "server_exposition_golden.txt"
DOCS = Path(__file__).parents[1] / "docs" / "observability.md"


def make_mutable_server(artifact, **kwargs):
    """A server whose fig4 accepts writes; a 1.0 threshold patches them."""
    registry = ArtifactRegistry()
    registry.register("fig4", artifact, allow_stale=True)
    updates = UpdateManager(registry, debounce=0.01, rebuild_threshold=1.0)
    updates.attach("fig4")
    return BitrussServer(registry, port=0, updates=updates, **kwargs)


async def raw_exchange(port, data):
    """Send ``data`` as-is on a fresh connection; return (status, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(data)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    return int(raw.split(b" ", 2)[1]), raw.partition(b"\r\n\r\n")[2]


async def post_edges(port, op, u, v):
    """POST one edge op; return the ``rebuild`` mode of the answer."""
    body = json.dumps({"ops": [{"op": op, "u": u, "v": v}]}).encode()
    _, answer = await raw_exchange(
        port,
        b"POST /fig4/edges HTTP/1.1\r\nConnection: close\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
    )
    return json.loads(answer)["rebuild"]


async def drive_golden_script(port):
    """Queries, a 404, a 405, an unframeable request, an incremental patch
    and a query after it; returns the closing Prometheus scrape."""
    for target in ("/fig4/stats", "/fig4/stats", "/fig4/community?k=1&upper=0"):
        assert (await raw_http(port, "GET", target))[0] == 200
    assert (await raw_http(port, "GET", "/nope"))[0] == 404
    assert (await raw_http(port, "POST", "/fig4/stats"))[0] == 405
    assert (await raw_exchange(port, b"GARBAGE\r\n\r\n"))[0] == 400
    assert await post_edges(port, "insert", 0, 2) == "incremental"
    assert (await raw_http(port, "GET", "/fig4/max_k?upper=0"))[0] == 200
    _, _, body = await raw_http(port, "GET", "/metrics?format=prometheus")
    return body.decode()


def family_sum(series, family):
    """Sum of every series of one counter or gauge family."""
    return sum(
        value
        for name, value in series.items()
        if name == family or name.startswith(family + "{")
    )


#: Run-dependent series the golden digest leaves out.
_UNPINNED = ("repro_process_uptime_seconds", "repro_process_start_time_seconds")


def exposition_digest(text):
    """Each family's name, type and label names, then its count series.

    Counter and gauge series keep their values; a histogram keeps only
    its ``_count`` series.  Latency sums, buckets, uptime and start time
    vary from run to run and are left out.
    """
    kinds, label_names, samples = {}, {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            kinds[name] = kind
            label_names[name] = []
            samples[name] = []
        elif line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            name = series.partition("{")[0]
            family = name if name in kinds else name.rpartition("_")[0]
            for label in re.findall(r'(\w+)="(?:[^"\\]|\\.)*"', series):
                if label != "le" and label not in label_names[family]:
                    label_names[family].append(label)
            pinned = (
                name.endswith("_count")
                if kinds[family] == "histogram"
                else family not in _UNPINNED
            )
            if pinned:
                samples[family].append(f"  {series} {value}")
    out = []
    for family in sorted(kinds):
        out.append(f"{family} {kinds[family]} ({','.join(label_names[family])})")
        out.extend(samples[family])
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------- CLI


#: `decompose --dataset github --profile` tree per algorithm: {name path: count}.
PROFILE_SHAPES = {
    "bit-bu-csr": {
        ("load graph",): 1,
        ("index construction",): 1,
        ("index construction", "bloom discovery"): 1,
        ("index construction", "assemble"): 1,
        ("peeling",): 1,
        ("peeling", "frontier refill"): 1,
        ("peeling", "batch updates"): 240,
        ("hierarchy",): 1,
    },
    "bit-bu++": {
        ("load graph",): 1,
        ("index construction",): 1,
        ("peeling",): 1,
        ("hierarchy",): 1,
    },
    "bit-pc": {
        ("load graph",): 1,
        ("counting",): 1,
        ("counting", "butterfly counting"): 1,
        ("candidate extraction",): 47,
        ("candidate extraction", "butterfly counting"): 188,
        ("index construction",): 47,
        ("peeling",): 47,
        ("hierarchy",): 1,
    },
    "bit-bs": {
        ("load graph",): 1,
        ("counting",): 1,
        ("counting", "butterfly counting"): 1,
        ("peeling",): 1,
        ("hierarchy",): 1,
    },
}


class TestCliObservability:
    def test_decompose_quiet_json_profile(self, capsys):
        from repro.cli import main

        assert main(
            ["decompose", "--dataset", "marvel", "--json", "--quiet", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # --quiet leaves pure JSON on stdout
        profile = payload["profile"]
        assert profile["wall_seconds"] > 0
        names = [c["name"] for c in profile["tree"]["children"]]
        assert "load graph" in names
        assert "peeling" in names
        leaves = obs_spans.leaf_seconds(profile["tree"])
        assert 0 < leaves <= profile["wall_seconds"] * 1.05

    def test_decompose_narrates_without_quiet(self, capsys):
        from repro.cli import main

        assert main(["decompose", "--dataset", "marvel"]) == 0
        out = capsys.readouterr().out
        assert "max bitruss number" in out

    def test_query_json_payload(self, capsys, tmp_path):
        from repro.cli import main

        artifact = tmp_path / "fig4.npz"
        assert main(
            ["index", "--dataset", "marvel", "--output", str(artifact), "--quiet"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["query", str(artifact), "--json", "--quiet", "histogram"]
        ) == 0
        histogram = json.loads(capsys.readouterr().out)
        assert histogram and all(int(v) > 0 for v in histogram.values())

    def test_stats_profile_file_mode(self, capsys, tmp_path):
        from repro.cli import main

        assert main(
            ["decompose", "--dataset", "marvel", "--json", "--quiet", "--profile"]
        ) == 0
        payload = capsys.readouterr().out
        saved = tmp_path / "run.json"
        saved.write_text(payload)
        obs_spans.enable_profiling(False)

        assert main(["stats", "--profile", str(saved)]) == 0
        out = capsys.readouterr().out
        assert "wall time:" in out
        assert "leaf coverage:" in out
        assert "peeling" in out

    def test_stats_profile_rejects_profileless_json(self, tmp_path):
        from repro.cli import main

        saved = tmp_path / "plain.json"
        saved.write_text(json.dumps({"max_k": 4}))
        with pytest.raises(SystemExit, match="no phase tree"):
            main(["stats", "--profile", str(saved)])

    @pytest.mark.parametrize("algorithm", sorted(PROFILE_SHAPES))
    def test_decompose_profile_tree_shape(self, capsys, algorithm):
        """The paper's phase split on github, node paths and counts pinned."""
        from repro.cli import main

        assert main([
            "decompose", "--dataset", "github", "--algorithm", algorithm,
            "--profile", "--json", "--quiet",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        shape = PROFILE_SHAPES[algorithm]
        assert tree_paths(payload["profile"]["tree"]) == shape
        assert set(payload["timings"]) == {
            path[0] for path in shape if path[0] not in ("load graph", "hierarchy")
        }
