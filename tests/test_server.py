"""repro.server: routing, parity, coalescing, hot-swap, error paths."""

import asyncio
import json

import numpy as np
import pytest

from repro.datasets import dataset_names, load_dataset
from repro.graph.generators import paper_figure4_graph
from repro.server import (
    ArtifactRegistry,
    BitrussServer,
    QueryCoalescer,
    UnknownDatasetError,
    UpdateManager,
    jsonify,
)
from repro.service import QueryEngine, build_artifact

ALGORITHM = "bit-bu-csr"


def run(coro):
    return asyncio.run(coro)


async def http(port, method, target, body=None):
    """One HTTP exchange against a local server; returns (status, json)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = b"" if body is None else json.dumps(body).encode()
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode() + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    header, _, body = raw.partition(b"\r\n\r\n")
    return int(header.split()[1]), json.loads(body)


@pytest.fixture(scope="module")
def fig4_artifact():
    return build_artifact(paper_figure4_graph(), algorithm=ALGORITHM)


def make_server(artifacts, *, mutable=(), incremental=True, **kwargs):
    """Registry + server over {name: artifact}; caller starts/stops it."""
    registry = ArtifactRegistry()
    for name, artifact in artifacts.items():
        registry.register(name, artifact, allow_stale=name in mutable)
    updates = None
    if mutable:
        updates = UpdateManager(
            registry,
            debounce=kwargs.pop("debounce", 0.05),
            incremental=incremental,
        )
        for name in mutable:
            updates.attach(name)
    return BitrussServer(registry, port=0, updates=updates, **kwargs)


# ------------------------------------------------------------------ routing


class TestRouting:
    def test_index_health_datasets(self, fig4_artifact):
        async def scenario():
            async with make_server({"fig4": fig4_artifact}) as server:
                status, index = await http(server.port, "GET", "/")
                assert status == 200
                assert "/{ds}/community?k=&upper=|lower=" in index["endpoints"]

                status, health = await http(server.port, "GET", "/healthz")
                assert (status, health["status"]) == (200, "ok")
                assert health["datasets"] == 1

                status, listing = await http(server.port, "GET", "/datasets")
                assert status == 200
                (entry,) = listing
                assert entry["name"] == "fig4"
                assert entry["version"] == 1
                assert entry["mutable"] is False
                assert entry["num_edges"] == fig4_artifact.graph.num_edges

        run(scenario())

    def test_unknown_dataset_and_route_are_structured_404s(self, fig4_artifact):
        async def scenario():
            async with make_server({"fig4": fig4_artifact}) as server:
                status, body = await http(server.port, "GET", "/nope/stats")
                assert status == 404
                assert body["error"]["type"] == "unknown_dataset"
                assert "fig4" in body["error"]["message"]

                status, body = await http(server.port, "GET", "/fig4/frobnicate")
                assert status == 404
                assert body["error"]["type"] == "unknown_route"

                status, body = await http(server.port, "GET", "/a/b/c")
                assert status == 404

        run(scenario())

    def test_method_not_allowed(self, fig4_artifact):
        async def scenario():
            async with make_server({"fig4": fig4_artifact}) as server:
                status, body = await http(server.port, "POST", "/fig4/stats")
                assert status == 405
                assert body["error"]["type"] == "method_not_allowed"

                status, body = await http(server.port, "GET", "/fig4/batch")
                assert status == 405

        run(scenario())

    def test_keep_alive_serves_multiple_requests_per_connection(
        self, fig4_artifact
    ):
        async def scenario():
            async with make_server({"fig4": fig4_artifact}) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                try:
                    for _ in range(3):
                        writer.write(
                            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                        )
                        await writer.drain()
                        header = await reader.readuntil(b"\r\n\r\n")
                        length = int(
                            [
                                line.split(b":")[1]
                                for line in header.split(b"\r\n")
                                if line.lower().startswith(b"content-length")
                            ][0]
                        )
                        body = await reader.readexactly(length)
                        assert json.loads(body)["status"] == "ok"
                finally:
                    writer.close()

        run(scenario())


# -------------------------------------------------------------- bad queries


class TestErrorPaths:
    @pytest.mark.parametrize(
        "target, kind",
        [
            ("/fig4/community?upper=0", "bad_parameter"),  # k missing
            ("/fig4/community?k=oops&upper=0", "bad_parameter"),
            ("/fig4/community?k=-1&upper=0", "bad_parameter"),
            ("/fig4/community?k=2", "bad_parameter"),  # no vertex
            ("/fig4/community?k=2&upper=0&lower=0", "bad_parameter"),
            ("/fig4/community?k=2&upper=99999", "bad_parameter"),
            ("/fig4/max_k?lower=99999", "bad_parameter"),
            ("/fig4/hierarchy_path", "bad_parameter"),  # no edge/eid
            ("/fig4/hierarchy_path?u=3", "bad_parameter"),  # v missing
            ("/fig4/hierarchy_path?eid=99999", "bad_parameter"),
            ("/fig4/hierarchy_path?u=0&v=99", "unknown_edge"),
        ],
    )
    def test_malformed_query_params(self, fig4_artifact, target, kind):
        async def scenario():
            async with make_server({"fig4": fig4_artifact}) as server:
                status, body = await http(server.port, "GET", target)
                assert status in (400, 404)
                assert body["error"]["type"] == kind

        run(scenario())

    def test_batch_body_validation(self, fig4_artifact):
        async def scenario():
            async with make_server({"fig4": fig4_artifact}) as server:
                cases = [
                    (None, "bad_json"),
                    ({"queries": []}, "bad_query"),
                    ([{"op": "warp"}], "unknown_op"),
                    ([{"op": "stats", "bogus": 1}], "bad_query"),
                    (["not-a-dict"], "bad_query"),
                ]
                for payload, kind in cases:
                    status, body = await http(
                        server.port, "POST", "/fig4/batch", payload
                    )
                    assert status == 400, (payload, body)
                    assert body["error"]["type"] == kind

        run(scenario())

    def test_unframeable_requests_get_an_error_response_not_a_hangup(
        self, fig4_artifact
    ):
        """Bad request lines and bad/huge Content-Length answer 400/413
        before the connection closes, instead of silently dropping it."""

        async def raw_exchange(port, payload):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(payload)
                await writer.drain()
                raw = await reader.read()
            finally:
                writer.close()
            header, _, body = raw.partition(b"\r\n\r\n")
            return int(header.split()[1]), json.loads(body)

        async def scenario():
            async with make_server({"fig4": fig4_artifact}) as server:
                status, body = await raw_exchange(server.port, b"garbage\r\n\r\n")
                assert status == 400
                assert body["error"]["type"] == "bad_request_line"

                status, body = await raw_exchange(
                    server.port,
                    b"POST /fig4/batch HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: abc\r\n\r\n",
                )
                assert status == 400
                assert body["error"]["type"] == "bad_header"

                status, body = await raw_exchange(
                    server.port,
                    b"POST /fig4/batch HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 99999999999\r\n\r\n",
                )
                assert status == 413
                assert body["error"]["type"] == "payload_too_large"

                status, body = await raw_exchange(
                    server.port,
                    b"GET /fig4/stats?pad=" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n",
                )
                assert status == 400
                assert body["error"]["type"] == "line_too_long"

                status, body = await raw_exchange(
                    server.port,
                    b"GET /healthz HTTP/1.1\r\n"
                    + b"".join(
                        b"X-H%d: y\r\n" % i for i in range(200)
                    )
                    + b"\r\n",
                )
                assert status == 400
                assert body["error"]["type"] == "too_many_headers"

        run(scenario())

    def test_invalid_query_cannot_poison_a_shared_batch(self, fig4_artifact):
        """A 400 is decided before entering the window: concurrent good
        requests coalesced in the same window still answer 200."""

        async def scenario():
            async with make_server(
                {"fig4": fig4_artifact}, window=0.05
            ) as server:
                good = [
                    http(server.port, "GET", "/fig4/stats") for _ in range(4)
                ]
                bad = http(server.port, "GET", "/fig4/community?k=2&upper=9999")
                results = await asyncio.gather(bad, *good)
                assert results[0][0] == 400
                assert all(status == 200 for status, _ in results[1:])

        run(scenario())


# ------------------------------------------------------------------- parity


class TestParity:
    def test_http_matches_engine_on_every_bundled_dataset(self):
        """Acceptance bar: HTTP responses are value-identical to direct
        QueryEngine calls on all bundled datasets."""

        async def scenario():
            artifacts = {
                name: build_artifact(load_dataset(name), algorithm=ALGORITHM)
                for name in dataset_names()
            }
            engines = {
                name: QueryEngine(artifact)
                for name, artifact in artifacts.items()
            }
            async with make_server(artifacts) as server:
                for name, engine in engines.items():
                    k = max(2, artifacts[name].max_k // 2)
                    expectations = {
                        f"/{name}/stats": engine.stats(),
                        f"/{name}/histogram": engine.phi_histogram(),
                        f"/{name}/community?k={k}&upper=0": engine.community(
                            k, upper=0
                        ),
                        f"/{name}/max_k?lower=0": engine.max_k(lower=0),
                        f"/{name}/hierarchy_path?eid=0": engine.hierarchy_path(
                            eid=0
                        ),
                    }
                    for target, direct in expectations.items():
                        status, body = await http(server.port, "GET", target)
                        assert status == 200, (target, body)
                        assert body["result"] == jsonify(direct), target

        run(scenario())

    def test_batch_endpoint_matches_engine_batch(self, fig4_artifact):
        async def scenario():
            engine = QueryEngine(fig4_artifact)
            queries = [
                {"op": "k_bitruss", "k": 2},
                {"op": "community", "k": 2, "upper": 0},
                {"op": "max_k", "lower": 1},
                {"op": "hierarchy_path", "edge": [0, 0]},
                {"op": "phi_histogram"},
                {"op": "stats"},
                {"op": "phi_of", "u": 0, "v": 0},
            ]
            direct = [jsonify(r) for r in engine.batch(list(queries))]
            async with make_server({"fig4": fig4_artifact}) as server:
                status, body = await http(
                    server.port, "POST", "/fig4/batch", {"queries": queries}
                )
                assert status == 200
                assert body["results"] == direct
                # A bare JSON list works too.
                status, body = await http(
                    server.port, "POST", "/fig4/batch", queries
                )
                assert status == 200
                assert body["results"] == direct

        run(scenario())


# --------------------------------------------------------------- coalescing


class TestCoalescing:
    def test_identical_concurrent_requests_share_one_computation(self):
        """N identical in-window requests cost ~1 engine miss, not N."""

        async def scenario():
            artifact = build_artifact(
                load_dataset("github"), algorithm=ALGORITHM
            )
            registry = ArtifactRegistry(cache_size=0)  # every call = a miss
            registry.register("github", artifact, cache_size=0)
            server = BitrussServer(registry, port=0, window=0.05)
            async with server:
                n = 24
                results = await asyncio.gather(
                    *[
                        http(server.port, "GET", "/github/community?k=4&upper=0")
                        for _ in range(n)
                    ]
                )
                bodies = {json.dumps(body, sort_keys=True) for _, body in results}
                assert all(status == 200 for status, _ in results)
                assert len(bodies) == 1  # byte-identical shared answer
                stats = server.coalescer.stats()
                assert stats["submitted"] == n
                assert stats["merged"] >= n - 2
                misses = registry.get("github").engine.cache_info()["misses"]
                assert misses <= 2, f"expected ~1 engine call, saw {misses}"

        run(scenario())

    def test_window_folds_distinct_queries_into_one_engine_batch(
        self, fig4_artifact
    ):
        async def scenario():
            async with make_server(
                {"fig4": fig4_artifact}, window=0.05
            ) as server:
                entry = server.registry.get("fig4")
                calls = []
                original = entry.engine.batch

                def counting_batch(queries):
                    calls.append(list(queries))
                    return original(queries)

                entry.engine.batch = counting_batch
                targets = [
                    "/fig4/stats",
                    "/fig4/histogram",
                    "/fig4/max_k?upper=0",
                    "/fig4/community?k=2&upper=0",
                ]
                results = await asyncio.gather(
                    *[http(server.port, "GET", t) for t in targets]
                )
                assert all(status == 200 for status, _ in results)
                assert len(calls) == 1, "window should fold into one batch"
                assert len(calls[0]) == len(targets)
                assert server.coalescer.stats()["flushes"] == 1

        run(scenario())

    def test_coalescer_failure_reaches_every_waiter(self):
        async def scenario():
            coalescer = QueryCoalescer(window=0.01)

            async def failing_runner(queries):
                raise RuntimeError("engine exploded")

            waiters = [
                coalescer.submit("ds", [{"op": "stats"}], failing_runner)
                for _ in range(3)
            ]
            results = await asyncio.gather(*waiters, return_exceptions=True)
            assert all(
                isinstance(r, RuntimeError) and "exploded" in str(r)
                for r in results
            )
            # The failed batch is fully retired: a later submit starts fresh.
            async def ok_runner(queries):
                return [42], 1

            shared = await coalescer.submit("ds", [{"op": "stats"}], ok_runner)
            assert shared.values == [42]

        run(scenario())

    def test_max_batch_flushes_early(self):
        async def scenario():
            coalescer = QueryCoalescer(window=60.0, max_batch=3)

            async def runner(queries):
                return [f"r{i}" for i in range(len(queries))], 7

            shared = await asyncio.gather(
                *[
                    coalescer.submit("ds", [{"op": "max_k", "upper": i}], runner)
                    for i in range(3)
                ]
            )
            # A 60 s window would have hung; max_batch=3 flushed at once.
            assert [s.values for s in shared] == [["r0"], ["r1"], ["r2"]]
            assert all(s.version == 7 for s in shared)

        run(scenario())


# ----------------------------------------------------------------- registry


class TestRegistry:
    def test_register_swap_versions_and_leases(self, fig4_artifact):
        registry = ArtifactRegistry()
        entry = registry.register("fig4", fig4_artifact)
        assert entry.version == 1 and entry.swaps == 0

        with registry.acquire("fig4") as lease:
            old_engine = lease.engine
            assert entry.active_on(1) == 1
            swapped = registry.swap("fig4", fig4_artifact)
            assert swapped is entry
            assert entry.version == 2 and entry.swaps == 1
            # The in-flight lease still points at the engine it pinned.
            assert lease.engine is old_engine
            assert entry.engine is not old_engine
        assert entry.active == 0

        with registry.acquire("fig4") as lease:
            assert lease.version == 2
            assert lease.engine is entry.engine

    def test_invalid_and_duplicate_names_rejected(self, fig4_artifact):
        registry = ArtifactRegistry()
        for bad in ("", "metrics", "healthz", "datasets", "a/b"):
            with pytest.raises(ValueError):
                registry.register(bad, fig4_artifact)
        registry.register("fig4", fig4_artifact)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("fig4", fig4_artifact)
        with pytest.raises(UnknownDatasetError):
            registry.get("missing")

    def test_metrics_surface_cache_info(self, fig4_artifact):
        registry = ArtifactRegistry()
        registry.register("fig4", fig4_artifact)
        engine = registry.get("fig4").engine
        engine.k_bitruss(2)
        engine.k_bitruss(2)
        metrics = registry.metrics()["fig4"]
        assert metrics["cache"] == engine.cache_info()
        assert metrics["cache"]["hits"] == 1
        assert metrics["cache"]["misses"] == 1
        assert metrics["version"] == 1


# ------------------------------------------------------- updates + hot swap


class TestUpdatesAndHotSwap:
    def test_edge_mutation_round_trip(self):
        """POST /edges → debounced rebuild → hot-swap, end to end.

        Pinned to the full-rebuild path (incremental=False): the debounced
        rebuild machinery stays the fallback for large regions and must
        keep working end to end.
        """

        async def scenario():
            artifact = build_artifact(paper_figure4_graph(), algorithm=ALGORITHM)
            server = make_server(
                {"fig4": artifact},
                mutable={"fig4"},
                debounce=0.02,
                incremental=False,
            )
            async with server:
                port = server.port
                _, before = await http(port, "GET", "/fig4/stats")
                assert before["version"] == 1

                status, body = await http(
                    port,
                    "POST",
                    "/fig4/edges",
                    {"ops": [{"op": "insert", "u": 0, "v": 3}]},
                )
                assert status == 200
                assert body["applied"] == 1
                assert body["rebuild"] == "scheduled"

                # Until the rebuild lands the old phi keeps serving
                # (allow_stale) and the dataset advertises its staleness.
                _, listing = await http(port, "GET", "/datasets")
                assert listing[0]["stale"] is True

                await server.updates.wait_idle()
                status, after = await http(port, "GET", "/fig4/stats")
                assert status == 200
                assert after["version"] == 2
                assert (
                    after["result"]["num_edges"]
                    == before["result"]["num_edges"] + 1
                )
                # The swapped-in answer matches an offline rebuild exactly.
                dynamic = server.updates.dynamic("fig4")
                fresh = QueryEngine(
                    build_artifact(dynamic.snapshot(), algorithm=ALGORITHM)
                )
                assert after["result"]["max_k"] == fresh.stats()["max_k"]
                _, hist = await http(port, "GET", "/fig4/histogram")
                assert hist["result"] == jsonify(fresh.phi_histogram())
                _, listing = await http(port, "GET", "/datasets")
                assert listing[0]["stale"] is False

        run(scenario())

    def test_write_burst_leaves_no_open_trace(self):
        """A rebuild scheduled by a write request runs outside its trace,
        so the request's finished trace is never reopened."""
        from repro.obs import spans as obs_spans

        recorder = obs_spans.get_recorder()
        recorder.reset()

        async def scenario():
            artifact = build_artifact(paper_figure4_graph(), algorithm=ALGORITHM)
            server = make_server(
                {"fig4": artifact},
                mutable={"fig4"},
                debounce=0.01,
                incremental=False,
            )
            async with server:
                for op in ["insert", "delete", "insert", "delete"]:
                    status, body = await http(
                        server.port,
                        "POST",
                        "/fig4/edges",
                        {"ops": [{"op": op, "u": 0, "v": 3}]},
                    )
                    assert status == 200 and body["rebuild"] == "scheduled"
                    await asyncio.sleep(0.02)  # let some rebuilds land
                await server.updates.wait_idle()
                return server.updates.stats()["fig4"]

        stats = run(scenario())
        assert stats["rebuilds"] >= 1
        assert recorder.stats()["open_traces"] == 0
        recorder.reset()

    def test_hot_swap_drops_no_inflight_requests(self):
        """Requests leased on the old engine finish correctly while the
        swap lands; later requests see the new version."""

        async def scenario():
            artifact = build_artifact(
                load_dataset("github"), algorithm=ALGORITHM
            )
            server = make_server(
                {"github": artifact}, mutable={"github"}, debounce=0.0
            )
            async with server:
                port = server.port
                entry = server.registry.get("github")

                # Make every engine call slow enough that the rebuild +
                # swap happens while reads are in flight.
                import time as _time

                original = entry.engine.batch

                def slow_batch(queries):
                    _time.sleep(0.05)
                    return original(queries)

                entry.engine.batch = slow_batch

                reads = [
                    asyncio.create_task(
                        http(port, "GET", "/github/max_k?upper=0")
                    )
                    for _ in range(8)
                ]
                await asyncio.sleep(0.01)  # reads are leased and computing
                status, _ = await http(
                    port,
                    "POST",
                    "/github/edges",
                    {"ops": [{"op": "insert", "u": 0, "v": 1}]},
                )
                assert status == 200
                results = await asyncio.gather(*reads)
                assert all(status == 200 for status, _ in results)
                answers = {body["result"] for _, body in results}
                assert len(answers) == 1  # identical answers, no torn reads

                await server.updates.wait_idle()
                assert entry.version == 2
                assert entry.active == 0  # every lease was returned
                status, after = await http(port, "GET", "/github/max_k?upper=0")
                assert status == 200 and after["version"] == 2

        run(scenario())

    def test_mutation_burst_debounces_into_few_rebuilds(self):
        async def scenario():
            artifact = build_artifact(paper_figure4_graph(), algorithm=ALGORITHM)
            server = make_server(
                {"fig4": artifact},
                mutable={"fig4"},
                debounce=0.05,
                incremental=False,
            )
            async with server:
                for v in (2, 3, 4):
                    status, _ = await http(
                        server.port,
                        "POST",
                        "/fig4/edges",
                        {"ops": [{"op": "insert", "u": 1, "v": v}]},
                    )
                    assert status == 200
                status, _ = await http(
                    server.port,
                    "POST",
                    "/fig4/edges",
                    {"ops": [{"op": "delete", "u": 1, "v": 4}]},
                )
                assert status == 200
                await server.updates.wait_idle()
                stats = server.updates.stats()["fig4"]
                assert stats["mutations"] == 4
                assert stats["rebuilds"] <= 2  # burst collapsed, not 4 rebuilds
                assert server.registry.get("fig4").version == 1 + stats["rebuilds"]

        run(scenario())

    def test_failed_rebuild_is_surfaced_and_next_mutation_retries(self):
        async def scenario():
            artifact = build_artifact(paper_figure4_graph(), algorithm=ALGORITHM)
            server = make_server(
                {"fig4": artifact},
                mutable={"fig4"},
                debounce=0.01,
                incremental=False,
            )
            async with server:
                updates = server.updates
                dynamic = updates.dynamic("fig4")
                original_rebuild = dynamic.rebuild

                def exploding_rebuild(*args, **kwargs):
                    raise RuntimeError("decomposition backend down")

                dynamic.rebuild = exploding_rebuild
                status, _ = await http(
                    server.port,
                    "POST",
                    "/fig4/edges",
                    {"ops": [{"op": "insert", "u": 0, "v": 3}]},
                )
                assert status == 200
                await updates.wait_idle()
                stats = updates.stats()["fig4"]
                assert stats["rebuild_errors"] == 1
                assert "decomposition backend down" in stats["last_error"]
                assert server.registry.get("fig4").version == 1
                # Reads keep flowing (allow_stale) and advertise staleness.
                status, _ = await http(server.port, "GET", "/fig4/stats")
                assert status == 200
                _, listing = await http(server.port, "GET", "/datasets")
                assert listing[0]["stale"] is True

                # The next mutation schedules a fresh attempt that succeeds.
                dynamic.rebuild = original_rebuild
                status, _ = await http(
                    server.port,
                    "POST",
                    "/fig4/edges",
                    {"ops": [{"op": "insert", "u": 1, "v": 3}]},
                )
                assert status == 200
                await updates.wait_idle()
                stats = updates.stats()["fig4"]
                assert stats["rebuilds"] == 1
                assert stats["last_error"] is None
                assert server.registry.get("fig4").version == 2

        run(scenario())

    def test_mutation_during_rebuild_keeps_staleness_advertised(self):
        """If edges land while a rebuild is in the executor, the freshly
        swapped engine is already behind and must not claim freshness."""

        async def scenario():
            artifact = build_artifact(paper_figure4_graph(), algorithm=ALGORITHM)
            server = make_server(
                {"fig4": artifact},
                mutable={"fig4"},
                debounce=0.01,
                incremental=False,
            )
            async with server:
                updates = server.updates
                dynamic = updates.dynamic("fig4")
                original_rebuild = dynamic.rebuild

                def racing_rebuild(*args, **kwargs):
                    # Simulate a mutation arriving mid-build (this runs in
                    # the executor; bumping _gen is exactly what apply()
                    # does on the loop thread).
                    updates._gen["fig4"] += 1
                    dynamic.rebuild = original_rebuild
                    return original_rebuild(*args, **kwargs)

                dynamic.rebuild = racing_rebuild
                updates._gen["fig4"] += 1
                await updates._rebuild("fig4")
                entry = server.registry.get("fig4")
                assert entry.version == 2
                assert entry.engine.stale  # behind by one mutation: advertised

        run(scenario())

    def test_mutation_error_paths(self, fig4_artifact):
        async def scenario():
            # Immutable dataset: structured 409.
            async with make_server({"fig4": fig4_artifact}) as server:
                status, body = await http(
                    server.port,
                    "POST",
                    "/fig4/edges",
                    {"ops": [{"op": "insert", "u": 0, "v": 0}]},
                )
                assert status == 409
                assert body["error"]["type"] == "immutable_dataset"

            server = make_server(
                {"fig4": fig4_artifact}, mutable={"fig4"}, debounce=0.01
            )
            async with server:
                cases = [
                    ({"ops": "nope"}, "ops must be a list"),
                    ({"ops": [{"op": "insert", "u": 0}]}, "integer 'u' and 'v'"),
                    # Floats/bools would coerce to a *different* edge than
                    # the client named — strictly rejected, like reads.
                    (
                        {"ops": [{"op": "insert", "u": 1.9, "v": 0}]},
                        "integer 'u' and 'v'",
                    ),
                    (
                        {"ops": [{"op": "insert", "u": True, "v": 0}]},
                        "integer 'u' and 'v'",
                    ),
                    ({"ops": [{"op": "explode", "u": 0, "v": 0}]}, "unknown op"),
                    (
                        {"ops": [{"op": "delete", "u": 0, "v": 3}]},
                        "not present",
                    ),
                    (
                        {"ops": [{"op": "insert", "u": 0, "v": 0}]},
                        "already present",
                    ),
                    (
                        {"ops": [{"op": "insert", "u": 99, "v": 0}]},
                        "out of range",
                    ),
                ]
                for payload, fragment in cases:
                    status, body = await http(
                        server.port, "POST", "/fig4/edges", payload
                    )
                    assert status == 400, (payload, body)
                    assert body["error"]["type"] == "bad_mutation"
                    assert fragment in body["error"]["message"]
                if server.updates.pending("fig4"):
                    await server.updates.wait_idle()

        run(scenario())

    def test_empty_ops_list_schedules_no_rebuild(self, fig4_artifact):
        async def scenario():
            server = make_server(
                {"fig4": fig4_artifact}, mutable={"fig4"}, debounce=0.01
            )
            async with server:
                for payload in ([], {"ops": []}):
                    status, body = await http(
                        server.port, "POST", "/fig4/edges", payload
                    )
                    assert status == 200
                    assert body["applied"] == 0
                    assert body["rebuild"] == "not_needed"
                assert not server.updates.pending("fig4")
                assert server.registry.get("fig4").version == 1

        run(scenario())

    def test_update_manager_requires_attached_dataset(self, fig4_artifact):
        async def scenario():
            registry = ArtifactRegistry()
            registry.register("fig4", fig4_artifact)
            updates = UpdateManager(registry)
            from repro.server.updates import MutationError

            with pytest.raises(MutationError, match="not mutable"):
                updates.apply("fig4", [{"op": "insert", "u": 0, "v": 0}])
            updates.attach("fig4")
            with pytest.raises(ValueError, match="already mutable"):
                updates.attach("fig4")

        run(scenario())


# --------------------------------------------------- incremental maintenance


async def raw_exchange(port, payload: bytes):
    """Send raw bytes (optionally truncated) and return the raw response."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        writer.write_eof()
        await writer.drain()
        return await reader.read()
    finally:
        writer.close()


class TestRequestParsing:
    """The keep-alive parser must reject truncated and smuggled framings."""

    def test_truncated_mid_headers_is_400(self, fig4_artifact):
        async def scenario():
            async with make_server({"fig4": fig4_artifact}) as server:
                raw = await raw_exchange(
                    server.port, b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                )
                head, _, body = raw.partition(b"\r\n\r\n")
                assert b"400" in head.split(b"\r\n")[0]
                assert json.loads(body)["error"]["type"] == "truncated_request"

        run(scenario())

    def test_colonless_header_line_is_400(self, fig4_artifact):
        async def scenario():
            async with make_server({"fig4": fig4_artifact}) as server:
                for bad in (b"Host t\r\n", b": empty-name\r\n"):
                    raw = await raw_exchange(
                        server.port,
                        b"GET /healthz HTTP/1.1\r\n" + bad + b"\r\n",
                    )
                    head, _, body = raw.partition(b"\r\n\r\n")
                    assert b"400" in head.split(b"\r\n")[0]
                    assert json.loads(body)["error"]["type"] == "bad_header"

        run(scenario())

    def test_duplicate_content_length_is_400(self, fig4_artifact):
        async def scenario():
            async with make_server({"fig4": fig4_artifact}) as server:
                raw = await raw_exchange(
                    server.port,
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 0\r\nContent-Length: 5\r\n\r\n",
                )
                head, _, body = raw.partition(b"\r\n\r\n")
                assert b"400" in head.split(b"\r\n")[0]
                payload = json.loads(body)
                assert payload["error"]["type"] == "bad_header"
                assert "Content-Length" in payload["error"]["message"]

        run(scenario())

    def test_other_duplicate_headers_still_tolerated(self, fig4_artifact):
        async def scenario():
            async with make_server({"fig4": fig4_artifact}) as server:
                raw = await raw_exchange(
                    server.port,
                    b"GET /healthz HTTP/1.1\r\nHost: a\r\nHost: b\r\n"
                    b"Connection: close\r\n\r\n",
                )
                assert b"200" in raw.split(b"\r\n")[0]

        run(scenario())


class TestIncrementalServing:
    def test_small_batch_patches_without_rebuild(self):
        """POST /edges small batch → localized φ repair → immediate swap,
        zero rebuilds, parity with an offline recompute."""

        async def scenario():
            from repro.butterfly.counting import count_per_edge

            graph = load_dataset("github")
            artifact = build_artifact(graph, algorithm=ALGORITHM)
            support = count_per_edge(graph)
            eid = int(np.flatnonzero(support == 0)[0])
            u, v = graph.edge_endpoints(eid)
            server = make_server({"github": artifact}, mutable={"github"})
            async with server:
                port = server.port
                status, body = await http(
                    port,
                    "POST",
                    "/github/edges",
                    {"ops": [{"op": "delete", "u": u, "v": v}]},
                )
                assert status == 200
                assert body["rebuild"] == "incremental"
                assert body["applied"] == 1
                # Published synchronously: new version, fresh, no task.
                assert not server.updates.pending("github")
                _, listing = await http(port, "GET", "/datasets")
                assert listing[0]["version"] == 2
                assert listing[0]["stale"] is False
                assert listing[0]["num_edges"] == graph.num_edges - 1

                status, body = await http(
                    port,
                    "POST",
                    "/github/edges",
                    {"ops": [{"op": "insert", "u": u, "v": v}]},
                )
                assert status == 200
                assert body["rebuild"] == "incremental"

                _, hist = await http(port, "GET", "/github/histogram")
                fresh = QueryEngine(
                    build_artifact(
                        server.updates.dynamic("github").snapshot(),
                        algorithm=ALGORITHM,
                    )
                )
                assert hist["result"] == jsonify(fresh.phi_histogram())

                _, metrics = await http(port, "GET", "/metrics")
                up = metrics["updates"]["github"]
                assert up["incremental_patches"] == 2
                assert up["rebuilds"] == 0
                assert up["incremental_fallbacks"] == 0
                assert up["tracker_dirty"] is False

        run(scenario())

    def test_threshold_fallback_schedules_rebuild_and_reseeds(self):
        """rebuild_threshold=0 forces the fallback path; the rebuild lands
        and reseeds the tracker so later batches patch incrementally."""

        async def scenario():
            artifact = build_artifact(paper_figure4_graph(), algorithm=ALGORITHM)
            registry = ArtifactRegistry()
            registry.register("fig4", artifact, allow_stale=True)
            updates = UpdateManager(
                registry, debounce=0.01, rebuild_threshold=0.0
            )
            updates.attach("fig4")
            outcome = updates.apply(
                "fig4", [{"op": "insert", "u": 0, "v": 3}]
            )
            assert outcome["rebuild"] == "scheduled"
            dynamic = updates.dynamic("fig4")
            assert dynamic.tracker.dirty
            await updates.wait_idle()
            stats = updates.stats()["fig4"]
            assert stats["rebuilds"] == 1
            assert stats["tracker_dirty"] is False  # reseeded by the rebuild
            assert registry.get("fig4").version == 2
            # With the budget restored, the next small op patches in place.
            updates.rebuild_threshold = 1.0
            outcome = updates.apply(
                "fig4", [{"op": "delete", "u": 0, "v": 3}]
            )
            assert outcome["rebuild"] == "incremental"
            assert registry.get("fig4").version == 3
            assert updates.stats()["fig4"]["incremental_patches"] == 1

        run(scenario())

    def test_oversized_batch_goes_to_rebuild(self):
        async def scenario():
            artifact = build_artifact(paper_figure4_graph(), algorithm=ALGORITHM)
            registry = ArtifactRegistry()
            registry.register("fig4", artifact, allow_stale=True)
            updates = UpdateManager(
                registry, debounce=0.01, max_incremental_batch=1
            )
            updates.attach("fig4")
            graph = artifact.graph
            present = next(
                (u, v)
                for u in range(graph.num_upper)
                for v in range(graph.num_lower)
                if graph.has_edge(u, v)
            )
            # Two *net* ops (insert + unrelated delete) overflow the
            # max_incremental_batch=1 cap — an insert-then-delete of the
            # same edge would canonicalize away instead.
            outcome = updates.apply(
                "fig4",
                [
                    {"op": "insert", "u": 0, "v": 3},
                    {"op": "delete", "u": present[0], "v": present[1]},
                ],
            )
            assert outcome["rebuild"] == "scheduled"
            assert updates.dynamic("fig4").tracker.dirty
            await updates.wait_idle()
            assert updates.stats()["fig4"]["tracker_dirty"] is False

        run(scenario())

    def test_batch_net_noop_needs_no_rebuild(self):
        """An insert-then-delete of the same edge cancels out: the final
        graph (hence φ) is untouched, so the batch publishes nothing and
        the tracker stays clean — even past the batch-size cap."""

        async def scenario():
            artifact = build_artifact(paper_figure4_graph(), algorithm=ALGORITHM)
            registry = ArtifactRegistry()
            registry.register("fig4", artifact, allow_stale=True)
            updates = UpdateManager(
                registry, debounce=0.01, max_incremental_batch=1
            )
            updates.attach("fig4")
            before = registry.get("fig4").version
            outcome = updates.apply(
                "fig4",
                [
                    {"op": "insert", "u": 0, "v": 3},
                    {"op": "delete", "u": 0, "v": 3},
                ],
            )
            assert outcome["rebuild"] == "not_needed"
            assert outcome["applied"] == 2
            assert outcome["butterfly_delta"] == 0
            assert not updates.dynamic("fig4").tracker.dirty
            assert not updates.pending("fig4")
            assert registry.get("fig4").version == before

        run(scenario())

    def test_rejected_oversized_batch_keeps_tracker_clean(self):
        """A too-large batch whose first op is invalid applies nothing —
        the tracker must stay clean so the next small batch still patches
        incrementally (regression: mark_dirty ran before validation)."""

        async def scenario():
            artifact = build_artifact(paper_figure4_graph(), algorithm=ALGORITHM)
            registry = ArtifactRegistry()
            registry.register("fig4", artifact, allow_stale=True)
            updates = UpdateManager(
                registry, debounce=0.01, max_incremental_batch=1
            )
            updates.attach("fig4")
            from repro.server.updates import MutationError

            with pytest.raises(MutationError):
                updates.apply(
                    "fig4",
                    [
                        {"op": "insert", "u": 999, "v": 0},
                        {"op": "insert", "u": 0, "v": 3},
                    ],
                )
            assert not updates.dynamic("fig4").tracker.dirty
            assert not updates.pending("fig4")

        run(scenario())

    def test_partial_batch_error_applies_nothing(self):
        """A bad op anywhere in the batch rejects the whole batch before
        anything mutates: ``applied == 0``, the mirror and the served
        graph stay bitwise where they were, and no rebuild is scheduled
        (regression: the valid prefix used to land half-applied)."""

        async def scenario():
            artifact = build_artifact(paper_figure4_graph(), algorithm=ALGORITHM)
            server = make_server({"fig4": artifact}, mutable={"fig4"})
            async with server:
                graph = artifact.graph
                absent = next(
                    (u, v)
                    for u in range(graph.num_upper)
                    for v in range(graph.num_lower)
                    if not graph.has_edge(u, v)
                )
                edges_before = server.updates.dynamic("fig4").num_edges
                status, body = await http(
                    server.port,
                    "POST",
                    "/fig4/edges",
                    {
                        "ops": [
                            {"op": "insert", "u": absent[0], "v": absent[1]},
                            {"op": "insert", "u": 999, "v": 0},
                        ]
                    },
                )
                assert status == 400
                assert body["error"]["applied"] == 0
                assert "op #1" in body["error"]["message"]
                assert server.updates.dynamic("fig4").num_edges == edges_before
                assert not server.updates.pending("fig4")
                assert not server.updates.dynamic("fig4").tracker.dirty
                entry = server.registry.get("fig4")
                assert entry.version == 1
                assert entry.engine.graph.num_edges == edges_before

        run(scenario())

    def test_predicted_fallback_burst_costs_one_rebuild(self):
        """N batches the predictor routes straight to fallback must
        coalesce into exactly ONE debounced rebuild, not one per batch
        (the ISSUE's burst contract)."""

        async def scenario():
            artifact = build_artifact(paper_figure4_graph(), algorithm=ALGORITHM)
            registry = ArtifactRegistry()
            registry.register("fig4", artifact, allow_stale=True)
            # A sub-1/m threshold makes the adaptive cap 0, so every op is
            # a *predicted* fallback (estimate >= 1) — no region search,
            # no abort, straight to the debounced rebuild.
            updates = UpdateManager(
                registry, debounce=0.05, rebuild_threshold=1e-9
            )
            updates.attach("fig4")
            graph = artifact.graph
            present = [
                (u, v)
                for u in range(graph.num_upper)
                for v in range(graph.num_lower)
                if graph.has_edge(u, v)
            ][:5]
            for u, v in present:
                outcome = updates.apply(
                    "fig4", [{"op": "delete", "u": u, "v": v}]
                )
                assert outcome["rebuild"] == "scheduled"
            stats = updates.stats()["fig4"]
            assert stats["predicted_fallbacks"] >= 1
            assert stats["incremental_fallbacks"] == 1  # later batches saw dirty
            await updates.wait_idle()
            stats = updates.stats()["fig4"]
            assert stats["rebuilds"] == 1
            assert stats["tracker_dirty"] is False
            entry = registry.get("fig4")
            assert entry.version == 2  # the single rebuild's swap
            assert entry.engine.graph.num_edges == updates.dynamic("fig4").num_edges

        run(scenario())


# ------------------------------------------------------------------ metrics


class TestMetrics:
    def test_metrics_endpoint_counts_and_cache(self, fig4_artifact):
        async def scenario():
            async with make_server({"fig4": fig4_artifact}) as server:
                for _ in range(2):
                    status, _ = await http(server.port, "GET", "/fig4/histogram")
                    assert status == 200
                await http(server.port, "GET", "/nope/stats")

                status, metrics = await http(server.port, "GET", "/metrics")
                assert status == 200
                assert metrics["server"]["requests_total"] >= 4
                assert metrics["server"]["errors_total"] >= 1
                ds = metrics["datasets"]["fig4"]
                assert ds["version"] == 1
                assert ds["cache"]["maxsize"] > 0
                # Sequential identical queries: first misses, second hits
                # the engine LRU (the coalescer only merges concurrent ones).
                assert ds["cache"]["misses"] >= 1
                assert ds["cache"]["hits"] >= 1
                assert metrics["coalescer"]["submitted"] >= 2

        run(scenario())
