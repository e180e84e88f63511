"""Command-line interface: ``repro-bitruss`` / ``python -m repro``.

Subcommands
-----------
``decompose``   load an edge list (or a bundled dataset), run a chosen
                algorithm, optionally write per-edge bitruss numbers.
``k-bitruss``   extract the edges of the k-bitruss to a file.
``community``   connected k-bitruss community around a query vertex.
``stats``       Table II-style summary of a graph.
``generate``    materialize a bundled synthetic dataset to an edge-list file.
``gen``         stream a synthetic *scale* workload (chung-lu / erdos-renyi)
                to an edge-list file in numpy chunks — million-edge graphs
                without ever holding the graph in memory.
``datasets``    list bundled datasets.
``index``       decompose once and save a serving artifact (``.npz``).
``query``       answer k-bitruss / community / max-k / path / histogram /
                stats queries against a saved artifact — no recompute.
``serve``       host one or more datasets/artifacts over HTTP (asyncio,
                request coalescing, hot-swap rebuilds on mutation).
``trace``       inspect a running server's live tracing plane: list the
                recent/slowest traces, print one trace's waterfall, or
                export it as Chrome trace-event JSON for Perfetto.
``bench``       the performance-trajectory plane: ``list``/``run`` the
                discovered bench modules, ``history`` of any metric
                series, noise-aware ``diff`` against pinned baselines
                (exits non-zero on regression), ``accept`` to re-pin.

Examples
--------
::

    repro-bitruss decompose --dataset github --algorithm pc --tau 0.05
    repro-bitruss decompose graph.txt --base 1 --output phi.txt
    repro-bitruss stats --dataset d-style
    repro-bitruss generate d-label d-label.txt
    repro-bitruss index --dataset github --algorithm bu-csr --output github.npz
    repro-bitruss query github.npz community -k 4 --upper 17
    repro-bitruss query github.npz k-bitruss -k 6 --output h6.txt
    repro-bitruss serve --dataset github --dataset marvel --port 8642
    repro-bitruss serve --artifact github.npz --mutable
    repro-bitruss trace --slowest 5
    repro-bitruss trace --id 4b5dd1e06c15a4f1 --export-chrome trace.json
    repro-bitruss gen chung-lu --upper 500000 --lower 500000 \
        --edges 1000000 scale.txt.gz
    repro-bitruss index scale.txt.gz --streaming --algorithm bu-csr \
        --output scale_artifact
    repro-bitruss query scale_artifact --mmap stats

The million-edge path: every file-input command accepts ``--streaming``
(chunked numpy ingestion, no Python list of pairs); ``index --output``
without a ``.npz`` suffix writes the memory-mappable directory layout,
which ``query``/``serve`` reopen with ``--mmap`` in O(1) resident memory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro import datasets
from repro.butterfly.counting import count_per_edge
from repro.core.api import ALGORITHMS, bitruss_decomposition
from repro.graph.bipartite import BipartiteGraph
from repro.graph.io import (
    load_edge_list,
    load_edge_list_streaming,
    save_edge_list,
    save_phi,
    write_edge_chunks,
)
from repro.obs import bench as obs_bench
from repro.obs import log as obs_log
from repro.obs import spans as obs_spans
from repro.utils.stats import UpdateCounter

#: Human narration goes through this stdout logger so ``--quiet`` can
#: silence everything except machine-readable payloads (which ``print``).
_LOG = obs_log.get_logger("cli")


def _say(message: str) -> None:
    _LOG.info(message)


def _load_graph(args: argparse.Namespace) -> BipartiteGraph:
    if args.dataset is not None and args.path is not None:
        raise SystemExit("give either a file path or --dataset, not both")
    if args.dataset is not None:
        if getattr(args, "streaming", False):
            raise SystemExit(
                "--streaming applies to edge-list files; bundled datasets "
                "are generated in memory"
            )
        return datasets.load_dataset(args.dataset)
    if args.path is None:
        raise SystemExit("a file path or --dataset is required")
    if getattr(args, "streaming", False):
        return load_edge_list_streaming(args.path, base=args.base)
    return load_edge_list(args.path, base=args.base)


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", nargs="?", help="edge-list file (text or .gz)")
    parser.add_argument(
        "--dataset",
        choices=datasets.dataset_names(),
        help="use a bundled synthetic dataset instead of a file",
    )
    parser.add_argument(
        "--base",
        type=int,
        default=0,
        help="id base of the input file (KONECT files use 1; default 0)",
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="ingest the edge list in fixed-size numpy chunks (out-of-core "
        "path: same graph, a fraction of the peak memory)",
    )


def _cmd_decompose(args: argparse.Namespace) -> int:
    if args.profile:
        obs_spans.reset_tree()
    wall_start = time.perf_counter()
    with obs_spans.span("load graph"):
        graph = _load_graph(args)
    counter = UpdateCounter()
    result = bitruss_decomposition(
        graph,
        algorithm=args.algorithm,
        tau=args.tau,
        counter=counter,
    )
    with obs_spans.span("hierarchy"):
        hierarchy = result.hierarchy()
    wall_seconds = time.perf_counter() - wall_start
    _say(f"graph: |U|={graph.num_upper} |L|={graph.num_lower} m={graph.num_edges}")
    _say(result.stats.summary())
    _say(f"max bitruss number: {result.max_k}")
    shown = sorted(hierarchy)[: args.levels]
    for k in shown:
        _say(f"  |E(H_{k})| = {hierarchy[k]}")
    if len(hierarchy) > args.levels:
        _say(f"  ... ({len(hierarchy) - args.levels} more levels)")
    profile_block = None
    if args.profile:
        tree = obs_spans.tree()
        profile_block = {"wall_seconds": wall_seconds, "tree": tree}
        _say("phase profile:")
        _say(obs_spans.render_tree(tree))
    if args.json:
        payload = {
            "algorithm": result.stats.algorithm,
            "max_k": result.max_k,
            "hierarchy": {str(k): c for k, c in hierarchy.items()},
            "updates": result.stats.updates,
            "timings": result.stats.timings,
        }
        if profile_block is not None:
            payload["profile"] = profile_block
        print(json.dumps(payload, indent=2))
    if args.output:
        save_phi(result.phi, args.output)
        _say(f"wrote bitruss numbers to {args.output}")
    return 0


def _cmd_k_bitruss(args: argparse.Namespace) -> int:
    from repro.core.bitruss import k_bitruss_direct

    graph = _load_graph(args)
    eids = k_bitruss_direct(graph, args.k)
    sub, _ = graph.subgraph_from_edge_ids(eids)
    print(f"{args.k}-bitruss: {len(eids)} edges")
    if args.output:
        save_edge_list(sub, args.output, base=args.base)
        print(f"wrote {args.k}-bitruss edge list to {args.output}")
    return 0


def _cmd_community(args: argparse.Namespace) -> int:
    from repro.apps.community_search import bitruss_community

    graph = _load_graph(args)
    kwargs = {}
    if args.upper is not None:
        kwargs["upper"] = args.upper
    if args.lower is not None:
        kwargs["lower"] = args.lower
    community = bitruss_community(graph, k=args.k, **kwargs)
    print(
        f"community at k={args.k}: {len(community.upper)} upper, "
        f"{len(community.lower)} lower, {len(community.edges)} edges"
    )
    for u, v in sorted(community.edges)[: args.limit]:
        print(f"  {u} {v}")
    if len(community.edges) > args.limit:
        print(f"  ... ({len(community.edges) - args.limit} more)")
    return 0


def _extract_profile_tree(payload: object) -> Optional[dict]:
    """Find a phase tree in a saved JSON document.

    Accepts a bare tree (``{"name": ..., "children": [...]}``), a profile
    block (``{"wall_seconds": ..., "tree": ...}``) or a whole ``decompose
    --json`` payload containing a ``"profile"`` entry.
    """
    if not isinstance(payload, dict):
        return None
    if "children" in payload and "name" in payload:
        return payload
    for key in ("tree", "profile"):
        found = _extract_profile_tree(payload.get(key))
        if found is not None:
            return found
    return None


def _print_profile_block(payload: object) -> bool:
    """Render a contained phase tree (and wall time); False when absent."""
    tree = _extract_profile_tree(payload)
    if tree is None:
        return False
    block = payload
    if isinstance(payload, dict) and isinstance(payload.get("profile"), dict):
        block = payload["profile"]
    if isinstance(block, dict) and "wall_seconds" in block:
        wall = float(block["wall_seconds"])
        leaves = obs_spans.leaf_seconds(tree)
        print(f"wall time: {wall:.4f}s")
        if wall > 0:
            print(
                f"leaf coverage: {leaves:.4f}s ({100.0 * leaves / wall:.1f}% of wall)"
            )
    print(obs_spans.render_tree(tree))
    return True


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.profile_path:
        with open(args.profile_path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{args.profile_path}: invalid JSON: {exc}")
        if not _print_profile_block(payload):
            raise SystemExit(
                f"{args.profile_path}: no phase tree found (expected a "
                "`decompose --profile --json` payload or a profile block)"
            )
        return 0
    if args.scrape:
        from urllib.error import URLError
        from urllib.request import urlopen

        url = args.scrape
        if "://" not in url:
            url = f"http://{url}"
        if not url.rstrip("/").endswith("/metrics"):
            url = url.rstrip("/") + "/metrics"
        try:
            with urlopen(url) as response:
                payload = json.load(response)
        except (URLError, OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"cannot scrape {url}: {exc}")
        server = payload.get("server", {})
        print(f"server: {url}")
        print(f"  requests_total: {server.get('requests_total')}")
        print(f"  errors_total:   {server.get('errors_total')}")
        uptime = server.get("uptime_seconds")
        if uptime is not None:
            print(f"  uptime:         {uptime:.1f}s")
        for name, entry in sorted(payload.get("datasets", {}).items()):
            cache = entry.get("cache", {})
            hits, misses = cache.get("hits", 0), cache.get("misses", 0)
            rate = hits / (hits + misses) if hits + misses else 0.0
            print(
                f"  {name}: v{entry.get('version')} served={entry.get('served')} "
                f"cache_hit_rate={rate:.2f}"
            )
        coal = payload.get("coalescer")
        if coal:
            flushes = coal.get("flushes", 0)
            fold = coal.get("submitted", 0) / flushes if flushes else 0.0
            print(f"  coalescer: fold_ratio={fold:.2f} ({coal})")
        build = None
        try:
            vars_url = url[: -len("/metrics")] + "/debug/vars"
            with urlopen(vars_url) as response:
                build = json.load(response).get("build")
        except (URLError, OSError, json.JSONDecodeError):
            build = None
        if build:
            print("  build:")
            print(f"    git_sha:   {build.get('git_sha')}")
            print(
                f"    python:    {build.get('python')}"
                f"  numpy: {build.get('numpy')}"
            )
            print(
                f"    machine:   {build.get('hostname')} "
                f"({build.get('cpu_count')}x {build.get('cpu_model')})"
            )
            knobs = build.get("repro_knobs") or {}
            if knobs:
                rendered = " ".join(f"{k}={v}" for k, v in sorted(knobs.items()))
                print(f"    knobs:     {rendered}")
        if not _print_profile_block(payload):
            print("  (no profile block; start the server with --profile)")
        return 0
    graph = _load_graph(args)
    support = count_per_edge(graph)
    butterflies = int(support.sum()) // 4
    print(f"|E|      = {graph.num_edges}")
    print(f"|U|      = {graph.num_upper}")
    print(f"|L|      = {graph.num_lower}")
    print(f"⋈G       = {butterflies}")
    print(f"sup_max  = {int(support.max()) if len(support) else 0}")
    if args.phi_max:
        result = bitruss_decomposition(graph, algorithm="bit-pc")
        print(f"φ_max    = {result.max_k}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = datasets.load_dataset(args.dataset)
    save_edge_list(graph, args.output, base=args.base)
    print(
        f"wrote {args.dataset} ({graph.num_edges} edges, "
        f"|U|={graph.num_upper}, |L|={graph.num_lower}) to {args.output}"
    )
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from repro.graph.generators import (
        chung_lu_edge_chunks,
        erdos_renyi_edge_chunks,
    )

    if args.upper < 1 or args.lower < 1 or args.edges < 1:
        raise SystemExit("--upper/--lower/--edges must be positive")
    if args.chunk_edges < 1:
        raise SystemExit("--chunk-edges must be positive")
    if args.model == "chung-lu":
        chunks = chung_lu_edge_chunks(
            args.upper,
            args.lower,
            args.edges,
            exponent_upper=args.exponent,
            exponent_lower=args.exponent,
            seed=args.seed,
            chunk_edges=args.chunk_edges,
        )
    else:
        chunks = erdos_renyi_edge_chunks(
            args.upper,
            args.lower,
            args.edges,
            seed=args.seed,
            chunk_edges=args.chunk_edges,
        )
    try:
        written = write_edge_chunks(
            args.output,
            chunks,
            base=args.base,
            header=f"bip unweighted ({args.model} |U|={args.upper} "
            f"|L|={args.lower} m={args.edges} seed={args.seed})",
        )
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(str(exc))
    print(
        f"wrote {written} {args.model} edges "
        f"(|U|={args.upper}, |L|={args.lower}, seed={args.seed}) "
        f"to {args.output}"
    )
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from repro.service import build_artifact, save_artifact

    if args.profile:
        obs_spans.reset_tree()
    wall_start = time.perf_counter()
    with obs_spans.span("load graph"):
        graph = _load_graph(args)
    artifact = build_artifact(
        graph,
        algorithm=args.algorithm,
        tau=args.tau,
    )
    with obs_spans.span("save artifact"):
        save_artifact(artifact, args.output)
    wall_seconds = time.perf_counter() - wall_start
    _say(f"graph: |U|={graph.num_upper} |L|={graph.num_lower} m={graph.num_edges}")
    _say(f"algorithm: {artifact.algorithm}")
    _say(f"max bitruss number: {artifact.max_k}")
    _say(f"graph hash: {artifact.graph_hash[:16]}…")
    _say(f"wrote artifact to {args.output}")
    if args.profile:
        tree = obs_spans.tree()
        _say(f"phase profile (wall {wall_seconds:.4f}s):")
        _say(obs_spans.render_tree(tree))
    return 0


def _load_engine(args: argparse.Namespace):
    from repro.service import ArtifactError, QueryEngine

    try:
        return QueryEngine.load(
            args.artifact,
            mmap_mode="r" if getattr(args, "mmap", False) else None,
        )
    except ArtifactError as exc:
        raise SystemExit(str(exc))


def _print_edges(edges, limit: int) -> None:
    for u, v in edges[:limit]:
        _say(f"  {u} {v}")
    if len(edges) > limit:
        _say(f"  ... ({len(edges) - limit} more)")


def _emit_json(payload: object) -> None:
    print(json.dumps(payload, indent=2, default=str))


def _cmd_query_k_bitruss(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    eids = engine.k_bitruss(args.k)
    edges = sorted(
        [int(u), int(v)]
        for u, v in (engine.graph.edge_endpoints(e) for e in eids)
    )
    if args.json:
        _emit_json({"k": args.k, "count": len(eids), "edges": edges})
    else:
        _say(f"{args.k}-bitruss: {len(eids)} edges")
    if args.output:
        sub, _ = engine.graph.subgraph_from_edge_ids(eids)
        save_edge_list(sub, args.output, base=args.base)
        _say(f"wrote {args.k}-bitruss edge list to {args.output}")
    elif not args.json:
        _print_edges(edges, args.limit)
    return 0


def _cmd_query_community(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    kwargs = {}
    if args.upper is not None:
        kwargs["upper"] = args.upper
    if args.lower is not None:
        kwargs["lower"] = args.lower
    community = engine.community(args.k, **kwargs)
    if args.json:
        _emit_json(
            {
                "k": args.k,
                "upper": sorted(int(u) for u in community.upper),
                "lower": sorted(int(v) for v in community.lower),
                "edges": sorted([int(u), int(v)] for u, v in community.edges),
            }
        )
        return 0
    _say(
        f"community at k={args.k}: {len(community.upper)} upper, "
        f"{len(community.lower)} lower, {len(community.edges)} edges"
    )
    _print_edges(sorted(community.edges), args.limit)
    return 0


def _cmd_query_max_k(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    if args.upper is not None:
        side, vertex = "upper", args.upper
        k = engine.max_k(upper=args.upper)
    else:
        side, vertex = "lower", args.lower
        k = engine.max_k(lower=args.lower)
    if args.json:
        _emit_json({"side": side, "vertex": vertex, "max_k": int(k)})
    else:
        _say(f"max k of {side} vertex {vertex}: {k}")
    return 0


def _cmd_query_path(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    u, v = args.edge
    try:
        path = engine.hierarchy_path(edge=(u, v))
    except KeyError:
        raise SystemExit(f"edge ({u}, {v}) not in the indexed graph")
    if args.json:
        _emit_json(
            {
                "edge": [u, v],
                "phi": int(engine.phi_of(u, v)),
                "path": [
                    {
                        "level": int(level),
                        "node": int(node),
                        "edges": len(engine.hierarchy.component_edges(node)),
                    }
                    for level, node in path
                ],
            }
        )
        return 0
    _say(f"edge ({u}, {v}): phi = {engine.phi_of(u, v)}")
    for level, node in path:
        size = len(engine.hierarchy.component_edges(node))
        _say(f"  level {level}: component node {node} ({size} edges)")
    return 0


def _cmd_query_histogram(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    histogram = engine.phi_histogram()
    if args.json:
        _emit_json({str(k): int(c) for k, c in sorted(histogram.items())})
        return 0
    for k, count in sorted(histogram.items()):
        _say(f"  phi={k}: {count} edges")
    return 0


def _cmd_query_stats(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    info = engine.stats()
    if args.json:
        _emit_json({k: v for k, v in info.items()})
        return 0
    levels = info.pop("level_sizes")
    for key, value in info.items():
        _say(f"{key}: {value}")
    shown = sorted(levels)[: args.levels]
    for k in shown:
        _say(f"  |E(H_{k})| = {levels[k]}")
    if len(levels) > args.levels:
        _say(f"  ... ({len(levels) - args.levels} more levels)")
    return 0


def _cmd_query_batch(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    with open(args.file, "r", encoding="utf-8") as handle:
        queries = json.load(handle)
    if not isinstance(queries, list):
        raise SystemExit(f"{args.file}: expected a JSON list of query objects")

    def _encode(value):
        if hasattr(value, "upper") and hasattr(value, "edges"):  # Community
            return {
                "k": value.k,
                "upper": sorted(value.upper),
                "lower": sorted(value.lower),
                "edges": sorted(value.edges),
            }
        return value

    results = engine.batch(queries)
    print(json.dumps([_encode(r) for r in results], indent=2, default=str))
    return 0


def _build_serve_registry(args: argparse.Namespace):
    """Resolve ``--dataset``/``--artifact`` into a populated registry."""
    from repro.server import ArtifactRegistry, UpdateManager
    from repro.service import ArtifactError, build_artifact, load_artifact

    names = args.dataset or []
    artifacts = args.artifact or []
    if not names and not artifacts:
        raise SystemExit(
            "nothing to serve: give at least one --dataset NAME or "
            "--artifact [NAME=]PATH"
        )
    registry = ArtifactRegistry(cache_size=args.cache_size)
    sources = {}
    for name in names:
        if name in sources:
            raise SystemExit(f"dataset {name!r} given twice")
        _say(f"building artifact for dataset {name!r} ...")
        artifact = build_artifact(
            datasets.load_dataset(name),
            algorithm=args.algorithm,
        )
        sources[name] = artifact
    for spec in artifacts:
        name, sep, path = spec.partition("=")
        if not sep:
            name, path = None, spec
        if name is None:
            import os.path

            name = os.path.splitext(os.path.basename(path))[0]
        if not name:
            raise SystemExit(f"--artifact {spec!r}: empty dataset name")
        if name in sources:
            raise SystemExit(f"dataset {name!r} given twice")
        try:
            sources[name] = load_artifact(
                path, mmap_mode="r" if args.mmap else None
            )
        except ArtifactError as exc:
            raise SystemExit(str(exc))
    for name, artifact in sources.items():
        try:
            registry.register(name, artifact, allow_stale=args.mutable)
        except ValueError as exc:
            raise SystemExit(str(exc))

    updates = None
    if args.mutable:
        updates = UpdateManager(
            registry,
            debounce=args.debounce,
            # Rebuilds must honour the same --algorithm choice as the
            # startup builds, or the served artifact silently changes
            # algorithm (and rebuild latency) after the first mutation.
            algorithm=args.algorithm,
            incremental=args.rebuild_threshold > 0,
            rebuild_threshold=args.rebuild_threshold,
            max_incremental_batch=args.max_incremental_batch,
        )
        for name in registry.names():
            updates.attach(name)
    return registry, updates


async def _serve_async(args: argparse.Namespace, registry, updates) -> None:
    import errno

    from repro.server import BitrussServer

    server = BitrussServer(
        registry,
        host=args.host,
        port=args.port,
        coalesce=not args.no_coalesce,
        window=args.window_ms / 1000.0,
        updates=updates,
        slow_query_s=(
            args.slow_query_ms / 1000.0 if args.slow_query_ms > 0 else None
        ),
        trace_sample=args.trace_sample,
    )
    try:
        await server.start()
    except OSError as exc:
        if exc.errno == errno.EADDRINUSE:
            raise SystemExit(
                f"port {args.port} is already in use on {args.host}; "
                "pick a free one with --port (0 = auto-assign)"
            )
        if exc.errno == errno.EACCES:
            raise SystemExit(
                f"permission denied binding {args.host}:{args.port} "
                "(ports below 1024 need elevated privileges); pick a "
                "higher port with --port"
            )
        raise SystemExit(f"cannot bind {args.host}:{args.port}: {exc}")
    _say(
        f"serving {len(registry)} dataset(s) on "
        f"http://{args.host}:{server.port}"
    )
    for entry in registry:
        mutable = updates is not None and updates.is_mutable(entry.name)
        _say(
            f"  /{entry.name}  m={entry.engine.graph.num_edges} "
            f"max_k={entry.artifact.max_k}"
            f"{'  (mutable)' if mutable else ''}"
        )
    _say(
        "endpoints: /datasets /healthz /metrics /debug/vars /debug/traces "
        "/{ds}/stats /{ds}/histogram /{ds}/community /{ds}/max_k "
        "/{ds}/hierarchy_path POST /{ds}/batch POST /{ds}/edges"
    )
    try:
        await server.serve_forever()
    finally:
        await server.stop()


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    if not 0 <= args.port <= 65535:
        raise SystemExit(f"--port {args.port} is outside [0, 65535]")
    if args.window_ms < 0:
        raise SystemExit("--window-ms must be non-negative")
    if args.debounce < 0:
        raise SystemExit("--debounce must be non-negative")
    if not 0.0 <= args.rebuild_threshold <= 1.0:
        raise SystemExit("--rebuild-threshold must be within [0, 1]")
    if args.max_incremental_batch < 1:
        raise SystemExit("--max-incremental-batch must be positive")
    if args.cache_size < 0:
        raise SystemExit("--cache-size must be non-negative")
    if args.slow_query_ms < 0:
        raise SystemExit("--slow-query-ms must be non-negative")
    if args.trace_sample is not None and not 0.0 <= args.trace_sample <= 1.0:
        raise SystemExit("--trace-sample must be within [0, 1]")
    registry, updates = _build_serve_registry(args)
    try:
        asyncio.run(_serve_async(args, registry, updates))
    except KeyboardInterrupt:
        _say("shutting down")
    return 0


def _debug_get(base: str, path: str) -> object:
    """Fetch one ``/debug/*`` JSON document from a running server."""
    from urllib.error import HTTPError as UrlHTTPError
    from urllib.error import URLError
    from urllib.request import urlopen

    url = base + path
    try:
        with urlopen(url) as response:
            return json.load(response)
    except UrlHTTPError as exc:
        try:
            detail = json.load(exc).get("message", "")
        except Exception:  # noqa: BLE001 - best-effort error body
            detail = ""
        raise SystemExit(
            f"{url}: HTTP {exc.code}" + (f" ({detail})" if detail else "")
        )
    except (URLError, OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot reach {url}: {exc}")


def _render_waterfall(node: dict, depth: int = 0) -> None:
    """One line per span: offset, duration, name, error marker."""
    marker = "  !" if node.get("status") == "error" else ""
    pid = node.get("pid")
    pid_note = f"  [pid {pid}]" if depth and pid is not None else ""
    _say(
        f"  {'  ' * depth}{node['start_ms']:8.3f}ms "
        f"+{node['duration_ms']:.3f}ms  {node['name']}{pid_note}{marker}"
    )
    for child in node.get("children", ()):
        _render_waterfall(child, depth + 1)


def _cmd_trace(args: argparse.Namespace) -> int:
    base = args.url
    if "://" not in base:
        base = f"http://{base}"
    base = base.rstrip("/")

    if args.export_chrome and args.id is None:
        # No explicit trace: export the slowest retained one.
        listing = _debug_get(base, "/debug/traces?limit=1")
        slowest = listing.get("slowest") or listing.get("recent") or []
        if not slowest:
            raise SystemExit("server has no retained traces to export")
        args.id = slowest[0]["trace_id"]
        _say(f"exporting slowest trace {args.id}")

    if args.id is not None:
        if args.export_chrome:
            payload = _debug_get(
                base, f"/debug/traces/{args.id}?format=chrome"
            )
            with open(args.export_chrome, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            _say(
                f"wrote {len(payload.get('traceEvents', []))} trace events "
                f"to {args.export_chrome} (load at https://ui.perfetto.dev)"
            )
            return 0
        payload = _debug_get(base, f"/debug/traces/{args.id}")
        if args.json:
            _emit_json(payload)
            return 0
        _say(
            f"trace {payload['trace_id']}  {payload['name']}  "
            f"{payload['duration_ms']:.3f}ms  status={payload['status']}"
        )
        for root in payload.get("spans", ()):
            _render_waterfall(root)
        return 0

    query = [f"limit={args.slowest or args.limit}"]
    if args.endpoint:
        query.append(f"endpoint={args.endpoint}")
    if args.dataset:
        query.append(f"dataset={args.dataset}")
    listing = _debug_get(base, "/debug/traces?" + "&".join(query))
    if args.json:
        _emit_json(listing)
        return 0
    sections = (
        [("slowest", listing.get("slowest", []))]
        if args.slowest
        else [
            ("recent", listing.get("recent", [])),
            ("slowest", listing.get("slowest", [])),
        ]
    )
    for title, rows in sections:
        _say(f"{title}:")
        if not rows:
            _say("  (none)")
        for row in rows:
            where = row["endpoint"] or row["name"]
            if row.get("dataset"):
                where += f" [{row['dataset']}]"
            _say(
                f"  {row['trace_id']}  {row['duration_ms']:9.3f}ms  "
                f"{row['spans']:3d} spans  {where}"
                + ("  !" if row["status"] == "error" else "")
            )
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    for name in datasets.dataset_names():
        spec = datasets.dataset_spec(name)
        print(f"{name:14s} {spec.description}")
    return 0


def _bench_dir(args: argparse.Namespace) -> Path:
    """Locate ``benchmarks/``: ``--bench-dir``, cwd, or next to the package."""
    if getattr(args, "bench_dir", None):
        bench_dir = Path(args.bench_dir)
        if not bench_dir.is_dir():
            raise SystemExit(f"--bench-dir {bench_dir}: not a directory")
        return bench_dir
    candidates = [
        Path.cwd() / "benchmarks",
        Path(__file__).resolve().parents[2] / "benchmarks",
    ]
    for candidate in candidates:
        if candidate.is_dir():
            return candidate
    raise SystemExit(
        "cannot find a benchmarks/ directory (run from the repository "
        "root or pass --bench-dir)"
    )


def _bench_paths(args: argparse.Namespace):
    bench_dir = _bench_dir(args)
    results_dir = bench_dir / "results"
    return (
        bench_dir,
        bench_dir.parent,  # repo root
        results_dir,
        results_dir / "trajectory.jsonl",
        bench_dir / "baselines.json",
    )


def _bench_select(
    specs, *, tier: str = "full", only: Optional[str] = None
):
    import fnmatch

    chosen = [s for s in specs if s.in_tier(tier)]
    if only:
        chosen = [s for s in chosen if fnmatch.fnmatch(s.name, only)]
    return chosen


def _cmd_bench_list(args: argparse.Namespace) -> int:
    bench_dir, _, _, _, _ = _bench_paths(args)
    specs = _bench_select(
        obs_bench.discover(bench_dir), tier=args.tier, only=args.only
    )
    if not specs:
        print("no benches matched")
        return 1
    width = max(len(s.name) for s in specs)
    for spec in specs:
        print(f"{spec.name.ljust(width)}  {spec.tier:5s}  {spec.summary}")
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    bench_dir, repo_root, results_dir, trajectory, _ = _bench_paths(args)
    specs = _bench_select(
        obs_bench.discover(bench_dir), tier=args.tier, only=args.only
    )
    if not specs:
        print("no benches matched")
        return 1
    _say(
        f"running {len(specs)} bench module(s), tier={args.tier}, "
        f"repeat={args.repeat}"
    )
    failed = 0
    for spec in specs:
        outcome = obs_bench.run_module(
            spec,
            repo_root=repo_root,
            results_dir=results_dir,
            trajectory_path=trajectory,
            repeat=args.repeat,
        )
        published = ", ".join(sorted(r.bench for r in outcome.results))
        if outcome.status == "failed":
            failed += 1
            print(f"FAIL  {spec.name}  ({outcome.seconds:.1f}s)")
            if outcome.tail:
                print(outcome.tail)
        elif outcome.status == "no-result":
            print(
                f"pass  {spec.name}  ({outcome.seconds:.1f}s)  "
                "[no result published — skipped or legacy bench]"
            )
        else:
            print(
                f"pass  {spec.name}  ({outcome.seconds:.1f}s)  -> {published}"
            )
    if failed:
        print(f"{failed}/{len(specs)} bench module(s) failed")
        return 1
    return 0


def _cmd_bench_history(args: argparse.Namespace) -> int:
    _, _, _, trajectory, _ = _bench_paths(args)
    entries = [
        r for r in obs_bench.read_trajectory(trajectory)
        if r.bench == args.bench
    ]
    if not entries:
        print(f"no trajectory entries for {args.bench!r} in {trajectory}")
        return 1
    entries = entries[-args.limit:]
    for result in entries:
        stamp = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(result.created_unix)
        )
        metrics = "  ".join(
            f"{m.name}={m.value:.6g}{'' if m.unit == 'count' else ' ' + m.unit}"
            for m in result.metrics
        )
        print(
            f"{stamp}  {result.env.git_sha[:8]:8s}  "
            f"host={result.env.hostname or '?'}  x{result.repeats}  {metrics}"
        )
    return 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    _, _, _, trajectory, baselines_path = _bench_paths(args)
    if not baselines_path.exists():
        print(
            f"no baselines at {baselines_path} — run `repro-bitruss bench "
            "accept` after a trusted run to pin them"
        )
        return 0
    with open(baselines_path, "r", encoding="utf-8") as handle:
        baselines = json.load(handle)
    results = obs_bench.read_trajectory(trajectory)
    if not results:
        print(f"trajectory {trajectory} is empty — nothing to diff")
        return 0
    only = args.only.split(",") if args.only else None
    deltas = obs_bench.diff_results(
        results,
        baselines,
        threshold=args.threshold,
        noise_mult=args.noise_mult,
        history_window=args.window,
        strict_env=args.strict_env,
        only=only,
    )
    if not deltas:
        print("no overlapping benches between trajectory and baselines")
        return 0
    for line in obs_bench.format_delta_table(deltas):
        print(line)
    regressions = [d for d in deltas if d.gating]
    if regressions:
        print(
            f"\n{len(regressions)} metric(s) regressed beyond the "
            "noise-aware threshold"
        )
        return 2
    infos = sum(1 for d in deltas if d.status == "info")
    if infos:
        print(
            f"\nok ({infos} wall-clock metric(s) reported info-only: "
            "baseline pinned on a different machine)"
        )
    else:
        print("\nok — no regressions")
    return 0


def _cmd_bench_accept(args: argparse.Namespace) -> int:
    _, _, _, trajectory, baselines_path = _bench_paths(args)
    results = obs_bench.read_trajectory(trajectory)
    if not results:
        raise SystemExit(
            f"trajectory {trajectory} is empty — run `repro-bitruss bench "
            "run` first"
        )
    latest: dict = {}
    for result in results:
        latest[result.bench] = result
    if args.only:
        import fnmatch

        latest = {
            name: result
            for name, result in latest.items()
            if fnmatch.fnmatch(name, args.only)
        }
        if not latest:
            raise SystemExit(f"no trajectory benches match --only {args.only}")
    previous = None
    if baselines_path.exists():
        with open(baselines_path, "r", encoding="utf-8") as handle:
            previous = json.load(handle)
    doc = obs_bench.make_baselines(latest.values(), previous)
    baselines_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(
        f"pinned {len(latest)} bench(es) "
        f"({', '.join(sorted(latest))}) -> {baselines_path}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bitruss",
        description="Bitruss decomposition for bipartite graphs (Wang et al., ICDE 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="compute bitruss numbers")
    _add_input_options(p_dec)
    p_dec.add_argument(
        "--algorithm",
        default="bit-bu++",
        choices=sorted(ALGORITHMS),
        help="decomposition algorithm (default bit-bu++)",
    )
    p_dec.add_argument("--tau", type=float, default=0.02, help="BiT-PC tau")
    p_dec.add_argument("--output", help="write per-edge bitruss numbers here")
    p_dec.add_argument(
        "--levels", type=int, default=10, help="hierarchy levels to print"
    )
    p_dec.add_argument(
        "--json", action="store_true", help="also print a JSON summary"
    )
    p_dec.add_argument(
        "--profile",
        action="store_true",
        help="record per-phase wall times and print the phase tree "
        "(adds a `profile` block to --json output)",
    )
    p_dec.add_argument(
        "--quiet",
        action="store_true",
        help="suppress human narration; only machine-readable payloads "
        "(--json, --output) are emitted",
    )
    p_dec.set_defaults(func=_cmd_decompose)

    p_kb = sub.add_parser("k-bitruss", help="extract the k-bitruss subgraph")
    _add_input_options(p_kb)
    p_kb.add_argument("-k", type=int, required=True, help="cohesion level")
    p_kb.add_argument("--output", help="write the subgraph edge list here")
    p_kb.set_defaults(func=_cmd_k_bitruss)

    p_com = sub.add_parser(
        "community", help="k-bitruss community around a query vertex"
    )
    _add_input_options(p_com)
    p_com.add_argument("-k", type=int, required=True, help="cohesion level")
    group = p_com.add_mutually_exclusive_group(required=True)
    group.add_argument("--upper", type=int, help="query upper-layer vertex")
    group.add_argument("--lower", type=int, help="query lower-layer vertex")
    p_com.add_argument(
        "--limit", type=int, default=20, help="edges to print (default 20)"
    )
    p_com.set_defaults(func=_cmd_community)

    p_stats = sub.add_parser("stats", help="Table II-style graph summary")
    _add_input_options(p_stats)
    p_stats.add_argument(
        "--phi-max",
        action="store_true",
        help="also run a decomposition to report φ_max (slower)",
    )
    p_stats.add_argument(
        "--profile",
        dest="profile_path",
        metavar="FILE",
        help="pretty-print the phase tree saved in a `decompose --profile "
        "--json` payload (or bench JSON) instead of analysing a graph",
    )
    p_stats.add_argument(
        "--scrape",
        metavar="URL",
        help="summarize the /metrics endpoint of a running server "
        "(host:port or full URL) instead of analysing a graph",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_gen = sub.add_parser("generate", help="write a bundled dataset to a file")
    p_gen.add_argument("dataset", choices=datasets.dataset_names())
    p_gen.add_argument("output")
    p_gen.add_argument("--base", type=int, default=0)
    p_gen.set_defaults(func=_cmd_generate)

    p_ls = sub.add_parser("datasets", help="list bundled datasets")
    p_ls.set_defaults(func=_cmd_datasets)

    p_g = sub.add_parser(
        "gen",
        help="stream a synthetic scale workload to an edge-list file "
        "(never materializes the graph)",
    )
    p_g.add_argument("model", choices=["chung-lu", "erdos-renyi"])
    p_g.add_argument("output", help="edge-list file to write (text or .gz)")
    p_g.add_argument("--upper", type=int, required=True, help="|U|")
    p_g.add_argument("--lower", type=int, required=True, help="|L|")
    p_g.add_argument("--edges", type=int, required=True, help="edge count m")
    p_g.add_argument("--seed", type=int, default=7, help="RNG seed (default 7)")
    p_g.add_argument(
        "--exponent",
        type=float,
        default=2.5,
        help="chung-lu power-law exponent for both layers (default 2.5)",
    )
    p_g.add_argument(
        "--chunk-edges",
        type=int,
        default=1 << 18,
        help="edges generated per chunk (default 262144)",
    )
    p_g.add_argument("--base", type=int, default=0, help="output id base")
    p_g.set_defaults(func=_cmd_gen)

    p_idx = sub.add_parser(
        "index", help="decompose once and save a serving artifact"
    )
    _add_input_options(p_idx)
    p_idx.add_argument(
        "--algorithm",
        default="bit-bu++",
        choices=sorted(ALGORITHMS),
        help="decomposition algorithm (default bit-bu++)",
    )
    p_idx.add_argument("--tau", type=float, default=0.02, help="BiT-PC tau")
    # An --output flag, not a second positional: the input path is already
    # an optional positional, and argparse cannot split two positionals
    # across intervening option flags.
    p_idx.add_argument(
        "--output",
        required=True,
        help="artifact to write: a .npz path gives one compressed archive; "
        "any other path gives the mmappable directory layout",
    )
    p_idx.add_argument(
        "--profile",
        action="store_true",
        help="record per-phase wall times and print the phase tree",
    )
    p_idx.add_argument(
        "--quiet",
        action="store_true",
        help="suppress human narration",
    )
    p_idx.set_defaults(func=_cmd_index)

    p_q = sub.add_parser(
        "query", help="serve queries against a saved artifact"
    )
    p_q.add_argument(
        "artifact", help="artifact (.npz or directory) written by `index`"
    )
    p_q.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map a directory-layout artifact instead of reading "
        "it eagerly (O(1) resident open)",
    )
    p_q.add_argument(
        "--json",
        action="store_true",
        help="emit the answer as a JSON payload instead of narration",
    )
    p_q.add_argument(
        "--quiet",
        action="store_true",
        help="suppress human narration; only machine-readable payloads "
        "(--json, --output) are emitted",
    )
    qsub = p_q.add_subparsers(dest="query_op", required=True)

    q_kb = qsub.add_parser("k-bitruss", help="edges of the k-bitruss")
    q_kb.add_argument("-k", type=int, required=True, help="cohesion level")
    q_kb.add_argument("--output", help="write the subgraph edge list here")
    q_kb.add_argument("--base", type=int, default=0, help="output id base")
    q_kb.add_argument(
        "--limit", type=int, default=20, help="edges to print (default 20)"
    )
    q_kb.set_defaults(func=_cmd_query_k_bitruss)

    q_com = qsub.add_parser(
        "community", help="k-bitruss community around a query vertex"
    )
    q_com.add_argument("-k", type=int, required=True, help="cohesion level")
    group = q_com.add_mutually_exclusive_group(required=True)
    group.add_argument("--upper", type=int, help="query upper-layer vertex")
    group.add_argument("--lower", type=int, help="query lower-layer vertex")
    q_com.add_argument(
        "--limit", type=int, default=20, help="edges to print (default 20)"
    )
    q_com.set_defaults(func=_cmd_query_community)

    q_mk = qsub.add_parser(
        "max-k", help="deepest bitruss level a vertex reaches"
    )
    group = q_mk.add_mutually_exclusive_group(required=True)
    group.add_argument("--upper", type=int, help="query upper-layer vertex")
    group.add_argument("--lower", type=int, help="query lower-layer vertex")
    q_mk.set_defaults(func=_cmd_query_max_k)

    q_path = qsub.add_parser(
        "path", help="chain of enclosing components of one edge"
    )
    q_path.add_argument(
        "--edge",
        nargs=2,
        type=int,
        required=True,
        metavar=("U", "V"),
        help="edge endpoints (upper lower)",
    )
    q_path.set_defaults(func=_cmd_query_path)

    q_hist = qsub.add_parser("histogram", help="edges per exact phi level")
    q_hist.set_defaults(func=_cmd_query_histogram)

    q_stats = qsub.add_parser("stats", help="artifact + hierarchy summary")
    q_stats.add_argument(
        "--levels", type=int, default=10, help="hierarchy levels to print"
    )
    q_stats.set_defaults(func=_cmd_query_stats)

    q_batch = qsub.add_parser(
        "batch", help="answer a JSON file of mixed queries"
    )
    q_batch.add_argument("file", help="JSON list of {op: ..., ...} objects")
    q_batch.set_defaults(func=_cmd_query_batch)

    p_srv = sub.add_parser(
        "serve", help="host datasets over HTTP (asyncio JSON server)"
    )
    p_srv.add_argument(
        "--dataset",
        action="append",
        choices=datasets.dataset_names(),
        metavar="NAME",
        help="bundled dataset to build and host (repeatable)",
    )
    p_srv.add_argument(
        "--artifact",
        action="append",
        metavar="[NAME=]PATH",
        help="saved artifact (.npz or directory) to host (repeatable; "
        "name defaults to the file stem)",
    )
    p_srv.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map directory-layout --artifact entries instead of "
        "reading them eagerly",
    )
    p_srv.add_argument("--host", default="127.0.0.1", help="bind address")
    p_srv.add_argument(
        "--port", type=int, default=8642, help="bind port (0 = auto-assign)"
    )
    p_srv.add_argument(
        "--algorithm",
        default="bit-bu-csr",
        choices=sorted(ALGORITHMS),
        help="build algorithm for --dataset entries (default bit-bu-csr)",
    )
    p_srv.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="per-dataset LRU result-cache capacity (default 1024)",
    )
    p_srv.add_argument(
        "--mutable",
        action="store_true",
        help="accept POST /{ds}/edges mutations; rebuilds are debounced "
        "and hot-swapped in the background",
    )
    p_srv.add_argument(
        "--debounce",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="quiet period after the last mutation before a rebuild "
        "(default 0.2)",
    )
    p_srv.add_argument(
        "--rebuild-threshold",
        type=float,
        default=0.15,
        metavar="FRACTION",
        help="ceiling on the per-op φ-repair region as a fraction of the "
        "edge count; the effective budget adapts below it from an EWMA "
        "of observed region sizes, and ops that exceed (or are predicted "
        "to exceed) it fall back to the debounced full rebuild "
        "(default 0.15; 0 disables incremental maintenance)",
    )
    p_srv.add_argument(
        "--max-incremental-batch",
        type=int,
        default=64,
        metavar="OPS",
        help="mutation batches with more net ops than this skip the "
        "batched in-place repair and go straight to one debounced "
        "rebuild (default 64)",
    )
    p_srv.add_argument(
        "--window-ms",
        type=float,
        default=2.0,
        help="request-coalescing window in milliseconds (default 2)",
    )
    p_srv.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable request coalescing (one engine call per request)",
    )
    p_srv.add_argument(
        "--profile",
        action="store_true",
        help="enable phase profiling; the phase tree appears in the "
        "/metrics JSON under `profile`",
    )
    p_srv.add_argument(
        "--slow-query-ms",
        type=float,
        default=250.0,
        metavar="MS",
        help="log queries slower than this threshold to the "
        "repro.server.slow logger (default 250; 0 disables)",
    )
    p_srv.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fraction of traces the span recorder retains (0..1; "
        "default: REPRO_TRACE_SAMPLE or 1.0; slow traces are always "
        "kept; 0 disables span recording entirely)",
    )
    p_srv.set_defaults(func=_cmd_serve)

    p_tr = sub.add_parser(
        "trace", help="inspect a running server's live tracing plane"
    )
    p_tr.add_argument(
        "--url",
        default="127.0.0.1:8642",
        help="server address (host:port or full URL; default 127.0.0.1:8642)",
    )
    p_tr.add_argument(
        "--id",
        metavar="TRACE_ID",
        help="print one trace's waterfall instead of the listing",
    )
    p_tr.add_argument(
        "--slowest",
        type=int,
        default=None,
        metavar="N",
        help="list only the N slowest retained traces",
    )
    p_tr.add_argument(
        "--export-chrome",
        metavar="FILE",
        help="write Chrome trace-event JSON (for --id, or the slowest "
        "trace when --id is omitted); load at https://ui.perfetto.dev",
    )
    p_tr.add_argument("--endpoint", help="filter the listing by endpoint")
    p_tr.add_argument("--dataset", help="filter the listing by dataset")
    p_tr.add_argument(
        "--limit", type=int, default=20, help="listing size (default 20)"
    )
    p_tr.add_argument(
        "--json",
        action="store_true",
        help="emit the raw /debug/traces payload instead of narration",
    )
    p_tr.add_argument(
        "--quiet",
        action="store_true",
        help="suppress human narration; only machine-readable payloads "
        "(--json, --export-chrome) are emitted",
    )
    p_tr.set_defaults(func=_cmd_trace)

    p_bench = sub.add_parser(
        "bench",
        help="run benches, inspect the perf trajectory, gate regressions",
    )
    bsub = p_bench.add_subparsers(dest="bench_command", required=True)

    def _bench_common(p):
        p.add_argument(
            "--bench-dir",
            default=None,
            metavar="DIR",
            help="benchmarks/ directory (default: ./benchmarks or the "
            "checkout next to the installed package)",
        )

    b_list = bsub.add_parser("list", help="discovered bench modules")
    _bench_common(b_list)
    b_list.add_argument(
        "--tier", choices=obs_bench.TIERS, default="full",
        help="only modules in this tier (default full = everything)",
    )
    b_list.add_argument(
        "--only", default=None, metavar="GLOB", help="filter by module name"
    )
    b_list.set_defaults(func=_cmd_bench_list)

    b_run = bsub.add_parser(
        "run", help="execute bench modules and record the trajectory"
    )
    _bench_common(b_run)
    b_run.add_argument(
        "--tier", choices=obs_bench.TIERS, default="smoke",
        help="smoke = fast CI subset, full = every module (default smoke)",
    )
    b_run.add_argument(
        "--only", default=None, metavar="GLOB", help="filter by module name"
    )
    b_run.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="repeats per module; timing metrics fold min-of-N (default 1)",
    )
    b_run.set_defaults(func=_cmd_bench_run)

    b_hist = bsub.add_parser(
        "history", help="print one bench's trajectory entries"
    )
    _bench_common(b_hist)
    b_hist.add_argument("bench", help="bench name (see `bench list`)")
    b_hist.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="most recent N entries (default 20)",
    )
    b_hist.set_defaults(func=_cmd_bench_history)

    b_diff = bsub.add_parser(
        "diff",
        help="latest runs vs pinned baselines; exit 2 on regression",
    )
    _bench_common(b_diff)
    b_diff.add_argument(
        "--threshold", type=float, default=obs_bench.DEFAULT_THRESHOLD,
        help="relative regression floor when no tolerance is pinned "
        f"(default {obs_bench.DEFAULT_THRESHOLD})",
    )
    b_diff.add_argument(
        "--noise-mult", type=float, default=obs_bench.DEFAULT_NOISE_MULT,
        help="multiples of the MAD noise window a delta must exceed "
        f"(default {obs_bench.DEFAULT_NOISE_MULT})",
    )
    b_diff.add_argument(
        "--window", type=int, default=obs_bench.DEFAULT_HISTORY_WINDOW,
        help="trajectory entries per metric for the noise estimate "
        f"(default {obs_bench.DEFAULT_HISTORY_WINDOW})",
    )
    b_diff.add_argument(
        "--strict-env", action="store_true",
        help="gate wall-clock metrics even when the baseline was pinned "
        "on a different machine",
    )
    b_diff.add_argument(
        "--only", default=None, metavar="BENCH[,BENCH...]",
        help="restrict to these benches",
    )
    b_diff.add_argument(
        "--fail-on-regression", action="store_true",
        help="explicit CI alias; regressions already exit non-zero",
    )
    b_diff.set_defaults(func=_cmd_bench_diff)

    b_acc = bsub.add_parser(
        "accept", help="re-pin baselines.json from the latest trajectory runs"
    )
    _bench_common(b_acc)
    b_acc.add_argument(
        "--only", default=None, metavar="GLOB",
        help="pin only matching benches (others keep their previous pins)",
    )
    b_acc.set_defaults(func=_cmd_bench_accept)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    obs_log.configure(quiet=bool(getattr(args, "quiet", False)))
    # `stats --profile FILE` reuses the flag name with a string dest, so
    # only a boolean True means "turn the profiler on for this run".
    if getattr(args, "profile", False) is True:
        obs_spans.enable_profiling(True)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
