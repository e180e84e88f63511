"""Which public calls the traced run wraps, and the per-layer metric list.

Layer names are the program's module names: ``graph``, ``core``,
``utils``, ``service``, ``maintenance`` and ``server``.  ``butterfly`` and
``runtime`` get no span: the engine build computes supports itself, and
the runtime pool is idle at the default ``--workers 1``.
"""

import weakref

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER = [
    ("graph.generate_s", "s"),
    ("graph.ingest_s", "s"),
    ("graph.view_s", "s"),
    ("graph.self_s", "s"),
    ("core.build_s", "s"),
    ("core.peel_s", "s"),
    ("core.blooms", "count"),
    ("core.bloom_pairs", "count"),
    ("core.self_s", "s"),
    ("utils.queue_batches", "count"),
    ("utils.queue_updates", "count"),
    ("service.save_s", "s"),
    ("service.load_s", "s"),
    ("service.hierarchy_s", "s"),
    ("service.query_s", "s"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.self_s", "s"),
    ("maintenance.mirror_s", "s"),
    ("maintenance.seed_s", "s"),
    ("maintenance.repair_s", "s"),
    ("maintenance.snapshot_s", "s"),
    ("maintenance.region_edges", "count"),
    ("maintenance.rebuild_s", "s"),
    ("maintenance.fallback_ratio", "ratio"),
    ("maintenance.self_s", "s"),
    ("server.attach_s", "s"),
    ("server.apply_s", "s"),
    ("server.read_wait_s", "s"),
    ("server.coalesced_ratio", "ratio"),
    ("server.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
]

#: Span name -> per-layer metric it feeds (a timed ``*_s`` metric).
SPAN_METRICS = {
    "graph.ingest": "graph.ingest_s",
    "graph.view": "graph.view_s",
    "core.build": "core.build_s",
    "core.peel": "core.peel_s",
    "service.save": "service.save_s",
    "service.load": "service.load_s",
    "service.hierarchy": "service.hierarchy_s",
    "service.query": "service.query_s",
    "maintenance.mirror": "maintenance.mirror_s",
    "maintenance.seed": "maintenance.seed_s",
    "maintenance.repair": "maintenance.repair_s",
    "maintenance.snapshot": "maintenance.snapshot_s",
    "maintenance.rebuild": "maintenance.rebuild_s",
    "server.attach": "server.attach_s",
    "server.apply": "server.apply_s",
}

LAYERS = ("graph", "core", "service", "maintenance", "server")


def _count_blooms(tracer, _args, engine, _index):
    tracer.count("core.blooms", len(engine.bloom_k))
    tracer.count("core.bloom_pairs", len(engine.pair_bloom))


def core_targets(on_query=None):
    """The static pipeline: ingest, view, build, peel, save, load, query."""
    from repro.core.peeling_engine import CSRPeelingEngine
    from repro.graph import io as graph_io
    from repro.graph.bipartite import BipartiteGraph
    from repro.service import artifacts, hierarchy
    from repro.service.engine import QueryEngine
    from repro.utils.bucket_queue import BucketQueue

    return [
        (graph_io, "edges_to_csr_chunked", "graph.ingest", "span", None),
        (BipartiteGraph, "csr_gid_sorted_with_prios", "graph.view", "span", None),
        (artifacts, "build_artifact", "service.build_artifact", "span", None),
        (CSRPeelingEngine, "build", "core.build", "span", _count_blooms),
        (CSRPeelingEngine, "peel", "core.peel", "span", None),
        (BucketQueue, "pop_min_batch", "utils.queue_batches", "count", None),
        (BucketQueue, "update", "utils.queue_updates", "count", None),
        (artifacts, "save_artifact", "service.save", "span", None),
        (artifacts, "load_artifact", "service.load", "span", None),
        (hierarchy, "build_hierarchy", "service.hierarchy", "span", None),
        (QueryEngine, "batch", "service.query", "span", on_query),
    ]


class QueryLinks:
    """Query-cache counts, and span times joined to client requests by
    trace id (the HTTP server adopts each request's ``X-Trace-Id``)."""

    def __init__(self):
        self.by_trace = {}  # trace id -> engine/apply span seconds
        self.hits = 0
        self.misses = 0
        self.regions = []  # edges re-peeled per repaired batch
        self._seen = weakref.WeakKeyDictionary()

    def _link(self, tracer, index):
        from repro.obs import trace as obs_trace

        trace_id = obs_trace.current_trace_id()
        if trace_id:
            _name, start, end, _parent = tracer.spans[index]
            self.by_trace[trace_id] = (end - start) / 1e9

    def on_query(self, tracer, args, _result, index):
        self._link(tracer, index)
        engine = args[0]
        info = engine.cache_info()
        last_hits, last_misses = self._seen.get(engine, (0, 0))
        self.hits += info["hits"] - last_hits
        self.misses += info["misses"] - last_misses
        self._seen[engine] = (info["hits"], info["misses"])

    def on_apply(self, tracer, _args, _result, index):
        self._link(tracer, index)

    def on_repair(self, tracer, _args, report, _index):
        self.regions.append(report.region_size)

    def hit_ratio(self):
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self):
        return {
            "by_trace": self.by_trace,
            "hits": self.hits,
            "misses": self.misses,
            "regions": self.regions,
        }


def server_targets(links):
    """The mutable-serving path, wrapped inside the launched server."""
    from repro.maintenance.dynamic import DynamicBipartiteGraph
    from repro.maintenance.incremental import IncrementalBitruss
    from repro.server.updates import UpdateManager

    return core_targets(links.on_query) + [
        (UpdateManager, "attach", "server.attach", "span", None),
        (DynamicBipartiteGraph, "__init__", "maintenance.mirror", "span", None),
        (DynamicBipartiteGraph, "enable_incremental", "maintenance.seed", "span", None),
        (UpdateManager, "apply", "server.apply", "span", links.on_apply),
        (IncrementalBitruss, "apply_batch", "maintenance.repair", "span", links.on_repair),
        (IncrementalBitruss, "phi_snapshot", "maintenance.snapshot", "span", None),
        (DynamicBipartiteGraph, "rebuild", "maintenance.rebuild", "span", None),
    ]
