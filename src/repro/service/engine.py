"""The online query engine over a decomposition artifact.

:class:`QueryEngine` is the query-many half of the service split: it wraps
a :class:`~repro.service.artifacts.DecompositionArtifact` (freshly built or
reopened from disk), builds the
:class:`~repro.service.hierarchy.BitrussHierarchy` once, and then answers
every structural query in output-linear time — no query ever re-runs a
decomposition.  Results are memoized in a small LRU cache keyed by the
normalized query, so repeated mixed workloads (the "millions of users"
traffic shape) hit memory, not the peeling algorithms.

Supported queries
-----------------
``k_bitruss(k)``           edge ids of ``H_k`` (suffix slice of a sorted φ)
``community(k, ...)``      connected ``H_k`` component around a vertex
``max_k(...)``             deepest level a vertex reaches
``hierarchy_path(...)``    chain of enclosing components of one edge
``phi_histogram()``        exact-φ edge counts
``stats()``                artifact + hierarchy summary
``batch(queries)``         heterogeneous query list through one dispatch

Staleness
---------
When the artifact has been invalidated (e.g. by a registered
:class:`~repro.maintenance.dynamic.DynamicBipartiteGraph`), every query
raises :class:`~repro.service.artifacts.StaleArtifactError` instead of
serving outdated φ; :meth:`QueryEngine.refresh` recomputes and resumes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.api import ALGORITHMS
from repro.core.result import BitrussDecomposition
from repro.graph.bipartite import BipartiteGraph
from repro.obs import spans as obs_spans
from repro.service.artifacts import (
    DecompositionArtifact,
    StaleArtifactError,
    build_artifact,
    load_artifact,
)
from repro.service.hierarchy import BitrussHierarchy, build_hierarchy


class QueryEngine:
    """Serve bitruss-hierarchy queries from a frozen decomposition.

    Parameters
    ----------
    artifact : DecompositionArtifact
        The decomposition to serve.
    cache_size : int, optional
        Maximum number of memoized query results (default 128; 0 disables
        caching).
    allow_stale : bool, optional
        When true, queries keep answering after the artifact is
        invalidated (for read-mostly deployments that tolerate lag);
        default false — stale queries raise.

    Examples
    --------
    >>> from repro.graph.generators import paper_figure4_graph
    >>> from repro.service import build_artifact
    >>> engine = QueryEngine(build_artifact(paper_figure4_graph()))
    >>> engine.max_k(upper=0)
    2
    >>> len(engine.k_bitruss(2))
    6
    """

    def __init__(
        self,
        artifact: DecompositionArtifact,
        *,
        cache_size: int = 128,
        allow_stale: bool = False,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self.artifact = artifact
        self.graph: BipartiteGraph = artifact.graph
        self.phi: np.ndarray = artifact.phi
        self.hierarchy: BitrussHierarchy = build_hierarchy(
            artifact.graph, artifact.phi
        )
        self.allow_stale = allow_stale
        self._cache: "OrderedDict[Tuple, object]" = OrderedDict()
        self._cache_size = cache_size
        self._hits = 0
        self._misses = 0
        self._decomposition: Optional[BitrussDecomposition] = None

    # ------------------------------------------------------- constructors

    @classmethod
    def from_decomposition(
        cls, result: BitrussDecomposition, **kwargs
    ) -> "QueryEngine":
        """Wrap a finished decomposition without going through disk."""
        return cls(DecompositionArtifact.from_decomposition(result), **kwargs)

    @classmethod
    def from_graph(
        cls,
        graph: BipartiteGraph,
        algorithm: str = "bit-bu++",
        **kwargs,
    ) -> "QueryEngine":
        """Decompose ``graph`` and serve the result."""
        return cls(build_artifact(graph, algorithm=algorithm), **kwargs)

    @classmethod
    def load(
        cls,
        path,
        *,
        mmap_mode=None,
        check: bool = True,
        **kwargs,
    ) -> "QueryEngine":
        """Open a saved artifact (integrity-checked) and serve it.

        ``mmap_mode="r"`` memory-maps a directory-layout artifact so the
        engine serves straight from page cache — O(1) resident open, pages
        faulted in as queries touch them.
        """
        return cls(
            load_artifact(path, mmap_mode=mmap_mode, check=check), **kwargs
        )

    # ---------------------------------------------------------- lifecycle

    @property
    def stale(self) -> bool:
        """Whether the underlying artifact has been invalidated."""
        return self.artifact.stale

    def invalidate(self) -> None:
        """Mark the served artifact stale (forwarded to the artifact)."""
        self.artifact.invalidate()

    def refresh(self, graph: Optional[BipartiteGraph] = None) -> None:
        """Recompute the decomposition and resume serving fresh answers.

        Parameters
        ----------
        graph : BipartiteGraph, optional
            The new graph snapshot (e.g. from
            :meth:`~repro.maintenance.dynamic.DynamicBipartiteGraph.snapshot`);
            defaults to re-decomposing the artifact's current graph.  The
            artifact's own algorithm is reused; a name no longer in
            :data:`~repro.core.api.ALGORITHMS` (``"BiT-BU-PAR"``, stored by
            the since-removed process-parallel build) refreshes with
            ``bit-bu-csr``, which gives bitwise the same φ.
        """
        algorithm = self.artifact.algorithm or "bit-bu++"
        if algorithm.lower() not in ALGORITHMS:
            algorithm = "bit-bu-csr"
        self.artifact = build_artifact(graph or self.graph, algorithm=algorithm)
        self.graph = self.artifact.graph
        self.phi = self.artifact.phi
        self.hierarchy = build_hierarchy(self.artifact.graph, self.artifact.phi)
        self._decomposition = None
        self.clear_cache()

    def patch(
        self,
        graph: BipartiteGraph,
        phi: np.ndarray,
        *,
        max_affected_k: Optional[int] = None,
        affected_gids: Optional[set] = None,
    ) -> None:
        """Adopt an incrementally repaired decomposition without recompute.

        The write side of localized φ maintenance
        (:meth:`repro.maintenance.dynamic.DynamicBipartiteGraph.apply_batch`):
        the underlying artifact is patched in place, the hierarchy is
        re-derived from the patched φ (one sweep of array operations per
        φ level — no peeling), and the memoized results are invalidated
        *selectively* by :func:`_surviving_entries` when the caller says
        how far the repair reached.  Without both hints, the whole cache
        is dropped.
        """
        old_graph = self.graph
        self.artifact.patch(graph, phi)
        self.graph = self.artifact.graph
        self.phi = self.artifact.phi
        self.hierarchy = build_hierarchy(self.artifact.graph, self.artifact.phi)
        self._decomposition = None
        self._cache = OrderedDict(
            _surviving_entries(
                self._cache, old_graph, graph, max_affected_k, affected_gids
            )
        )

    def adopt_cache(
        self,
        predecessor: "QueryEngine",
        *,
        max_affected_k: Optional[int] = None,
        affected_gids: Optional[set] = None,
    ) -> int:
        """Carry a predecessor engine's surviving cache across a hot-swap.

        The server publishes a batch as a *new* engine (in-flight leases
        keep the old one), which used to mean every publish started cold.
        This applies :meth:`patch`'s selective-invalidation rule
        (:func:`_surviving_entries`) across instances instead: the
        predecessor's entries the batch provably left unchanged are copied
        into this engine's cache, up to its capacity.

        Returns the number of adopted entries.
        """
        adopted = 0
        for key, value in _surviving_entries(
            predecessor._cache,
            predecessor.graph,
            self.graph,
            max_affected_k,
            affected_gids,
        ):
            if len(self._cache) >= self._cache_size:
                break
            self._cache[key] = value
            adopted += 1
        return adopted

    def _check_fresh(self) -> None:
        if self.artifact.stale and not self.allow_stale:
            raise StaleArtifactError(
                "artifact invalidated by a graph update; call refresh() "
                "or construct the engine with allow_stale=True"
            )

    # -------------------------------------------------------------- cache

    def _cached(self, key: Tuple, compute):
        self._check_fresh()
        if self._cache_size == 0:
            self._misses += 1
            return compute()
        hit = self._cache.get(key, _MISSING)
        if hit is not _MISSING:
            self._hits += 1
            self._cache.move_to_end(key)
            return hit
        self._misses += 1
        value = compute()
        self._cache[key] = value
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return value

    def clear_cache(self) -> None:
        """Drop all memoized results (hit/miss counters survive)."""
        self._cache.clear()

    def cache_info(self) -> Dict[str, int]:
        """Cache statistics: hits, misses, current size, capacity."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._cache),
            "maxsize": self._cache_size,
        }

    # ------------------------------------------------------------ queries

    @property
    def max_phi(self) -> int:
        """Largest bitruss number in the served decomposition."""
        return self.artifact.max_k

    @property
    def decomposition(self) -> BitrussDecomposition:
        """The artifact as a :class:`BitrussDecomposition` (built once).

        Subject to the same staleness rule as the query methods: reading
        it from an invalidated engine raises, so no consumer can sidestep
        the freshness guarantee by going through the raw decomposition.
        """
        self._check_fresh()
        if self._decomposition is None:
            self._decomposition = self.artifact.to_decomposition()
        return self._decomposition

    def phi_of(self, u: int, v: int) -> int:
        """Bitruss number of edge ``(u, v)``."""
        self._check_fresh()
        return int(self.phi[self.graph.edge_id(u, v)])

    def k_bitruss(self, k: int) -> List[int]:
        """Edge ids of the k-bitruss ``H_k``, ascending.

        Identical to
        :meth:`~repro.core.result.BitrussDecomposition.edges_with_phi_at_least`
        but answered from the φ-sorted index in output-linear time.
        """
        return list(
            self._cached(
                ("k_bitruss", int(k)),
                lambda: [int(e) for e in self.hierarchy.k_bitruss_edges(k)],
            )
        )

    def k_bitruss_subgraph(self, k: int) -> BipartiteGraph:
        """The k-bitruss as a subgraph (vertex ids preserved)."""
        self._check_fresh()
        sub, _ = self.graph.subgraph_from_edge_ids(
            self.hierarchy.k_bitruss_edges(k)
        )
        return sub

    def _seed_gid(self, upper: Optional[int], lower: Optional[int]) -> int:
        if (upper is None) == (lower is None):
            raise ValueError("give exactly one of upper= or lower=")
        if upper is not None:
            if not 0 <= upper < self.graph.num_upper:
                raise ValueError(f"upper vertex {upper} out of range")
            return self.graph.gid_of_upper(upper)
        assert lower is not None
        if not 0 <= lower < self.graph.num_lower:
            raise ValueError(f"lower vertex {lower} out of range")
        return self.graph.gid_of_lower(lower)

    def community(
        self,
        k: int,
        *,
        upper: Optional[int] = None,
        lower: Optional[int] = None,
    ):
        """Connected k-bitruss community around a query vertex.

        Returns the same :class:`~repro.apps.community_search.Community`
        the recompute path produces, but from one hierarchy walk plus one
        contiguous slice — output-linear, no peeling, no BFS.
        """
        from repro.apps.community_search import Community

        gid = self._seed_gid(upper, lower)
        cached = self._cached(
            ("community", int(k), int(gid)),
            lambda: self._community_of_gid(int(k), int(gid)),
        )
        # Fresh copy per call: Community is mutable (sets + list), and a
        # caller mutating the result must not poison the cache.
        return Community(
            cached.k, set(cached.upper), set(cached.lower), list(cached.edges)
        )

    def _community_of_gid(self, k: int, gid: int):
        from repro.apps.community_search import Community

        eids = self.hierarchy.community_edges(gid, k)
        uppers = {int(u) for u in self.graph.edge_upper[eids]}
        lowers = {int(v) for v in self.graph.edge_lower[eids]}
        edges = [
            (int(u), int(v))
            for u, v in zip(
                self.graph.edge_upper[eids], self.graph.edge_lower[eids]
            )
        ]
        return Community(k, uppers, lowers, edges)

    def max_k(
        self,
        *,
        upper: Optional[int] = None,
        lower: Optional[int] = None,
    ) -> int:
        """Deepest bitruss level any incident edge of the vertex reaches."""
        gid = self._seed_gid(upper, lower)
        return self._cached(
            ("max_k", int(gid)),
            lambda: self.hierarchy.max_k_of_vertex(int(gid)),
        )

    def hierarchy_path(
        self,
        edge: Optional[Tuple[int, int]] = None,
        *,
        eid: Optional[int] = None,
    ) -> List[Tuple[int, int]]:
        """Chain of enclosing components of one edge, innermost first.

        Parameters
        ----------
        edge : tuple of (int, int), optional
            The edge as an ``(u, v)`` endpoint pair.
        eid : int, optional
            The edge by dense id (exactly one of ``edge``/``eid``).

        Returns
        -------
        list of (int, int)
            ``(level, node_id)`` pairs from ``H_{φ(e)}``'s component up to
            the forest root.
        """
        if (edge is None) == (eid is None):
            raise ValueError("give exactly one of edge= or eid=")
        if edge is not None:
            eid = self.graph.edge_id(*edge)
        assert eid is not None
        if not 0 <= eid < self.graph.num_edges:
            raise ValueError(f"edge id {eid} out of range")
        return list(
            self._cached(
                ("hierarchy_path", int(eid)),
                lambda: self.hierarchy.hierarchy_path(int(eid)),
            )
        )

    def phi_histogram(self) -> Dict[int, int]:
        """``{k: #edges with φ == k}`` for every occurring level."""
        return dict(
            self._cached(
                ("phi_histogram",),
                lambda: {
                    int(k): int(c)
                    for k, c in enumerate(self.hierarchy.phi_histogram())
                    if c
                },
            )
        )

    def stats(self) -> Dict[str, object]:
        """Summary of the served artifact and its hierarchy index."""
        self._check_fresh()
        return {
            "algorithm": self.artifact.algorithm,
            "num_upper": self.graph.num_upper,
            "num_lower": self.graph.num_lower,
            "num_edges": self.graph.num_edges,
            "max_k": self.max_phi,
            "hierarchy_nodes": self.hierarchy.num_nodes,
            "level_sizes": self.hierarchy.level_sizes(),
            "graph_hash": self.artifact.graph_hash,
            "stale": self.stale,
        }

    # -------------------------------------------------------------- batch

    def batch(self, queries: Sequence[Dict[str, object]]) -> List[object]:
        """Answer a heterogeneous list of queries through one dispatch.

        Each query is a dict with an ``"op"`` key naming a query method
        plus that method's keyword arguments, e.g.::

            engine.batch([
                {"op": "k_bitruss", "k": 3},
                {"op": "community", "k": 2, "upper": 7},
                {"op": "max_k", "lower": 4},
                {"op": "hierarchy_path", "edge": [0, 1]},
                {"op": "phi_histogram"},
                {"op": "stats"},
            ])

        Results come back in query order; the shared LRU cache makes
        repeated sub-queries within one batch free.
        """
        dispatch = {
            "k_bitruss": self.k_bitruss,
            "community": self.community,
            "max_k": self.max_k,
            "hierarchy_path": self.hierarchy_path,
            "phi_histogram": self.phi_histogram,
            "stats": self.stats,
            "phi_of": self.phi_of,
        }
        results: List[object] = []
        with obs_spans.span("engine batch", queries=len(queries)):
            for query in queries:
                params = dict(query)
                op = params.pop("op", None)
                if op not in dispatch:
                    raise ValueError(
                        f"unknown batch op {op!r}; choose from {sorted(dispatch)}"
                    )
                if op == "hierarchy_path" and "edge" in params:
                    params["edge"] = tuple(params["edge"])  # JSON lists arrive
                with obs_spans.span(f"query:{op}"):
                    results.append(dispatch[op](**params))
        return results

    def __repr__(self) -> str:
        return (
            f"QueryEngine(m={self.graph.num_edges}, max_k={self.max_phi}, "
            f"nodes={self.hierarchy.num_nodes}, stale={self.stale})"
        )


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


def _surviving_entries(cache, old_graph, new_graph, max_affected_k, affected_gids):
    """Yield the cache entries a mutation batch provably left unchanged.

    The one cache-survival rule of :meth:`QueryEngine.patch` and
    :meth:`QueryEngine.adopt_cache`:

    * ``community`` entries survive for levels strictly above
      ``max_affected_k`` — the k-bitrusses there are untouched, and the
      cached value stores endpoint pairs, not (reassigned) edge ids;
    * ``max_k`` entries survive for vertices outside ``affected_gids``
      (no incident edge changed φ or existence);
    * everything keyed by edge ids (``k_bitruss``, ``hierarchy_path``)
      and the global ``phi_histogram`` drop — edge ids shift whenever an
      insert or delete lands in front of them in the sorted snapshot.

    Nothing survives without both hints, or when the layer sizes of
    ``old_graph`` and ``new_graph`` differ: vertex-keyed entries are only
    transplantable while the gid space is unchanged (adding a lower vertex
    shifts every upper gid).
    """
    if max_affected_k is None or affected_gids is None:
        return
    if (
        old_graph.num_upper != new_graph.num_upper
        or old_graph.num_lower != new_graph.num_lower
    ):
        return
    for key, value in cache.items():
        op = key[0]
        if (op == "community" and key[1] > max_affected_k) or (
            op == "max_k" and key[1] not in affected_gids
        ):
            yield key, value
