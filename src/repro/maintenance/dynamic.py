"""Incremental butterfly-support maintenance under edge updates.

The paper computes a static decomposition; real deployments (fraud feeds,
rating streams) see edges arrive and disappear.  This module maintains
*butterfly supports* exactly under edge insertions and deletions —
the quantity every decomposition algorithm starts from — and offers a
convenience ``decompose()`` that runs any static algorithm on the current
snapshot.

Updating the support after inserting/deleting edge ``(u, v)`` only requires
the butterflies through ``(u, v)``: for every ``w ∈ N(v)∖{u}`` and
``x ∈ N(u) ∩ N(w)∖{v}``, the edges ``(u, x)``, ``(w, v)``, ``(w, x)`` each
gain/lose one butterfly and ``(u, v)`` itself gains/loses one.  That is
``O(Σ_{w ∈ N(v)} d(w))`` per update — the same combination cost BiT-BS pays
per removal, paid here only for the edges that actually change.

Full *bitruss-number* maintenance lives next door in
:mod:`repro.maintenance.incremental`: :meth:`DynamicBipartiteGraph.enable_incremental`
attaches an exact localized-φ-repair tracker, and
:meth:`DynamicBipartiteGraph.apply_batch` routes insert/delete batches (a
single-edge update is a batch of one) through it, patching registered
artifacts and query engines in place instead of leaving them stale.
``decompose()`` remains the honest recompute path and the supports
maintained here make its counting phase free.

The graph also acts as a staleness source for the service layer: artifacts
and query engines registered via :meth:`DynamicBipartiteGraph.register_artifact`
are invalidated on every edge mutation, so a serving deployment can never
silently answer from a φ computed against an older snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    KeysView,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.butterfly.counting import count_per_edge
from repro.core.api import bitruss_decomposition
from repro.core.result import BitrussDecomposition
from repro.graph.bipartite import BipartiteGraph

if TYPE_CHECKING:  # pragma: no cover - circular-import guard
    from repro.maintenance.incremental import IncrementalBitruss, RepairReport
    from repro.service.artifacts import DecompositionArtifact

Edge = Tuple[int, int]


def _row_sets(csr) -> List[Set[int]]:
    """One neighbour set per CSR row, each built in its row's slot order."""
    indptr, indices, _eids = csr
    bounds = indptr.tolist()
    nbrs = indices.tolist()
    return [set(nbrs[a:b]) for a, b in zip(bounds, bounds[1:])]


@dataclass
class ApplyOutcome:
    """Result of one :meth:`DynamicBipartiteGraph.apply_batch` call.

    Attributes
    ----------
    reports:
        One :class:`~repro.maintenance.incremental.RepairReport` per op
        when the incremental path ran, empty otherwise.
    incremental:
        Whether φ was repaired in place for the whole batch.
    patched:
        Watchers whose ``patch`` method was called (now fresh again).
    butterfly_delta:
        Net butterflies created minus destroyed across the batch.
    """

    reports: List["RepairReport"] = field(default_factory=list)
    incremental: bool = False
    patched: int = 0
    butterfly_delta: int = 0
    #: The tracker's :class:`~repro.maintenance.incremental.BatchReport`
    #: when the incremental batch path ran (predictor and merged-peel
    #: counters live there), ``None`` otherwise.
    batch: Optional[object] = None

    @property
    def max_affected_k(self) -> int:
        """Highest level any op in the batch may have perturbed."""
        return max((r.max_affected_k for r in self.reports), default=0)


class DynamicBipartiteGraph:
    """A bipartite graph under edge insertions/deletions with live supports.

    Parameters
    ----------
    num_upper, num_lower:
        Layer capacities (grow with :meth:`add_upper_vertex` /
        :meth:`add_lower_vertex`).
    edges:
        Initial edges, validated like :class:`BipartiteGraph` input
        (``ValueError`` on an out-of-range endpoint or a duplicate).  The
        mirror is seeded as in :meth:`from_graph`: supports from the
        vectorized wedge kernel, adjacency from the CSR rows.

    Examples
    --------
    >>> g = DynamicBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
    >>> g.support_of(0, 0)
    0
    >>> g.apply_batch(inserts=[(1, 1)]).butterfly_delta  # completes it
    1
    >>> g.support_of(0, 0)
    1
    >>> g.apply_batch(deletes=[(0, 1)]).butterfly_delta
    -1
    >>> g.support_of(0, 0)
    0
    """

    def __init__(
        self,
        num_upper: int,
        num_lower: int,
        edges: Optional[Iterable[Edge]] = None,
    ) -> None:
        # BipartiteGraph does the range and duplicate checks (ValueError).
        graph = BipartiteGraph(num_upper, num_lower, () if edges is None else edges)
        self._seed(graph)

    @classmethod
    def from_graph(cls, graph: BipartiteGraph) -> "DynamicBipartiteGraph":
        """A mutable mirror of ``graph``, seeded from its arrays.

        Supports come from one call of the vectorized wedge kernel and
        adjacency from the CSR rows, so no insert is replayed.  The result
        equals inserting ``graph``'s edges one by one in edge-id order,
        down to set iteration order and support key order.

        Examples
        --------
        >>> g = BipartiteGraph(2, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)])
        >>> dyn = DynamicBipartiteGraph.from_graph(g)
        >>> dyn.supports()
        {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1, (1, 2): 0}
        >>> sorted(dyn.neighbors_of_upper(1))
        [0, 1, 2]
        """
        self = cls.__new__(cls)
        self._seed(graph)
        return self

    def _seed(self, graph: BipartiteGraph) -> None:
        """Install ``graph``'s edges with their supports; no watchers yet.

        Each CSR row lists its neighbours in edge-id order, so building a
        row's set from its slice adds them in the order a replay would.
        """
        support = count_per_edge(graph).tolist()
        self._n_u = graph.num_upper
        self._n_l = graph.num_lower
        self._adj_u: List[Set[int]] = _row_sets(graph.csr_upper())
        self._adj_l: List[Set[int]] = _row_sets(graph.csr_lower())
        self._support: Dict[Edge, int] = dict(zip(graph.edges(), support))
        self._watchers: List[object] = []
        self._tracker: Optional["IncrementalBitruss"] = None
        # The base: the current edges sorted by (u, v) as of the last
        # commit, with their codes u * num_lower + v, plus the journal of
        # pairs touched since.  ``_epoch`` counts commits that changed the
        # arrays, so a tracker can tell whether its φ rows still align.
        edge_u, edge_v = graph.edge_upper, graph.edge_lower
        codes = edge_u * self._n_l + edge_v
        if np.all(codes[1:] > codes[:-1]):
            self._base_graph: Optional[BipartiteGraph] = graph
        else:
            order = np.argsort(codes)
            edge_u, edge_v, codes = edge_u[order], edge_v[order], codes[order]
            self._base_graph = None
        self._base_u: np.ndarray = edge_u
        self._base_v: np.ndarray = edge_v
        self._base_codes: np.ndarray = codes
        self._base_n_l = self._n_l
        self._touched: Set[Edge] = set()
        self._epoch = 0

    # ----------------------------------------------------- staleness hooks

    def register_artifact(self, target: object) -> None:
        """Subscribe an artifact/engine to this graph's edge updates.

        ``target`` is anything with an ``invalidate()`` method — a
        :class:`~repro.service.artifacts.DecompositionArtifact` or a
        :class:`~repro.service.engine.QueryEngine` built from an earlier
        snapshot of this graph.  Every subsequent :meth:`insert_edge` /
        :meth:`delete_edge` marks all registered targets stale, so a
        serving layer can never silently answer from outdated φ.

        Examples
        --------
        >>> from repro.service.engine import QueryEngine
        >>> g = DynamicBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
        >>> engine = QueryEngine.from_graph(g.snapshot())
        >>> g.register_artifact(engine)
        >>> engine.stale
        False
        >>> _ = g.insert_edge(1, 1)
        >>> engine.stale
        True
        """
        if not callable(getattr(target, "invalidate", None)):
            raise TypeError("target must expose an invalidate() method")
        self._watchers.append(target)

    def unregister_artifact(self, target: object) -> None:
        """Drop a previously registered artifact/engine (no-op if absent)."""
        self._watchers = [w for w in self._watchers if w is not target]

    def invalidate(self) -> None:
        """Mark every registered artifact/engine stale.

        Called automatically by the edge mutators; exposed so callers with
        out-of-band knowledge of drift (e.g. a replayed log) can force it.
        """
        for watcher in self._watchers:
            watcher.invalidate()

    # ---------------------------------------------------------------- size

    @property
    def num_upper(self) -> int:
        """Current upper-layer capacity."""
        return self._n_u

    @property
    def num_lower(self) -> int:
        """Current lower-layer capacity."""
        return self._n_l

    @property
    def num_edges(self) -> int:
        """Current edge count."""
        return len(self._support)

    def add_upper_vertex(self) -> int:
        """Append a fresh upper vertex; returns its id."""
        self._adj_u.append(set())
        self._n_u += 1
        return self._n_u - 1

    def add_lower_vertex(self) -> int:
        """Append a fresh lower vertex; returns its id."""
        self._adj_l.append(set())
        self._n_l += 1
        return self._n_l - 1

    # --------------------------------------------------------------- edges

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` is currently present."""
        return (u, v) in self._support

    def _check_endpoints(self, u: int, v: int) -> None:
        if not (0 <= u < self._n_u):
            raise ValueError(f"upper endpoint {u} out of range [0, {self._n_u})")
        if not (0 <= v < self._n_l):
            raise ValueError(f"lower endpoint {v} out of range [0, {self._n_l})")

    def support_of(self, u: int, v: int) -> int:
        """Current butterfly support of edge ``(u, v)``.

        Raises
        ------
        ValueError
            If an endpoint is out of range or the edge is absent (the same
            error surface as :meth:`insert_edge` / :meth:`delete_edge`).
        """
        self._check_endpoints(u, v)
        try:
            return self._support[(u, v)]
        except KeyError:
            raise ValueError(f"edge ({u}, {v}) not present") from None

    def neighbors_of_upper(self, u: int) -> Set[int]:
        """Live lower-layer neighbour set of upper vertex ``u`` (do not mutate)."""
        return self._adj_u[u]

    def neighbors_of_lower(self, v: int) -> Set[int]:
        """Live upper-layer neighbour set of lower vertex ``v`` (do not mutate)."""
        return self._adj_l[v]

    def supports(self) -> Dict[Edge, int]:
        """Snapshot of all current supports."""
        return dict(self._support)

    def edge_keys(self) -> KeysView[Edge]:
        """Live set-like view of the current edges (no copy)."""
        return self._support.keys()

    def butterfly_partners(self, u: int, v: int) -> List[Tuple[int, int]]:
        """All ``(w, x)`` completing a butterfly with ``(u, v)``.

        The butterflies are ``{u, w} × {v, x}`` over the current edges;
        ``(u, v)`` itself need not be present, so this lists both the
        butterflies an insert would create and those a delete destroys.
        """
        partners = []
        nu = self._adj_u[u]
        for w in self._adj_l[v]:
            if w == u:
                continue
            for x in self._adj_u[w]:
                if x != v and x in nu:
                    partners.append((w, x))
        return partners

    def insert_edge(self, u: int, v: int) -> int:
        """Insert ``(u, v)``; returns the number of butterflies created."""
        self._check_endpoints(u, v)
        if (u, v) in self._support:
            raise ValueError(f"edge ({u}, {v}) already present")
        # New butterflies are exactly the (w, x) completions that already
        # exist; each one bumps its three old edges and the new edge.
        partners = self.butterfly_partners(u, v)
        for w, x in partners:
            self._support[(u, x)] += 1
            self._support[(w, v)] += 1
            self._support[(w, x)] += 1
        self._adj_u[u].add(v)
        self._adj_l[v].add(u)
        self._support[(u, v)] = len(partners)
        self._touched.add((u, v))
        self.invalidate()
        return len(partners)

    def delete_edge(self, u: int, v: int) -> int:
        """Delete ``(u, v)``; returns the number of butterflies destroyed.

        Raises
        ------
        ValueError
            If an endpoint is out of range or the edge is absent — the same
            error surface as :meth:`insert_edge` (historically this leaked a
            bare ``KeyError`` for missing edges).
        """
        self._check_endpoints(u, v)
        if (u, v) not in self._support:
            raise ValueError(f"edge ({u}, {v}) not present")
        partners = self.butterfly_partners(u, v)
        for w, x in partners:
            self._support[(u, x)] -= 1
            self._support[(w, v)] -= 1
            self._support[(w, x)] -= 1
        self._adj_u[u].discard(v)
        self._adj_l[v].discard(u)
        del self._support[(u, v)]
        self._touched.add((u, v))
        self.invalidate()
        return len(partners)

    # ------------------------------------------------- incremental repair

    def enable_incremental(
        self,
        phi: Union[Dict[Edge, int], "DecompositionArtifact", None] = None,
    ) -> "IncrementalBitruss":
        """Attach an exact localized-φ-repair tracker to this graph.

        Parameters
        ----------
        phi:
            Known-correct bitruss numbers: a served
            :class:`~repro.service.artifacts.DecompositionArtifact` (read
            in one pass, see
            :meth:`~repro.maintenance.incremental.IncrementalBitruss.reseed`)
            or a dict keyed by endpoints; omitted, one static decomposition
            seeds the tracker.

        Returns
        -------
        IncrementalBitruss
            The tracker, also reachable via :attr:`tracker`.  While one is
            attached, mutate through :meth:`apply_batch` (or the tracker's
            own ``apply_batch``) so φ stays in sync.
        """
        from repro.maintenance.incremental import IncrementalBitruss

        self._tracker = IncrementalBitruss(self, phi)
        return self._tracker

    @property
    def tracker(self) -> Optional["IncrementalBitruss"]:
        """The attached φ tracker, or ``None``."""
        return getattr(self, "_tracker", None)

    def validate_batch(
        self,
        inserts: Iterable[Edge] = (),
        deletes: Iterable[Edge] = (),
    ) -> Tuple[List[Edge], List[Edge]]:
        """Check a whole mutation batch against the current graph.

        The atomicity gate for :meth:`apply_batch`: endpoint ranges,
        duplicate ops, missing delete targets, and already-present insert
        targets are all rejected *before* anything mutates, so a bad op at
        position k can never leave ops ``0..k-1`` half-applied.  An insert
        of an edge that the same batch also deletes is legal (deletes apply
        first, so the pair is a toggle).

        Returns the normalized ``(inserts, deletes)`` lists.

        Raises
        ------
        ValueError
            Describing the first offending op; the graph is untouched.
        """
        inserts = [(int(u), int(v)) for u, v in inserts]
        deletes = [(int(u), int(v)) for u, v in deletes]
        deleted: Set[Edge] = set()
        for u, v in deletes:
            self._check_endpoints(u, v)
            if (u, v) in deleted:
                raise ValueError(
                    f"duplicate delete of edge ({u}, {v}) in batch"
                )
            if (u, v) not in self._support:
                raise ValueError(f"edge ({u}, {v}) not present")
            deleted.add((u, v))
        inserted: Set[Edge] = set()
        for u, v in inserts:
            self._check_endpoints(u, v)
            if (u, v) in inserted:
                raise ValueError(
                    f"duplicate insert of edge ({u}, {v}) in batch"
                )
            if (u, v) in self._support and (u, v) not in deleted:
                raise ValueError(f"edge ({u}, {v}) already present")
            inserted.add((u, v))
        return inserts, deletes

    def apply_batch(
        self,
        inserts: Iterable[Edge] = (),
        deletes: Iterable[Edge] = (),
        *,
        incremental: bool = True,
        max_region_fraction: Optional[float] = None,
        patch_watchers: bool = True,
    ) -> ApplyOutcome:
        """Apply an edge batch, repairing φ and patching watchers in place.

        The only mutation path while a tracker is attached; a single-edge
        update is a batch of one.  The batch is validated up front
        (:meth:`validate_batch`) and applied atomically: a malformed op
        raises before any mutation.  Deletions apply first, then
        insertions.  With ``incremental=True`` and a fresh tracker attached
        (:meth:`enable_incremental`), the whole batch routes through
        :meth:`~repro.maintenance.incremental.IncrementalBitruss.apply_batch`
        — one region per op, butterfly-disjoint regions merged into single
        multi-seed peels — and afterwards every registered watcher exposing
        a ``patch`` method — a
        :class:`~repro.service.artifacts.DecompositionArtifact` or
        :class:`~repro.service.engine.QueryEngine` — is handed the patched
        snapshot **once** (single version bump, one selective cache
        invalidation at the batch's ``max_affected_k``), so the batch never
        surfaces a ``StaleArtifactError`` to readers.  Watchers without
        ``patch`` stay invalidated as before.

        Parameters
        ----------
        inserts, deletes:
            ``(u, v)`` pairs; the usual :class:`ValueError` surface applies
            (out-of-range endpoints, duplicate op, duplicate insert,
            missing delete), raised before anything is applied.
        incremental:
            ``False`` forces the plain support-only mutators (watchers are
            left stale, as historical ``insert_edge`` loops did).
        max_region_fraction:
            Ceiling on the per-op region budget as a fraction of the
            current edge count; the effective budget is the tracker's
            :class:`~repro.maintenance.incremental.AdaptiveBudget` below
            that ceiling.  An op that exceeds it (or is predicted to)
            aborts the φ repair — tracker goes dirty, remaining ops apply
            support-only — so the caller can fall back to one full
            rebuild.  ``None`` = unbounded.
        patch_watchers:
            ``False`` skips the watcher patching (the server's update
            manager does its own hot-swap on the event loop).

        Returns
        -------
        ApplyOutcome

        Examples
        --------
        >>> from repro.service.engine import QueryEngine
        >>> g = DynamicBipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
        >>> _ = g.enable_incremental()
        >>> engine = QueryEngine.from_graph(g.snapshot())
        >>> g.register_artifact(engine)
        >>> outcome = g.apply_batch(inserts=[(2, 0), (2, 1)])
        >>> outcome.incremental and not engine.stale
        True
        >>> engine.max_k(upper=2)
        2
        """
        inserts, deletes = self.validate_batch(inserts, deletes)
        outcome = ApplyOutcome()
        tracker = self.tracker
        use_tracker = (
            incremental and tracker is not None and not tracker.dirty
        )
        if use_tracker:
            batch = tracker.apply_batch(
                inserts, deletes, budget_fraction=max_region_fraction
            )
            outcome.batch = batch
            outcome.reports = batch.reports
            outcome.butterfly_delta = batch.butterfly_delta
            outcome.incremental = not batch.fallback and bool(batch.reports)
        else:
            for u, v in deletes:
                outcome.butterfly_delta -= self.delete_edge(u, v)
            for u, v in inserts:
                outcome.butterfly_delta += self.insert_edge(u, v)
        if not (outcome.incremental and patch_watchers and self._watchers):
            return outcome

        assert tracker is not None
        graph, phi = tracker.phi_snapshot()
        affected_gids = self._affected_gids(graph, outcome.reports)
        for watcher in self._watchers:
            patch = getattr(watcher, "patch", None)
            if callable(patch):
                patch(
                    graph,
                    phi,
                    max_affected_k=outcome.max_affected_k,
                    affected_gids=affected_gids,
                )
                outcome.patched += 1
        return outcome

    @staticmethod
    def _affected_gids(
        graph: BipartiteGraph, reports: List["RepairReport"]
    ) -> Set[int]:
        """Global ids of vertices touching any φ change or mutated edge."""
        gids: Set[int] = set()
        for report in reports:
            edges = list(report.changed)
            edges.append(report.edge)
            for u, v in edges:
                gids.add(graph.gid_of_lower(v))
                gids.add(graph.gid_of_upper(u))
        return gids

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> BipartiteGraph:
        """Freeze the current state into an immutable :class:`BipartiteGraph`.

        Edges come sorted by ``(u, v)``, so the result equals
        ``BipartiteGraph(num_upper, num_lower, sorted(edges))`` array for
        array.  It is built by splicing the pairs touched since the last
        snapshot into that snapshot's arrays (:meth:`_commit`): O(touched)
        Python plus numpy passes, no per-edge Python.  With nothing
        touched and no layer grown, the last snapshot itself is returned.
        An attached tracker's φ rows are spliced in the same pass.

        Examples
        --------
        >>> g = DynamicBipartiteGraph(2, 2, [(1, 0), (0, 1)])
        >>> list(g.snapshot().edges())
        [(0, 1), (1, 0)]
        >>> _ = g.insert_edge(0, 0)
        >>> list(g.snapshot().edges())
        [(0, 0), (0, 1), (1, 0)]
        >>> g.snapshot() is g.snapshot()
        True
        """
        return self._publish(self.tracker)

    def _publish(
        self, follower: Optional["IncrementalBitruss"] = None
    ) -> BipartiteGraph:
        """Commit the journal and return the base as a graph (built once)."""
        self._commit(follower)
        graph = self._base_graph
        if (
            graph is None
            or graph.num_upper != self._n_u
            or graph.num_lower != self._n_l
        ):
            # The constructor re-runs the range and duplicate checks.
            graph = BipartiteGraph(
                self._n_u,
                self._n_l,
                np.column_stack((self._base_u, self._base_v)),
            )
            self._base_u, self._base_v = graph.edge_upper, graph.edge_lower
            self._base_graph = graph
        return graph

    def _commit(self, follower: Optional["IncrementalBitruss"] = None) -> None:
        """Splice the journal of touched pairs into the base arrays.

        Every touched pair is looked up in the base by its code
        (``np.searchsorted``); its old row, if any, is dropped, and the
        pairs still present are inserted at their sorted positions.  When
        ``follower``'s φ rows are aligned with the base, its own journal of
        φ writes joins the splice and its rows move with the edges, taking
        their new values from its φ dict, the only per-edge Python.
        """
        n_l = self._n_l
        if self._base_n_l != n_l:
            # A grown lower layer changes every code but not the order.
            self._base_codes = self._base_u * n_l + self._base_v
            self._base_n_l = n_l
        rows = None if follower is None else follower._rows_at(self._epoch)
        touched = self._touched
        if rows is not None:
            touched = touched | follower._phi_touched
        if not touched:
            return
        pairs = sorted(touched)
        t_u = np.array([u for u, _ in pairs], dtype=np.int64)
        t_v = np.array([v for _, v in pairs], dtype=np.int64)
        t_codes = t_u * n_l + t_v
        codes = self._base_codes
        at = np.searchsorted(codes, t_codes)
        hit = at < len(codes)
        hit[hit] = codes[at[hit]] == t_codes[hit]
        keep = np.ones(len(codes), dtype=bool)
        keep[at[hit]] = False
        support = self._support
        live = np.fromiter(
            (pair in support for pair in pairs), dtype=bool, count=len(pairs)
        )
        kept = codes[keep]
        at = np.searchsorted(kept, t_codes[live])
        self._base_codes = np.insert(kept, at, t_codes[live])
        self._base_u = np.insert(self._base_u[keep], at, t_u[live])
        self._base_v = np.insert(self._base_v[keep], at, t_v[live])
        self._base_graph = None
        self._touched = set()
        self._epoch += 1
        if rows is not None:
            assert follower is not None
            follower._splice_rows(
                rows[keep],
                at,
                [pair for pair, alive in zip(pairs, live.tolist()) if alive],
                self._epoch,
            )

    def decompose(self, algorithm: str = "bit-bu++", **kwargs) -> BitrussDecomposition:
        """Run a static decomposition on the current snapshot."""
        return bitruss_decomposition(self.snapshot(), algorithm=algorithm, **kwargs)

    def rebuild(
        self,
        algorithm: str = "bit-bu++",
        *,
        register: bool = True,
        snapshot: Optional[BipartiteGraph] = None,
        **kwargs,
    ):
        """Snapshot, re-decompose, and re-register a serving artifact.

        The one code path for bringing a serving deployment back in sync
        after its registered artifact was invalidated: freeze the current
        state, build a fresh
        :class:`~repro.service.artifacts.DecompositionArtifact`, and
        subscribe the new artifact to this graph's future updates so the
        staleness loop keeps closing.

        Parameters
        ----------
        algorithm:
            Decomposition algorithm.
        register:
            Subscribe the new artifact via :meth:`register_artifact`
            (default).  Pass ``False`` when calling from a worker thread —
            the watcher list is loop-/owner-thread state — and register on
            the owning thread afterwards, as the server's update loop does.
        snapshot:
            A pre-taken :meth:`snapshot` to decompose instead of taking a
            new one (lets callers pin the edge set before handing the
            CPU-heavy build to an executor).
        **kwargs:
            Forwarded to the decomposition (``tau``, ``prefilter``, ...).

        Returns
        -------
        DecompositionArtifact
            Fresh, non-stale, ready to serve or hot-swap.

        Examples
        --------
        >>> from repro.service.engine import QueryEngine
        >>> g = DynamicBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
        >>> artifact = g.rebuild()
        >>> _ = g.insert_edge(1, 1)
        >>> artifact.stale      # registered: updates invalidate it
        True
        >>> g.rebuild().max_k   # the completed 2x2 butterfly: phi = 1
        1
        """
        from repro.service.artifacts import build_artifact

        graph = self.snapshot() if snapshot is None else snapshot
        artifact = build_artifact(graph, algorithm=algorithm, **kwargs)
        if register:
            self.register_artifact(artifact)
            tracker = self.tracker
            if tracker is not None:
                # A full rebuild is the recovery path from a dirty tracker;
                # reseed it so the incremental repair resumes — unless the
                # decomposed snapshot was pinned before further mutations,
                # in which case its φ does not cover the current edges and
                # the reseed refuses without touching the tracker.
                try:
                    tracker.reseed(artifact)
                except ValueError:
                    pass
        return artifact
