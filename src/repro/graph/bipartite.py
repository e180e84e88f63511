"""The core bipartite-graph structure, CSR-backed.

Vertices live in two disjoint layers: *upper* vertices ``0 .. n_u - 1`` and
*lower* vertices ``0 .. n_l - 1``, each in its own id space.  Edges connect an
upper vertex to a lower vertex and carry dense integer ids ``0 .. m - 1``; all
per-edge algorithm state (butterfly supports, bitruss numbers, queue keys) is
stored in arrays indexed by edge id.

Memory layout
-------------
The graph is stored in **compressed sparse row (CSR)** form — the adjacency-
array representation the paper assumes for its ``O(Σ min(d(u), d(v)) + ⋈G)``
bounds.  Three parallel ``int64`` arrays describe each layer's adjacency::

    indptr  : length n + 1, row i spans indptr[i] .. indptr[i + 1]
    indices : neighbour ids, concatenated row by row
    edge_ids: edge id of each (vertex, neighbour) slot, parallel to indices

All arrays are built **once**, vectorized, at construction and are exposed
read-only; neighbour accessors return zero-copy slices of them.  The legacy
list-of-lists view (:meth:`BipartiteGraph.adjacency_by_gid`) is a cached
compatibility view *derived from* the CSR arrays — no algorithm module builds
its own adjacency copy.

Global ids
----------
Several algorithms (vertex-priority counting, BE-Index construction) iterate
over *all* vertices regardless of layer.  The *global id* linearizes the two
layers as::

    gid(v in L) = v
    gid(u in U) = n_l + u

which also realizes the paper's convention that every upper-layer id is
larger than every lower-layer id (used by the priority tie-break of
Definition 7).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.arrays import sorted_unique, stable_argsort
from repro.utils.priority import (
    compact_ranking,
    row_priority_keys,
    vertex_priorities,
)

Edge = Tuple[int, int]

#: ``(indptr, indices, edge_ids)`` — one CSR adjacency block.
CSR = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _freeze(*arrays: np.ndarray) -> None:
    """Mark shared CSR arrays read-only so zero-copy views are safe."""
    for arr in arrays:
        arr.flags.writeable = False


def csr_from_endpoints(
    rows: np.ndarray, cols: np.ndarray, num_rows: int
) -> CSR:
    """One layer's CSR block from ``int64`` endpoint arrays indexed by edge id.

    Row ``r`` lists its edges in edge-id order: the slot order is the
    stable sort of ``rows``, done by :func:`~repro.utils.arrays.stable_argsort`
    in ``O(m)`` per 16 bits of ``num_rows``, and ``indptr`` is the prefix sum
    of one ``bincount``.  The constructor, the chunked loader and the
    artifact loader all build their CSR here.

    Raises
    ------
    ValueError
        If a row id is negative or not below ``num_rows``.

    >>> indptr, indices, eids = csr_from_endpoints(
    ...     np.array([1, 0, 1]), np.array([5, 6, 7]), 2)
    >>> indptr.tolist(), indices.tolist(), eids.tolist()
    ([0, 1, 3], [6, 5, 7], [1, 0, 2])
    """
    counts = np.bincount(rows, minlength=num_rows)
    if len(counts) != num_rows:
        raise ValueError(f"row id {len(counts) - 1} out of range [0, {num_rows})")
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = stable_argsort(rows, num_rows)
    return indptr, cols[order], order


def first_occurrences(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    num_upper: int,
    num_lower: int,
    *,
    dedup: bool,
) -> Optional[np.ndarray]:
    """Positions of each distinct ``(u, v)`` pair's first occurrence.

    Returns ``None`` when no pair repeats (the common case, decided by one
    ``np.sort`` of the linearized codes plus a neighbour compare).
    Otherwise returns the first-occurrence positions in input order, or,
    with ``dedup=False``, raises :class:`ValueError` naming the earliest
    repeated edge.  Endpoints must already be range-checked.
    """
    codes = edge_u * num_lower + edge_v
    ordered = np.sort(codes)
    head = np.empty(len(codes), dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    if head.all():
        return None
    # The stable order puts each run's first occurrence at its head.
    order = stable_argsort(codes, num_upper * num_lower)
    if not dedup:
        dup = int(order[~head].min())
        raise ValueError(
            f"duplicate edge ({int(edge_u[dup])}, {int(edge_v[dup])})"
        )
    return np.sort(order[head])


def _twin_slots(edge_ids: np.ndarray) -> np.ndarray:
    """Map every gid-CSR slot to the other slot of the same edge id.

    The lower rows hold slots ``0 .. m - 1`` and the upper rows the rest,
    each edge once on either side, so two scatters of slot numbers by edge
    id (one per side) and two gathers build the map in ``O(m)``.
    """
    m = len(edge_ids) // 2
    lower, upper = edge_ids[:m], edge_ids[m:]
    slot_of = np.empty(m, dtype=np.int64)
    twin = np.empty(2 * m, dtype=np.int64)
    slot_of[upper] = np.arange(m, 2 * m)
    twin[:m] = slot_of[lower]
    slot_of[lower] = np.arange(m)
    twin[m:] = slot_of[upper]
    return twin


class BipartiteGraph:
    """An undirected bipartite graph with dense vertex and edge ids.

    The graph is immutable: upper/lower adjacency is stored as
    ``indptr``/``indices``/``edge_ids`` numpy arrays (CSR) built once at
    construction, and every accessor below is either a zero-copy slice of
    those arrays or a cached view derived from them.

    Parameters
    ----------
    num_upper, num_lower : int
        Sizes of the two vertex layers.
    edges : iterable of (int, int) pairs, or an ``(m, 2)`` ndarray
        ``(u, v)`` pairs with ``0 <= u < num_upper`` and
        ``0 <= v < num_lower``.  Edge ids are assigned in iteration order.
    dedup : bool, optional
        When ``True``, silently drop duplicate ``(u, v)`` pairs (bipartite
        interaction data frequently repeats edges); when ``False`` (default),
        duplicates raise :class:`ValueError`.

    Raises
    ------
    ValueError
        On negative layer sizes, endpoints out of range, or (with
        ``dedup=False``) duplicate edges.

    Examples
    --------
    >>> g = BipartiteGraph(2, 3, [(0, 0), (0, 1), (1, 0)])
    >>> g.num_edges
    3
    >>> g.neighbors_of_upper(0).tolist()
    [0, 1]
    >>> indptr, indices, eids = g.csr_upper()
    >>> indices[indptr[0]:indptr[1]].tolist()
    [0, 1]
    """

    def __init__(
        self,
        num_upper: int,
        num_lower: int,
        edges: Iterable[Edge] = (),
        *,
        dedup: bool = False,
    ) -> None:
        if num_upper < 0 or num_lower < 0:
            raise ValueError("layer sizes must be non-negative")
        self._n_u = int(num_upper)
        self._n_l = int(num_lower)

        if isinstance(edges, np.ndarray):
            # Always copy: a zero-copy view here would alias caller-owned
            # memory into the (immutable, frozen) graph.
            pairs = np.array(edges, dtype=np.int64, copy=True).reshape(-1, 2)
        else:
            listed = list(edges)
            pairs = (
                np.asarray(listed, dtype=np.int64).reshape(-1, 2)
                if listed
                else np.empty((0, 2), dtype=np.int64)
            )
        edge_u = np.ascontiguousarray(pairs[:, 0])
        edge_v = np.ascontiguousarray(pairs[:, 1])

        if edge_u.size:
            bad_u = (edge_u < 0) | (edge_u >= self._n_u)
            if bad_u.any():
                offender = int(edge_u[int(np.argmax(bad_u))])
                raise ValueError(
                    f"upper endpoint {offender} out of range [0, {self._n_u})"
                )
            bad_v = (edge_v < 0) | (edge_v >= self._n_l)
            if bad_v.any():
                offender = int(edge_v[int(np.argmax(bad_v))])
                raise ValueError(
                    f"lower endpoint {offender} out of range [0, {self._n_l})"
                )
            keep = first_occurrences(
                edge_u, edge_v, self._n_u, self._n_l, dedup=dedup
            )
            if keep is not None:
                edge_u = edge_u[keep]
                edge_v = edge_v[keep]

        self._install(
            edge_u,
            edge_v,
            csr_from_endpoints(edge_u, edge_v, self._n_u),
            csr_from_endpoints(edge_v, edge_u, self._n_l),
        )

    @classmethod
    def from_csr(
        cls,
        num_upper: int,
        num_lower: int,
        edge_upper: np.ndarray,
        edge_lower: np.ndarray,
        upper_csr: CSR,
        lower_csr: CSR,
        *,
        check: bool = True,
    ) -> "BipartiteGraph":
        """Rehydrate a graph from pre-built endpoint and CSR arrays.

        The normal constructor range-checks and deduplicates an edge list
        before deriving the CSR blocks; this alternate constructor
        *installs* arrays that were built elsewhere — the CSR ``.npy``
        files of a directory-layout
        :class:`~repro.service.artifacts.DecompositionArtifact`, or blocks
        derived with :func:`csr_from_endpoints` by the chunked loader and
        the ``.npz`` artifact loader.

        Parameters
        ----------
        num_upper, num_lower : int
            Layer sizes.
        edge_upper, edge_lower : numpy.ndarray
            Endpoint arrays indexed by edge id.
        upper_csr, lower_csr : tuple of numpy.ndarray
            ``(indptr, indices, edge_ids)`` triples for each layer, laid
            out exactly as :meth:`csr_upper` / :meth:`csr_lower` return
            them.
        check : bool, optional
            When true (default) run the vectorized structural checks
            (:meth:`_validate_arrays`) on the result so a corrupted or
            mismatched array set cannot produce a silently broken graph;
            stays O(m) at numpy speed, no Python-level per-edge loop.

        Returns
        -------
        BipartiteGraph
            A graph sharing (frozen copies of) the supplied arrays.
        """
        if num_upper < 0 or num_lower < 0:
            raise ValueError("layer sizes must be non-negative")
        self = cls.__new__(cls)
        self._n_u = int(num_upper)
        self._n_l = int(num_lower)
        if len(upper_csr[0]) != self._n_u + 1:
            raise ValueError("upper indptr length does not match num_upper")
        if len(lower_csr[0]) != self._n_l + 1:
            raise ValueError("lower indptr length does not match num_lower")
        self._install(edge_upper, edge_lower, upper_csr, lower_csr)
        if check:
            self._validate_arrays()
        return self

    def _install(
        self,
        edge_upper: np.ndarray,
        edge_lower: np.ndarray,
        upper_csr: CSR,
        lower_csr: CSR,
    ) -> None:
        """Install endpoint and CSR arrays as frozen ``int64``; reset caches."""
        self._edge_u = np.ascontiguousarray(edge_upper, dtype=np.int64)
        self._edge_v = np.ascontiguousarray(edge_lower, dtype=np.int64)
        (self._up_indptr, self._up_nbrs, self._up_eids) = (
            np.ascontiguousarray(a, dtype=np.int64) for a in upper_csr
        )
        (self._lo_indptr, self._lo_nbrs, self._lo_eids) = (
            np.ascontiguousarray(a, dtype=np.int64) for a in lower_csr
        )
        _freeze(
            self._edge_u,
            self._edge_v,
            self._up_indptr,
            self._up_nbrs,
            self._up_eids,
            self._lo_indptr,
            self._lo_nbrs,
            self._lo_eids,
        )

        # Lazily-built caches, all derived from the CSR arrays above.
        self._edge_index: Optional[Dict[Edge, int]] = None
        self._gid_csr: Optional[CSR] = None
        self._gid_csr_sorted: Optional[CSR] = None
        self._gid_sorted_prios: Optional[np.ndarray] = None
        self._gid_sorted_twin: Optional[np.ndarray] = None
        self._prio: Optional[np.ndarray] = None
        self._gid_adj: Optional[List[List[int]]] = None
        self._gid_adj_eids: Optional[List[List[int]]] = None

    # ------------------------------------------------------------------ size

    @property
    def num_upper(self) -> int:
        """Number of upper-layer vertices ``|U|``."""
        return self._n_u

    @property
    def num_lower(self) -> int:
        """Number of lower-layer vertices ``|L|``."""
        return self._n_l

    @property
    def num_vertices(self) -> int:
        """Total vertex count ``|U| + |L|``."""
        return self._n_u + self._n_l

    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return self._edge_u.shape[0]

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(|U|={self._n_u}, |L|={self._n_l}, "
            f"m={self.num_edges})"
        )

    # ----------------------------------------------------------------- edges

    @property
    def edge_upper(self) -> np.ndarray:
        """Read-only ``int64`` array of upper endpoints indexed by edge id."""
        return self._edge_u

    @property
    def edge_lower(self) -> np.ndarray:
        """Read-only ``int64`` array of lower endpoints indexed by edge id."""
        return self._edge_v

    def edge_endpoints(self, eid: int) -> Edge:
        """Return the endpoints of one edge.

        Parameters
        ----------
        eid : int
            Edge id in ``[0, m)``.

        Returns
        -------
        tuple of (int, int)
            The ``(u, v)`` pair of edge ``eid``.

        Examples
        --------
        >>> BipartiteGraph(2, 2, [(1, 0)]).edge_endpoints(0)
        (1, 0)
        """
        return int(self._edge_u[eid]), int(self._edge_v[eid])

    def _index(self) -> Dict[Edge, int]:
        """The lazily-built ``(u, v) -> edge id`` dictionary."""
        if self._edge_index is None:
            self._edge_index = {
                (u, v): eid
                for eid, (u, v) in enumerate(
                    zip(self._edge_u.tolist(), self._edge_v.tolist())
                )
            }
        return self._edge_index

    def edge_id(self, u: int, v: int) -> int:
        """Return the edge id of ``(u, v)``.

        Parameters
        ----------
        u, v : int
            Upper and lower endpoint.

        Returns
        -------
        int
            The dense edge id.

        Raises
        ------
        KeyError
            If the edge is absent.

        Examples
        --------
        >>> BipartiteGraph(2, 2, [(0, 1), (1, 1)]).edge_id(1, 1)
        1
        """
        return self._index()[(int(u), int(v))]

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the edge ``(u, v)`` exists.

        Examples
        --------
        >>> BipartiteGraph(1, 1, [(0, 0)]).has_edge(0, 0)
        True
        """
        return (int(u), int(v)) in self._index()

    def edges(self) -> Iterator[Edge]:
        """Iterate over ``(u, v)`` pairs in edge-id order.

        Yields
        ------
        tuple of (int, int)
            One endpoint pair per edge, ordered by edge id.
        """
        yield from zip(self._edge_u.tolist(), self._edge_v.tolist())

    # ----------------------------------------------------------- CSR access

    def csr_upper(self) -> CSR:
        """CSR adjacency of the upper layer.

        Returns
        -------
        tuple of numpy.ndarray
            ``(indptr, indices, edge_ids)`` — row ``u`` spans
            ``indptr[u]:indptr[u + 1]``; ``indices`` holds lower-layer
            neighbour ids and ``edge_ids`` the parallel edge ids.  The
            arrays are shared and read-only (zero-copy).
        """
        return self._up_indptr, self._up_nbrs, self._up_eids

    def csr_lower(self) -> CSR:
        """CSR adjacency of the lower layer.

        Returns
        -------
        tuple of numpy.ndarray
            ``(indptr, indices, edge_ids)`` with upper-layer neighbour ids;
            shared and read-only (zero-copy).
        """
        return self._lo_indptr, self._lo_nbrs, self._lo_eids

    def csr_gid(self) -> CSR:
        """CSR adjacency over *global* vertex ids.

        Rows ``0 .. n_l - 1`` are the lower layer (neighbours are upper gids
        ``n_l + u``); rows ``n_l .. n_l + n_u - 1`` are the upper layer
        (neighbours are lower gids ``v``).  Built once from the per-layer
        CSR blocks and cached; the wedge-processing algorithms are written
        against this layout.

        Returns
        -------
        tuple of numpy.ndarray
            ``(indptr, indices, edge_ids)``, shared and read-only.
        """
        if self._gid_csr is None:
            indptr = np.concatenate(
                (self._lo_indptr, self._lo_indptr[-1] + self._up_indptr[1:])
            )
            indices = np.concatenate((self._lo_nbrs + self._n_l, self._up_nbrs))
            eids = np.concatenate((self._lo_eids, self._up_eids))
            _freeze(indptr, indices, eids)
            self._gid_csr = (indptr, indices, eids)
        return self._gid_csr

    def priorities(self) -> np.ndarray:
        """The Definition 7 vertex ranking, computed once and cached.

        Returns
        -------
        numpy.ndarray
            ``prio[g]`` is the 1-based priority of global vertex ``g``
            (higher degree wins, ties broken by global id); read-only.
        """
        if self._prio is None:
            prio = vertex_priorities(self.degrees())
            _freeze(prio)
            self._prio = prio
        return self._prio

    def csr_gid_sorted(self, priorities: Optional[np.ndarray] = None) -> CSR:
        """Global-id CSR with every row sorted by ascending neighbour priority.

        Priority-sorted rows turn the "priority < p(start)" filters of the
        counting/indexing traversals into prefix cuts instead of boolean
        masks.  The rows are sorted by one stable ``np.argsort`` of the
        slot key ``row * span + rank(neighbour)``, where the rank is
        :func:`~repro.utils.priority.compact_ranking` of the priorities;
        equal priorities keep their :meth:`csr_gid` order.  The
        default-priority variant is built once and cached.

        Parameters
        ----------
        priorities : numpy.ndarray, optional
            A custom Definition 7 ranking; when omitted the graph's own
            cached :meth:`priorities` are used and the result is cached too.

        Returns
        -------
        tuple of numpy.ndarray
            ``(indptr, indices, edge_ids)`` — same ``indptr`` object as
            :meth:`csr_gid`, with ``indices``/``edge_ids`` permuted row-wise.
        """
        custom = priorities is not None
        if not custom and self._gid_csr_sorted is not None:
            return self._gid_csr_sorted
        indptr, indices, eids = self.csr_gid()
        ranking = compact_ranking(priorities if custom else self.priorities())
        base = int(ranking.min()) if len(ranking) else 0
        span = int(ranking.max()) - base + 1 if len(ranking) else 1
        key = row_priority_keys(indptr, ranking[indices], span, base)
        order = np.argsort(key, kind="stable")
        del key
        sorted_csr = (indptr, indices[order], eids[order])
        if not custom:
            _freeze(sorted_csr[1], sorted_csr[2])
            self._gid_csr_sorted = sorted_csr
        return sorted_csr

    def csr_gid_sorted_with_prios(
        self, priorities: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`csr_gid_sorted` plus per-slot neighbour priorities and twins.

        The traversals all need ``prio[indices]`` (one gather over all
        ``2m`` CSR slots) next to the sorted CSR, and the wedge kernel needs
        each slot's twin: the other slot of the same edge.  For the default
        ranking both are computed once and cached alongside the sorted
        arrays.

        Parameters
        ----------
        priorities : numpy.ndarray, optional
            A custom Definition 7 ranking; when omitted the cached default
            is used.

        Returns
        -------
        tuple of numpy.ndarray
            ``(indptr, indices, edge_ids, row_prios, twin)`` with
            ``row_prios[slot]`` the priority of ``indices[slot]`` and
            ``twin[slot]`` the slot with ``edge_ids[twin[slot]] ==
            edge_ids[slot]`` in the row of ``indices[slot]``.
        """
        indptr, indices, eids = self.csr_gid_sorted(priorities)
        if priorities is not None:
            return (
                indptr,
                indices,
                eids,
                np.asarray(priorities)[indices],
                _twin_slots(eids),
            )
        if self._gid_sorted_prios is None:
            row_prios = self.priorities()[indices]
            twin = _twin_slots(eids)
            _freeze(row_prios, twin)
            self._gid_sorted_prios = row_prios
            self._gid_sorted_twin = twin
        return indptr, indices, eids, self._gid_sorted_prios, self._gid_sorted_twin

    # ------------------------------------------------------------- adjacency

    def neighbors_of_upper(self, u: int) -> np.ndarray:
        """Lower-layer neighbours of upper vertex ``u``.

        Returns
        -------
        numpy.ndarray
            Zero-copy, read-only slice of the upper CSR ``indices`` array.
        """
        return self._up_nbrs[self._up_indptr[u] : self._up_indptr[u + 1]]

    def neighbors_of_lower(self, v: int) -> np.ndarray:
        """Upper-layer neighbours of lower vertex ``v``.

        Returns
        -------
        numpy.ndarray
            Zero-copy, read-only slice of the lower CSR ``indices`` array.
        """
        return self._lo_nbrs[self._lo_indptr[v] : self._lo_indptr[v + 1]]

    def edges_of_upper(self, u: int) -> np.ndarray:
        """Edge ids incident to upper vertex ``u`` (parallel to neighbours).

        Returns
        -------
        numpy.ndarray
            Zero-copy, read-only slice of the upper CSR ``edge_ids`` array.
        """
        return self._up_eids[self._up_indptr[u] : self._up_indptr[u + 1]]

    def edges_of_lower(self, v: int) -> np.ndarray:
        """Edge ids incident to lower vertex ``v`` (parallel to neighbours).

        Returns
        -------
        numpy.ndarray
            Zero-copy, read-only slice of the lower CSR ``edge_ids`` array.
        """
        return self._lo_eids[self._lo_indptr[v] : self._lo_indptr[v + 1]]

    def degree_upper(self, u: int) -> int:
        """Degree of upper vertex ``u``."""
        return int(self._up_indptr[u + 1] - self._up_indptr[u])

    def degree_lower(self, v: int) -> int:
        """Degree of lower vertex ``v``."""
        return int(self._lo_indptr[v + 1] - self._lo_indptr[v])

    def degrees(self) -> np.ndarray:
        """Degrees of all vertices indexed by global id.

        Returns
        -------
        numpy.ndarray
            ``int64`` array of length ``num_vertices``: lower-layer degrees
            first (gids ``0 .. n_l - 1``), then upper-layer degrees.
        """
        return np.concatenate(
            (np.diff(self._lo_indptr), np.diff(self._up_indptr))
        )

    # ------------------------------------------------------------ global ids

    def gid_of_upper(self, u: int) -> int:
        """Global id of upper vertex ``u`` (``n_l + u``)."""
        return self._n_l + u

    def gid_of_lower(self, v: int) -> int:
        """Global id of lower vertex ``v`` (``v``)."""
        return v

    def is_upper_gid(self, gid: int) -> bool:
        """Return ``True`` when ``gid`` denotes an upper-layer vertex."""
        return gid >= self._n_l

    def upper_of_gid(self, gid: int) -> int:
        """Upper-layer id of a global id (caller must know the layer)."""
        return gid - self._n_l

    def adjacency_by_gid(self) -> Tuple[List[List[int]], List[List[int]]]:
        """Legacy list-of-lists adjacency view over global vertex ids.

        This is a thin compatibility view for the scalar reference
        traversals: it is materialized **once** from the gid CSR arrays
        (plain Python ints iterate faster than boxed numpy scalars in
        pure-Python inner loops) and cached on the graph, so no caller ever
        builds its own adjacency copy.

        Returns
        -------
        tuple of (list of list of int, list of list of int)
            ``(adj, adj_eids)`` indexed by global vertex id: ``adj[g]``
            lists neighbour gids of vertex ``g`` and ``adj_eids[g]`` the
            parallel edge ids.
        """
        if self._gid_adj is None:
            indptr, indices, eids = self.csr_gid()
            bounds = indptr.tolist()
            flat_adj = indices.tolist()
            flat_eids = eids.tolist()
            self._gid_adj = [
                flat_adj[bounds[g] : bounds[g + 1]]
                for g in range(self.num_vertices)
            ]
            self._gid_adj_eids = [
                flat_eids[bounds[g] : bounds[g + 1]]
                for g in range(self.num_vertices)
            ]
        assert self._gid_adj_eids is not None
        return self._gid_adj, self._gid_adj_eids

    # ------------------------------------------------------------- subgraphs

    def subgraph_from_edge_ids(
        self, edge_ids: Sequence[int]
    ) -> Tuple["BipartiteGraph", np.ndarray]:
        """Edge-induced subgraph, keeping the original vertex id spaces.

        Parameters
        ----------
        edge_ids : sequence of int
            Edge ids of this graph; duplicates are dropped and the subgraph
            keeps them in ascending original-id order.

        Returns
        -------
        tuple of (BipartiteGraph, numpy.ndarray)
            ``(subgraph, orig_eids)`` where ``orig_eids[new_eid]`` maps a
            subgraph edge id back to this graph's edge id.  Vertex ids are
            *not* relabelled, so vertex-level results transfer directly;
            vertices untouched by the edge subset simply become isolated.

        Examples
        --------
        >>> g = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 1)])
        >>> sub, orig = g.subgraph_from_edge_ids([2, 0])
        >>> orig.tolist()
        [0, 2]
        """
        edge_ids = sorted_unique(np.asarray(edge_ids, dtype=np.int64))
        pairs = np.stack(
            (self._edge_u[edge_ids], self._edge_v[edge_ids]), axis=1
        )
        sub = BipartiteGraph(self._n_u, self._n_l, pairs)
        return sub, edge_ids

    def induced_subgraph(
        self,
        upper_subset: Iterable[int],
        lower_subset: Iterable[int],
        *,
        relabel: bool = True,
    ) -> "BipartiteGraph":
        """Vertex-induced subgraph (used by the Fig. 12 sampling experiment).

        Parameters
        ----------
        upper_subset, lower_subset : iterable of int
            Vertices to keep in each layer.
        relabel : bool, optional
            When true (default) the kept vertices are renumbered densely in
            ascending order of their original id.

        Returns
        -------
        BipartiteGraph
            The subgraph induced by the kept vertices; the edge-membership
            filter is evaluated vectorized over the edge-endpoint arrays.
        """
        upper_ids = sorted_unique(np.asarray(list(upper_subset), dtype=np.int64))
        lower_ids = sorted_unique(np.asarray(list(lower_subset), dtype=np.int64))
        mask_u = np.zeros(self._n_u, dtype=bool)
        mask_u[upper_ids[(upper_ids >= 0) & (upper_ids < self._n_u)]] = True
        mask_l = np.zeros(self._n_l, dtype=bool)
        mask_l[lower_ids[(lower_ids >= 0) & (lower_ids < self._n_l)]] = True
        keep = mask_u[self._edge_u] & mask_l[self._edge_v]
        kept_u = self._edge_u[keep]
        kept_v = self._edge_v[keep]
        if not relabel:
            return BipartiteGraph(
                self._n_u, self._n_l, np.stack((kept_u, kept_v), axis=1)
            )
        remap_u = np.zeros(max(self._n_u, int(upper_ids.max()) + 1 if len(upper_ids) else 0), dtype=np.int64)
        remap_u[upper_ids] = np.arange(len(upper_ids))
        remap_l = np.zeros(max(self._n_l, int(lower_ids.max()) + 1 if len(lower_ids) else 0), dtype=np.int64)
        remap_l[lower_ids] = np.arange(len(lower_ids))
        relabelled = np.stack((remap_u[kept_u], remap_l[kept_v]), axis=1)
        return BipartiteGraph(len(upper_ids), len(lower_ids), relabelled)

    # -------------------------------------------------------------- exports

    def to_edge_list(self) -> List[Edge]:
        """Return the edges as a list of ``(u, v)`` pairs in edge-id order."""
        return list(self.edges())

    def copy(self) -> "BipartiteGraph":
        """Return a structural copy (fresh CSR arrays, same edge ids)."""
        return BipartiteGraph(
            self._n_u,
            self._n_l,
            np.stack((self._edge_u, self._edge_v), axis=1),
        )

    def validate(self) -> None:
        """Internal-consistency check used by tests and IO round-trips.

        Runs the vectorized array checks plus a Python-level audit of the
        lazily-built edge-id dictionary.

        Raises
        ------
        AssertionError
            If the edge index, CSR blocks, and endpoint arrays disagree.
        """
        self._validate_arrays()
        if len(self._index()) != self.num_edges:
            raise AssertionError("edge index size mismatch")
        for eid, (u, v) in enumerate(self.edges()):
            if self._index()[(u, v)] != eid:
                raise AssertionError(f"edge index broken at {eid}")

    def _validate_arrays(self) -> None:
        """Vectorized structural checks over the endpoint and CSR arrays.

        Everything :meth:`validate` asserts except the edge-id dictionary
        audit, at numpy speed — this is the integrity gate of the artifact
        fast path (:meth:`from_csr`), where a per-edge Python loop would
        dominate reopen time.

        Raises
        ------
        AssertionError
            If endpoints are out of range, edges repeat, or the CSR blocks
            disagree with the endpoint arrays.
        """
        m = self.num_edges
        if m:
            if (
                (self._edge_u < 0).any()
                or (self._edge_u >= self._n_u).any()
                or (self._edge_v < 0).any()
                or (self._edge_v >= self._n_l).any()
            ):
                raise AssertionError("edge endpoint out of range")
            codes = np.sort(self._edge_u * self._n_l + self._edge_v)
            if (codes[1:] == codes[:-1]).any():
                raise AssertionError("duplicate edges")
        for indptr, eids, label in (
            (self._up_indptr, self._up_eids, "upper"),
            (self._lo_indptr, self._lo_eids, "lower"),
        ):
            if int(indptr[-1]) != self.num_edges:
                raise AssertionError(f"{label} CSR/edge count mismatch")
            if (np.diff(indptr) < 0).any():
                raise AssertionError(f"{label} indptr not monotone")
            if len(eids) and (
                int(eids.min()) < 0 or int(eids.max()) >= self.num_edges
            ):
                raise AssertionError(f"{label} CSR edge id out of range")
            if len(eids) != self.num_edges or (
                np.bincount(eids, minlength=self.num_edges) != 1
            ).any():
                raise AssertionError(f"{label} CSR edge ids not a permutation")
        # Endpoint consistency: each upper-CSR slot (u, nbrs[slot]) must be
        # the endpoints of eids[slot].
        rows_u = np.repeat(
            np.arange(self._n_u, dtype=np.int64), np.diff(self._up_indptr)
        )
        if not (
            np.array_equal(self._edge_u[self._up_eids], rows_u)
            and np.array_equal(self._edge_v[self._up_eids], self._up_nbrs)
        ):
            raise AssertionError("upper CSR disagrees with edge endpoints")
        rows_l = np.repeat(
            np.arange(self._n_l, dtype=np.int64), np.diff(self._lo_indptr)
        )
        if not (
            np.array_equal(self._edge_v[self._lo_eids], rows_l)
            and np.array_equal(self._edge_u[self._lo_eids], self._lo_nbrs)
        ):
            raise AssertionError("lower CSR disagrees with edge endpoints")


class LabelMap:
    """A bidirectional mapping between external labels and dense ids.

    Used by IO and the application modules so that user-facing code can work
    with author names, page urls, product SKUs, etc. while the algorithms see
    dense integers.

    Examples
    --------
    >>> lm = LabelMap()
    >>> lm.intern("alice")
    0
    >>> lm.label_of(0)
    'alice'
    """

    def __init__(self) -> None:
        self._to_id: Dict[Hashable, int] = {}
        self._to_label: List[Hashable] = []

    def __len__(self) -> int:
        return len(self._to_label)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._to_id

    def intern(self, label: Hashable) -> int:
        """Return the id of ``label``, assigning the next id if new."""
        existing = self._to_id.get(label)
        if existing is not None:
            return existing
        new_id = len(self._to_label)
        self._to_id[label] = new_id
        self._to_label.append(label)
        return new_id

    def id_of(self, label: Hashable) -> int:
        """Return the id of a known ``label`` (``KeyError`` if unknown)."""
        return self._to_id[label]

    def label_of(self, idx: int) -> Hashable:
        """Return the label stored at ``idx``."""
        return self._to_label[idx]

    def labels(self) -> List[Hashable]:
        """All labels in id order."""
        return list(self._to_label)


def build_labeled_graph(
    pairs: Iterable[Tuple[Hashable, Hashable]],
    *,
    dedup: bool = True,
) -> Tuple[BipartiteGraph, LabelMap, LabelMap]:
    """Build a graph from labelled pairs, returning both label maps.

    Parameters
    ----------
    pairs : iterable of (hashable, hashable)
        ``(upper_label, lower_label)`` interactions.
    dedup : bool, optional
        Drop duplicate interactions instead of raising (default ``True``).

    Returns
    -------
    tuple of (BipartiteGraph, LabelMap, LabelMap)
        The graph plus the upper- and lower-layer label maps.

    Examples
    --------
    >>> g, upper, lower = build_labeled_graph([("alice", "p1"), ("bob", "p1")])
    >>> g.has_edge(upper.id_of("bob"), lower.id_of("p1"))
    True
    """
    upper = LabelMap()
    lower = LabelMap()
    edges = [(upper.intern(a), lower.intern(b)) for a, b in pairs]
    graph = BipartiteGraph(len(upper), len(lower), edges, dedup=dedup)
    return graph, upper, lower
