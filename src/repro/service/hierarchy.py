"""The nested k-bitruss containment forest, in flat numpy storage.

The k-bitrusses of a graph nest (``H_0 ⊇ H_1 ⊇ ... ⊇ H_φmax``) and so do
their connected components: every component of ``H_k`` lies inside exactly
one component of ``H_{k-1}``.  That containment relation is a forest whose
nodes are *super-nodes* — maximal sets of edges that share a connected
k-bitruss component at the node's level but settle no deeper — and it is
the entire query index of the service layer: once built (one φ sort, then
one sweep of array operations per occupied level), every structural query
is answered in time linear in its output.

Construction sweep
------------------
Levels are processed by *descending* φ.  A union-find parent array over
global vertex ids holds the connected components of the subgraph seen so
far, which after finishing level ``k`` is exactly ``H_k``.  Each level is
one batch of numpy operations, with no Python loop over its edges:

1. a pointer-jumping ``find`` maps both endpoints of every level edge to
   their current roots and compresses the queried vertices;
2. a vertex-indexed scratch array numbers the distinct roots in order of
   first appearance, which contracts the level to a small graph on them;
3. hook-to-min plus pointer jumping labels that graph's components;
4. each component becomes one new super-node, numbered by its first level
   edge in ascending edge id — the order a per-edge sweep creates them in;
5. the newest nodes of the old components it swallowed hang under it, and
   its old roots are linked to its smallest vertex.

Levels at which a component is unchanged create no node, so the forest is
compressed (parent levels strictly decrease along every upward path).  A
level of ``L`` edges costs a few ``O(L)`` array passes per hooking round
and per pointer jump.  On the bundled datasets and on Chung–Lu graphs of
up to 1M edges, no level needs more than four hooking rounds, and linking
by smallest index keeps the union-find chains a find walks to at most
three steps; a hostile vertex numbering can lengthen those chains, which
costs time, never correctness.  Every level also pays a constant of a few
dozen numpy calls, which matters only on graphs with many tiny levels: at
a handful of edges per level a per-edge Python loop is faster.

Flat storage
------------
Nodes are renumbered in DFS preorder so that every subtree occupies a
contiguous id range ``[n, subtree_end[n])``, and edges are grouped by
settle node in the same order.  A component's edge set is then one slice
of one array — the trick that makes ``community()`` output-linear instead
of graph-linear.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.obs import spans as obs_spans


class BitrussHierarchy:
    """Queryable containment forest over the k-bitruss components.

    Build with :func:`build_hierarchy`; all arrays are read-only.

    Attributes
    ----------
    node_level:
        ``node_level[n]`` — the level k of super-node ``n``; the node's
        own edges have φ == k exactly.  Nodes are in DFS preorder, so
        parents precede children and ancestor levels strictly decrease.
    node_parent:
        Parent node id, ``-1`` at forest roots.
    subtree_end:
        Exclusive end of node ``n``'s DFS range: the descendants of ``n``
        are exactly the ids ``n+1 .. subtree_end[n]-1``.
    edge_node:
        ``edge_node[e]`` — the super-node at which edge ``e`` settles (the
        component of ``H_{φ(e)}`` containing it).

    ``phi_order`` is ``np.argsort(phi, kind="stable")``; pass it when it
    is already at hand, and it is computed when omitted.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        phi: np.ndarray,
        node_level: np.ndarray,
        node_parent: np.ndarray,
        subtree_end: np.ndarray,
        edge_node: np.ndarray,
        node_edge_ptr: np.ndarray,
        node_edges: np.ndarray,
        vertex_best_edge: np.ndarray,
        phi_order: Optional[np.ndarray] = None,
    ) -> None:
        self.graph = graph
        self.phi = phi
        self.node_level = node_level
        self.node_parent = node_parent
        self.subtree_end = subtree_end
        self.edge_node = edge_node
        self._node_edge_ptr = node_edge_ptr
        self._node_edges = node_edges
        self._vertex_best_edge = vertex_best_edge
        # φ ascending with edge-id tie-break: the k-bitruss is a suffix.
        if phi_order is None:
            phi_order = np.argsort(phi, kind="stable")
        self._phi_order = phi_order
        self._phi_sorted = phi[self._phi_order]
        for arr in (
            self.phi,
            self.node_level,
            self.node_parent,
            self.subtree_end,
            self.edge_node,
            self._node_edge_ptr,
            self._node_edges,
            self._vertex_best_edge,
            self._phi_order,
            self._phi_sorted,
        ):
            arr.flags.writeable = False

    # ------------------------------------------------------------- shape

    @property
    def num_nodes(self) -> int:
        """Number of super-nodes in the forest."""
        return len(self.node_level)

    @property
    def max_k(self) -> int:
        """Largest bitruss number present."""
        return int(self.phi.max()) if len(self.phi) else 0

    def roots(self) -> np.ndarray:
        """Ids of the forest roots (components of the sparsest level)."""
        return np.nonzero(self.node_parent == -1)[0]

    # ----------------------------------------------------------- queries

    def k_bitruss_edges(self, k: int) -> np.ndarray:
        """Edge ids of ``H_k`` in ascending order, output-linear time.

        The φ-sorted permutation makes edges with ``φ >= k`` one suffix;
        only that suffix is touched.
        """
        if k <= 0:
            return np.arange(len(self.phi), dtype=np.int64)
        start = int(np.searchsorted(self._phi_sorted, k, side="left"))
        return np.sort(self._phi_order[start:])

    def node_of_vertex(self, gid: int, k: int) -> int:
        """Super-node of the ``H_k`` component containing global vertex ``gid``.

        Returns ``-1`` when the vertex has no incident edge with
        ``φ >= k``.  All edges with ``φ >= k`` incident to one vertex lie
        in the same ``H_k`` component (they share the vertex), so it
        suffices to start from the vertex's best edge and walk up.
        """
        best = int(self._vertex_best_edge[gid])
        if best < 0 or self.phi[best] < k:
            return -1
        return self._ancestor_at_level(int(self.edge_node[best]), k)

    def node_of_edge(self, eid: int, k: int) -> int:
        """Super-node of the ``H_k`` component containing edge ``eid``.

        Returns ``-1`` when ``φ(eid) < k``.
        """
        if self.phi[eid] < k:
            return -1
        return self._ancestor_at_level(int(self.edge_node[eid]), k)

    def _ancestor_at_level(self, node: int, k: int) -> int:
        """Highest ancestor of ``node`` whose level is still ``>= k``."""
        parent = self.node_parent
        level = self.node_level
        while parent[node] >= 0 and level[parent[node]] >= k:
            node = int(parent[node])
        return node

    def component_edges(self, node: int) -> np.ndarray:
        """All edges of a super-node's component, ascending edge ids.

        The component of a node at level k consists of every edge settling
        in its subtree; DFS-contiguous numbering makes that one slice.
        """
        lo = self._node_edge_ptr[node]
        hi = self._node_edge_ptr[self.subtree_end[node]]
        return np.sort(self._node_edges[lo:hi])

    def community_edges(self, gid: int, k: int) -> np.ndarray:
        """Edges of the connected ``H_k`` component around a vertex.

        Empty when the vertex does not reach ``H_k``.  For ``k <= 0`` the
        component is taken at the sparsest occurring level (``H_0`` minus
        isolated parts equals the graph's own connected components
        restricted to edges, which is what level-0 nodes hold).
        """
        node = self.node_of_vertex(gid, max(k, 0))
        if node < 0:
            return np.empty(0, dtype=np.int64)
        return self.component_edges(node)

    def max_k_of_vertex(self, gid: int) -> int:
        """Deepest level any incident edge of ``gid`` reaches (0 if none)."""
        best = int(self._vertex_best_edge[gid])
        return int(self.phi[best]) if best >= 0 else 0

    def hierarchy_path(self, eid: int) -> List[Tuple[int, int]]:
        """The edge's chain of enclosing components, innermost first.

        Returns ``(level, node_id)`` pairs from the settle node of ``eid``
        up to its forest root — the node at level k is the component of
        ``H_k`` (and of every empty level above the next entry) containing
        the edge.
        """
        node = int(self.edge_node[eid])
        path: List[Tuple[int, int]] = []
        while node >= 0:
            path.append((int(self.node_level[node]), node))
            node = int(self.node_parent[node])
        return path

    def phi_histogram(self) -> np.ndarray:
        """``hist[k]`` — number of edges with φ exactly ``k``."""
        if not len(self.phi):
            return np.zeros(1, dtype=np.int64)
        return np.bincount(self.phi, minlength=self.max_k + 1)

    def level_sizes(self) -> Dict[int, int]:
        """``{k: |E(H_k)|}`` for k = 0..max_k (cumulative, nested)."""
        hist = self.phi_histogram()
        suffix = np.cumsum(hist[::-1])[::-1]
        return {k: int(suffix[k]) for k in range(len(suffix))}

    # -------------------------------------------------------------- debug

    def validate(self) -> None:
        """Structural self-check used by the test suite.

        Raises
        ------
        AssertionError
            If DFS ranges, parent levels, or edge grouping are broken.
        """
        n = self.num_nodes
        if n == 0:
            if len(self.phi):
                raise AssertionError("edges present but no hierarchy nodes")
            return
        for node in range(n):
            parent = int(self.node_parent[node])
            if parent >= 0:
                if self.node_level[parent] >= self.node_level[node]:
                    raise AssertionError("parent level must strictly decrease")
                if not (parent < node < self.subtree_end[parent]):
                    raise AssertionError("child outside parent's DFS range")
            if not (node < self.subtree_end[node] <= n):
                raise AssertionError("bad subtree range")
        grouped = self._node_edges[
            self._node_edge_ptr[0] : self._node_edge_ptr[-1]
        ]
        if len(grouped) != len(self.phi):
            raise AssertionError("edge grouping does not cover all edges")
        for eid in range(len(self.phi)):
            node = int(self.edge_node[eid])
            if self.node_level[node] != self.phi[eid]:
                raise AssertionError("edge settled at wrong level")


def build_hierarchy(graph: BipartiteGraph, phi: np.ndarray) -> BitrussHierarchy:
    """Build the containment forest from a finished decomposition.

    Parameters
    ----------
    graph : BipartiteGraph
        The decomposed graph.
    phi : numpy.ndarray
        Per-edge bitruss numbers.

    Returns
    -------
    BitrussHierarchy
        The flat-array forest; construction is one φ-descending sweep of
        array operations per occupied level plus one DFS renumbering.

    Examples
    --------
    >>> from repro.core.api import bitruss_decomposition
    >>> from repro.graph.generators import paper_figure4_graph
    >>> graph = paper_figure4_graph()
    >>> forest = build_hierarchy(graph, bitruss_decomposition(graph).phi)
    >>> forest.node_level.tolist(), forest.roots().tolist()
    ([0, 1, 2], [0])
    """
    with obs_spans.span("hierarchy build"):
        # Private copy: the hierarchy freezes its φ, which must not leak
        # into a caller-owned (possibly still writable) array.
        phi = np.array(phi, dtype=np.int64, copy=True)
        m = graph.num_edges
        if len(phi) != m:
            raise ValueError("phi must have one entry per edge")
        # φ ascending with edge-id tie-break: each level is one run.
        order = np.argsort(phi, kind="stable")
        upper = graph.edge_upper[order] + graph.num_lower
        lower = graph.edge_lower[order]
        node_level, node_parent_raw, sorted_node = _level_sweep(
            graph.num_vertices, upper, lower, phi[order]
        )
        new_id, dfs_level, dfs_parent, subtree_end = _dfs_renumber(
            node_level, node_parent_raw
        )
        n_nodes = len(new_id)

        # Settle node per edge, and edge ids grouped by settle node: a
        # node's edges share one φ, so the stable sort keeps them in
        # ascending edge id.
        sorted_node = new_id[sorted_node]
        edge_node = np.empty(m, dtype=np.int64)
        edge_node[order] = sorted_node
        node_edges = order[np.argsort(sorted_node, kind="stable")]
        node_edge_ptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(sorted_node, minlength=n_nodes), out=node_edge_ptr[1:]
        )

        # Per-vertex best (max-φ) incident edge: ascending-φ writes, last
        # wins.
        vertex_best = np.full(graph.num_vertices, -1, dtype=np.int64)
        vertex_best[lower] = order
        vertex_best[upper] = order

        return BitrussHierarchy(
            graph,
            phi,
            dfs_level,
            dfs_parent,
            subtree_end,
            edge_node,
            node_edge_ptr,
            node_edges,
            vertex_best,
            phi_order=order,
        )


def _level_sweep(
    n_v: int, upper: np.ndarray, lower: np.ndarray, sorted_phi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forest in creation order, from edges sorted by ascending φ.

    ``upper``/``lower`` are the global endpoint ids of the sorted edges.
    Returns the node levels, the node parents and each sorted edge's
    node.  Levels are walked in descending φ over a union-find parent
    array on vertex ids, one level per step with array operations only.
    Node ids come out in creation order: descending level, then by the
    component's first level edge in ascending edge id.
    """
    m = len(sorted_phi)
    cuts = (np.flatnonzero(sorted_phi[1:] != sorted_phi[:-1]) + 1).tolist()
    bounds = [0] + cuts + [m] if m else [0]
    ramp = np.arange(2 * max(np.diff(bounds), default=0), dtype=np.int64)

    uf = np.arange(n_v, dtype=np.int64)  # roots point at themselves
    comp_node = np.full(n_v, -1, dtype=np.int64)  # root -> newest node
    scratch = np.empty(n_v, dtype=np.int64)  # vertex -> local id
    node_level = np.empty(m, dtype=np.int64)
    node_parent = np.full(m, -1, dtype=np.int64)
    sorted_node = np.empty(m, dtype=np.int64)
    n_nodes = 0
    for lo, hi in zip(reversed(bounds[:-1]), reversed(bounds[1:])):
        size = hi - lo
        ends = np.concatenate((upper[lo:hi], lower[lo:hi]))
        # Roots of both endpoints before this level's unions; path
        # compression on the queried vertices keeps later finds short.
        roots = uf[ends]
        deep = moved = (uf[roots] != roots).nonzero()[0]
        while len(deep):
            roots[deep] = uf[roots[deep]]
            deep = deep[uf[roots[deep]] != roots[deep]]
        uf[ends[moved]] = roots[moved]
        # Local ids in order of first appearance: the smallest local id
        # of a component is its first level edge's upper root.
        slots = ramp[: 2 * size]
        scratch[roots] = 2 * size
        np.minimum.at(scratch, roots, slots)
        uniq = roots[scratch[roots] == slots]
        scratch[uniq] = slots[: len(uniq)]
        local = scratch[roots]
        # Components of the contracted level graph: hook each root to the
        # smallest root it shares an edge with, pointer-jump to stars,
        # and repeat on the edges whose endpoints still differ.
        label = ramp[: len(uniq)].copy()
        a, b = local[:size], local[size:]
        while True:
            keep = (a != b).nonzero()[0]
            if not len(keep):
                break
            a, b = a[keep], b[keep]
            np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
            while True:
                jumped = label[label]
                if not np.count_nonzero(jumped != label):
                    break
                label = jumped
            a, b = label[a], label[b]
        # Each component's root is its smallest local id, so ranking the
        # roots numbers the new nodes by first level edge (the level
        # runs in ascending edge id).
        comp_roots = (label == slots[: len(uniq)]).nonzero()[0]
        count = len(comp_roots)
        new_nodes = np.arange(n_nodes, n_nodes + count, dtype=np.int64)
        local_node = np.empty_like(label)
        local_node[comp_roots] = new_nodes
        local_node = local_node[label]
        sorted_node[lo:hi] = local_node[local[:size]]
        node_level[n_nodes : n_nodes + count] = sorted_phi[lo]
        # Swallowed components hang their newest node under the new one.
        old = comp_node[uniq]
        had = old >= 0
        node_parent[old[had]] = local_node[had]
        n_nodes += count
        if not lo:
            break  # the lowest level is the last: no find reads its union
        # Union: every old root points at its component's smallest vertex
        # (linking by index keeps the parent chains short in practice).
        rep = uniq.copy()
        np.minimum.at(rep, label, uniq)
        uf[uniq] = rep[label]
        comp_node[uniq] = -1
        comp_node[rep[comp_roots]] = new_nodes

    return node_level[:n_nodes], node_parent[:n_nodes], sorted_node


def _dfs_renumber(
    node_level: np.ndarray, node_parent_raw: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """DFS preorder ids, so that subtrees become contiguous id ranges.

    Returns ``new_id`` (creation id -> DFS id) and the DFS-ordered node
    levels, node parents and subtree ends.
    """
    n_nodes = len(node_level)
    parents = node_parent_raw.tolist()
    children: List[List[int]] = [[] for _ in range(n_nodes)]
    roots: List[int] = []
    for node, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(node)
        else:
            roots.append(node)
    # The walk runs over Python lists; the arrays are written once at the
    # end.  Children are pushed reversed, so they pop in creation order.
    order: List[int] = []
    stack = roots[::-1]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(children[node]))
    size = [1] * n_nodes
    for node in reversed(order):  # every child before its parent
        if parents[node] >= 0:
            size[parents[node]] += size[node]

    order_arr = np.array(order, dtype=np.int64)
    new_id = np.empty(n_nodes, dtype=np.int64)
    new_id[order_arr] = np.arange(n_nodes, dtype=np.int64)
    dfs_level = np.asarray(node_level, dtype=np.int64)[order_arr]
    parent_of = np.asarray(node_parent_raw, dtype=np.int64)[order_arr]
    dfs_parent = np.where(parent_of >= 0, new_id[parent_of], -1)
    subtree_end = np.arange(n_nodes, dtype=np.int64) + np.array(
        size, dtype=np.int64
    )[order_arr]
    return new_id, dfs_level, dfs_parent, subtree_end
