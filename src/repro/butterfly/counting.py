"""Per-edge butterfly counting.

Implements the vertex-priority counting algorithm of Wang et al. (VLDB 2019),
the paper's reference [8] and its chosen counting phase for *all* evaluated
algorithms.  The algorithm processes, from every start vertex ``u``, the
wedges ``(u, v, w)`` whose middle and end vertices both have lower priority
than ``u`` (Definition 10: *priority-obeyed wedges*).  Grouping those wedges
by end vertex ``w`` yields, for each pair ``(u, w)``, the number ``c`` of
common low-priority neighbours; the pair then hosts ``C(c, 2)`` butterflies
and each of its wedges' two edges gains ``c - 1`` support.

Because every butterfly lives in exactly one maximal priority-obeyed bloom
(Lemma 3) — equivalently, its four edges are covered by the wedge group of
exactly one ``(u, w)`` anchor — the counts are exact, and the total work is
``O(sum over edges of min(d(u), d(v)))``.

:func:`count_per_edge_naive` is an independent list-intersection counter used
for cross-validation in tests, and is also the per-edge counting the earlier
works [5], [9] relied on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.bipartite import BipartiteGraph


def collect_wedges(
    indptr: np.ndarray,
    nbr_arr: np.ndarray,
    eid_arr: np.ndarray,
    row_prios: np.ndarray,
    prio: np.ndarray,
    start: int,
) -> Optional[List[Tuple[int, int, int, int]]]:
    """Priority-obeyed wedges of one start vertex, from the sorted gid CSR.

    The single scalar copy of the prefix-lookup scaffold shared by the
    counters below and :meth:`repro.index.be_index.BEIndex.build`: rows are
    pre-sorted by neighbour priority (``csr_gid_sorted``), so each
    "priority < p(start)" filter is one ``searchsorted`` cut.

    Returns a list of ``(w, v, e_uv, e_vw)`` tuples — end vertex, middle
    vertex, and the wedge's two edge ids — or ``None`` when the start owns
    no wedge.
    """
    lo, hi = int(indptr[start]), int(indptr[start + 1])
    if hi - lo < 2:
        return None
    p_start = prio[start]
    cut = int(np.searchsorted(row_prios[lo:hi], p_start))
    if cut == 0:
        return None
    wedges: List[Tuple[int, int, int, int]] = []
    for v, e_uv in zip(
        nbr_arr[lo : lo + cut].tolist(), eid_arr[lo : lo + cut].tolist()
    ):
        vlo = int(indptr[v])
        vcut = int(np.searchsorted(row_prios[vlo : int(indptr[v + 1])], p_start))
        for w, e_vw in zip(
            nbr_arr[vlo : vlo + vcut].tolist(),
            eid_arr[vlo : vlo + vcut].tolist(),
        ):
            wedges.append((w, v, e_uv, e_vw))
    return wedges or None


def count_per_edge(
    graph: BipartiteGraph,
    *,
    priorities: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Butterfly support of every edge, by vertex-priority wedge processing.

    Returns an ``int64`` array indexed by edge id.  ``priorities`` may be
    supplied to reuse a precomputed Definition 7 ranking.
    """
    prio = priorities if priorities is not None else graph.priorities()
    indptr, nbr_arr, eid_arr, row_prios = graph.csr_gid_sorted_with_prios(
        priorities
    )
    support = np.zeros(graph.num_edges, dtype=np.int64)

    for start in range(graph.num_vertices):
        wedges = collect_wedges(indptr, nbr_arr, eid_arr, row_prios, prio, start)
        if wedges is None:
            continue
        count_wedge: Dict[int, int] = {}
        for w, _v, _e_uv, _e_vw in wedges:
            count_wedge[w] = count_wedge.get(w, 0) + 1
        for w, _v, e_uv, e_vw in wedges:
            c = count_wedge[w]
            if c > 1:
                support[e_uv] += c - 1
                support[e_vw] += c - 1
    return support


def count_butterflies_total(
    graph: BipartiteGraph,
    *,
    priorities: Optional[np.ndarray] = None,
) -> int:
    """Total number of butterflies in ``graph`` (the paper's ⋈G).

    Same wedge traversal as :func:`count_per_edge`, accumulating
    ``C(c, 2)`` per anchor pair instead of touching edges — slightly cheaper
    when only the global count is needed (Table II).
    """
    prio = priorities if priorities is not None else graph.priorities()
    indptr, nbr_arr, eid_arr, row_prios = graph.csr_gid_sorted_with_prios(
        priorities
    )
    total = 0

    for start in range(graph.num_vertices):
        wedges = collect_wedges(indptr, nbr_arr, eid_arr, row_prios, prio, start)
        if wedges is None:
            continue
        count_wedge: Dict[int, int] = {}
        for w, _v, _e_uv, _e_vw in wedges:
            count_wedge[w] = count_wedge.get(w, 0) + 1
        for c in count_wedge.values():
            if c > 1:
                total += c * (c - 1) // 2
    return total


def count_per_edge_naive(graph: BipartiteGraph) -> np.ndarray:
    """Independent O(m·Δ²) reference counter (list intersection).

    For an edge ``(u, v)`` the butterflies containing it are the pairs
    ``(w, x)`` with ``w ∈ N(v)∖{u}``, ``x ∈ N(u)∖{v}`` and ``(w, x) ∈ E``,
    i.e. ``sup(u, v) = Σ_{w ∈ N(v)∖u} |N(w) ∩ N(u) ∖ {v}|``.  This is the
    enumeration style of the pre-BE-Index algorithms [5], [9]; tests use it
    to validate :func:`count_per_edge`.
    """
    support = np.zeros(graph.num_edges, dtype=np.int64)
    neighbors_upper = [
        graph.neighbors_of_upper(u).tolist() for u in range(graph.num_upper)
    ]
    neighbors_lower = [
        graph.neighbors_of_lower(v).tolist() for v in range(graph.num_lower)
    ]
    neighbor_sets_upper = [set(nbrs) for nbrs in neighbors_upper]
    for eid in range(graph.num_edges):
        u, v = graph.edge_endpoints(eid)
        nu = neighbor_sets_upper[u]
        count = 0
        for w in neighbors_lower[v]:
            if w == u:
                continue
            for x in neighbors_upper[w]:
                if x != v and x in nu:
                    count += 1
        support[eid] = count
    return support


def support_histogram(support: np.ndarray) -> Dict[int, int]:
    """Map each support value to the number of edges holding it."""
    values, counts = np.unique(np.asarray(support), return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def max_support(support: np.ndarray) -> int:
    """Largest butterfly support of any edge (Table II's sup_max)."""
    return int(np.max(support)) if len(support) else 0
