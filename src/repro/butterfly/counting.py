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

:func:`count_per_edge` runs that traversal with the wedge-block kernel of
:mod:`repro.butterfly.wedges`, the one wedge traversal of the package.
:func:`count_per_edge_naive` is an independent list-intersection counter used
for cross-validation in tests, and is also the per-edge counting the earlier
works [5], [9] relied on.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.butterfly.wedges import support_on_arrays
from repro.graph.bipartite import BipartiteGraph
from repro.obs import spans as obs_spans


def count_per_edge(
    graph: BipartiteGraph,
    *,
    priorities: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Butterfly support of every edge, by vertex-priority wedge processing.

    Returns an ``int64`` array indexed by edge id.  ``priorities`` may be
    supplied to reuse a precomputed Definition 7 ranking; its values must
    be distinct (a tied ranking raises :class:`ValueError`).

    >>> from repro.graph.generators import paper_figure4_graph
    >>> g = paper_figure4_graph()
    >>> count_per_edge(g).tolist()
    [2, 2, 2, 2, 2, 3, 1, 1, 1, 0, 0]
    >>> bool((count_per_edge(g) == count_per_edge_naive(g)).all())
    True
    """
    prio = priorities if priorities is not None else graph.priorities()
    arrays = graph.csr_gid_sorted_with_prios(priorities)
    with obs_spans.span("butterfly counting"):
        return support_on_arrays(*arrays, prio, graph.num_edges)


def count_butterflies_total(
    graph: BipartiteGraph,
    *,
    priorities: Optional[np.ndarray] = None,
) -> int:
    """Total number of butterflies in ``graph`` (the paper's ⋈G).

    Every butterfly adds one to the support of each of its four edges.
    """
    return int(count_per_edge(graph, priorities=priorities).sum()) // 4


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
