"""Independent correctness checking of bitruss decompositions.

:func:`reference_decomposition` derives the bitruss numbers straight from
Definition 5 — for k = 1, 2, ... compute the k-bitruss by iterated support
filtering and record, per edge, the largest k whose bitruss contains it.  It
shares no peeling/guard logic with the fast algorithms, which is exactly what
makes it a trustworthy oracle (its counting primitive is itself validated
against naive enumeration in the tests).

:func:`verify_decomposition` checks a produced ``phi`` for the two defining
properties at every occurring level: each ``H_k`` slice supports all its
edges with ≥ k butterflies, and ``H_k`` is maximal.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.butterfly.counting import count_per_edge
from repro.core.bitruss import k_bitruss_direct, k_bitruss_edges
from repro.graph.bipartite import BipartiteGraph
from repro.utils.arrays import sorted_unique


def reference_decomposition(graph: BipartiteGraph) -> np.ndarray:
    """Bitruss numbers by definition (slow; for tests and small graphs)."""
    phi = np.zeros(graph.num_edges, dtype=np.int64)
    k = 1
    surviving = list(range(graph.num_edges))
    while surviving:
        surviving = k_bitruss_direct(graph, k)
        for eid in surviving:
            phi[eid] = k
        k += 1
    return phi


def verify_decomposition(
    graph: BipartiteGraph,
    phi: np.ndarray,
    *,
    levels: Optional[List[int]] = None,
) -> None:
    """Raise ``AssertionError`` unless ``phi`` is a correct decomposition.

    Parameters
    ----------
    graph, phi:
        The graph and the candidate bitruss numbers.
    levels:
        Levels to verify; defaults to every distinct value in ``phi`` (plus
        ``max + 1``, which must yield an empty bitruss).  Each level check
        costs a handful of full recounts, so restrict ``levels`` on larger
        graphs.
    """
    phi = np.asarray(phi)
    if len(phi) != graph.num_edges:
        raise AssertionError("phi length does not match the edge count")
    if len(phi) == 0:
        return
    if levels is None:
        levels = sorted_unique(phi).tolist()
        levels.append(int(phi.max()) + 1)

    for k in levels:
        expected = set(k_bitruss_direct(graph, k))
        produced = set(k_bitruss_edges(phi, k))
        if produced != expected:
            missing = sorted(expected - produced)[:5]
            extra = sorted(produced - expected)[:5]
            raise AssertionError(
                f"H_{k} mismatch: missing edge ids {missing}, extra {extra}"
            )
        # Support invariant inside the produced slice (redundant with the
        # equality above but gives a sharper failure message).
        if produced and k > 0:
            sub, orig = graph.subgraph_from_edge_ids(sorted(produced))
            support = count_per_edge(sub)
            low = np.nonzero(support < k)[0]
            if len(low):
                raise AssertionError(
                    f"H_{k} contains under-supported edges "
                    f"{[int(orig[i]) for i in low[:5]]}"
                )
