"""Per-start scalar wedge traversals: the oracles of the wedge-block kernel.

The package generates priority-obeyed wedges in one place only
(:func:`repro.butterfly.wedges.bloom_blocks`).  These plain-Python loops
walk one start vertex at a time instead, and the tests hold the kernel and
everything built on it bitwise equal to them.
"""

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.index.be_index import BEIndex, Bloom


def collect_wedges(
    indptr: np.ndarray,
    nbr_arr: np.ndarray,
    eid_arr: np.ndarray,
    row_prios: np.ndarray,
    prio: np.ndarray,
    start: int,
) -> Optional[List[Tuple[int, int, int, int]]]:
    """Priority-obeyed wedges of one start vertex, from the sorted gid CSR.

    Rows are pre-sorted by neighbour priority (``csr_gid_sorted``), so each
    "priority < p(start)" filter is one ``searchsorted`` cut.

    Returns a list of ``(w, v, e_uv, e_vw)`` tuples — end vertex, middle
    vertex, and the wedge's two edge ids — in discovery order (middle
    slots, then end slots), or ``None`` when the start owns no wedge.
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


def scalar_be_index(
    graph: BipartiteGraph,
    *,
    priorities: Optional[np.ndarray] = None,
    assigned: Optional[np.ndarray] = None,
) -> BEIndex:
    """Algorithm 3 / Algorithm 6 one start vertex at a time.

    Blooms are numbered in discovery order: starts ascending, then each
    start's end vertices in the order their first wedge is generated.
    """
    prio = priorities if priorities is not None else graph.priorities()
    indptr, nbr_arr, eid_arr, row_prios, _twin = graph.csr_gid_sorted_with_prios(
        priorities
    )
    support = np.zeros(graph.num_edges, dtype=np.int64)
    blooms: Dict[int, Bloom] = {}
    edge_blooms: Dict[int, Set[int]] = {}
    for start in range(graph.num_vertices):
        wedges = collect_wedges(indptr, nbr_arr, eid_arr, row_prios, prio, start)
        groups: Dict[int, List[Tuple[int, int]]] = {}
        for w, _v, e_uv, e_vw in wedges or ():
            groups.setdefault(w, []).append((e_uv, e_vw))
        for end, pairs in groups.items():
            k = len(pairs)
            if k < 2:
                continue
            bloom = Bloom(len(blooms), start, end, k)
            blooms[bloom.bloom_id] = bloom
            for e_uv, e_vw in pairs:
                support[e_uv] += k - 1
                support[e_vw] += k - 1
                for edge, twin in ((e_uv, e_vw), (e_vw, e_uv)):
                    if assigned is None or not assigned[edge]:
                        bloom.twin[edge] = twin
                        edge_blooms.setdefault(edge, set()).add(bloom.bloom_id)
    return BEIndex(graph, support, blooms, edge_blooms)
