"""The wedge-block kernel: vertex-priority wedge aggregation over whole blocks.

Every priority-obeyed wedge ``(u, v, w)`` — middle ``v`` and end ``w`` both
of lower priority than the start ``u`` (Definition 10) — is generated here,
and the wedges of one ``(u, w)`` anchor pair are grouped into a run.  A run
of ``k >= 2`` wedges is one maximal priority-obeyed bloom (Definition 9):
it holds ``C(k, 2)`` butterflies and each of its wedges' two edges gains
``k - 1`` support.  That is the counting algorithm of Wang et al. (VLDB
2019, the paper's [8]) and the bloom discovery of Algorithm 3, evaluated
as sort-based wedge aggregation in the style of ParButterfly (Shi & Shun,
APOCS 2020) with no Python loop per vertex:

1. A key ``row * P + prio`` over all ``2m`` slots of the priority-sorted
   gid CSR (:meth:`~repro.graph.bipartite.BipartiteGraph.csr_gid_sorted`)
   is globally non-decreasing, so one ``np.searchsorted`` over the whole
   array gives every start's start→middle cut.  The middle→end cut of a
   start-middle slot ``(u, v)`` is ``u``'s position in ``v``'s
   priority-sorted row, read off the slot's twin (the other slot of the
   same edge, after the reverse-edge offsets of Kabir & Madduri, HiPC
   2017); priorities must be distinct for that position to be the cut.
2. The start-middle slots are split into chunks of at most
   :data:`WEDGE_BUDGET` slots, and each chunk into blocks of at most
   :data:`WEDGE_BUDGET` wedges, both by prefix sum and both aligned to
   start vertices (a start that alone exceeds the budget gets a chunk or
   block to itself).
3. Within a block the wedges are expanded with ``np.repeat``/``np.arange``
   and stable-sorted on ``start * n + end``; the runs of equal keys are
   the anchor groups.

The stable sort keeps discovery order — starts ascending, then ends
ascending, then middle slots — so blooms and wedge pairs come out in the
same order as a per-start traversal.  Working memory is the ``O(n + m)``
key and per-start cuts plus ``O(WEDGE_BUDGET)`` per chunk and block (at
most ``O(m)`` for one oversized start), never the total wedge count.

This is the only priority-obeyed wedge traversal of the package:
:func:`build_shard_on_arrays` (the BE-Index build, flat for
:class:`~repro.core.peeling_engine.CSRPeelingEngine` and as dicts for
:meth:`~repro.index.be_index.BEIndex.build`) and :func:`support_on_arrays`
(per-edge counting, :func:`repro.butterfly.counting.count_per_edge`) both
consume :func:`bloom_blocks`.

>>> from repro.butterfly.counting import count_per_edge_naive
>>> from repro.graph.generators import paper_figure4_graph
>>> g = paper_figure4_graph()
>>> support = support_on_arrays(*g.csr_gid_sorted_with_prios(),
...                             g.priorities(), g.num_edges)
>>> bool((support == count_per_edge_naive(g)).all())
True
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.utils.priority import compact_ranking, row_priority_keys

#: Cap on the start-middle slots of one chunk and on the wedges of one block.
#: Small on purpose: 2^13 already amortizes the per-block numpy calls (a
#: 40k-edge Chung-Lu build is no faster at 2^15), and a larger cap only
#: raises peak memory.
WEDGE_BUDGET = 1 << 13

#: One block of blooms: ``(mid_edges, end_edges, bloom_k)``.  The wedges of
#: each bloom are contiguous and blooms are in discovery order; wedge ``i``
#: has edges ``mid_edges[i]`` = ``(u, v)`` and ``end_edges[i]`` = ``(v, w)``,
#: and ``bloom_k[b]`` is the wedge count of bloom ``b`` in the block.
BloomBlock = Tuple[np.ndarray, np.ndarray, np.ndarray]


def bloom_blocks(
    indptr: np.ndarray,
    neighbors: np.ndarray,
    edge_ids: np.ndarray,
    row_prios: np.ndarray,
    twin: np.ndarray,
    prio: np.ndarray,
) -> Iterator[BloomBlock]:
    """Every maximal priority-obeyed bloom of the graph.

    Works on the raw priority-sorted gid-CSR arrays and slot twins
    (``csr_gid_sorted_with_prios``) plus the per-vertex priorities.
    Yields one :data:`BloomBlock` per non-empty block of at most
    :data:`WEDGE_BUDGET` wedges; blocks come in ascending start order.

    Raises
    ------
    ValueError
        If two vertices share a priority: Definition 7 is a strict order,
        and the middle→end cut below is exact only for distinct ranks.
    """
    n = len(indptr) - 1
    if n == 0:
        return
    prio = np.asarray(prio)
    ranking = compact_ranking(prio)
    if ranking is not prio:
        row_prios = ranking[neighbors]
    base = int(ranking.min())
    span = int(ranking.max()) - base + 1
    if np.bincount(ranking - base, minlength=n).max() > 1:
        raise ValueError(
            "vertex priorities must be distinct (Definition 7 is a strict order)"
        )

    # key[slot] = row * span + rank: non-decreasing over the whole CSR, so
    # "slots of row r with priority < p" ends at searchsorted(key, r*span+p).
    key = row_priority_keys(indptr, row_prios, span, base)

    # Start -> middle cut: sm_ptr[i] numbers the start-middle slots (u, v)
    # of starts before i.
    sm_ptr = np.zeros(n + 1, dtype=np.int64)
    query = sm_ptr[1:]
    query[:] = np.arange(n)
    query *= span
    query += ranking
    query -= base
    cut = np.searchsorted(key, query)
    del key
    row_lo = indptr[:n]
    cut -= row_lo
    np.cumsum(cut, out=sm_ptr[1:])
    del cut

    for c0, c1 in _budget_cuts(sm_ptr):
        a, b = int(sm_ptr[c0]), int(sm_ptr[c1])
        num_mid = np.diff(sm_ptr[c0 : c1 + 1])
        sm_slot = np.repeat(row_lo[c0:c1] - sm_ptr[c0:c1], num_mid)
        sm_slot += np.arange(a, b)
        # Middle -> end cut of every start-middle slot (u, v): v's row is
        # sorted by priority and holds u at the twin slot, so the ends w
        # with p(w) < p(u) are exactly the slots before it.
        end_lo = indptr[neighbors[sm_slot]]
        num_end = twin[sm_slot] - end_lo
        w_ptr = np.zeros(b - a + 1, dtype=np.int64)
        np.cumsum(num_end, out=w_ptr[1:])
        end_lo -= w_ptr[:-1]  # end_lo[j] + w is the end slot of wedge w
        mid_eids = edge_ids[sm_slot]
        del sm_slot

        chunk_w = w_ptr[sm_ptr[c0 : c1 + 1] - a]
        for s0, s1 in _budget_cuts(chunk_w):
            lo, hi = int(sm_ptr[c0 + s0]) - a, int(sm_ptr[c0 + s1]) - a
            w_lo, size = int(w_ptr[lo]), int(w_ptr[hi] - w_ptr[lo])
            if size < 2:
                continue
            counts = num_end[lo:hi]
            end_slot = np.repeat(end_lo[lo:hi], counts)
            end_slot += np.arange(w_lo, w_lo + size)
            # Sort key start * n + end, with starts numbered from the block's.
            group = np.repeat(
                np.repeat(np.arange(s1 - s0, dtype=np.int64) * n,
                          num_mid[s0:s1]),
                counts,
            )
            group += neighbors[end_slot]
            order = np.argsort(group, kind="stable")
            group = group[order]
            first = np.empty(size, dtype=bool)
            first[0] = True
            np.not_equal(group[1:], group[:-1], out=first[1:])
            del group
            run_len = np.diff(np.append(np.flatnonzero(first), size))
            is_bloom = run_len >= 2
            if not is_bloom.any():
                continue
            keep = order[np.repeat(is_bloom, run_len)]
            mid_edges = np.repeat(mid_eids[lo:hi], counts)[keep]
            yield mid_edges, edge_ids[end_slot[keep]], run_len[is_bloom]


def _budget_cuts(ptr: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Split items ``0 .. len(ptr) - 2`` into runs ``[i, j)`` under the budget.

    ``ptr`` is the items' non-decreasing prefix sum of sizes; a run holds
    ``ptr[j] - ptr[i] <=`` :data:`WEDGE_BUDGET`, except that an item whose
    own size exceeds the budget becomes a run of one.  Empty runs are
    skipped.
    """
    i, last = 0, len(ptr) - 1
    while i < last:
        j = int(np.searchsorted(ptr, ptr[i] + WEDGE_BUDGET, side="right")) - 1
        j = max(j, i + 1)
        if ptr[j] > ptr[i]:
            yield i, j
        i = j


def add_bloom_support(
    support: np.ndarray,
    mid_edges: np.ndarray,
    end_edges: np.ndarray,
    bloom_k: np.ndarray,
) -> None:
    """Charge every wedge's two edges ``k - 1`` for its bloom of ``k`` wedges."""
    contrib = np.repeat(bloom_k - 1, bloom_k)
    np.add.at(support, mid_edges, contrib)
    np.add.at(support, end_edges, contrib)


def support_on_arrays(
    indptr: np.ndarray,
    neighbors: np.ndarray,
    edge_ids: np.ndarray,
    row_prios: np.ndarray,
    twin: np.ndarray,
    prio: np.ndarray,
    num_edges: int,
) -> np.ndarray:
    """Per-edge butterfly supports from every bloom's charges.

    Every butterfly belongs to the bloom of exactly one start vertex
    (Lemma 3), so each is counted once.
    """
    support = np.zeros(num_edges, dtype=np.int64)
    for mid_edges, end_edges, bloom_k in bloom_blocks(
        indptr, neighbors, edge_ids, row_prios, twin, prio
    ):
        add_bloom_support(support, mid_edges, end_edges, bloom_k)
    return support


def build_shard_on_arrays(
    indptr: np.ndarray,
    neighbors: np.ndarray,
    edge_ids: np.ndarray,
    row_prios: np.ndarray,
    twin: np.ndarray,
    prio: np.ndarray,
    num_edges: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 3 over every start vertex, on raw gid-CSR arrays.

    Returns ``(support, pair_e1, pair_e2, pair_bloom, bloom_k)`` where
    ``support`` is the per-edge butterfly support, pair ``i`` is the wedge
    with edges ``pair_e1[i]`` = ``(u, v)`` and ``pair_e2[i]`` = ``(v, w)``
    of bloom ``pair_bloom[i]``, and blooms are numbered from 0 in
    :func:`bloom_blocks` order (start, then end gid), each bloom's pairs
    contiguous and in discovery order.
    """
    support = np.zeros(num_edges, dtype=np.int64)
    pair_e1_parts: List[np.ndarray] = []
    pair_e2_parts: List[np.ndarray] = []
    bloom_k_parts: List[np.ndarray] = []
    for mid_edges, end_edges, bloom_k in bloom_blocks(
        indptr, neighbors, edge_ids, row_prios, twin, prio
    ):
        add_bloom_support(support, mid_edges, end_edges, bloom_k)
        pair_e1_parts.append(mid_edges)
        pair_e2_parts.append(end_edges)
        bloom_k_parts.append(bloom_k)

    if not bloom_k_parts:
        empty = np.empty(0, dtype=np.int64)
        return support, empty, empty, empty, empty
    bloom_k = np.concatenate(bloom_k_parts)
    pair_bloom = np.repeat(np.arange(len(bloom_k), dtype=np.int64), bloom_k)
    return (
        support,
        np.concatenate(pair_e1_parts),
        np.concatenate(pair_e2_parts),
        pair_bloom,
        bloom_k,
    )
