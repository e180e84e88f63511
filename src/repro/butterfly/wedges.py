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
   is globally non-decreasing, so ``np.searchsorted`` calls over the whole
   array give every start's start→middle cut and every start-middle slot's
   middle→end cut.
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

:func:`repro.core.peeling_engine.build_shard_on_arrays` (the BE-Index
build) and :func:`support_on_arrays` (per-edge counting) both consume
:func:`bloom_blocks`.

>>> from repro.butterfly.counting import count_per_edge_naive
>>> from repro.graph.generators import paper_figure4_graph
>>> g = paper_figure4_graph()
>>> indptr, neighbors, edge_ids, row_prios = g.csr_gid_sorted_with_prios()
>>> support = support_on_arrays(indptr, neighbors, edge_ids, row_prios,
...                             g.priorities(), g.num_edges, 0, g.num_vertices)
>>> bool((support == count_per_edge_naive(g)).all())
True
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

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
    prio: np.ndarray,
    start_lo: int,
    start_hi: int,
) -> Iterator[BloomBlock]:
    """Maximal priority-obeyed blooms anchored in ``[start_lo, start_hi)``.

    Works on the raw priority-sorted gid-CSR arrays
    (``csr_gid_sorted_with_prios``) plus the per-vertex priorities, so
    shared-memory workers can run it against attached views.  Yields one
    :data:`BloomBlock` per non-empty block of at most :data:`WEDGE_BUDGET`
    wedges; blocks come in ascending start order.
    """
    n = len(indptr) - 1
    if start_hi <= start_lo:
        return
    if start_lo < 0 or start_hi > n:
        raise IndexError(
            f"start range [{start_lo}, {start_hi}) outside [0, {n})"
        )
    prio = np.asarray(prio)
    if not np.issubdtype(prio.dtype, np.integer) or np.ptp(prio) >= n:
        # Only the order of priorities matters: rank them densely, so that
        # row * span + prio below cannot overflow.
        prio = np.unique(prio, return_inverse=True)[1]
        row_prios = prio[neighbors]
    base = int(prio.min())
    span = int(prio.max()) - base + 1

    # key[slot] = row * span + prio: non-decreasing over the whole CSR, so
    # "slots of row r with priority < p" ends at searchsorted(key, r*span+p).
    # (Built in place: one row-start histogram, prefix-summed.)
    key = np.bincount(indptr[1:n], minlength=len(neighbors) + 1)[:-1]
    np.cumsum(key, out=key)
    key *= span
    key += row_prios
    key -= base

    # Start -> middle cut: sm_ptr[i] numbers the start-middle slots (u, v)
    # of starts before start_lo + i.
    sm_ptr = np.zeros(start_hi - start_lo + 1, dtype=np.int64)
    query = sm_ptr[1:]
    query[:] = np.arange(start_lo, start_hi)
    query *= span
    query += prio[start_lo:start_hi]
    query -= base
    cut = np.searchsorted(key, query)
    row_lo = indptr[start_lo:start_hi]
    cut -= row_lo
    np.cumsum(cut, out=sm_ptr[1:])
    del cut

    for c0, c1 in _budget_cuts(sm_ptr):
        a, b = int(sm_ptr[c0]), int(sm_ptr[c1])
        num_mid = np.diff(sm_ptr[c0 : c1 + 1])
        sm_slot = np.repeat(row_lo[c0:c1] - sm_ptr[c0:c1], num_mid)
        sm_slot += np.arange(a, b)
        # Middle -> end cut of every start-middle slot in the chunk.
        mids = neighbors[sm_slot]
        end_lo = indptr[mids]
        mids *= span
        mids += np.repeat(prio[start_lo + c0 : start_lo + c1] - base, num_mid)
        num_end = np.searchsorted(key, mids)
        del mids
        num_end -= end_lo
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
    prio: np.ndarray,
    num_edges: int,
    start_lo: int,
    start_hi: int,
) -> np.ndarray:
    """Partial per-edge supports from start vertices in ``[start_lo, start_hi)``.

    Summing the partial arrays of a disjoint start-range partition gives
    the full supports exactly (every butterfly belongs to the bloom of
    exactly one start, Lemma 3).
    """
    support = np.zeros(num_edges, dtype=np.int64)
    for mid_edges, end_edges, bloom_k in bloom_blocks(
        indptr, neighbors, edge_ids, row_prios, prio, start_lo, start_hi
    ):
        add_bloom_support(support, mid_edges, end_edges, bloom_k)
    return support
