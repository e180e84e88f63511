"""CSR-native batch-peeling engine for bottom-up bitruss decomposition.

The dict-based :class:`~repro.index.be_index.BEIndex` walks Python
dictionaries edge by edge.  This module stores the *same* index — maximal
priority-obeyed blooms, their wedge pairs, and the edge↔bloom links — as a
handful of flat numpy arrays (a structure-of-arrays BE-Index), and peels the
graph **one support level at a time**: the entire current minimum-support
bucket is pulled from the queue at once and the support losses of every
affected edge are computed for the whole batch with vectorized gathers,
``np.unique`` and ``np.add.at`` against the arrays.

Layout
------
One *pair* is one priority-obeyed wedge: two edges that are twins of each
other inside one bloom (Definition 9).  A bloom with ``k`` live wedges holds
``C(k, 2)`` butterflies (Lemma 1).

==============  =======================================================
array           meaning
==============  =======================================================
``support``     live butterfly support per edge (mutated while peeling)
``pair_e1/e2``  the two twin edges of each wedge pair
``pair_bloom``  owning bloom of each pair
``pair_alive``  liveness flag per pair
``bloom_k``     live wedge count per bloom
``e_indptr``    CSR: edge -> its pair ids (``e_pair``)
``b_indptr``    CSR: bloom -> its pair ids (``b_pair``)
==============  =======================================================

Batch semantics
---------------
A batch step reproduces Algorithm 5 (BiT-BU++) exactly — pass 1 detaches
every batch member and charges each live external twin ``k − 1``; pass 2
charges every surviving edge of a touched bloom the bloom's removed-pair
count ``C(B*)`` and shrinks ``k`` — with both passes evaluated as array
operations.  Because all updates inside one batch share the same floor
(the batch's minimum support ``MBS``), the sequential floored subtractions
of the scalar algorithm collapse into a single floored subtraction of the
accumulated loss, so the resulting bitruss numbers are bitwise identical
to scalar BiT-BU (Lemma 9 makes batch assignment safe).

Tiny buckets fall back to a scalar walk over the same arrays
(``scalar_cutoff``): a two-edge batch does not amortize numpy call
overhead.

The index is built by the wedge-block kernel of
:mod:`repro.butterfly.wedges` (see :func:`build_shard_on_arrays`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.butterfly.wedges import add_bloom_support, bloom_blocks
from repro.graph.bipartite import BipartiteGraph
from repro.obs import phases as obs_phases
from repro.utils.bucket_queue import BucketQueue
from repro.utils.stats import UpdateCounter

#: ``fly_expiry`` value meaning "no exterior edge ever removes this
#: butterfly" (see :func:`peel_region`).
NO_EXPIRY = -1


def peel_region(
    num_edges: int,
    fly_edges: Sequence[Sequence[int]],
    fly_expiry: Sequence[int],
    *,
    counter: Optional[UpdateCounter] = None,
) -> np.ndarray:
    """Peel a small edge region against a frozen exterior.

    The localized-repair entry point of the incremental maintenance layer
    (:mod:`repro.maintenance.incremental`): given the butterflies that touch
    a region of edges, recompute the bitruss number of every region edge
    under the assumption that edges *outside* the region keep their current
    φ.  The exterior is folded into each butterfly as a single **expiry
    level** — the minimum φ over its exterior edges — because in the global
    bottom-up peel a butterfly stops counting exactly when its weakest edge
    is removed, and a frozen exterior edge with bitruss number ``t`` is
    removed while the peel is processing level ``t``.

    The peel itself is the scalar BiT-BU loop over the local structures: a
    bucket queue keyed by live butterfly counts, a monotone floor ``k``,
    support losses floored at ``k`` (Algorithm 5's floor rule), and — the
    one addition — butterflies whose expiry level equals the current floor
    are destroyed *before* the floor may rise past it, charging their
    surviving interior edges exactly once.

    Parameters
    ----------
    num_edges : int
        Region size; interior edges are ``0 .. num_edges - 1``.
    fly_edges : sequence of sequence of int
        Per butterfly, the interior edges it contains (1-4 entries, no
        duplicates).  Every butterfly of the current graph that contains at
        least one region edge must appear exactly once, so each interior
        edge's list count equals its exact butterfly support.
    fly_expiry : sequence of int
        Per butterfly, the minimum φ over its *exterior* edges, or
        :data:`NO_EXPIRY` when all four edges are interior.
    counter : UpdateCounter, optional
        Records one update per interior support change, like the global
        peels.

    Returns
    -------
    numpy.ndarray
        ``phi`` for the region edges — identical to what a full recompute
        would assign them, provided the exterior φ values are indeed
        unaffected by whatever mutation produced the region (the caller's
        region-closure bound guarantees that).
    """
    phi = np.zeros(num_edges, dtype=np.int64)
    if num_edges == 0:
        return phi
    support = [0] * num_edges
    edge_flies: List[List[int]] = [[] for _ in range(num_edges)]
    expiry_buckets: Dict[int, List[int]] = {}
    alive = [True] * len(fly_edges)
    for fid, members in enumerate(fly_edges):
        for edge in members:
            support[edge] += 1
            edge_flies[edge].append(fid)
        expiry = fly_expiry[fid]
        if expiry != NO_EXPIRY:
            expiry_buckets.setdefault(int(expiry), []).append(fid)

    queue = BucketQueue.from_keys(support)
    floor = 0

    def charge(edge: int, amount: int) -> None:
        new_value = max(floor, queue.key(edge) - amount)
        if new_value != queue.key(edge):
            queue.update(edge, new_value)
            if counter is not None:
                counter.record(edge)

    while not queue.is_empty():
        min_key = queue.peek_min_key()
        while min_key > floor:
            # Before the floor may rise past `floor`, every butterfly whose
            # weakest exterior edge has φ == floor must leave (in the global
            # peel that edge is removed at this very level; removal order
            # within one level never changes the resulting φ).
            bucket = expiry_buckets.pop(floor, None)
            if bucket is None:
                floor += 1
            else:
                for fid in bucket:
                    if alive[fid]:
                        alive[fid] = False
                        for edge in fly_edges[fid]:
                            if edge in queue:
                                charge(edge, 1)
            min_key = queue.peek_min_key()
        batch, _ = queue.pop_min_batch()
        phi[batch] = floor
        for edge in batch:
            for fid in edge_flies[edge]:
                if alive[fid]:
                    alive[fid] = False
                    for other in fly_edges[fid]:
                        if other != edge and other in queue:
                            charge(other, 1)
    return phi


#: One shard of the flat-array BE-Index under construction: the partial
#: per-edge supports contributed by a contiguous start-vertex range plus the
#: wedge pairs discovered there (bloom ids numbered locally from 0).
BuildShard = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def build_shard_on_arrays(
    indptr: np.ndarray,
    neighbors: np.ndarray,
    edge_ids: np.ndarray,
    row_prios: np.ndarray,
    prio: np.ndarray,
    num_edges: int,
    start_lo: int,
    start_hi: int,
) -> BuildShard:
    """Algorithm 3 over one start-vertex range, on raw gid-CSR arrays.

    The construction kernel underneath :meth:`CSRPeelingEngine.build`,
    phrased over arrays (not a graph object) so shared-memory workers can
    run it against attached views.  The blooms come from the wedge-block
    kernel (:func:`repro.butterfly.wedges.bloom_blocks`).  Returns
    ``(support, pair_e1, pair_e2, pair_bloom, bloom_k)`` where ``support``
    is the full-length partial support array and ``pair_bloom`` numbers
    blooms locally from 0 in discovery order.  Because maximal
    priority-obeyed blooms are anchored at exactly one start vertex,
    shards over a disjoint range partition compose losslessly: summing
    supports and concatenating pair/bloom arrays in ascending range order
    (with bloom-id offsets) reproduces the sequential build bit for bit.
    """
    support = np.zeros(num_edges, dtype=np.int64)
    pair_e1_parts: List[np.ndarray] = []
    pair_e2_parts: List[np.ndarray] = []
    bloom_k_parts: List[np.ndarray] = []
    for mid_edges, end_edges, bloom_k in bloom_blocks(
        indptr, neighbors, edge_ids, row_prios, prio, start_lo, start_hi
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


def _gather_rows(
    indptr: np.ndarray, data: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate CSR rows: returns ``(values, row_of_value)``."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    cum = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
    idx = np.repeat(starts, counts) + offsets
    return data[idx], np.repeat(rows, counts)


class CSRPeelingEngine:
    """Structure-of-arrays BE-Index with vectorized batch peeling.

    Not built directly — use :meth:`build`.  One engine instance is good for
    one :meth:`peel` run (peeling consumes the liveness arrays).
    """

    def __init__(
        self,
        num_edges: int,
        support: np.ndarray,
        pair_e1: np.ndarray,
        pair_e2: np.ndarray,
        pair_bloom: np.ndarray,
        bloom_k: np.ndarray,
        e_indptr: np.ndarray,
        e_pair: np.ndarray,
        b_indptr: np.ndarray,
        b_pair: np.ndarray,
    ) -> None:
        self.num_edges = num_edges
        self.support = support
        self.pair_e1 = pair_e1
        self.pair_e2 = pair_e2
        self.pair_bloom = pair_bloom
        self.pair_alive = np.ones(len(pair_bloom), dtype=bool)
        self.bloom_k = bloom_k
        self.e_indptr = e_indptr
        self.e_pair = e_pair
        self.b_indptr = b_indptr
        self.b_pair = b_pair

    # ------------------------------------------------------------ building

    @classmethod
    def build(
        cls,
        graph: BipartiteGraph,
        *,
        priorities: Optional[np.ndarray] = None,
    ) -> "CSRPeelingEngine":
        """Construct the flat-array index straight from the graph's CSR.

        Performs the same priority-obeyed wedge traversal as
        :meth:`repro.index.be_index.BEIndex.build` (Algorithm 3), run by
        the wedge-block kernel of :mod:`repro.butterfly.wedges`: whole
        blocks of wedges are grouped by ``(start, end)`` with one stable
        sort and the per-edge supports scattered with ``np.add.at`` — no
        Python loop per vertex, and no Bloom dictionaries are ever
        materialized.  The traversal itself is one call to
        :func:`build_shard_on_arrays` over the whole start range; the
        shared-memory runtime builds the same engine from several
        range shards (:meth:`from_shards`).
        """
        prio = (
            np.asarray(priorities)
            if priorities is not None
            else graph.priorities()
        )
        indptr, neighbors, edge_ids, row_prios = graph.csr_gid_sorted_with_prios(
            priorities
        )
        with obs_phases.phase("bloom discovery"):
            shard = build_shard_on_arrays(
                indptr,
                neighbors,
                edge_ids,
                row_prios,
                prio,
                graph.num_edges,
                0,
                graph.num_vertices,
            )
        with obs_phases.phase("assemble"):
            return cls.from_shards(graph.num_edges, [shard])

    @classmethod
    def from_shards(
        cls, num_edges: int, shards: List[BuildShard]
    ) -> "CSRPeelingEngine":
        """Assemble an engine from :func:`build_shard_on_arrays` outputs.

        ``shards`` must cover a disjoint partition of the start-vertex
        space and be listed in ascending range order; the assembled arrays
        (bloom numbering included) are then bitwise identical to a
        single-shard sequential build.
        """
        m = num_edges
        support = np.zeros(m, dtype=np.int64)
        pair_e1_parts: List[np.ndarray] = []
        pair_e2_parts: List[np.ndarray] = []
        pair_bloom_parts: List[np.ndarray] = []
        bloom_k_parts: List[np.ndarray] = []
        next_bloom = 0
        for part_support, e1, e2, bloom_local, bloom_k_part in shards:
            support += part_support
            if len(bloom_local):
                pair_e1_parts.append(e1)
                pair_e2_parts.append(e2)
                pair_bloom_parts.append(bloom_local + next_bloom)
                bloom_k_parts.append(bloom_k_part)
                next_bloom += len(bloom_k_part)

        if pair_bloom_parts:
            pair_e1 = np.concatenate(pair_e1_parts)
            pair_e2 = np.concatenate(pair_e2_parts)
            pair_bloom = np.concatenate(pair_bloom_parts)
            bloom_k = np.concatenate(bloom_k_parts)
        else:
            pair_e1 = np.empty(0, dtype=np.int64)
            pair_e2 = np.empty(0, dtype=np.int64)
            pair_bloom = np.empty(0, dtype=np.int64)
            bloom_k = np.empty(0, dtype=np.int64)

        num_pairs = len(pair_bloom)
        num_blooms = len(bloom_k)

        # Edge -> pairs CSR (each pair appears under both of its edges).
        link_edge = np.concatenate((pair_e1, pair_e2))
        link_pair = np.concatenate(
            (
                np.arange(num_pairs, dtype=np.int64),
                np.arange(num_pairs, dtype=np.int64),
            )
        )
        link_order = np.argsort(link_edge, kind="stable")
        e_indptr = np.zeros(m + 1, dtype=np.int64)
        if len(link_edge):
            np.cumsum(np.bincount(link_edge, minlength=m), out=e_indptr[1:])
        e_pair = link_pair[link_order]

        # Bloom -> pairs CSR.  Pairs are appended in non-decreasing bloom
        # order, so the identity permutation is already grouped.
        b_indptr = np.zeros(num_blooms + 1, dtype=np.int64)
        if num_pairs:
            np.cumsum(
                np.bincount(pair_bloom, minlength=num_blooms), out=b_indptr[1:]
            )
        b_pair = np.arange(num_pairs, dtype=np.int64)

        return cls(
            m,
            support,
            pair_e1,
            pair_e2,
            pair_bloom,
            bloom_k,
            e_indptr,
            e_pair,
            b_indptr,
            b_pair,
        )

    # ---------------------------------------------------------- inspection

    def size_components(self) -> Tuple[int, int, int]:
        """``(blooms, indexed edges, links)`` for the Fig. 11 size model."""
        indexed = int(np.count_nonzero(np.diff(self.e_indptr)))
        return len(self.bloom_k), indexed, 2 * len(self.pair_bloom)

    # ------------------------------------------------------------- peeling

    def peel(
        self,
        *,
        counter: Optional[UpdateCounter] = None,
        scalar_cutoff: int = 24,
    ) -> np.ndarray:
        """Bottom-up batch peeling; returns the bitruss number of every edge.

        Parameters
        ----------
        counter:
            Optional :class:`~repro.utils.stats.UpdateCounter`; one update is
            recorded per (edge, batch) support change.
        scalar_cutoff:
            Batches of at most this many edges take the scalar array walk
            (numpy per-call overhead dominates tiny batches); larger batches
            take the vectorized path.  ``0`` forces vectorized everywhere.

        Returns
        -------
        numpy.ndarray
            ``phi`` with ``phi[e]`` the bitruss number of edge ``e`` —
            bitwise identical to scalar BiT-BU's output.
        """
        phi = np.zeros(self.num_edges, dtype=np.int64)
        if self.num_edges == 0:
            return phi
        queue = BucketQueue.from_keys(self.support)
        in_batch = np.zeros(self.num_edges, dtype=bool)
        while not queue.is_empty():
            batch, mbs = queue.pop_min_batch()
            phi[batch] = mbs
            if len(batch) <= scalar_cutoff:
                with obs_phases.phase("scalar batches"):
                    self._peel_batch_scalar(batch, mbs, queue, counter)
            else:
                with obs_phases.phase("vectorized batches"):
                    self._peel_batch_vectorized(
                        batch, mbs, queue, counter, in_batch
                    )
        return phi

    def _peel_batch_scalar(
        self,
        batch: List[int],
        mbs: int,
        queue: BucketQueue,
        counter: Optional[UpdateCounter],
    ) -> None:
        """Small-batch fallback: same two passes, plain Python loops."""
        batch_set = set(batch)
        e_indptr = self.e_indptr
        e_pair = self.e_pair
        pair_alive = self.pair_alive
        pair_bloom = self.pair_bloom
        pair_e1 = self.pair_e1
        pair_e2 = self.pair_e2
        bloom_k = self.bloom_k
        removed: Dict[int, int] = {}
        loss: Dict[int, int] = {}
        for edge in batch:
            for slot in range(int(e_indptr[edge]), int(e_indptr[edge + 1])):
                pair = int(e_pair[slot])
                if not pair_alive[pair]:
                    continue
                bloom = int(pair_bloom[pair])
                k = int(bloom_k[bloom])
                if k < 2:
                    continue
                pair_alive[pair] = False
                removed[bloom] = removed.get(bloom, 0) + 1
                e1 = int(pair_e1[pair])
                twin = int(pair_e2[pair]) if e1 == edge else e1
                if twin not in batch_set:
                    loss[twin] = loss.get(twin, 0) + k - 1
        b_indptr = self.b_indptr
        b_pair = self.b_pair
        for bloom, c_removed in removed.items():
            for slot in range(int(b_indptr[bloom]), int(b_indptr[bloom + 1])):
                pair = int(b_pair[slot])
                if pair_alive[pair]:
                    e1 = int(pair_e1[pair])
                    e2 = int(pair_e2[pair])
                    loss[e1] = loss.get(e1, 0) + c_removed
                    loss[e2] = loss.get(e2, 0) + c_removed
            bloom_k[bloom] -= c_removed
        support = self.support
        for edge, total in loss.items():
            new_value = max(mbs, int(support[edge]) - total)
            if new_value != support[edge]:
                support[edge] = new_value
                queue.update(edge, new_value)
                if counter is not None:
                    counter.record(edge)

    def _peel_batch_vectorized(
        self,
        batch: List[int],
        mbs: int,
        queue: BucketQueue,
        counter: Optional[UpdateCounter],
        in_batch: np.ndarray,
    ) -> None:
        """Whole-bucket update via gathers, ``np.unique`` and ``np.add.at``."""
        batch_arr = np.asarray(batch, dtype=np.int64)
        in_batch[batch_arr] = True
        try:
            links, owner = _gather_rows(self.e_indptr, self.e_pair, batch_arr)
            if not len(links):
                return
            alive = self.pair_alive[links] & (
                self.bloom_k[self.pair_bloom[links]] >= 2
            )
            links = links[alive]
            owner = owner[alive]
            if not len(links):
                return
            # Pass 1 — detach.  A pair with both endpoints in the batch
            # appears twice in `links`; np.unique counts it once (exactly the
            # "twin already severed" skip of the scalar algorithm).
            twin = np.where(
                self.pair_e1[links] == owner, self.pair_e2[links], self.pair_e1[links]
            )
            removed_pairs = np.unique(links)
            touched, c_removed = np.unique(
                self.pair_bloom[removed_pairs], return_counts=True
            )
            # Losses are accumulated sparsely — (edge, amount) fragments —
            # so a batch only ever touches O(affected) memory, never O(m).
            loss_edges: List[np.ndarray] = []
            loss_values: List[np.ndarray] = []
            external = ~in_batch[twin]
            if external.any():
                loss_edges.append(twin[external])
                loss_values.append(
                    self.bloom_k[self.pair_bloom[links[external]]] - 1
                )
            self.pair_alive[removed_pairs] = False
            # Pass 2 — every surviving pair of a touched bloom charges both
            # of its edges the bloom's removed-pair count C(B*).
            pairs_g, bloom_of_g = _gather_rows(self.b_indptr, self.b_pair, touched)
            if len(pairs_g):
                surviving = self.pair_alive[pairs_g]
                pairs_s = pairs_g[surviving]
                # `touched` is sorted (np.unique), so the bloom -> C(B*)
                # lookup is a searchsorted, not an O(num_blooms) scatter.
                charge_s = c_removed[
                    np.searchsorted(touched, bloom_of_g[surviving])
                ]
                loss_edges.append(self.pair_e1[pairs_s])
                loss_values.append(charge_s)
                loss_edges.append(self.pair_e2[pairs_s])
                loss_values.append(charge_s)
            self.bloom_k[touched] -= c_removed
            self._apply_losses(loss_edges, loss_values, mbs, queue, counter)
        finally:
            in_batch[batch_arr] = False

    def _apply_losses(
        self,
        loss_edges: List[np.ndarray],
        loss_values: List[np.ndarray],
        mbs: int,
        queue: BucketQueue,
        counter: Optional[UpdateCounter],
    ) -> None:
        """Merge (edge, amount) loss fragments and apply them, floored at
        the batch minimum ``mbs`` — one ``np.add.at`` regardless of how the
        fragments were produced.  Shared by the in-process batch step and
        the sharded waves of :mod:`repro.runtime.parallel_peeling`, so the
        bitwise-identity guarantee between the two cannot drift."""
        if not loss_edges:
            return
        edges_cat = np.concatenate(loss_edges)
        values_cat = np.concatenate(loss_values)
        changed, inverse = np.unique(edges_cat, return_inverse=True)
        totals = np.zeros(len(changed), dtype=np.int64)
        np.add.at(totals, inverse, values_cat)
        new_values = np.maximum(mbs, self.support[changed] - totals)
        moved = new_values != self.support[changed]
        self.support[changed] = new_values
        for edge, value in zip(
            changed[moved].tolist(), new_values[moved].tolist()
        ):
            queue.update(edge, value)
            if counter is not None:
                counter.record(edge)
