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

The bucket queue is array-native too (:class:`PeelFrontier`): the
engine's own ``support`` array, a ``remaining`` mask and a lazily
materialized window of the lowest-support edges, after Julienne's bucketing
(Dhulipala, Blelloch & Shun, SPAA 2017), so no step of the peel loops over
edges in Python.

The index is built by the wedge-block kernel of
:mod:`repro.butterfly.wedges`
(:func:`~repro.butterfly.wedges.build_shard_on_arrays`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.butterfly.wedges import build_shard_on_arrays
from repro.graph.bipartite import BipartiteGraph
from repro.obs import spans as obs_spans
from repro.utils.arrays import sorted_unique
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

        Algorithm 3, run by the wedge-block kernel of
        :mod:`repro.butterfly.wedges` (the traversal
        :meth:`repro.index.be_index.BEIndex.build` uses too): whole blocks
        of wedges are grouped by ``(start, end)`` with one stable sort and
        the per-edge supports scattered with ``np.add.at`` — no Python
        loop per vertex, and no Bloom dictionaries are ever materialized.
        The traversal itself is one call to
        :func:`~repro.butterfly.wedges.build_shard_on_arrays`.
        """
        prio = (
            np.asarray(priorities)
            if priorities is not None
            else graph.priorities()
        )
        arrays = graph.csr_gid_sorted_with_prios(priorities)
        m = graph.num_edges
        with obs_spans.span("bloom discovery"):
            support, pair_e1, pair_e2, pair_bloom, bloom_k = build_shard_on_arrays(
                *arrays, prio, m
            )
        with obs_spans.span("assemble"):
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

            # Bloom -> pairs CSR.  Pairs are appended in non-decreasing
            # bloom order, so the identity permutation is already grouped.
            b_indptr = np.zeros(num_blooms + 1, dtype=np.int64)
            if num_pairs:
                np.cumsum(
                    np.bincount(pair_bloom, minlength=num_blooms),
                    out=b_indptr[1:],
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

    def peel(self, *, counter: Optional[UpdateCounter] = None) -> np.ndarray:
        """Bottom-up batch peeling; returns the bitruss number of every edge.

        Every batch is the whole current minimum-support bucket, popped
        from a :class:`PeelFrontier` over :attr:`support` and processed
        with array operations (:meth:`_peel_batch`).

        Parameters
        ----------
        counter:
            Optional :class:`~repro.utils.stats.UpdateCounter`; one update is
            recorded per (edge, batch) support change.

        Returns
        -------
        numpy.ndarray
            ``phi`` with ``phi[e]`` the bitruss number of edge ``e`` —
            bitwise identical to scalar BiT-BU's output.

        Examples
        --------
        >>> from repro.core.bit_bu import bit_bu
        >>> from repro.graph.generators import paper_figure4_graph
        >>> graph = paper_figure4_graph()
        >>> phi = CSRPeelingEngine.build(graph).peel()
        >>> bool((phi == bit_bu(graph).phi).all())
        True
        """
        phi = np.zeros(self.num_edges, dtype=np.int64)
        frontier = PeelFrontier(self.support)
        while frontier:
            batch, mbs = frontier.pop()
            phi[batch] = mbs
            with obs_spans.span("batch updates"):
                self._peel_batch(batch, mbs, frontier, counter)
        return phi

    def _peel_batch(
        self,
        batch: np.ndarray,
        mbs: int,
        frontier: "PeelFrontier",
        counter: Optional[UpdateCounter],
    ) -> None:
        """Whole-bucket update via gathers, ``np.unique`` and ``np.add.at``."""
        links, owner = _gather_rows(self.e_indptr, self.e_pair, batch)
        alive = self.pair_alive[links] & (self.bloom_k[self.pair_bloom[links]] >= 2)
        links = links[alive]
        owner = owner[alive]
        if not len(links):
            return
        # Pass 1 — detach.  A pair with both endpoints in the batch
        # appears twice in `links`; sorted_unique counts it once (exactly
        # the "twin already severed" skip of the scalar algorithm).
        twin = np.where(
            self.pair_e1[links] == owner, self.pair_e2[links], self.pair_e1[links]
        )
        removed_pairs = sorted_unique(links)
        touched, c_removed = np.unique(
            self.pair_bloom[removed_pairs], return_counts=True
        )
        # Losses are accumulated sparsely — (edge, amount) fragments —
        # so a batch only ever touches O(affected) memory, never O(m).
        loss_edges: List[np.ndarray] = []
        loss_values: List[np.ndarray] = []
        # A live pair of a k >= 2 bloom never holds an edge peeled by an
        # earlier batch (peeling kills all such pairs, and k never grows),
        # so its twin is external exactly when it is still remaining.
        external = frontier.remaining[twin]
        if external.any():
            loss_edges.append(twin[external])
            loss_values.append(self.bloom_k[self.pair_bloom[links[external]]] - 1)
        self.pair_alive[removed_pairs] = False
        # Pass 2 — every surviving pair of a touched bloom charges both
        # of its edges the bloom's removed-pair count C(B*).
        pairs_g, bloom_of_g = _gather_rows(self.b_indptr, self.b_pair, touched)
        surviving = self.pair_alive[pairs_g]
        pairs_s = pairs_g[surviving]
        # `touched` is sorted (np.unique), so the bloom -> C(B*)
        # lookup is a searchsorted, not an O(num_blooms) scatter.
        charge_s = c_removed[np.searchsorted(touched, bloom_of_g[surviving])]
        loss_edges += [self.pair_e1[pairs_s], self.pair_e2[pairs_s]]
        loss_values += [charge_s, charge_s]
        self.bloom_k[touched] -= c_removed
        # Merge the fragments and apply them, floored at the batch minimum.
        edges_cat = np.concatenate(loss_edges)
        values_cat = np.concatenate(loss_values)
        changed, inverse = np.unique(edges_cat, return_inverse=True)
        totals = np.zeros(len(changed), dtype=np.int64)
        np.add.at(totals, inverse, values_cat)
        moved = frontier.lower(changed, totals, mbs)
        if counter is not None:
            counter.record_many(moved)


#: Target size of a :class:`PeelFrontier` window: each refill scans the
#: remaining supports once and admits about this many edges.
FRONTIER_WINDOW = 4096


class PeelFrontier:
    """The peel's bucket queue as arrays over a shared ``support`` array.

    Three parts, after Julienne's lazily materialized buckets (Dhulipala,
    Blelloch & Shun, SPAA 2017): a ``remaining`` mask, a bound ``hi`` and
    a window ``ids`` of remaining edges with support below ``hi``.
    Invariant: every remaining edge with support ``< hi`` is in ``ids``;
    supports only fall, never below the key being peeled, so the window's
    minimum is the global minimum.  An empty window is refilled by one scan
    of the remaining supports, with ``hi`` one above their
    :data:`FRONTIER_WINDOW`-th smallest value.  Pops match
    :meth:`~repro.utils.bucket_queue.BucketQueue.pop_min_batch` under the
    same updates.
    """

    def __init__(self, support: np.ndarray) -> None:
        self.support = support
        self.remaining = np.ones(len(support), dtype=bool)
        self.hi = 0
        self.ids = np.empty(0, dtype=np.int64)
        self._left = len(support)

    def __len__(self) -> int:
        return self._left

    def pop(self) -> Tuple[np.ndarray, int]:
        """Remove and return ``(edges, key)`` — every remaining edge at the
        minimum support (in no particular order)."""
        if not len(self.ids):
            self._refill()
        keys = self.support[self.ids]
        key = int(keys.min())
        at_min = keys == key
        batch = self.ids[at_min]
        self.ids = self.ids[~at_min]
        self.remaining[batch] = False
        self._left -= len(batch)
        return batch, key

    def lower(
        self, edges: np.ndarray, amounts: np.ndarray, floor: int
    ) -> np.ndarray:
        """Subtract ``amounts`` from the supports of ``edges`` (distinct,
        remaining), floored at ``floor`` — the key just popped.  Returns
        the edges whose support changed."""
        old = self.support[edges]
        new = np.maximum(floor, old - amounts)
        moved = new != old
        edges = edges[moved]
        new = new[moved]
        self.support[edges] = new
        crossed = edges[(new < self.hi) & (old[moved] >= self.hi)]
        if len(crossed):
            self.ids = np.concatenate((self.ids, crossed))
        return edges

    def _refill(self) -> None:
        """Rebuild the window from one scan of the remaining supports."""
        if not self._left:
            raise IndexError("pop from empty PeelFrontier")
        with obs_spans.span("frontier refill"):
            # The one O(m) temporary (besides the mask); the bool mask
            # below is built only after it is released.
            keys = self.support[self.remaining]
            rank = min(FRONTIER_WINDOW, len(keys)) - 1
            keys.partition(rank)
            self.hi = int(keys[rank]) + 1
            del keys
            below = self.support < self.hi
            below &= self.remaining
            self.ids = np.flatnonzero(below)
