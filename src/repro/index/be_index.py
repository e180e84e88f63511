"""The BE-Index (Bloom-Edge-Index) of the paper's Section IV.

The index links every *maximal priority-obeyed bloom* (Definition 8) of a
bipartite graph with the edges it contains.  A bloom anchored by the dominant
pair ``(a, w)`` — where ``a`` out-ranks every other bloom vertex — consists of
the ``k`` priority-obeyed wedges ``(a, v, w)``; it holds ``C(k, 2)``
butterflies (Lemma 1) and each of its ``2k`` edges is paired with exactly one
*twin* (the other edge of its wedge, Definition 9/Lemma 4).

Because every butterfly lies in exactly one such bloom (Lemma 3), removing an
edge ``e`` only needs to walk the blooms linked to ``e`` — ``O(sup(e))`` work
(Lemma 5) — instead of the combination-based enumeration of the earlier
algorithms.

This module implements

* ``BEIndex.build``        — Algorithm 3 (IndexConstruction), and, when an
  ``assigned`` mask is given, Algorithm 6 (CompressedIndexConstruction):
  assigned edges contribute their wedges to bloom counts but are not inserted
  into ``L(I)``, so peeling never updates them.  The blooms come from the
  wedge-block kernel (:mod:`repro.butterfly.wedges`), the same traversal
  the flat :class:`~repro.core.peeling_engine.CSRPeelingEngine` is built
  from; this module only links them into dicts;
* ``BEIndex.remove_edge``  — Algorithm 2 (RemoveEdge);
* ``BEIndex.detach_edge``  — the pass-1 half of Algorithm 5 (BiT-BU++):
  unlink an edge and its twins, incrementing per-bloom removal counters,
  leaving the bulk support updates to ``apply_bloom_batch``;
* ``BEIndex.apply_bloom_batch`` — the pass-2 half of Algorithm 5.

Fidelity note (also in DESIGN.md §3): Algorithm 2 as printed removes the twin
link only when the twin's support is strictly above the removed edge's.  A
twin at/below the peel level would then keep a stale link and later charge
updates for butterflies that no longer exist.  We always sever *both* links
of the dying wedge and apply the paper's guard only to the numeric support
updates; tests validate the result against brute-force recounting.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.butterfly.wedges import build_shard_on_arrays
from repro.graph.bipartite import BipartiteGraph
from repro.utils.stats import UpdateCounter


class Bloom:
    """One maximal priority-obeyed bloom ``B*``.

    Attributes
    ----------
    anchor, partner:
        Global ids of the dominant pair; ``anchor`` has the highest priority
        in the bloom.
    k:
        Number of *live* wedges.  The bloom's butterfly count is
        ``⋈B = k (k − 1) / 2`` — storing ``k`` avoids re-solving
        ``C(k, 2) = ⋈B`` on every access (the paper's line "compute k from
        ``C(k,2) = ⋈B``").
    twin:
        Mapping ``edge id -> twin edge id`` realizing both the ``E(I)``
        membership of live edges and the per-pair ``twin(B*, e)`` pointers.
        In a compressed index an *assigned* edge never appears as a key, but
        may appear as a value (its unassigned twin still points at it).
    """

    __slots__ = ("bloom_id", "anchor", "partner", "k", "twin")

    def __init__(self, bloom_id: int, anchor: int, partner: int, k: int) -> None:
        self.bloom_id = bloom_id
        self.anchor = anchor
        self.partner = partner
        self.k = k
        self.twin: Dict[int, int] = {}

    @property
    def butterfly_count(self) -> int:
        """⋈B — the number of butterflies currently inside the bloom."""
        return self.k * (self.k - 1) // 2

    def __repr__(self) -> str:
        return (
            f"Bloom(id={self.bloom_id}, anchor={self.anchor}, "
            f"partner={self.partner}, k={self.k}, links={len(self.twin)})"
        )


class BEIndex:
    """Bloom-Edge-Index over a bipartite graph.

    Not built directly — use :meth:`build`.  The index owns the per-edge
    butterfly-support array ``support`` (length = number of edges of the
    indexed graph) which the peeling algorithms read and mutate through the
    removal operations below.

    Examples
    --------
    >>> from repro.graph.generators import planted_bloom
    >>> index = BEIndex.build(planted_bloom(3))   # one 3-bloom, C(3,2) = 3
    >>> index.size_components()
    (1, 6, 6)
    >>> index.support.tolist()
    [2, 2, 2, 2, 2, 2]
    >>> index.remove_edge(0)                      # Algorithm 2
    >>> index.num_indexed_edges
    4
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        support: np.ndarray,
        blooms: Dict[int, Bloom],
        edge_blooms: Dict[int, Set[int]],
    ) -> None:
        self.graph = graph
        self.support = support
        self.blooms = blooms
        self.edge_blooms = edge_blooms

    # ------------------------------------------------------------ building

    @classmethod
    def build(
        cls,
        graph: BipartiteGraph,
        *,
        priorities: Optional[np.ndarray] = None,
        assigned: Optional[np.ndarray] = None,
    ) -> "BEIndex":
        """Construct the index (Algorithm 3 / Algorithm 6).

        Parameters
        ----------
        graph : BipartiteGraph
            The (sub)graph to index.
        priorities : numpy.ndarray, optional
            Optional precomputed Definition 7 ranking; its values must be
            distinct (a tied ranking raises :class:`ValueError`).
        assigned : numpy.ndarray, optional
            Optional boolean mask over edge ids.  When given, construction is
            the *compressed* variant of Algorithm 6: wedges of assigned edges
            still count towards bloom sizes (so unassigned supports stay
            correct), but assigned edges are not inserted into ``L(I)`` and
            carry no links — peeling never touches them.

        Returns
        -------
        BEIndex
            The index over ``graph``, owning the per-edge ``support`` array.

        Notes
        -----
        The wedges come from the wedge-block kernel
        (:func:`repro.butterfly.wedges.build_shard_on_arrays`), which also
        yields the per-edge supports (each wedge of a ``k``-wedge bloom
        contributes ``k − 1`` butterflies to each of its two edges).  The
        kernel numbers blooms by ``(start, end)``; here they are renumbered
        in the order a per-start traversal discovers them — start, then
        the CSR slot of the first wedge's middle, then of its end — and
        linked bloom by bloom, wedge by wedge.  The ids and the iteration
        order of every ``twin`` dict and ``edge_blooms`` set fix the order
        in which :meth:`remove_edge` visits blooms, and so the update
        counts of the peeling algorithms.

        Examples
        --------
        >>> from repro.graph.generators import planted_bloom
        >>> BEIndex.build(planted_bloom(3)).num_blooms
        1
        """
        prio = priorities if priorities is not None else graph.priorities()
        arrays = graph.csr_gid_sorted_with_prios(priorities)
        indptr, neighbors, edge_ids = arrays[:3]
        support, pair_e1, pair_e2, _, bloom_k = build_shard_on_arrays(
            *arrays, prio, graph.num_edges
        )
        blooms: Dict[int, Bloom] = {}
        edge_blooms: Dict[int, Set[int]] = {}
        if not len(bloom_k):
            return cls(graph, support, blooms, edge_blooms)

        # The first wedge (start, mid, end) of every bloom, located by its
        # two CSR slots: (start, mid) in the start's row and (mid, end) in
        # the middle's.  slot[side, e] is e's slot in the row of its lower
        # (0) or upper (1) endpoint; lower rows come first in the gid CSR.
        lower_slots = int(indptr[graph.num_lower])
        slot = np.empty((2, graph.num_edges), dtype=np.int64)
        slot[0, edge_ids[:lower_slots]] = np.arange(lower_slots)
        slot[1, edge_ids[lower_slots:]] = np.arange(lower_slots, len(edge_ids))
        first = np.cumsum(bloom_k) - bloom_k
        e_mid, e_end = pair_e1[first], pair_e2[first]
        # The start is upper iff the two edges share their lower endpoint.
        upper_start = graph.edge_lower[e_mid] == graph.edge_lower[e_end]
        side = upper_start.astype(np.intp)
        start_slot = slot[side, e_mid]
        end_slot = slot[1 - side, e_end]
        anchor = neighbors[slot[1 - side, e_mid]]
        partner = neighbors[end_slot]
        # Rows are laid out by start, so start_slot orders by start, then
        # middle; end_slot breaks ties by end.
        order = np.lexsort((end_slot, start_slot))
        k = bloom_k[order]
        new_first = np.cumsum(k) - k
        pair = np.repeat(first[order] - new_first, k)
        pair += np.arange(len(pair))
        # Links in insertion order: per wedge (u, v) -> (v, w), then back.
        link_edge = np.column_stack((pair_e1[pair], pair_e2[pair])).ravel()
        link_twin = np.column_stack((pair_e2[pair], pair_e1[pair])).ravel()
        link_bloom = np.repeat(np.arange(len(k)), 2 * k)
        if assigned is not None:
            keep = ~np.asarray(assigned, dtype=bool)[link_edge]
            link_edge, link_twin = link_edge[keep], link_twin[keep]
            link_bloom = link_bloom[keep]

        links = zip(link_edge.tolist(), link_twin.tolist())
        num_links = np.bincount(link_bloom, minlength=len(k)).tolist()
        for bloom_id, bloom_args in enumerate(
            zip(anchor[order].tolist(), partner[order].tolist(), k.tolist())
        ):
            bloom = blooms[bloom_id] = Bloom(bloom_id, *bloom_args)
            bloom.twin.update(islice(links, num_links[bloom_id]))

        # Each edge's bloom set, filled in link order; edges enter the map
        # in order of their first link.
        by_edge = np.argsort(link_edge, kind="stable")
        sorted_edges = link_edge[by_edge]
        heads = np.flatnonzero(np.diff(sorted_edges, prepend=-1))
        bounds = np.append(heads, len(by_edge))
        seen = np.argsort(by_edge[heads])
        bloom_of_link = link_bloom[by_edge].tolist()
        for edge, lo, hi in zip(
            sorted_edges[heads[seen]].tolist(),
            bounds[seen].tolist(),
            bounds[seen + 1].tolist(),
        ):
            edge_blooms[edge] = set(bloom_of_link[lo:hi])
        return cls(graph, support, blooms, edge_blooms)

    # ---------------------------------------------------------- inspection

    @property
    def num_blooms(self) -> int:
        """Number of blooms currently stored (``|U(I)|``)."""
        return len(self.blooms)

    @property
    def num_indexed_edges(self) -> int:
        """Number of edges present in ``L(I)``."""
        return len(self.edge_blooms)

    @property
    def num_links(self) -> int:
        """Number of live (bloom, edge) links (``|E(I)|``)."""
        return sum(len(b.twin) for b in self.blooms.values())

    def size_components(self) -> Tuple[int, int, int]:
        """``(blooms, indexed edges, links)`` for the Fig. 11 size model."""
        return self.num_blooms, self.num_indexed_edges, self.num_links

    def blooms_of(self, edge: int) -> List[int]:
        """Bloom ids currently linked to ``edge`` (``N_I(e)``).

        Parameters
        ----------
        edge : int
            Edge id of the indexed graph.

        Returns
        -------
        list of int
            Ids of the blooms whose live link set contains ``edge``; empty
            when the edge is unlinked (butterfly-free or already removed).
        """
        return list(self.edge_blooms.get(edge, ()))

    def live_edges(self, bloom: Bloom) -> Iterator[int]:
        """Edges currently linked to ``bloom`` (``N_I(B*)``).

        Parameters
        ----------
        bloom : Bloom
            A bloom of this index.

        Returns
        -------
        iterator of int
            The edge ids with a live link into ``bloom``.
        """
        return iter(bloom.twin)

    def twin_of(self, bloom: Bloom, edge: int) -> int:
        """``twin(B*, e)`` — the other edge of ``e``'s wedge in the bloom.

        Parameters
        ----------
        bloom : Bloom
            A bloom of this index.
        edge : int
            An edge with a live link into ``bloom``.

        Returns
        -------
        int
            The twin edge id (Definition 9).

        Raises
        ------
        KeyError
            If ``edge`` has no live link into ``bloom``.
        """
        return bloom.twin[edge]

    # ------------------------------------------------------------- removal

    def _sever_pair(self, bloom: Bloom, edge: int, twin: int) -> None:
        """Drop the dying wedge's links (both directions) and shrink k."""
        bloom.twin.pop(edge, None)
        if bloom.twin.pop(twin, None) is not None:
            twin_blooms = self.edge_blooms.get(twin)
            if twin_blooms is not None:
                twin_blooms.discard(bloom.bloom_id)
                if not twin_blooms:
                    del self.edge_blooms[twin]
        bloom.k -= 1
        if bloom.k <= 1:
            self._drop_bloom(bloom)

    def _drop_bloom(self, bloom: Bloom) -> None:
        """Remove a butterfly-free bloom and its residual links entirely."""
        for edge in list(bloom.twin):
            edge_blooms = self.edge_blooms.get(edge)
            if edge_blooms is not None:
                edge_blooms.discard(bloom.bloom_id)
                if not edge_blooms:
                    del self.edge_blooms[edge]
        bloom.twin.clear()
        del self.blooms[bloom.bloom_id]

    def remove_edge(
        self,
        edge: int,
        *,
        counter: Optional[UpdateCounter] = None,
        on_change: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        """Perform the edge removal operation for ``edge`` (Algorithm 2).

        For each bloom ``B*`` linked to ``edge``: the twin loses ``k − 1``
        butterflies and every other live edge of the bloom loses one, in each
        case only when its current support exceeds ``edge``'s (the peeling
        guard); then the bloom shrinks by one wedge.  Finally ``edge`` leaves
        ``L(I)``.

        Parameters
        ----------
        edge : int
            Edge id to remove; a no-op when the edge holds no live links.
        counter : UpdateCounter, optional
            Records one update per support decrement.
        on_change : callable, optional
            ``on_change(other_edge, new_support)`` notifies the caller's
            peeling queue after each support write.
        """
        guard = int(self.support[edge])
        bloom_ids = self.edge_blooms.pop(edge, None)
        if bloom_ids is None:
            return
        for bloom_id in list(bloom_ids):
            bloom = self.blooms.get(bloom_id)
            if bloom is None:
                continue
            k = bloom.k
            twin = bloom.twin.get(edge)
            if twin is None:
                continue
            for other in list(bloom.twin):
                if other == edge:
                    continue
                if self.support[other] > guard:
                    if other == twin:
                        self.support[other] -= k - 1
                    else:
                        self.support[other] -= 1
                    if counter is not None:
                        counter.record(other)
                    if on_change is not None:
                        on_change(other, int(self.support[other]))
            self._sever_pair(bloom, edge, twin)

    # ---------------------------------------------------- batch operations

    def detach_edge(
        self,
        edge: int,
        removal_counts: Dict[int, int],
        *,
        floor: int,
        counter: Optional[UpdateCounter] = None,
        on_change: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        """Pass 1 of Algorithm 5 for one batch member ``edge``.

        Unlinks ``edge`` from all its blooms, updates each live twin
        immediately (it loses every butterfly it shared with the bloom:
        ``k − 1``, floored at the batch minimum ``floor``), and increments
        ``removal_counts[bloom_id]`` — the ``C(B*)`` of the paper.  Each
        removed wedge pair is counted exactly once because severing the pair
        also drops the twin's link, so a twin that is itself in the batch
        will not see this bloom again.

        A twin that is *assigned* (compressed index) or already detached has
        no live link and is skipped, which is exactly the paper's "if
        ``twin(B*, e)`` is not assigned" condition.

        Parameters
        ----------
        edge : int
            The batch member to detach.
        removal_counts : dict of int to int
            Per-bloom removed-pair counters (``C(B*)``), updated in place.
        floor : int
            The batch's minimum support ``MBS``; twin updates never drop a
            support below it (Algorithm 5 line 12).
        counter : UpdateCounter, optional
            Records one update per twin support write.
        on_change : callable, optional
            ``on_change(twin, new_support)`` queue notification.
        """
        bloom_ids = self.edge_blooms.pop(edge, None)
        if bloom_ids is None:
            return
        for bloom_id in list(bloom_ids):
            bloom = self.blooms.get(bloom_id)
            if bloom is None:
                continue
            twin = bloom.twin.get(edge)
            if twin is None:
                continue
            removal_counts[bloom_id] = removal_counts.get(bloom_id, 0) + 1
            # Sever the edge's own half of the pair first.
            bloom.twin.pop(edge, None)
            # The twin keeps a live link only while unassigned and attached.
            if bloom.twin.pop(twin, None) is not None:
                twin_blooms = self.edge_blooms.get(twin)
                if twin_blooms is not None:
                    twin_blooms.discard(bloom_id)
                    if not twin_blooms:
                        del self.edge_blooms[twin]
                new_value = max(floor, int(self.support[twin]) - (bloom.k - 1))
                if new_value != self.support[twin]:
                    self.support[twin] = new_value
                    if counter is not None:
                        counter.record(twin)
                    if on_change is not None:
                        on_change(twin, new_value)
            # The k decrement is postponed to pass 2 (`apply_bloom_batch`):
            # all pairs of one batch leave against the same original k.

    def apply_bloom_batch(
        self,
        removal_counts: Dict[int, int],
        *,
        floor: int,
        counter: Optional[UpdateCounter] = None,
        on_change: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        """Pass 2 of Algorithm 5: per-bloom bulk updates.

        Every bloom that lost ``C`` wedge pairs shrinks from ``k`` to
        ``k − C`` wedges, and each of its surviving live edges loses exactly
        ``C`` butterflies (one per removed wedge), floored at the batch's
        minimum support ``floor``.

        Parameters
        ----------
        removal_counts : dict of int to int
            The ``C(B*)`` counters accumulated by :meth:`detach_edge` over
            the whole batch.
        floor : int
            The batch's minimum support ``MBS`` (Algorithm 5 line 18).
        counter : UpdateCounter, optional
            Records one update per surviving-edge support write.
        on_change : callable, optional
            ``on_change(edge, new_support)`` queue notification.
        """
        for bloom_id, removed in removal_counts.items():
            bloom = self.blooms.get(bloom_id)
            if bloom is None:
                continue
            for other in list(bloom.twin):
                new_value = max(floor, int(self.support[other]) - removed)
                if new_value != self.support[other]:
                    self.support[other] = new_value
                    if counter is not None:
                        counter.record(other)
                    if on_change is not None:
                        on_change(other, new_value)
            bloom.k -= removed
            if bloom.k <= 1:
                self._drop_bloom(bloom)

    def remove_edge_accumulate(
        self,
        edge: int,
        deltas: Dict[int, int],
        skip: Set[int],
    ) -> None:
        """Batch *edge* processing without batch bloom processing (BiT-BU+).

        Walks every bloom of ``edge`` as :meth:`remove_edge` does, but
        instead of writing supports immediately it accumulates per-edge
        losses into ``deltas`` (the caller applies them once per affected
        edge at the end of the batch).  Edges in ``skip`` — the batch ``S``
        itself — are never charged (Lemma 9: removing an edge cannot change
        the bitruss number of an equal-support edge).

        Unlike pass 1/2 of BiT-BU++, each bloom is re-walked for every batch
        member it contains; the bloom's ``k`` shrinks pair by pair, which
        yields the same totals as the simultaneous-removal formula.

        Parameters
        ----------
        edge : int
            The batch member to remove.
        deltas : dict of int to int
            Per-edge accumulated support losses, updated in place.
        skip : set of int
            The batch ``S`` itself; members are never charged.
        """
        bloom_ids = self.edge_blooms.pop(edge, None)
        if bloom_ids is None:
            return
        for bloom_id in list(bloom_ids):
            bloom = self.blooms.get(bloom_id)
            if bloom is None:
                continue
            twin = bloom.twin.get(edge)
            if twin is None:
                continue
            k = bloom.k
            for other in bloom.twin:
                if other == edge or other in skip:
                    continue
                if other == twin:
                    deltas[other] = deltas.get(other, 0) + (k - 1)
                else:
                    deltas[other] = deltas.get(other, 0) + 1
            self._sever_pair(bloom, edge, twin)

    # ---------------------------------------------------------- validation

    def validate(self) -> None:
        """Check structural invariants; used heavily by the test suite."""
        for edge, bloom_ids in self.edge_blooms.items():
            for bloom_id in bloom_ids:
                bloom = self.blooms.get(bloom_id)
                if bloom is None:
                    raise AssertionError(f"edge {edge} links to dead bloom {bloom_id}")
                if edge not in bloom.twin:
                    raise AssertionError(f"edge {edge} missing from bloom {bloom_id}")
        for bloom in self.blooms.values():
            if bloom.k < 2:
                raise AssertionError(f"bloom {bloom.bloom_id} should have been pruned")
            for edge, twin in bloom.twin.items():
                if bloom.bloom_id not in self.edge_blooms.get(edge, ()):
                    raise AssertionError(
                        f"bloom {bloom.bloom_id} lists edge {edge} without a back-link"
                    )
                # A live edge's twin, when itself live, must point back.
                if twin in bloom.twin and bloom.twin[twin] != edge:
                    raise AssertionError(
                        f"twin pairing broken in bloom {bloom.bloom_id}: "
                        f"{edge} -> {twin} -> {bloom.twin[twin]}"
                    )
