"""Vertex priorities (Definition 7 of the paper).

The priority ``p(u)`` of a vertex is an integer in ``[1, |V|]`` such that for
two vertices ``u`` and ``v``::

    p(u) > p(v)  iff  d(u) > d(v), or d(u) == d(v) and u.id > v.id

i.e. higher degree wins, and ties are broken by the (global) vertex id.  The
paper additionally assumes that every upper-layer id is larger than every
lower-layer id; the :class:`~repro.graph.bipartite.BipartiteGraph` global-id
scheme (``gid(v in L) = v``, ``gid(u in U) = n_l + u``) realizes exactly that,
so priorities computed here match the paper's tie-breaking.

Priorities drive both the vertex-priority butterfly-counting algorithm
(Wang et al., VLDB 2019 — the paper's reference [8]) and the identification
of *maximal priority-obeyed blooms* in the BE-Index (Section IV).
"""

from __future__ import annotations

import numpy as np


def vertex_priorities(degrees: np.ndarray) -> np.ndarray:
    """Return the priority rank of every vertex.

    Parameters
    ----------
    degrees:
        Array of vertex degrees indexed by global vertex id.

    Returns
    -------
    numpy.ndarray
        ``prio`` with ``prio[g]`` the 1-based priority of global vertex ``g``;
        all priorities are distinct and ``prio[g1] > prio[g2]`` iff ``g1``
        out-ranks ``g2`` under Definition 7.
    """
    degrees = np.asarray(degrees)
    n = degrees.shape[0]
    # A stable sort on degree leaves equal-degree vertices ordered by their
    # global id, which is precisely Definition 7's tie-break.
    order = np.argsort(degrees, kind="stable")
    prio = np.empty(n, dtype=np.int64)
    prio[order] = np.arange(1, n + 1, dtype=np.int64)
    return prio


def priority_order(degrees: np.ndarray) -> np.ndarray:
    """Return global vertex ids sorted by *increasing* priority."""
    return np.argsort(np.asarray(degrees), kind="stable")


def compact_ranking(prio: np.ndarray) -> np.ndarray:
    """An integer ranking in the order of ``prio`` spanning at most ``n`` values.

    Only the order of a ranking matters to the priority-sorted traversals.
    An integer ranking that spans fewer than ``n = len(prio)`` values is
    returned as is (the same object); floats and wider integer rankings are
    replaced by their dense 0-based ranks, ties kept equal.  Either way the
    result spans at most ``n`` values, so ``row * span + rank`` sort keys
    over ``n`` rows fit in ``int64``.
    """
    prio = np.asarray(prio)
    if np.issubdtype(prio.dtype, np.integer) and (
        not len(prio) or np.ptp(prio) < len(prio)
    ):
        return prio
    return np.unique(prio, return_inverse=True)[1]


def row_priority_keys(
    indptr: np.ndarray, slot_ranks: np.ndarray, span: int, base: int = 0
) -> np.ndarray:
    """The sort key ``row * span + slot_ranks - base`` of every CSR slot.

    ``slot_ranks[slot]`` is the rank of the slot's neighbour, in
    ``[base, base + span)``.  Sorting the slots by this key orders rows
    ascending and each row by neighbour rank; over rows already sorted that
    way the key is non-decreasing.
    """
    n = len(indptr) - 1
    # Row of every slot: one histogram of row starts, prefix-summed.
    key = np.bincount(indptr[1:n], minlength=len(slot_ranks) + 1)[:-1]
    np.cumsum(key, out=key)
    key *= span
    key += slot_ranks
    if base:
        key -= base
    return key
