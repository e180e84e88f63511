"""BiT-PC — the progressive compression approach (Algorithm 7).

Hub edges have butterfly supports far above their bitruss numbers, and the
bottom-up algorithms keep updating them through the whole peeling.  BiT-PC
instead sweeps a support threshold ``ε`` downwards from ``k_max`` (the
largest possible bitruss number):

1. **Candidate extraction** — take every edge whose support *in the original
   graph* is at least ``ε`` (Lemma 10: the ε-bitruss lives inside this
   subgraph), recount supports within the candidate subgraph, and drop edges
   falling under ``ε``.
2. **Compressed index + peeling** — build the BE-Index of the candidate,
   *omitting already-assigned edges from L(I)* while preserving the blooms
   they support (Algorithm 6), then peel like BiT-BU++.  Batch minima below
   ``ε`` are peeled but left unassigned (they re-enter later iterations);
   batch minima at or above ``ε`` receive their bitruss numbers.
3. **Schedule** — ``ε`` decreases by ``α = ⌈k_max · τ⌉`` per iteration, so
   one iteration settles all levels in ``[ε, ε_prev)``; ``τ ∈ (0, 1]``
   trades iteration count against update savings (paper Fig. 14, default
   τ = 0.02).

Assigned edges are never support-updated again — that is where the >90%
update reduction of Figures 7 and 10 comes from.

Candidate extraction and recounting run on each (sub)graph's shared CSR
arrays: ``subgraph_from_edge_ids`` builds the candidate's CSR in one
vectorized pass and :func:`repro.butterfly.counting.count_per_edge` counts it
with the wedge-block kernel.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.butterfly.counting import count_per_edge
from repro.core.result import BitrussDecomposition
from repro.graph.bipartite import BipartiteGraph
from repro.index.be_index import BEIndex
from repro.utils.bucket_queue import BucketQueue
from repro.utils.stats import (
    DecompositionStats,
    IndexSizeModel,
    PhaseTimer,
    UpdateCounter,
)


def largest_possible_bitruss(support: np.ndarray) -> int:
    """``k_max``: the largest k with at least k edges of support ≥ k.

    This is the h-index of the support multiset, computable after one sort;
    it upper-bounds the maximum bitruss number (an edge of bitruss number k
    has support ≥ k, and its ≥ k butterflies involve ≥ k further edges that
    are also in the k-bitruss).
    """
    if len(support) == 0:
        return 0
    ordered = np.sort(np.asarray(support))[::-1]
    k_max = 0
    for i, value in enumerate(ordered):
        if value >= i + 1:
            k_max = i + 1
        else:
            break
    return k_max


class _MappedCounter:
    """Adapter translating subgraph edge ids to original ids for counting."""

    def __init__(self, counter: UpdateCounter, mapping: np.ndarray) -> None:
        self._counter = counter
        self._mapping = mapping

    def record(self, edge: int, count: int = 1) -> None:
        self._counter.record(int(self._mapping[edge]), count)


def bit_pc(
    graph: BipartiteGraph,
    *,
    tau: float = 0.02,
    prefilter: str = "fixpoint",
    counter: Optional[UpdateCounter] = None,
    timer: Optional[PhaseTimer] = None,
    size_model: Optional[IndexSizeModel] = None,
) -> BitrussDecomposition:
    """Run BiT-PC with threshold-decay parameter ``tau``.

    ``prefilter`` controls step 1's "remove e from G≥ε if sup(e) < ε":
    ``"fixpoint"`` (default) repeats recount-and-drop until every candidate
    edge supports ε, which minimizes wasted peel-without-assign updates;
    ``"single-pass"`` performs exactly one recount-and-drop round, the most
    literal reading of Algorithm 7 lines 5-6.  Both are correct — peeling
    settles whatever the filter leaves — and both preserve Fig. 14's
    update-vs-τ trend; fixpoint simply realizes more of the paper's hub-edge
    savings at our (much smaller) graph scales.
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must lie in (0, 1]")
    if prefilter not in ("fixpoint", "single-pass"):
        raise ValueError("prefilter must be 'fixpoint' or 'single-pass'")
    timer = timer if timer is not None else PhaseTimer()
    size_model = size_model if size_model is not None else IndexSizeModel()

    with timer.time("counting"):
        original_support = count_per_edge(graph)

    k_max = largest_possible_bitruss(original_support)
    # alpha >= 1 keeps the schedule finite even on butterfly-free graphs.
    alpha = max(1, math.ceil(k_max * tau))

    m = graph.num_edges
    phi = np.zeros(m, dtype=np.int64)
    assigned = np.zeros(m, dtype=bool)
    epsilon = k_max
    iterations = 0

    while not assigned.all():
        iterations += 1

        with timer.time("candidate extraction"):
            candidate_eids = np.nonzero(original_support >= epsilon)[0]
            sub, orig_of_sub = graph.subgraph_from_edge_ids(candidate_eids)
            # Recount within the candidate and drop edges below the
            # threshold; recounting is plain counting and is never billed as
            # a support update.  Peeling settles whatever remains.
            while epsilon > 0 and sub.num_edges:
                sub_support = count_per_edge(sub)
                keep = np.nonzero(sub_support >= epsilon)[0]
                if len(keep) == sub.num_edges:
                    break
                sub, orig_of_keep = sub.subgraph_from_edge_ids(keep)
                orig_of_sub = orig_of_sub[orig_of_keep]
                if prefilter == "single-pass":
                    break

        with timer.time("index construction"):
            sub_assigned = assigned[orig_of_sub]
            index = BEIndex.build(sub, assigned=sub_assigned)
        size_model.observe(*index.size_components())

        sub_counter = (
            _MappedCounter(counter, orig_of_sub) if counter is not None else None
        )

        with timer.time("peeling"):
            queue = BucketQueue()
            for sub_eid in range(sub.num_edges):
                if not sub_assigned[sub_eid]:
                    queue.push(sub_eid, int(index.support[sub_eid]))

            def on_change(other: int, value: int) -> None:
                if other in queue:
                    queue.update(other, value)

            while not queue.is_empty():
                batch, mbs = queue.pop_min_batch()
                settle = mbs >= epsilon
                removal_counts: Dict[int, int] = {}
                for sub_eid in batch:
                    if settle:
                        orig = int(orig_of_sub[sub_eid])
                        phi[orig] = mbs
                        assigned[orig] = True
                    index.detach_edge(
                        sub_eid,
                        removal_counts,
                        floor=mbs,
                        counter=sub_counter,
                        on_change=on_change,
                    )
                index.apply_bloom_batch(
                    removal_counts,
                    floor=mbs,
                    counter=sub_counter,
                    on_change=on_change,
                )

        if epsilon == 0:
            break
        epsilon = max(epsilon - alpha, 0)

    stats = DecompositionStats(
        algorithm="BiT-PC",
        updates=counter.total if counter is not None else 0,
        update_buckets=(
            list(zip(counter.bucket_labels(), counter.bucket_totals()))
            if counter is not None
            else []
        ),
        timings=timer.as_dict(),
        index_peak_bytes=size_model.peak_bytes,
        iterations=iterations,
        parameters={
            "tau": tau,
            "k_max": k_max,
            "alpha": alpha,
            "prefilter": prefilter,
        },
    )
    return BitrussDecomposition(graph, phi, stats)
