"""BiT-BU+, BiT-BU++ and BiT-BU-CSR — the batch-based optimizations.

All three process *all* unassigned edges of minimum support as one batch
``S`` (batch **edge** processing, justified by Lemma 9: removing an edge
never changes the bitruss number of an equal-support edge).

* **BiT-BU+** applies only batch edge processing: every batch member still
  walks its blooms individually, but the support losses of affected edges
  are accumulated and written once per affected edge at the end of the
  batch.
* **BiT-BU++** adds batch **bloom** processing: pass 1 detaches the batch
  members and updates twins, counting removed wedge pairs per bloom
  (``C(B*)``); pass 2 then walks every touched bloom once, charging each
  surviving edge ``C(B*)`` in a single update and shrinking the bloom from
  ``k`` to ``k − C(B*)`` wedges.
* **BiT-BU-CSR** evaluates exactly the BiT-BU++ batch semantics, but on the
  flat-array index of :mod:`repro.core.peeling_engine`: both passes become
  vectorized gathers + ``np.add.at`` scatters against the graph's CSR
  arrays, and the bucket queue is an array frontier over the support
  array, so every batch — tiny ones included — runs as array operations.

Support updates are floored at the batch's minimum support ``MBS`` exactly
as Algorithm 5 lines 12/18 prescribe.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.peeling_engine import CSRPeelingEngine
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


def _finish(
    name: str,
    graph: BipartiteGraph,
    phi: np.ndarray,
    counter: Optional[UpdateCounter],
    timer: PhaseTimer,
    size_model: IndexSizeModel,
) -> BitrussDecomposition:
    stats = DecompositionStats(
        algorithm=name,
        updates=counter.total if counter is not None else 0,
        update_buckets=(
            list(zip(counter.bucket_labels(), counter.bucket_totals()))
            if counter is not None
            else []
        ),
        timings=timer.as_dict(),
        index_peak_bytes=size_model.peak_bytes,
    )
    return BitrussDecomposition(graph, phi, stats)


def bit_bu_plus(
    graph: BipartiteGraph,
    *,
    counter: Optional[UpdateCounter] = None,
    timer: Optional[PhaseTimer] = None,
    size_model: Optional[IndexSizeModel] = None,
) -> BitrussDecomposition:
    """BiT-BU with batch edge processing only (the paper's BiT-BU+)."""
    timer = timer if timer is not None else PhaseTimer()
    size_model = size_model if size_model is not None else IndexSizeModel()

    with timer.time("index construction"):
        index = BEIndex.build(graph)
    size_model.observe(*index.size_components())

    phi = np.zeros(graph.num_edges, dtype=np.int64)

    with timer.time("peeling"):
        queue = BucketQueue.from_keys(index.support)
        while not queue.is_empty():
            batch, mbs = queue.pop_min_batch()
            batch_set = set(batch)
            deltas: Dict[int, int] = {}
            for eid in batch:
                phi[eid] = mbs
                index.remove_edge_accumulate(eid, deltas, batch_set)
            # One support update per affected edge for the whole batch.
            for other, loss in deltas.items():
                new_value = max(mbs, int(index.support[other]) - loss)
                if new_value != index.support[other]:
                    index.support[other] = new_value
                    queue.update(other, new_value)
                    if counter is not None:
                        counter.record(other)

    return _finish("BiT-BU+", graph, phi, counter, timer, size_model)


def bit_bu_csr(
    graph: BipartiteGraph,
    *,
    counter: Optional[UpdateCounter] = None,
    timer: Optional[PhaseTimer] = None,
    size_model: Optional[IndexSizeModel] = None,
) -> BitrussDecomposition:
    """Vectorized batch peeling on the flat-array (CSR) BE-Index.

    Builds a :class:`~repro.core.peeling_engine.CSRPeelingEngine` and peels
    it: each minimum-support bucket is popped from the engine's array
    frontier and processed as one batch of array operations.

    Parameters
    ----------
    graph:
        The bipartite graph to decompose.
    counter, timer, size_model:
        Optional instrumentation sinks (see :mod:`repro.utils.stats`).

    Returns
    -------
    BitrussDecomposition
        Bitwise identical bitruss numbers to scalar BiT-BU.
    """
    timer = timer if timer is not None else PhaseTimer()
    size_model = size_model if size_model is not None else IndexSizeModel()

    with timer.time("index construction"):
        engine = CSRPeelingEngine.build(graph)
    size_model.observe(*engine.size_components())

    with timer.time("peeling"):
        phi = engine.peel(counter=counter)

    return _finish("BiT-BU-CSR", graph, phi, counter, timer, size_model)


def bit_bu_plus_plus(
    graph: BipartiteGraph,
    *,
    counter: Optional[UpdateCounter] = None,
    timer: Optional[PhaseTimer] = None,
    size_model: Optional[IndexSizeModel] = None,
) -> BitrussDecomposition:
    """BiT-BU with both batch optimizations (the paper's BiT-BU++)."""
    timer = timer if timer is not None else PhaseTimer()
    size_model = size_model if size_model is not None else IndexSizeModel()

    with timer.time("index construction"):
        index = BEIndex.build(graph)
    size_model.observe(*index.size_components())

    phi = np.zeros(graph.num_edges, dtype=np.int64)

    with timer.time("peeling"):
        queue = BucketQueue.from_keys(index.support)

        def on_change(other: int, value: int) -> None:
            if other in queue:
                queue.update(other, value)

        while not queue.is_empty():
            batch, mbs = queue.pop_min_batch()
            removal_counts: Dict[int, int] = {}
            for eid in batch:
                phi[eid] = mbs
                index.detach_edge(
                    eid,
                    removal_counts,
                    floor=mbs,
                    counter=counter,
                    on_change=on_change,
                )
            index.apply_bloom_batch(
                removal_counts,
                floor=mbs,
                counter=counter,
                on_change=on_change,
            )

    return _finish("BiT-BU++", graph, phi, counter, timer, size_model)
