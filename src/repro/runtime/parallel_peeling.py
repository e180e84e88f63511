"""Level-synchronous parallel bitruss peeling (BiT-BU-PAR).

The CSR batch engine (:mod:`repro.core.peeling_engine`) already peels one
support level at a time; this module shards the two heavy passes of each
level across the runtime's worker pool while the parent keeps sole
ownership of all mutations — a classic level-synchronous design:

1. **Wave 1 (detach scan, sharded)** — the level's batch is cut into
   contiguous chunks; each worker gathers its chunk's live wedge-pair links
   and returns ``(links, twin edge, k-1 charge)`` fragments.  The parent
   merges them, derives the removed-pair set and per-bloom removal counts
   with ``np.unique``, and flips ``pair_alive`` **in shared memory**.
2. **Wave 2 (bloom scan, sharded)** — touched blooms are cut into chunks;
   each worker walks its blooms' surviving pairs (reading the liveness the
   parent just wrote — same physical pages) and returns ``C(B*)`` charge
   fragments.
3. **Apply (parent only)** — all loss fragments accumulate with one
   ``np.add.at``, supports floor at the level's minimum ``MBS`` and the
   engine's array frontier (:class:`~repro.core.peeling_engine.PeelFrontier`)
   advances.

Every merge is an order-independent integer sum over ``np.unique`` keys, so
φ is **bitwise identical** to ``bit-bu-csr`` (and therefore to scalar
BiT-BU) regardless of worker count or chunk boundaries.  Small levels skip
the pool entirely (``shard_cutoff``) — IPC cannot amortize a three-edge
batch — falling back to the engine's own batch step.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.bit_bu_batch import _finish, bit_bu_csr
from repro.core.peeling_engine import CSRPeelingEngine, PeelFrontier, _gather_rows
from repro.core.result import BitrussDecomposition
from repro.graph.bipartite import BipartiteGraph
from repro.obs import phases as obs_phases
from repro.runtime.pool import ParallelRuntime, attached_views
from repro.runtime.shm import ArenaManifest
from repro.utils.stats import IndexSizeModel, PhaseTimer, UpdateCounter

#: Keys of the engine arrays published for the peeling waves.
ENGINE_ARRAY_KEYS = (
    "e_indptr",
    "e_pair",
    "b_indptr",
    "b_pair",
    "pair_e1",
    "pair_e2",
    "pair_bloom",
    "pair_alive",
    "bloom_k",
)

# ------------------------------------------------------------ worker tasks


def _task_detach_scan(
    manifest: ArenaManifest, chunk: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wave 1: live links of one batch chunk (runs in a worker)."""
    views = attached_views(manifest)
    links, owner = _gather_rows(views["e_indptr"], views["e_pair"], chunk)
    if not len(links):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    pair_bloom = views["pair_bloom"]
    alive = views["pair_alive"][links] & (views["bloom_k"][pair_bloom[links]] >= 2)
    links = links[alive]
    owner = owner[alive]
    pair_e1 = views["pair_e1"]
    twin = np.where(pair_e1[links] == owner, views["pair_e2"][links], pair_e1[links])
    k_minus_1 = views["bloom_k"][pair_bloom[links]] - 1
    return links, twin, k_minus_1


def _task_bloom_scan(
    manifest: ArenaManifest, touched: np.ndarray, c_removed: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wave 2: surviving-pair charges of one touched-bloom chunk."""
    views = attached_views(manifest)
    pairs_g, bloom_of_g = _gather_rows(views["b_indptr"], views["b_pair"], touched)
    if not len(pairs_g):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    surviving = views["pair_alive"][pairs_g]
    pairs_s = pairs_g[surviving]
    # `touched` is a contiguous slice of a sorted np.unique result, so the
    # bloom -> C(B*) lookup stays a searchsorted against the chunk.
    charge = c_removed[np.searchsorted(touched, bloom_of_g[surviving])]
    return views["pair_e1"][pairs_s], views["pair_e2"][pairs_s], charge


# ------------------------------------------------------------ parent side


def _array_chunks(array: np.ndarray, num_chunks: int) -> List[np.ndarray]:
    """Split an array into at most ``num_chunks`` contiguous pieces."""
    num_chunks = max(1, min(len(array), num_chunks))
    return [c for c in np.array_split(array, num_chunks) if len(c)]


def parallel_peel(
    engine: CSRPeelingEngine,
    runtime: ParallelRuntime,
    *,
    counter: Optional[UpdateCounter] = None,
    shard_cutoff: int = 2048,
) -> np.ndarray:
    """Peel ``engine`` level-synchronously on ``runtime``'s pool.

    Parameters
    ----------
    engine:
        A freshly built engine for ``runtime.graph`` (consumed by peeling,
        exactly like :meth:`CSRPeelingEngine.peel`).  Its mutable state
        (``pair_alive``/``bloom_k``) is re-homed into a shared-memory arena
        for the duration of the peel.
    counter:
        Optional update counter; one update per (edge, level) change.
    shard_cutoff:
        Levels with at most this many edges are processed entirely in the
        parent (the engine's own batch step); larger levels shard across
        the pool.

    Returns
    -------
    numpy.ndarray
        φ, bitwise identical to ``engine.peel()`` on a fresh engine.
    """
    phi = np.zeros(engine.num_edges, dtype=np.int64)
    if engine.num_edges == 0:
        return phi

    arena = runtime.publish({key: getattr(engine, key) for key in ENGINE_ARRAY_KEYS})
    # Re-home the mutable state: parent writes land in the shared pages the
    # workers read, so each wave sees the previous wave's state without any
    # copying.  Static arrays stay parent-local for the parent-side steps.
    engine.pair_alive = arena.view("pair_alive", writable=True)
    engine.bloom_k = arena.view("bloom_k", writable=True)
    manifest = arena.manifest

    try:
        frontier = PeelFrontier(engine.support)
        while frontier:
            batch, mbs = frontier.pop()
            phi[batch] = mbs
            if len(batch) <= shard_cutoff:
                engine._peel_batch(batch, mbs, frontier, counter)
            else:
                _peel_level_sharded(
                    engine, runtime, manifest, batch, mbs, frontier, counter
                )
        return phi
    finally:
        # Return the mutable state to parent-local memory so the arena can
        # unmap cleanly (and the engine stays inspectable after close).
        engine.pair_alive = np.array(engine.pair_alive)
        engine.bloom_k = np.array(engine.bloom_k)
        arena.close()


def _peel_level_sharded(
    engine: CSRPeelingEngine,
    runtime: ParallelRuntime,
    manifest: ArenaManifest,
    batch: np.ndarray,
    mbs: int,
    frontier: PeelFrontier,
    counter: Optional[UpdateCounter],
) -> None:
    """One large level, processed as the two sharded waves + parent apply."""
    loss_edges: List[np.ndarray] = []
    loss_values: List[np.ndarray] = []

    # Wave 1 — sharded detach scan over the batch.
    with obs_phases.phase("wave 1 dispatch"):
        tasks = [(manifest, chunk) for chunk in _array_chunks(batch, runtime.workers)]
        parts = runtime.map_tasks(_task_detach_scan, tasks)
    links = np.concatenate([p[0] for p in parts])
    twin = np.concatenate([p[1] for p in parts])
    k_minus_1 = np.concatenate([p[2] for p in parts])
    if not len(links):
        return
    external = frontier.remaining[twin]  # see CSRPeelingEngine._peel_batch
    if external.any():
        loss_edges.append(twin[external])
        loss_values.append(k_minus_1[external])
    # A pair with both endpoints in the batch surfaced once per
    # endpoint (possibly from different chunks); np.unique collapses it
    # to a single detachment, matching the scalar "twin already
    # severed" skip.
    removed_pairs = np.unique(links)
    touched, c_removed = np.unique(
        engine.pair_bloom[removed_pairs], return_counts=True
    )
    engine.pair_alive[removed_pairs] = False  # shared write, pre-wave-2

    # Wave 2 — sharded surviving-pair scan over the touched blooms.
    with obs_phases.phase("wave 2 dispatch"):
        bounds = np.cumsum(
            [0] + [len(c) for c in _array_chunks(touched, runtime.workers)]
        )
        tasks = [
            (manifest, touched[lo:hi], c_removed[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        scans = runtime.map_tasks(_task_bloom_scan, tasks)
    for e1_s, e2_s, charge in scans:
        if len(charge):
            loss_edges.append(e1_s)
            loss_values.append(charge)
            loss_edges.append(e2_s)
            loss_values.append(charge)
    engine.bloom_k[touched] -= c_removed

    # Apply — order-independent merge, floored at the level minimum;
    # the same helper the in-process batch step uses, so the two paths
    # cannot drift apart.
    with obs_phases.phase("apply losses"):
        engine._apply_losses(loss_edges, loss_values, mbs, frontier, counter)


# ------------------------------------------------------------- algorithm


def bit_bu_par(
    graph: BipartiteGraph,
    *,
    workers: int = 2,
    counter: Optional[UpdateCounter] = None,
    timer: Optional[PhaseTimer] = None,
    size_model: Optional[IndexSizeModel] = None,
    shard_cutoff: int = 2048,
    chunks_per_worker: int = 4,
    runtime: Optional[ParallelRuntime] = None,
) -> BitrussDecomposition:
    """BiT-BU on the shared-memory runtime: parallel build, parallel peel.

    The third member of the batch family (see
    :mod:`repro.core.bit_bu_batch`): BE-Index construction shards across
    the pool, and peeling runs level-synchronously with the two heavy
    passes of each large level sharded.  φ is bitwise identical to
    ``bit-bu-csr`` for every worker count.

    Parameters
    ----------
    graph:
        The bipartite graph to decompose.
    workers:
        Pool size.  ``workers=1`` (or an edgeless graph) delegates to
        :func:`~repro.core.bit_bu_batch.bit_bu_csr` — the scalar path the
        CLI default ``--workers 1`` promises.
    counter, timer, size_model:
        Optional instrumentation sinks (see :mod:`repro.utils.stats`).
    shard_cutoff:
        Level-size crossover: parent-only batch step up to
        ``shard_cutoff`` edges, sharded waves above.
    chunks_per_worker:
        Over-partitioning factor of the counting/build shards.
    runtime:
        An existing :class:`ParallelRuntime` for ``graph`` to reuse (its
        pool and published arrays survive the call); when omitted a
        runtime is created and torn down internally.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    if runtime is not None and runtime.graph is not graph:
        raise ValueError("runtime was built for a different graph")
    if runtime is None and (workers == 1 or graph.num_edges == 0):
        return bit_bu_csr(
            graph, counter=counter, timer=timer, size_model=size_model
        )
    timer = timer if timer is not None else PhaseTimer()
    size_model = size_model if size_model is not None else IndexSizeModel()

    owned = runtime is None
    rt = (
        ParallelRuntime(graph, workers=workers, chunks_per_worker=chunks_per_worker)
        if owned
        else runtime
    )
    try:
        with timer.time("index construction"):
            engine = rt.build_engine()
        size_model.observe(*engine.size_components())
        with timer.time("peeling"):
            phi = parallel_peel(
                engine,
                rt,
                counter=counter,
                shard_cutoff=shard_cutoff,
            )
    finally:
        if owned:
            rt.close()
    return _finish("BiT-BU-PAR", graph, phi, counter, timer, size_model)
