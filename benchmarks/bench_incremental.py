"""Incremental φ repair vs. full rebuild (the maintenance tentpole).

Measures what a mutable serving deployment pays per update, in two
phases per dataset:

* the **repaired path** — random single-edge toggles (delete an existing
  edge, then re-insert it) under the deployment's region budget
  (``rebuild_threshold`` = 0.15), each including the publish step the
  server performs (snapshot → patched artifact → fresh engine).  The
  historical contract: repaired updates beat a full rebuild by >= 10x on
  every dataset, including the largest bundled one.
* the **batched churn economics** — what the batch-native pipeline
  (:meth:`IncrementalBitruss.apply_batch`) pays per op when mutations
  arrive as multi-op POSTs: rounds of delete-batch + reinsert-batch
  churn with the adaptive budget and fallback predictor live.  A batch
  that falls back (predicted or aborted) is charged its batch time
  **plus one real, timed rebuild + reseed** — the debounced rebuild a
  deployment pays once per burst, not once per op.  ``effective_speedup``
  = rebuild seconds / effective per-op seconds of this phase; the
  ROADMAP item 4 contract gates it at >= 5x per dataset.

After every toggle and every batch round the maintained φ must be
**bitwise identical** to the pre-churn decomposition — the bench doubles
as the exactness gate.

Results land in ``benchmarks/results/BENCH_incremental.json``.
"""

import json
import statistics
import time

import numpy as np
import pytest

from benchmarks._shared import (
    Contract,
    Metric,
    make_result,
    peak_rss_delta_bytes,
    profiled,
    publish,
)
from repro.core.api import bitruss_decomposition
from repro.datasets import load_dataset
from repro.maintenance import DynamicBipartiteGraph
from repro.service.artifacts import DecompositionArtifact
from repro.service.engine import QueryEngine

BENCH_TIER = "smoke"

#: Includes the largest bundled dataset (tracker, the acceptance target).
DATASETS = ("github", "d-label", "tracker")
ALGORITHM = "bit-bu-csr"
SPEEDUP_FLOOR = 10.0
EFFECTIVE_FLOOR = 5.0
REBUILD_THRESHOLD = 0.15
REBUILD_REPEATS = 5
TOGGLES = 10
BATCH_SIZE = 8
BATCH_ROUNDS = 6


def _publish(tracker):
    """The server's patch-publish step: snapshot → artifact → engine."""
    graph, phi = tracker.phi_snapshot()
    artifact = DecompositionArtifact(graph=graph, phi=phi, algorithm=ALGORITHM)
    return QueryEngine(artifact, allow_stale=True)


def bench_dataset(name):
    # The whole run is profiled: the resulting tree separates the rebuild
    # baseline's phases from the incremental path's "region search" /
    # "region peel" totals across every toggle and batch.
    record, profile = profiled(lambda: _bench_dataset(name))
    record["profile"] = profile
    return record


def _toggle_phase(name, dyn, tracker, artifact, phi0, cap, rng, edges):
    """Single-edge toggles: the repaired-path >= 10x contract.

    Each toggle is two batches of one op.  ``predict=False`` lets every
    search run to the ``cap`` budget, so a fallback here is a real abort.
    """
    repaired_s, abort_s = [], []
    region_sizes = []
    toggles = fallbacks = 0
    while toggles + fallbacks < TOGGLES:
        u, v = edges[int(rng.integers(0, len(edges)))]
        if not dyn.has_edge(u, v):
            continue
        t0 = time.perf_counter()
        report = tracker.apply_batch(
            deletes=[(u, v)], max_region_edges=cap, predict=False
        ).reports[0]
        if not report.fallback:
            _publish(tracker)
        delete_s = time.perf_counter() - t0
        if report.fallback:
            fallbacks += 1
            abort_s.append(delete_s)
            dyn.insert_edge(u, v)  # restore the graph ...
            tracker.reseed(artifact)  # ... and resync (deployment: a rebuild)
            continue
        region_sizes.append(report.region_size)
        t0 = time.perf_counter()
        report = tracker.apply_batch(
            inserts=[(u, v)], max_region_edges=cap, predict=False
        ).reports[0]
        if not report.fallback:
            _publish(tracker)
        insert_s = time.perf_counter() - t0
        if report.fallback:
            fallbacks += 1
            abort_s.append(insert_s)
            tracker.reseed(artifact)
            continue
        region_sizes.append(report.region_size)
        repaired_s.extend((delete_s, insert_s))
        toggles += 1
        # Exactness gate: a full toggle restores the original φ bitwise.
        assert tracker.phi_map() == phi0, f"{name}: toggle ({u}, {v}) diverged"
    return repaired_s, abort_s, region_sizes


def _batch_phase(name, dyn, tracker, phi0, rng, edges):
    """Batched delete + reinsert churn: the effective >= 5x contract.

    Each round deletes ``BATCH_SIZE`` distinct edges in one
    ``apply_batch`` call and re-inserts them in another, publishing once
    per successful batch.  A fallback batch is charged its own time plus
    one *real* rebuild (timed, reseeding the tracker) — the once-per-burst
    debounced cost, amortized over the batch's ops.
    """
    total_cost = 0.0
    total_ops = 0
    repaired_batches = fallback_batches = 0
    repaired_cost = 0.0
    repaired_ops = 0
    predicted = aborts = merged = regions = conflicts = 0

    def fallback_recovery(batch_edges, elapsed):
        """Restore the pre-round graph, then pay one real rebuild."""
        nonlocal total_cost
        for u, v in batch_edges:
            if not dyn.has_edge(u, v):
                dyn.insert_edge(u, v)
        t0 = time.perf_counter()
        dyn.rebuild(ALGORITHM)  # registers + reseeds the tracker
        total_cost += elapsed + (time.perf_counter() - t0)
        assert not tracker.dirty
        assert tracker.phi_map() == phi0, f"{name}: rebuild diverged"

    for _ in range(BATCH_ROUNDS):
        batch_edges = []
        seen = set()
        while len(batch_edges) < BATCH_SIZE:
            u, v = edges[int(rng.integers(0, len(edges)))]
            if (u, v) in seen or not dyn.has_edge(u, v):
                continue
            seen.add((u, v))
            batch_edges.append((u, v))
        t0 = time.perf_counter()
        batch = tracker.apply_batch(
            deletes=batch_edges, budget_fraction=REBUILD_THRESHOLD
        )
        if not batch.fallback:
            _publish(tracker)
        elapsed = time.perf_counter() - t0
        predicted += batch.predicted_fallbacks
        aborts += batch.budget_aborts
        merged += batch.merged_peels
        regions += batch.regions_peeled
        conflicts += batch.conflict_flushes
        total_ops += BATCH_SIZE
        if batch.fallback:
            fallback_batches += 1
            fallback_recovery(batch_edges, elapsed)
            continue
        t0 = time.perf_counter()
        batch = tracker.apply_batch(
            inserts=batch_edges, budget_fraction=REBUILD_THRESHOLD
        )
        if not batch.fallback:
            _publish(tracker)
        elapsed2 = time.perf_counter() - t0
        predicted += batch.predicted_fallbacks
        aborts += batch.budget_aborts
        merged += batch.merged_peels
        regions += batch.regions_peeled
        conflicts += batch.conflict_flushes
        total_ops += BATCH_SIZE
        if batch.fallback:
            fallback_batches += 1
            fallback_recovery((), elapsed + elapsed2)
            continue
        repaired_batches += 2
        repaired_cost += elapsed + elapsed2
        repaired_ops += 2 * BATCH_SIZE
        total_cost += elapsed + elapsed2
        # Exactness gate: a delete+reinsert round restores φ bitwise.
        assert tracker.phi_map() == phi0, f"{name}: batch round diverged"

    return {
        "batch_size": BATCH_SIZE,
        "batch_rounds": BATCH_ROUNDS,
        "batched_ops": total_ops,
        "repaired_batches": repaired_batches,
        "fallback_batches": fallback_batches,
        "predicted_fallbacks": predicted,
        "budget_aborts": aborts,
        "merged_peels": merged,
        "regions_peeled": regions,
        "conflict_flushes": conflicts,
        "mean_batched_op_seconds": round(
            repaired_cost / repaired_ops, 6
        )
        if repaired_ops
        else None,
        "effective_op_seconds": round(total_cost / total_ops, 6),
    }


def _bench_dataset(name):
    graph = load_dataset(name)
    dyn = DynamicBipartiteGraph.from_graph(graph)

    # The baseline: one full rebuild (snapshot + decomposition), exactly
    # what the debounced refresh loop pays per mutation burst.  The median
    # of REBUILD_REPEATS timings, so neither the first, coldest rebuild nor
    # one noisy run sets every ratio below.
    rebuild_times = []
    for _ in range(REBUILD_REPEATS):
        t0 = time.perf_counter()
        artifact = dyn.rebuild(ALGORITHM, register=False)
        rebuild_times.append(time.perf_counter() - t0)
    rebuild_s = statistics.median(rebuild_times)

    phi0 = artifact.phi_by_endpoints()
    tracker = dyn.enable_incremental(artifact)
    cap = int(REBUILD_THRESHOLD * graph.num_edges)

    rng = np.random.default_rng(17)
    edges = list(graph.edges())
    repaired_s, abort_s, region_sizes = _toggle_phase(
        name, dyn, tracker, artifact, phi0, cap, rng, edges
    )
    batched = _batch_phase(name, dyn, tracker, phi0, rng, edges)

    # Independent parity check against a fresh decomposition.
    snap, phi_arr = tracker.phi_snapshot()
    fresh = bitruss_decomposition(snap, algorithm=ALGORITHM)
    assert np.array_equal(phi_arr, fresh.phi), f"{name}: phi diverged"

    mean_repaired = statistics.mean(repaired_s)
    mean_abort = statistics.mean(abort_s) if abort_s else 0.0
    total_ops = len(repaired_s) + len(abort_s)
    return {
        "dataset": name,
        "algorithm": ALGORITHM,
        "num_edges": graph.num_edges,
        "max_k": artifact.max_k,
        "rebuild_threshold": REBUILD_THRESHOLD,
        "rebuild_seconds": round(rebuild_s, 6),
        "single_edge_updates": total_ops,
        "repaired_updates": len(repaired_s),
        "fallback_updates": len(abort_s),
        "fallback_rate": round(len(abort_s) / total_ops, 3),
        "mean_repaired_seconds": round(mean_repaired, 6),
        "median_repaired_seconds": round(statistics.median(repaired_s), 6),
        "max_repaired_seconds": round(max(repaired_s), 6),
        "mean_region_edges": round(statistics.mean(region_sizes), 1)
        if region_sizes
        else 0.0,
        "mean_fallback_abort_seconds": round(mean_abort, 6),
        "speedup": round(rebuild_s / mean_repaired, 1),
        "batched": batched,
        "effective_speedup": round(
            rebuild_s / batched["effective_op_seconds"], 2
        ),
        "peak_rss_delta_bytes": peak_rss_delta_bytes(),
    }


def _write(records):
    payload = {
        "bench": "incremental",
        "speedup_floor": SPEEDUP_FLOOR,
        "effective_floor": EFFECTIVE_FLOOR,
        "notes": (
            "speedup = rebuild_seconds / mean end-to-end seconds (repair + "
            "publish) of budget-respecting single-edge updates; "
            "effective_speedup = rebuild_seconds / effective per-op seconds "
            "of the batched churn phase, where a fallback batch is charged "
            "its batch time plus one real timed rebuild (the once-per-burst "
            "debounced cost)"
        ),
        "records": records,
    }
    floor = min(r["speedup"] for r in records)
    effective_floor = min(r["effective_speedup"] for r in records)
    metrics = [
        Metric(f"mean_repaired_seconds_{r['dataset']}",
               r["mean_repaired_seconds"], "seconds", "lower")
        for r in records
    ] + [
        Metric(f"speedup_{r['dataset']}", r["speedup"], "ratio", "higher")
        for r in records
    ] + [
        # The batch-economics contract metric, first-class and gated per
        # dataset so `bench diff --fail-on-regression` protects it.
        Metric(f"effective_speedup_{r['dataset']}",
               r["effective_speedup"], "ratio", "higher")
        for r in records
    ] + [
        Metric("effective_speedup_floor", effective_floor, "ratio", "higher"),
    ]
    publish(
        make_result(
            "incremental",
            metrics=metrics,
            contracts=[
                Contract(
                    "repair_10x_vs_rebuild",
                    floor >= SPEEDUP_FLOOR,
                    SPEEDUP_FLOOR,
                    floor,
                ),
                Contract(
                    "batched_effective_5x",
                    effective_floor >= EFFECTIVE_FLOOR,
                    EFFECTIVE_FLOOR,
                    effective_floor,
                ),
            ],
            payload=payload,
        )
    )
    return payload


@pytest.mark.benchmark(group="incremental")
def test_incremental_speedup(benchmark):
    records = benchmark.pedantic(
        lambda: [bench_dataset(name) for name in DATASETS],
        rounds=1,
        iterations=1,
    )
    _write(records)
    for record in records:
        # The acceptance bars: localized repair beats a full rebuild by
        # >= 10x per single-edge update, and the batched pipeline keeps
        # an effective (fallback-inclusive) >= 5x per op, on every
        # dataset including the largest bundled one.
        assert record["speedup"] >= SPEEDUP_FLOOR, (
            f"{record['dataset']}: incremental only {record['speedup']}x "
            f"faster (rebuild {record['rebuild_seconds']}s vs mean repaired "
            f"{record['mean_repaired_seconds']}s)"
        )
        assert record["effective_speedup"] >= EFFECTIVE_FLOOR, (
            f"{record['dataset']}: batched effective speedup only "
            f"{record['effective_speedup']}x (ROADMAP item 4 wants "
            f">= {EFFECTIVE_FLOOR}x)"
        )


if __name__ == "__main__":
    import sys

    records = [bench_dataset(name) for name in DATASETS]
    payload = _write(records)
    print(json.dumps(payload, indent=2))
    sys.exit(
        0
        if all(
            r["speedup"] >= SPEEDUP_FLOOR
            and r["effective_speedup"] >= EFFECTIVE_FLOOR
            for r in records
        )
        else 1
    )
