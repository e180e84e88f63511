"""Query engine vs. recompute-per-query (the service-layer tentpole).

Measures the compute-once / query-many split on bundled datasets: a mixed
workload of ``community``, ``k_bitruss`` and ``max_k`` queries is answered

* the old way — every query re-runs a full decomposition (what the CLI and
  apps did before the service layer existed), and
* the served way — one saved artifact is reopened from disk and a
  :class:`~repro.service.engine.QueryEngine` answers from the hierarchy.

Both sides produce identical answers (asserted edge-for-edge), and the
engine must be at least 10x faster on the repeated workload — the ISSUE 2
acceptance bar.  The artifact build/save/load costs are reported separately
so the break-even query count is visible.

Results land in ``benchmarks/results/BENCH_query_engine.json`` —
machine-readable, one record per dataset — seeding the perf trajectory.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks._shared import Contract, Metric, make_result, publish
from repro.apps.community_search import bitruss_community
from repro.core.api import bitruss_decomposition
from repro.datasets import load_dataset
from repro.service import QueryEngine, build_artifact, load_artifact, save_artifact

BENCH_TIER = "smoke"

DATASETS = ("github", "marvel", "condmat")
ALGORITHM = "bit-bu-csr"
SPEEDUP_FLOOR = 10.0


def _publish_records(records):
    payload = {
        "bench": "query_engine",
        "speedup_floor": SPEEDUP_FLOOR,
        "records": records,
    }
    floor = min(r["speedup"] for r in records)
    metrics = [
        Metric(f"engine_seconds_{r['dataset']}", r["engine_seconds"],
               "seconds", "lower")
        for r in records
    ] + [
        Metric(f"speedup_{r['dataset']}", r["speedup"], "ratio", "higher")
        for r in records
    ]
    return publish(
        make_result(
            "query_engine",
            metrics=metrics,
            contracts=[
                Contract(
                    "engine_10x_vs_recompute",
                    floor >= SPEEDUP_FLOOR,
                    SPEEDUP_FLOOR,
                    floor,
                )
            ],
            payload=payload,
        )
    )


def _mixed_workload(graph, max_k, seed=7):
    """A deterministic mixed query batch over existing vertices/levels."""
    rng = np.random.default_rng(seed)
    ks = [1, 2, max(2, max_k // 2), max_k]
    queries = []
    for k in ks:
        for u in rng.choice(graph.num_upper, size=4, replace=False):
            queries.append(("community", k, int(u)))
    queries.extend(("k_bitruss", k, None) for k in ks)
    for u in rng.choice(graph.num_upper, size=8, replace=False):
        queries.append(("max_k", None, int(u)))
    return queries


def _run_recompute(graph, queries):
    """Every query pays a full decomposition — the pre-service behaviour."""
    answers = []
    for op, k, vertex in queries:
        result = bitruss_decomposition(graph, algorithm=ALGORITHM)
        if op == "community":
            community = bitruss_community(
                graph, k=k, upper=vertex, decomposition=result
            )
            answers.append((sorted(community.edges)))
        elif op == "k_bitruss":
            answers.append(result.edges_with_phi_at_least(k))
        else:
            eids = graph.edges_of_upper(vertex)
            answers.append(int(result.phi[eids].max()) if len(eids) else 0)
    return answers


def _run_engine(engine, queries):
    answers = []
    for op, k, vertex in queries:
        if op == "community":
            answers.append(sorted(engine.community(k, upper=vertex).edges))
        elif op == "k_bitruss":
            answers.append(engine.k_bitruss(k))
        else:
            answers.append(engine.max_k(upper=vertex))
    return answers


def bench_dataset(name, tmp_dir: Path):
    graph = load_dataset(name)

    t0 = time.perf_counter()
    artifact = build_artifact(graph, algorithm=ALGORITHM)
    build_s = time.perf_counter() - t0

    path = tmp_dir / f"{name}.npz"
    t0 = time.perf_counter()
    save_artifact(artifact, path)
    save_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    reopened = load_artifact(path)
    load_s = time.perf_counter() - t0
    engine = QueryEngine(reopened)

    queries = _mixed_workload(graph, artifact.max_k)

    t0 = time.perf_counter()
    recompute_answers = _run_recompute(graph, queries)
    recompute_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    engine_answers = _run_engine(engine, queries)
    engine_s = time.perf_counter() - t0

    assert recompute_answers == engine_answers, f"{name}: answers diverged"

    return {
        "dataset": name,
        "algorithm": ALGORITHM,
        "num_edges": graph.num_edges,
        "max_k": artifact.max_k,
        "num_queries": len(queries),
        "artifact_build_seconds": round(build_s, 6),
        "artifact_save_seconds": round(save_s, 6),
        "artifact_load_seconds": round(load_s, 6),
        "artifact_bytes": path.stat().st_size,
        "recompute_seconds": round(recompute_s, 6),
        "engine_seconds": round(engine_s, 6),
        "speedup": round(recompute_s / engine_s, 2) if engine_s else float("inf"),
        "cache": engine.cache_info(),
    }


@pytest.mark.benchmark(group="query_engine")
def test_query_engine_speedup(tmp_path, benchmark):
    records = benchmark.pedantic(
        lambda: [bench_dataset(name, tmp_path) for name in DATASETS],
        rounds=1,
        iterations=1,
    )
    _publish_records(records)
    for record in records:
        # The acceptance bar: serving a saved artifact beats re-running the
        # decomposition per query by >= 10x on every dataset.
        assert record["speedup"] >= SPEEDUP_FLOOR, (
            f"{record['dataset']}: engine only {record['speedup']}x faster "
            f"(recompute {record['recompute_seconds']}s vs engine "
            f"{record['engine_seconds']}s)"
        )


if __name__ == "__main__":
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = [bench_dataset(name, Path(tmp)) for name in DATASETS]
    out = _publish_records(records)
    print(json.dumps(json.loads(out.read_text()), indent=2))
    sys.exit(0 if all(r["speedup"] >= SPEEDUP_FLOOR for r in records) else 1)
