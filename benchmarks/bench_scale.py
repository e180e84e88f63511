"""Million-edge scale pins: streaming ingest, mmap artifacts, query latency.

The scale tier answers one question the per-figure benches cannot: does
the whole pipeline — generate -> ingest -> count -> peel -> artifact ->
serve — actually hold together at 10^6 edges, and at what memory cost?

Stages (all timed, all recorded in ``BENCH_scale.json``):

1. **generate** — stream a chung-lu workload to disk in numpy chunks
   (:func:`repro.graph.chung_lu_edge_chunks`), never materializing the
   edge set in Python memory.
2. **ingest RSS duel** — two subprocesses load the same file, one via
   the dict-based :func:`load_edge_list`, one via the chunked
   :func:`load_edge_list_streaming`; each reports its ``ru_maxrss``
   above a post-import baseline.  The contract: the streaming loader's
   peak is **<= 0.5x** the dict loader's at the full scale target.
3. **count + peel** — per-edge butterfly counting (the wedge-block kernel
   of ``repro/butterfly/wedges.py``) and the BiT-BU-CSR peel, the paper's
   core pipeline, re-pinned at scale.
4. **artifact round-trip** — save in the mmappable directory layout,
   reload eagerly and via ``mmap_mode="r"`` (integrity hash verified in
   both modes), timing each.
5. **query latency** — point (``phi_of``), vertex (``max_k``) and level
   (``k_bitruss``) queries against the mmap-backed engine.

The run is sized by ``REPRO_SCALE_EDGES`` (default 1,000,000).  The
pytest entry is opt-in: marked ``scale`` and skipped unless
``REPRO_SCALE_TESTS=1`` — CI runs it at a reduced size in the
non-blocking ``scale-smoke`` job.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from benchmarks._shared import (
    Contract,
    Metric,
    make_result,
    peak_rss_delta_bytes,
    publish,
)
from repro.butterfly.vectorized import count_per_edge_vectorized
from repro.core import bit_bu_csr
from repro.graph import chung_lu_edge_chunks, write_edge_chunks
from repro.graph.io import load_edge_list_streaming
from repro.service import QueryEngine
from repro.service.artifacts import DecompositionArtifact, save_artifact

EDGES = int(os.environ.get("REPRO_SCALE_EDGES", "1000000"))
ALGORITHM = "bit-bu-csr"
SEED = 7
EXPONENT = 2.5
RSS_RATIO_CEILING = 0.5

#: Child process run by the ingest RSS duel.  Imports first, snapshots
#: ``ru_maxrss`` as the baseline, loads, reports the high-water delta.
_RSS_PROBE = """
import json, resource, sys
mode, path = sys.argv[1], sys.argv[2]
import numpy as np  # noqa: F401  (charge numpy to the baseline)
from repro.graph.io import load_edge_list, load_edge_list_streaming

def rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

baseline = rss_kb()
loader = load_edge_list if mode == "dict" else load_edge_list_streaming
graph = loader(path)
peak = rss_kb()
scale = 1 if sys.platform == "darwin" else 1024
print(json.dumps({
    "mode": mode,
    "num_edges": graph.num_edges,
    "baseline_bytes": baseline * scale,
    "peak_bytes": peak * scale,
    "delta_bytes": max(0, peak - baseline) * scale,
}))
"""


def _probe_loader_rss(mode: str, path: Path) -> dict:
    """Measure one loader's peak RSS in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, mode, str(path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _generate(tmp_dir: Path) -> tuple:
    side = max(64, EDGES // 2)
    path = tmp_dir / f"chung_lu_{EDGES}.txt.gz"
    start = time.perf_counter()
    written = write_edge_chunks(
        path,
        chung_lu_edge_chunks(
            side,
            side,
            EDGES,
            exponent_upper=EXPONENT,
            exponent_lower=EXPONENT,
            seed=SEED,
        ),
        header=f"bip unweighted (chung-lu scale m={EDGES} seed={SEED})",
    )
    return path, written, time.perf_counter() - start


def _query_latencies(engine: QueryEngine, rng) -> dict:
    graph = engine.artifact.graph
    m = graph.num_edges
    eids = rng.choice(m, size=min(32, m), replace=False)

    point_s = []
    for eid in eids:
        u = int(graph.edge_upper[eid])
        v = int(graph.edge_lower[eid])
        t0 = time.perf_counter()
        engine.phi_of(u, v)
        point_s.append(time.perf_counter() - t0)

    vertex_s = []
    for eid in eids:
        u = int(graph.edge_upper[eid])
        t0 = time.perf_counter()
        engine.max_k(upper=u)
        vertex_s.append(time.perf_counter() - t0)

    max_k = engine.max_phi
    level_s = []
    for k in sorted({1, max(1, max_k // 2), max_k}):
        t0 = time.perf_counter()
        engine.k_bitruss(k)
        level_s.append(time.perf_counter() - t0)

    return {
        "point_queries": len(point_s),
        "mean_point_seconds": round(statistics.mean(point_s), 6),
        "mean_vertex_seconds": round(statistics.mean(vertex_s), 6),
        "mean_level_seconds": round(statistics.mean(level_s), 6),
        "max_level_seconds": round(max(level_s), 6),
    }


def run_bench(tmp_dir: Path) -> dict:
    tmp_dir = Path(tmp_dir)
    tmp_dir.mkdir(parents=True, exist_ok=True)
    record = {"target_edges": EDGES, "algorithm": ALGORITHM, "seed": SEED}

    path, written, gen_s = _generate(tmp_dir)
    record["generated_edges"] = written
    record["generate_seconds"] = round(gen_s, 3)
    record["edge_list_bytes"] = path.stat().st_size

    dict_probe = _probe_loader_rss("dict", path)
    stream_probe = _probe_loader_rss("streaming", path)
    assert dict_probe["num_edges"] == stream_probe["num_edges"] == written
    ratio = stream_probe["delta_bytes"] / max(1, dict_probe["delta_bytes"])
    record["ingest"] = {
        "dict_peak_rss_bytes": dict_probe["peak_bytes"],
        "dict_delta_rss_bytes": dict_probe["delta_bytes"],
        "streaming_peak_rss_bytes": stream_probe["peak_bytes"],
        "streaming_delta_rss_bytes": stream_probe["delta_bytes"],
        "rss_ratio": round(ratio, 3),
        "rss_ratio_ceiling": RSS_RATIO_CEILING,
    }

    t0 = time.perf_counter()
    graph = load_edge_list_streaming(path)
    record["ingest_seconds"] = round(time.perf_counter() - t0, 3)
    record["num_upper"] = graph.num_upper
    record["num_lower"] = graph.num_lower
    record["num_edges"] = graph.num_edges

    t0 = time.perf_counter()
    support = count_per_edge_vectorized(graph)
    record["count_seconds"] = round(time.perf_counter() - t0, 3)
    record["butterflies"] = int(support.sum()) // 4

    t0 = time.perf_counter()
    result = bit_bu_csr(graph)
    record["peel_seconds"] = round(time.perf_counter() - t0, 3)
    record["max_k"] = result.max_k

    artifact = DecompositionArtifact(
        graph=graph, phi=result.phi, algorithm=ALGORITHM
    )
    art_dir = tmp_dir / "artifact"
    t0 = time.perf_counter()
    save_artifact(artifact, art_dir, layout="dir")
    record["artifact_save_seconds"] = round(time.perf_counter() - t0, 3)
    record["artifact_bytes"] = sum(
        p.stat().st_size for p in art_dir.iterdir()
    )

    t0 = time.perf_counter()
    eager = QueryEngine.load(art_dir)
    record["artifact_eager_load_seconds"] = round(
        time.perf_counter() - t0, 3
    )
    assert np.array_equal(eager.artifact.phi, result.phi)

    t0 = time.perf_counter()
    engine = QueryEngine.load(art_dir, mmap_mode="r")
    record["artifact_mmap_load_seconds"] = round(time.perf_counter() - t0, 3)
    assert np.array_equal(engine.artifact.phi, result.phi)

    rng = np.random.default_rng(SEED)
    record["query"] = _query_latencies(engine, rng)
    record["peak_rss_delta_bytes"] = peak_rss_delta_bytes()
    return record


def _write(record: dict) -> dict:
    payload = {
        "bench": "scale",
        "notes": (
            "end-to-end million-edge pin: chunked generate -> streaming "
            "ingest -> count -> BiT-BU-CSR peel -> dir-layout artifact -> "
            "mmap load -> query latency; ingest.rss_ratio compares each "
            "loader subprocess's ru_maxrss above its post-import baseline "
            "and must stay <= rss_ratio_ceiling"
        ),
        "record": record,
    }
    ratio = record["ingest"]["rss_ratio"]
    publish(
        make_result(
            "scale",
            metrics=[
                Metric("generate_seconds", record["generate_seconds"],
                       "seconds", "lower"),
                Metric("ingest_seconds", record["ingest_seconds"],
                       "seconds", "lower"),
                Metric("count_seconds", record["count_seconds"],
                       "seconds", "lower"),
                Metric("peel_seconds", record["peel_seconds"],
                       "seconds", "lower"),
                Metric("mmap_load_seconds",
                       record["artifact_mmap_load_seconds"],
                       "seconds", "lower"),
                Metric("mean_point_query_seconds",
                       record["query"]["mean_point_seconds"],
                       "seconds", "lower"),
                Metric("ingest_rss_ratio", ratio, "ratio", "lower"),
                Metric("butterflies", float(record["butterflies"]),
                       "count", "fixed"),
            ],
            contracts=[
                Contract(
                    "streaming_ingest_half_rss",
                    ratio <= RSS_RATIO_CEILING,
                    RSS_RATIO_CEILING,
                    ratio,
                )
            ],
            payload=payload,
        )
    )
    return payload


@pytest.mark.scale
@pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_TESTS") != "1",
    reason="scale tier is opt-in (REPRO_SCALE_TESTS=1)",
)
def test_scale_pipeline(tmp_path):
    record = run_bench(tmp_path)
    _write(record)
    assert record["num_edges"] == record["target_edges"]
    assert record["ingest"]["rss_ratio"] <= RSS_RATIO_CEILING, (
        "streaming ingest used "
        f"{record['ingest']['rss_ratio']:.2f}x the dict loader's memory "
        f"(ceiling {RSS_RATIO_CEILING})"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench_scale_") as tmp:
        record = run_bench(Path(tmp))
    payload = _write(record)
    print(json.dumps(payload, indent=2))
    sys.exit(
        0 if record["ingest"]["rss_ratio"] <= RSS_RATIO_CEILING else 1
    )
