"""Shared infrastructure for the figure/table reproduction benches.

Every bench module reproduces one table or figure of the paper's Section VI.
Runs are cached per ``(dataset, algorithm, parameters)`` within the pytest
process so that figures sharing measurements (e.g. Fig. 10 updates and
Fig. 11 index sizes come from the same decompositions) pay for them once.

Each bench writes its series to ``benchmarks/results/<figure>.txt`` in the
same rows/columns the paper reports, so EXPERIMENTS.md can quote them
directly — and every bench additionally :func:`publish`\\ es a schema'd
:class:`repro.obs.bench.BenchResult` (named metrics, contract pass/fails,
an environment fingerprint) to the canonical ``BENCH_<name>.json``, its
repo-root copy, and the longitudinal ``benchmarks/results/trajectory.jsonl``
that ``repro-bitruss bench diff`` gates regressions against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.butterfly.counting import count_per_edge
from repro.core import (
    bit_bs,
    bit_bu,
    bit_bu_csr,
    bit_bu_plus,
    bit_bu_plus_plus,
    bit_pc,
)
from repro.datasets import dataset_spec, load_dataset
from repro.graph.bipartite import BipartiteGraph
from repro.obs import bench as obs_bench
from repro.obs import spans as obs_spans
from repro.obs.bench import BenchResult, Contract, Metric, peak_rss_bytes
from repro.utils.stats import UpdateCounter

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = RESULTS_DIR / "trajectory.jsonl"

#: RSS high-water mark right after this module's (heavy) imports.  Peak-RSS
#: metrics subtract it so interpreter + numpy overhead cancels and the
#: reported number is the bench's own footprint — absolute ``ru_maxrss``
#: made cross-run comparison meaningless (the absolute value still lands in
#: each result's ``EnvFingerprint``).
_RSS_BASELINE_BYTES = peak_rss_bytes()

#: Fig. 7 buckets the update counts by the edge's original butterfly
#: support.  The paper uses absolute bounds (5000/10000/15000/20000) on
#: million-scale supports; we use the same five-bucket structure scaled to
#: each dataset's own sup_max.
BUCKET_FRACTIONS = (0.125, 0.25, 0.375, 0.5)

_ALGORITHMS = {
    "BS": bit_bs,
    "BU": bit_bu,
    "BU+": bit_bu_plus,
    "BU++": bit_bu_plus_plus,
    "BU-CSR": bit_bu_csr,
    "PC": bit_pc,
}


@dataclass
class RunRecord:
    """One algorithm execution on one graph."""

    dataset: str
    algorithm: str
    seconds: float
    updates: int
    bucket_labels: List[str] = field(default_factory=list)
    bucket_totals: List[int] = field(default_factory=list)
    index_peak_bytes: int = 0
    phi_max: int = 0
    timings: Dict[str, float] = field(default_factory=dict)
    parameters: Dict[str, object] = field(default_factory=dict)


_run_cache: Dict[Tuple, RunRecord] = {}
_support_cache: Dict[str, np.ndarray] = {}


def dataset_supports(name: str) -> np.ndarray:
    """Original per-edge butterfly supports of a bundled dataset (cached)."""
    if name not in _support_cache:
        _support_cache[name] = count_per_edge(load_dataset(name))
    return _support_cache[name]


def _bucket_bounds(sup_max: int) -> List[int]:
    return [max(1, int(sup_max * f)) for f in BUCKET_FRACTIONS]


def run_algorithm(
    dataset: str,
    algorithm: str,
    *,
    tau: float = 0.02,
    graph: Optional[BipartiteGraph] = None,
    cache_key_extra: Tuple = (),
) -> RunRecord:
    """Run ``algorithm`` on a bundled dataset (or a supplied graph), cached.

    The update counter is always bucketed by the graph's original supports
    so one run can feed both the total-updates and the per-bucket figures.
    """
    key = (dataset, algorithm, tau, cache_key_extra)
    if graph is None and key in _run_cache:
        return _run_cache[key]

    g = graph if graph is not None else load_dataset(dataset)
    if graph is None:
        support = dataset_supports(dataset)
    else:
        support = count_per_edge(g)
    sup_max = int(support.max()) if len(support) else 0
    counter = UpdateCounter(
        original_supports=support, bucket_bounds=_bucket_bounds(sup_max)
    )

    fn = _ALGORITHMS[algorithm]
    kwargs = {"tau": tau} if algorithm == "PC" else {}
    start = time.perf_counter()
    result = fn(g, counter=counter, **kwargs)
    elapsed = time.perf_counter() - start

    record = RunRecord(
        dataset=dataset,
        algorithm=algorithm,
        seconds=elapsed,
        updates=counter.total,
        bucket_labels=counter.bucket_labels(),
        bucket_totals=counter.bucket_totals(),
        index_peak_bytes=result.stats.index_peak_bytes,
        phi_max=result.max_k,
        timings=dict(result.stats.timings),
        parameters=dict(result.stats.parameters),
    )
    if graph is None:
        _run_cache[key] = record
    return record


def profiled(fn):
    """Run ``fn`` with phase profiling on; return ``(result, profile block)``.

    The block is the same ``{"wall_seconds": ..., "tree": ...}`` shape the
    CLI's ``decompose --profile --json`` emits, so ``repro-bitruss stats
    --profile`` can pretty-print bench JSONs too.  Profiler state is
    restored afterwards so timed (unprofiled) measurements in the same
    process stay on the no-op path.
    """
    was_enabled = obs_spans.profiling()
    obs_spans.enable_profiling(True)
    obs_spans.reset_tree()
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - start
        tree = obs_spans.tree()
        obs_spans.reset_tree()
        obs_spans.enable_profiling(was_enabled)
    return result, {"wall_seconds": wall, "tree": tree}


def peak_rss_delta_bytes() -> int:
    """Peak RSS growth since this module finished importing, in bytes.

    The process high-water mark minus the post-import baseline: the part
    of the footprint the bench itself is responsible for.  Never negative.
    """
    return max(0, peak_rss_bytes() - _RSS_BASELINE_BYTES)


def bs_allowed(dataset: str) -> bool:
    """Whether the quadratic BiT-BS baseline fits this dataset's budget."""
    return dataset_spec(dataset).bs_friendly


def make_result(
    bench: str,
    *,
    metrics: Sequence[Metric] = (),
    contracts: Sequence[Contract] = (),
    payload: Optional[Dict[str, object]] = None,
    include_rss: bool = True,
) -> BenchResult:
    """Assemble a :class:`BenchResult` with the current env fingerprint.

    Unless disabled, a ``peak_rss_delta_bytes`` metric (direction
    ``lower``) is appended automatically so every bench records its own
    memory footprint without per-module boilerplate.
    """
    metric_list = list(metrics)
    if include_rss and not any(m.name == "peak_rss_delta_bytes" for m in metric_list):
        metric_list.append(
            Metric(
                name="peak_rss_delta_bytes",
                value=float(peak_rss_delta_bytes()),
                unit="bytes",
                direction="lower",
            )
        )
    return BenchResult(
        bench=bench,
        metrics=metric_list,
        contracts=list(contracts),
        env=obs_bench.get_fingerprint(refresh=True),
        payload=dict(payload or {}),
    )


def publish(result: BenchResult) -> Path:
    """Publish a result to all three sinks the trajectory plane reads.

    Canonical ``benchmarks/results/BENCH_<name>.json``, a repo-root copy
    (ROADMAP and external tooling read the root), and one appended line in
    ``benchmarks/results/trajectory.jsonl``.
    """
    return obs_bench.publish(
        result,
        RESULTS_DIR,
        root_dir=REPO_ROOT,
        trajectory_path=TRAJECTORY_PATH,
    )


def write_result(
    figure: str,
    lines: List[str],
    *,
    bench: Optional[str] = None,
    metrics: Sequence[Metric] = (),
    contracts: Sequence[Contract] = (),
    payload: Optional[Dict[str, object]] = None,
) -> str:
    """Write a figure's series to ``benchmarks/results/<figure>.txt``.

    When ``bench`` is given, additionally :func:`publish` a schema'd
    result carrying ``metrics``/``contracts`` (the rendered lines ride
    along in the payload) so the text-only figure benches join the
    trajectory without restructuring their rendering code.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{figure}.txt").write_text(text)
    if bench is not None:
        doc = dict(payload or {})
        doc.setdefault("figure", figure)
        publish(
            make_result(
                bench, metrics=metrics, contracts=contracts, payload=doc
            )
        )
    return text


def format_table(header: List[str], rows: List[List[str]]) -> List[str]:
    """Fixed-width table lines for the results files."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines
