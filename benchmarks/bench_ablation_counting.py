"""Ablation — butterfly-counting implementations.

Not a paper figure: quantifies the implementation choices DESIGN.md calls
out for the counting substrate (the paper's [8]).  Three counters produce
identical outputs:

* ``naive``       — list-intersection enumeration (the pre-[8] style),
* ``scalar``      — vertex-priority wedge processing (dict inner loops),
* ``vectorized``  — the same traversal run by the wedge-block kernel
  (``repro/butterfly/wedges.py``): whole blocks of wedges grouped by
  ``(start, end)`` with one stable sort, no Python loop per vertex.

Expected shape: scalar beats naive everywhere (the [8] claim), and
vectorized is no slower than scalar on any graph — sparse rows, dense
blocks and hub-heavy preferential attachment alike (about 10x faster on a
2-CPU Xeon VM).  No sparse-vs-dense crossover is left: both tests assert
it.

``hub-pa`` has the wedge shape of a bipartite preferential-attachment
graph (CORL's ``generate_ba_graph``): a few upper hubs with power-law
degrees, and lower vertices of near-binomial degree.  It is drawn with
Chung-Lu weights, exponent 2.1 on the upper layer and a near-flat 8.0 on
the lower one.
"""

import time

import numpy as np
import pytest

from benchmarks._shared import Contract, Metric, format_table, write_result
from repro.butterfly.counting import count_per_edge, count_per_edge_naive
from repro.butterfly.vectorized import count_per_edge_vectorized
from repro.graph.generators import (
    chung_lu_bipartite,
    erdos_renyi_bipartite,
    nested_communities,
)

GRAPHS = {
    "dense-er": lambda: erdos_renyi_bipartite(250, 250, 15000, seed=1),
    "skewed-cl": lambda: chung_lu_bipartite(
        1500, 60, 8000, exponent_upper=2.4, exponent_lower=1.8, seed=2
    ),
    "sparse-cl": lambda: chung_lu_bipartite(
        2000, 2000, 8000, exponent_upper=2.2, exponent_lower=2.2, seed=3
    ),
    "dense-nested": lambda: nested_communities(
        [(60, 80, 0.5), (25, 30, 0.8), (10, 12, 1.0)], noise_edges=200, seed=42
    ),
    "hub-pa": lambda: chung_lu_bipartite(
        400, 3000, 9000, exponent_upper=2.1, exponent_lower=8.0, seed=4
    ),
}

COUNTERS = {
    "naive": count_per_edge_naive,
    "scalar": count_per_edge,
    "vectorized": count_per_edge_vectorized,
}


def _measure(graph, fn):
    start = time.perf_counter()
    result = fn(graph)
    return time.perf_counter() - start, result


@pytest.mark.benchmark(group="ablation-counting")
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_counting_ablation(benchmark, graph_name):
    graph = GRAPHS[graph_name]()

    def run_all():
        out = {}
        for name, fn in COUNTERS.items():
            out[name] = _measure(graph, fn)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    supports = [sup for _t, sup in results.values()]
    for other in supports[1:]:
        np.testing.assert_array_equal(supports[0], other)
    # the [8]-style counter must beat naive enumeration
    assert results["scalar"][0] < results["naive"][0]
    # ... and the wedge-block kernel must be no slower than the scalar one
    assert results["vectorized"][0] <= results["scalar"][0], (
        f"{graph_name}: vectorized {results['vectorized'][0]:.4f}s > "
        f"scalar {results['scalar'][0]:.4f}s"
    )


@pytest.mark.benchmark(group="ablation-counting")
def test_counting_ablation_report(benchmark):
    def collect():
        table = {}
        for graph_name, make in GRAPHS.items():
            graph = make()
            table[graph_name] = {
                name: _measure(graph, fn)[0] for name, fn in COUNTERS.items()
            }
        return table

    table = benchmark.pedantic(collect, rounds=1, iterations=1)
    rows = [
        [name] + [f"{times[c]:.3f}" for c in COUNTERS]
        for name, times in table.items()
    ]
    lines = [
        "Ablation: butterfly-counting implementations (seconds)",
        "expected: scalar (vertex-priority, [8]) < naive, and vectorized",
        "(wedge-block kernel) <= scalar on every graph",
        "",
    ]
    lines += format_table(["graph"] + list(COUNTERS), rows)
    metrics = [
        Metric(f"{counter}_seconds_{name}", times[counter], "seconds", "lower")
        for name, times in table.items()
        for counter in ("scalar", "vectorized")
    ]
    worst_edge = min(
        times["naive"] / max(times["scalar"], 1e-9)
        for times in table.values()
    )
    worst_vectorized = min(
        times["scalar"] / max(times["vectorized"], 1e-9)
        for times in table.values()
    )
    print(
        "\n"
        + write_result(
            "ablation_counting",
            lines,
            bench="ablation_counting",
            metrics=metrics,
            contracts=[
                Contract(
                    "scalar_beats_naive", worst_edge > 1.0, 1.0, worst_edge
                ),
                Contract(
                    "vectorized_no_slower_than_scalar",
                    worst_vectorized >= 1.0,
                    1.0,
                    worst_vectorized,
                ),
            ],
        )
    )
