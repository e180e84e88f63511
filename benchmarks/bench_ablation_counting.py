"""Ablation — butterfly-counting implementations.

Not a paper figure: quantifies the implementation choice DESIGN.md calls
out for the counting substrate (the paper's [8]).  Two counters produce
identical outputs:

* ``naive``   — list-intersection enumeration (the pre-[8] style),
* ``kernel``  — vertex-priority wedge processing run by the wedge-block
  kernel (``repro/butterfly/wedges.py``) behind ``count_per_edge``: whole
  blocks of wedges grouped by ``(start, end)`` with one stable sort, no
  Python loop per vertex.

Expected shape: the kernel beats naive on every graph — sparse rows, dense
blocks and hub-heavy preferential attachment alike (the [8] claim).  The
test asserts it per graph and the report as one contract.

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
    "kernel": count_per_edge,
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
    np.testing.assert_array_equal(results["kernel"][1], results["naive"][1])
    # the [8]-style wedge-block kernel must beat naive enumeration
    assert results["kernel"][0] < results["naive"][0], (
        f"{graph_name}: kernel {results['kernel'][0]:.4f}s >= "
        f"naive {results['naive'][0]:.4f}s"
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
        "expected: the wedge-block kernel (vertex-priority, [8]) < naive",
        "on every graph",
        "",
    ]
    lines += format_table(["graph"] + list(COUNTERS), rows)
    metrics = [
        Metric(f"kernel_seconds_{name}", times["kernel"], "seconds", "lower")
        for name, times in table.items()
    ]
    worst = min(
        times["naive"] / max(times["kernel"], 1e-9) for times in table.values()
    )
    print(
        "\n"
        + write_result(
            "ablation_counting",
            lines,
            bench="ablation_counting",
            metrics=metrics,
            contracts=[
                Contract("kernel_beats_naive", worst > 1.0, 1.0, worst),
            ],
        )
    )
