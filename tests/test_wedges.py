"""The wedge-block kernel against a plain-Python rebuild of its outputs.

The oracle walks every start vertex with the scalar scaffold
:func:`tests.wedge_oracles.collect_wedges`, groups its wedges by end
vertex and numbers the blooms in discovery order (starts ascending, then
ends ascending, then middle slots), so every array of a build shard —
supports, wedge pairs, bloom ids and bloom sizes — must come out equal,
whatever the wedge budget.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from repro.butterfly import wedges
from repro.butterfly.counting import count_per_edge, count_per_edge_naive
from repro.butterfly.wedges import (
    WEDGE_BUDGET,
    build_shard_on_arrays,
    support_on_arrays,
)
from repro.core.api import bitruss_decomposition
from repro.core.peeling_engine import CSRPeelingEngine
from repro.datasets import dataset_names, load_dataset
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import complete_biclique, erdos_renyi_bipartite
from repro.index.be_index import BEIndex
from tests.conftest import bipartite_graphs
from tests.wedge_oracles import collect_wedges

BUDGETS = (1, 7, WEDGE_BUDGET)
SHARD_ARRAYS = ("support", "pair_e1", "pair_e2", "pair_bloom", "bloom_k")


@contextlib.contextmanager
def wedge_budget(budget):
    """Run the kernel with at most ``budget`` slots/wedges per chunk/block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wedges, "WEDGE_BUDGET", budget)
        yield


def _arrays(graph, priorities=None):
    prio = graph.priorities() if priorities is None else np.asarray(priorities)
    return (*graph.csr_gid_sorted_with_prios(priorities), prio)


def oracle_shard(graph, priorities=None):
    """Algorithm 3, one start at a time."""
    indptr, nbrs, eids, row_prios, _twin, prio = _arrays(graph, priorities)
    support = [0] * graph.num_edges
    pair_e1, pair_e2, pair_bloom, bloom_k = [], [], [], []
    for start in range(graph.num_vertices):
        wedges = collect_wedges(indptr, nbrs, eids, row_prios, prio, start)
        groups = {}
        for w, _v, e_uv, e_vw in wedges or ():
            groups.setdefault(w, []).append((e_uv, e_vw))
        for w in sorted(groups):
            k = len(groups[w])
            if k < 2:
                continue
            for e_uv, e_vw in groups[w]:
                support[e_uv] += k - 1
                support[e_vw] += k - 1
                pair_e1.append(e_uv)
                pair_e2.append(e_vw)
                pair_bloom.append(len(bloom_k))
            bloom_k.append(k)
    return tuple(
        np.array(values, dtype=np.int64)
        for values in (support, pair_e1, pair_e2, pair_bloom, bloom_k)
    )


def kernel_shard(graph, priorities=None):
    return build_shard_on_arrays(*_arrays(graph, priorities), graph.num_edges)


def assert_shards_equal(got, want, context=""):
    for name, a, b in zip(SHARD_ARRAYS, got, want):
        np.testing.assert_array_equal(a, b, err_msg=f"{name} {context}")
        assert a.dtype == np.int64, f"{name} dtype {a.dtype} {context}"


def assert_kernel_matches_oracle(graph, priorities=None):
    want = oracle_shard(graph, priorities)
    for budget in BUDGETS:
        with wedge_budget(budget):
            got = kernel_shard(graph, priorities)
            counted = support_on_arrays(
                *_arrays(graph, priorities), graph.num_edges
            )
        assert_shards_equal(got, want, f"(budget {budget})")
        np.testing.assert_array_equal(counted, want[0])


# ------------------------------------------------------------- the oracle


@settings(max_examples=60, deadline=None)
@given(bipartite_graphs())
def test_kernel_matches_oracle_under_every_budget(graph):
    assert_kernel_matches_oracle(graph)


# -------------------------------------------------------- degenerate shapes


@pytest.mark.parametrize(
    "graph",
    [
        BipartiteGraph(0, 0),
        BipartiteGraph(0, 5),
        BipartiteGraph(4, 0),
        BipartiteGraph(1, 30, [(0, v) for v in range(30)]),
        BipartiteGraph(30, 1, [(u, 0) for u in range(30)]),
        complete_biclique(30, 30),
        BipartiteGraph(6, 6, [(i, i) for i in range(6)]),
        BipartiteGraph(4, 5, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 4), (3, 3)]),
    ],
    ids=[
        "empty", "no-upper", "no-lower", "upper-hub-star", "lower-hub-star",
        "K30x30", "matching", "butterfly-plus-degree-1",
    ],
)
def test_degenerate_graphs(graph):
    assert_kernel_matches_oracle(graph)
    np.testing.assert_array_equal(
        kernel_shard(graph)[0], count_per_edge_naive(graph)
    )


def test_complete_biclique_is_one_bloom_per_anchor_pair():
    support, _e1, _e2, _pb, bloom_k = kernel_shard(complete_biclique(30, 30))
    # every edge of K_{30,30} sits in C(29,1) * C(29,1) butterflies
    assert (support == 29 * 29).all()
    assert int((bloom_k * (bloom_k - 1) // 2).sum()) == (30 * 29 // 2) ** 2


@pytest.mark.parametrize("kind", ["permutation", "float", "spread"])
def test_custom_priorities(kind):
    graph = erdos_renyi_bipartite(12, 14, 70, seed=4)
    rng = np.random.default_rng(9)
    prio = rng.permutation(graph.num_vertices) + 1
    if kind == "float":
        prio = prio / 7.0 - 3.0
    elif kind == "spread":  # row * span + prio would overflow int64
        prio = (prio - 13) * 10**15
    assert_kernel_matches_oracle(graph, prio)
    np.testing.assert_array_equal(
        kernel_shard(graph, prio)[0], count_per_edge_naive(graph)
    )


@pytest.mark.parametrize("kind", ["int", "float"])
@pytest.mark.parametrize(
    "build",
    [count_per_edge, BEIndex.build, CSRPeelingEngine.build],
    ids=["count_per_edge", "BEIndex.build", "CSRPeelingEngine.build"],
)
def test_tied_ranking_is_refused(build, kind):
    # Definition 7 is a strict order; with ties the twin cut would count
    # an end w with p(w) == p(u) as lower than the start.
    graph = erdos_renyi_bipartite(12, 14, 70, seed=4)
    ties = np.random.default_rng(4).integers(1, 5, graph.num_vertices)
    if kind == "float":
        ties = ties / 3.0
    with pytest.raises(ValueError, match="distinct"):
        build(graph, priorities=ties)


# ---------------------------------------------------------- memory contract


def test_peak_memory_follows_budget_not_wedge_count():
    graph = erdos_renyi_bipartite(60, 60, 1500, seed=1)
    arrays = _arrays(graph)
    indptr, nbrs, eids, row_prios, _twin, prio = arrays
    n, m = graph.num_vertices, graph.num_edges
    wedges = sum(
        len(collect_wedges(indptr, nbrs, eids, row_prios, prio, start) or ())
        for start in range(n)
    )
    budget = 256
    assert wedges >= 50 * budget

    def peak(b):
        with wedge_budget(b):
            tracemalloc.start()
            try:
                support_on_arrays(*arrays, m)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    # Sixteen 8-byte words per budgeted wedge and per vertex and edge.
    bound = 128 * budget + 128 * (n + m)
    assert peak(budget) < bound
    # The bound is tight enough to catch expanding every wedge at once.
    assert peak(wedges) > bound


# ------------------------------------------------------ bundled datasets


@pytest.mark.parametrize("name", dataset_names())
def test_phi_matches_dict_bu_plus_plus_on_bundled_datasets(name):
    graph = load_dataset(name)
    np.testing.assert_array_equal(
        bitruss_decomposition(graph, algorithm="bit-bu-csr").phi,
        bitruss_decomposition(graph, algorithm="bit-bu++").phi,
    )
