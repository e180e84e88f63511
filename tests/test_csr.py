"""CSR layer tests: zero-copy slices, legacy-view agreement, batch peeling.

Covers the two contracts of the CSR refactor:

* the CSR arrays, the zero-copy neighbour slices and the legacy list views
  all describe the same graph (checked against an independently built
  adjacency on random graphs);
* the vectorized batch-peeling engine produces bitwise-identical bitruss
  numbers to scalar BiT-BU on the fixture suite, through both its
  vectorized and scalar-fallback paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bit_bu import bit_bu
from repro.core.bit_bu_batch import bit_bu_csr, bit_bu_plus_plus
from repro.core.peeling_engine import CSRPeelingEngine
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    affiliation_bipartite,
    chung_lu_bipartite,
    complete_biclique,
    erdos_renyi_bipartite,
    nested_communities,
)
from repro.index.be_index import BEIndex
from tests.conftest import bipartite_graphs, custom_priorities


def reference_adjacency(graph):
    """Layer adjacency rebuilt edge by edge, independent of the CSR."""
    adj_u = [[] for _ in range(graph.num_upper)]
    eids_u = [[] for _ in range(graph.num_upper)]
    adj_l = [[] for _ in range(graph.num_lower)]
    eids_l = [[] for _ in range(graph.num_lower)]
    for eid, (u, v) in enumerate(graph.edges()):
        adj_u[u].append(v)
        eids_u[u].append(eid)
        adj_l[v].append(u)
        eids_l[v].append(eid)
    return adj_u, eids_u, adj_l, eids_l


RANDOM_GRAPHS = [
    erdos_renyi_bipartite(30, 25, 220, seed=99),
    erdos_renyi_bipartite(1, 40, 40, seed=3),
    chung_lu_bipartite(60, 60, 400, seed=7),
    affiliation_bipartite(40, 40, 8, community_upper=6, community_lower=6, seed=2),
    BipartiteGraph(3, 3, []),
]


class TestCSRAgreesWithLegacyAccessors:
    @pytest.mark.parametrize("graph", RANDOM_GRAPHS, ids=range(len(RANDOM_GRAPHS)))
    def test_neighbor_slices_match_reference(self, graph):
        adj_u, eids_u, adj_l, eids_l = reference_adjacency(graph)
        for u in range(graph.num_upper):
            assert graph.neighbors_of_upper(u).tolist() == adj_u[u]
            assert graph.edges_of_upper(u).tolist() == eids_u[u]
            assert graph.degree_upper(u) == len(adj_u[u])
        for v in range(graph.num_lower):
            assert graph.neighbors_of_lower(v).tolist() == adj_l[v]
            assert graph.edges_of_lower(v).tolist() == eids_l[v]
            assert graph.degree_lower(v) == len(adj_l[v])

    @pytest.mark.parametrize("graph", RANDOM_GRAPHS, ids=range(len(RANDOM_GRAPHS)))
    def test_gid_csr_matches_layer_csr(self, graph):
        indptr, indices, eids = graph.csr_gid()
        n_l = graph.num_lower
        for v in range(n_l):
            row = slice(indptr[v], indptr[v + 1])
            assert (indices[row] - n_l).tolist() == graph.neighbors_of_lower(v).tolist()
            assert eids[row].tolist() == graph.edges_of_lower(v).tolist()
        for u in range(graph.num_upper):
            g = n_l + u
            row = slice(indptr[g], indptr[g + 1])
            assert indices[row].tolist() == graph.neighbors_of_upper(u).tolist()
            assert eids[row].tolist() == graph.edges_of_upper(u).tolist()

    @pytest.mark.parametrize("graph", RANDOM_GRAPHS, ids=range(len(RANDOM_GRAPHS)))
    def test_adjacency_by_gid_view_matches_csr(self, graph):
        adj, adj_eids = graph.adjacency_by_gid()
        indptr, indices, eids = graph.csr_gid()
        for g in range(graph.num_vertices):
            row = slice(indptr[g], indptr[g + 1])
            assert adj[g] == indices[row].tolist()
            assert adj_eids[g] == eids[row].tolist()

    @pytest.mark.parametrize("graph", RANDOM_GRAPHS, ids=range(len(RANDOM_GRAPHS)))
    def test_sorted_csr_is_priority_sorted_row_permutation(self, graph):
        prio = graph.priorities()
        indptr, indices, eids = graph.csr_gid_sorted()
        base_indptr, base_indices, base_eids = graph.csr_gid()
        assert indptr is base_indptr
        for g in range(graph.num_vertices):
            row = slice(indptr[g], indptr[g + 1])
            row_prios = prio[indices[row]]
            assert (np.diff(row_prios) >= 0).all()
            assert sorted(indices[row].tolist()) == sorted(base_indices[row].tolist())
            assert sorted(eids[row].tolist()) == sorted(base_eids[row].tolist())
            # indices and eids are permuted together
            for nbr, eid in zip(indices[row].tolist(), eids[row].tolist()):
                u, v = graph.edge_endpoints(eid)
                assert {graph.gid_of_upper(u), graph.gid_of_lower(v)} == {g, nbr}

    def test_shared_arrays_are_read_only(self, medium_random):
        g = medium_random
        for arr in (
            g.edge_upper,
            g.edge_lower,
            *g.csr_upper(),
            *g.csr_lower(),
            *g.csr_gid(),
            *g.csr_gid_sorted_with_prios(),
        ):
            with pytest.raises(ValueError):
                arr[0] = 0

    @given(bipartite_graphs())
    @settings(max_examples=40, deadline=None)
    def test_csr_roundtrip_property(self, graph):
        graph.validate()
        indptr, indices, eids = graph.csr_gid()
        assert int(indptr[-1]) == 2 * graph.num_edges
        # every edge appears exactly once per endpoint
        assert np.bincount(eids, minlength=graph.num_edges).tolist() == [2] * graph.num_edges


def lexsort_sorted_view(graph, priorities=None):
    """The sorted gid CSR by definition: a stable sort on (row, priority)."""
    indptr, indices, eids = graph.csr_gid()
    prio = graph.priorities() if priorities is None else np.asarray(priorities)
    rows = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), np.diff(indptr))
    order = np.lexsort((prio[indices], rows))
    return indptr, indices[order], eids[order]


def assert_sorted_view_matches_lexsort(graph, priorities=None):
    got = graph.csr_gid_sorted(priorities)
    for name, a, b in zip(
        ("indptr", "indices", "edge_ids"), got, lexsort_sorted_view(graph, priorities)
    ):
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    indptr, indices, eids, row_prios, twin = graph.csr_gid_sorted_with_prios(
        priorities
    )
    prio = graph.priorities() if priorities is None else np.asarray(priorities)
    np.testing.assert_array_equal(row_prios, prio[indices])
    # twin[slot]: the other slot of the same edge, in the neighbour's row.
    slots = np.arange(len(eids))
    rows = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), np.diff(indptr))
    assert twin.dtype == np.int64
    assert not (twin == slots).any()
    np.testing.assert_array_equal(twin[twin], slots)
    np.testing.assert_array_equal(eids[twin], eids)
    np.testing.assert_array_equal(rows[twin], indices)


class TestSortedView:
    @given(bipartite_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_lexsort_oracle(self, graph, data):
        priorities = data.draw(
            st.one_of(st.none(), custom_priorities(graph.num_vertices))
        )
        assert_sorted_view_matches_lexsort(graph, priorities)

    @pytest.mark.parametrize(
        "graph",
        [
            BipartiteGraph(0, 0),
            BipartiteGraph(3, 4),
            BipartiteGraph(0, 5),
            complete_biclique(40, 40),
        ],
        ids=["empty", "edgeless", "one-layer", "K40x40"],
    )
    @pytest.mark.parametrize("kind", ["default", "float", "spread", "ties"])
    def test_fixed_graphs(self, graph, kind):
        # In K40x40 three tied priority values give rows of 40 unsorted
        # keys with ~13 copies each, enough for an unstable sort to reorder.
        n = graph.num_vertices
        priorities = {
            "default": None,
            "float": np.arange(n) / 7.0,
            "spread": np.arange(n, dtype=np.int64) * 10**15,
            "ties": np.arange(n, dtype=np.int64) % 3,
        }[kind]
        assert_sorted_view_matches_lexsort(graph, priorities)


class TestBatchPeelingExactness:
    def _assert_identical(self, graph):
        expected = bit_bu(graph).phi
        np.testing.assert_array_equal(expected, bit_bu_csr(graph).phi)
        np.testing.assert_array_equal(expected, bit_bu_plus_plus(graph).phi)

    def test_identical_on_figure1(self, figure1):
        self._assert_identical(figure1)

    def test_identical_on_figure4(self, figure4):
        self._assert_identical(figure4)

    def test_identical_on_medium_random(self, medium_random):
        self._assert_identical(medium_random)

    def test_identical_on_dense_nested(self):
        graph = nested_communities(
            [(30, 40, 0.4), (12, 16, 0.7), (5, 7, 1.0)], noise_edges=60, seed=5
        )
        self._assert_identical(graph)

    def test_identical_on_skewed(self):
        self._assert_identical(chung_lu_bipartite(80, 80, 600, seed=13))

    def test_empty_graph(self):
        graph = BipartiteGraph(4, 4, [])
        assert bit_bu_csr(graph).phi.tolist() == []

    @given(bipartite_graphs())
    @settings(max_examples=25, deadline=None)
    def test_identical_property(self, graph):
        expected = bit_bu(graph).phi
        np.testing.assert_array_equal(expected, bit_bu_csr(graph).phi)
        np.testing.assert_array_equal(expected, bit_bu_plus_plus(graph).phi)


class TestEngineInternals:
    def test_engine_supports_match_be_index(self, medium_random):
        engine = CSRPeelingEngine.build(medium_random)
        index = BEIndex.build(medium_random)
        np.testing.assert_array_equal(engine.support, index.support)

    def test_engine_size_components_match_be_index(self, medium_random):
        engine = CSRPeelingEngine.build(medium_random)
        index = BEIndex.build(medium_random)
        blooms_e, edges_e, links_e = engine.size_components()
        blooms_i, edges_i, links_i = index.size_components()
        assert blooms_e == blooms_i
        assert edges_e == edges_i
        assert links_e == links_i

    def test_stats_plumbing(self, figure4):
        from repro.utils.stats import UpdateCounter

        counter = UpdateCounter()
        result = bit_bu_csr(figure4, counter=counter)
        assert result.stats.algorithm == "BiT-BU-CSR"
        assert "index construction" in result.stats.timings
        assert "peeling" in result.stats.timings
        assert counter.total > 0
        assert result.stats.index_peak_bytes > 0

    @pytest.mark.parametrize(
        "name,total,buckets",
        [
            ("figure4", 1, [0, 0, 0, 1]),
            ("medium_random", 1258, [108, 736, 299, 115]),
            ("d-style", 50349, [19624, 4895, 19531, 6299]),
        ],
    )
    def test_update_counts_pinned(self, name, total, buckets):
        """One update per (edge, batch) support change.  The pinned totals
        (bucketed at quarters of the maximum original support) are those
        the engine recorded when it still peeled through ``BucketQueue``."""
        from repro.butterfly.counting import count_per_edge
        from repro.datasets import load_dataset
        from repro.graph.generators import paper_figure4_graph
        from repro.utils.stats import UpdateCounter

        graph = {
            "figure4": paper_figure4_graph,
            "medium_random": lambda: erdos_renyi_bipartite(30, 25, 220, seed=99),
            "d-style": lambda: load_dataset("d-style"),
        }[name]()
        support = count_per_edge(graph)
        top = int(support.max())
        counter = UpdateCounter(
            original_supports=support,
            bucket_bounds=[top * i // 4 for i in (1, 2, 3)],
        )
        bit_bu_csr(graph, counter=counter)
        assert counter.total == total
        assert counter.bucket_totals() == buckets

    def test_registered_in_api(self, figure4):
        from repro.core.api import ALGORITHMS, bitruss_decomposition

        assert ALGORITHMS["csr"] == "bit-bu-csr"
        result = bitruss_decomposition(figure4, algorithm="bu-csr")
        np.testing.assert_array_equal(result.phi, bit_bu(figure4).phi)
