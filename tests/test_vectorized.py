"""Vectorized butterfly counting equals the scalar implementation."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.butterfly.counting import count_butterflies_total, count_per_edge
from repro.butterfly.vectorized import count_per_edge_vectorized
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    chung_lu_bipartite,
    complete_biclique,
    erdos_renyi_bipartite,
    planted_bloom,
)
from tests.conftest import bipartite_graphs


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        g = erdos_renyi_bipartite(15, 15, 100, seed=seed)
        np.testing.assert_array_equal(
            count_per_edge_vectorized(g), count_per_edge(g)
        )

    def test_skewed_graph(self):
        g = chung_lu_bipartite(200, 20, 900, exponent_upper=2.4,
                               exponent_lower=1.8, seed=5)
        np.testing.assert_array_equal(
            count_per_edge_vectorized(g), count_per_edge(g)
        )

    def test_structured_graphs(self):
        for g in (complete_biclique(4, 5), planted_bloom(7)):
            np.testing.assert_array_equal(
                count_per_edge_vectorized(g), count_per_edge(g)
            )

    def test_total(self, medium_random):
        support = count_per_edge_vectorized(medium_random)
        assert int(support.sum()) // 4 == count_butterflies_total(medium_random)

    def test_empty_graph(self):
        g = BipartiteGraph(0, 0)
        assert count_per_edge_vectorized(g).shape == (0,)

    def test_no_butterflies(self):
        g = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        assert count_per_edge_vectorized(g).tolist() == [0, 0]

    def test_with_supplied_priorities(self, medium_random):
        from repro.utils.priority import vertex_priorities

        prio = vertex_priorities(medium_random.degrees())
        np.testing.assert_array_equal(
            count_per_edge_vectorized(medium_random, priorities=prio),
            count_per_edge(medium_random, priorities=prio),
        )


@settings(max_examples=40, deadline=None)
@given(bipartite_graphs())
def test_vectorized_property(graph):
    np.testing.assert_array_equal(
        count_per_edge_vectorized(graph), count_per_edge(graph)
    )
