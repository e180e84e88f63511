"""Butterfly counting: vertex-priority algorithm vs independent references."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.butterfly.counting import (
    count_butterflies_total,
    count_per_edge,
    count_per_edge_naive,
    max_support,
    support_histogram,
)
from repro.butterfly.enumeration import (
    count_butterflies_brute_force,
    supports_from_enumeration,
)
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    chung_lu_bipartite,
    complete_biclique,
    erdos_renyi_bipartite,
    planted_bloom,
)
from tests.conftest import bipartite_graphs


class TestKnownValues:
    def test_single_butterfly(self):
        g = complete_biclique(2, 2)
        assert count_butterflies_total(g) == 1
        assert count_per_edge(g).tolist() == [1, 1, 1, 1]

    def test_no_butterflies_in_star(self):
        g = complete_biclique(1, 6)
        assert count_butterflies_total(g) == 0
        assert count_per_edge(g).max() == 0

    def test_no_butterflies_in_path(self):
        g = BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)])
        assert count_butterflies_total(g) == 0

    def test_complete_biclique_formula(self):
        # K_{a,b}: C(a,2) * C(b,2) butterflies; each edge in (a-1)(b-1)
        for a, b in [(2, 3), (3, 3), (4, 5)]:
            g = complete_biclique(a, b)
            expected_total = (a * (a - 1) // 2) * (b * (b - 1) // 2)
            assert count_butterflies_total(g) == expected_total
            assert set(count_per_edge(g).tolist()) == {(a - 1) * (b - 1)}

    def test_figure4_supports(self, figure4):
        support = count_per_edge(figure4)
        # e0..e5 lie in B0* (3-bloom, 2 each); e5 also in B1* -> 3
        # e6..e8 lie only in B1* (1 each); pendants have 0
        assert support.tolist() == [2, 2, 2, 2, 2, 3, 1, 1, 1, 0, 0]


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(6))
    def test_three_way_agreement_random(self, seed):
        g = erdos_renyi_bipartite(12, 12, 60, seed=seed)
        fast = count_per_edge(g)
        naive = count_per_edge_naive(g)
        enum = supports_from_enumeration(g)
        np.testing.assert_array_equal(fast, naive)
        np.testing.assert_array_equal(fast, enum)

    @pytest.mark.parametrize("seed", range(3))
    def test_total_matches_enumeration(self, seed):
        g = erdos_renyi_bipartite(10, 10, 45, seed=seed)
        assert count_butterflies_total(g) == count_butterflies_brute_force(g)

    def test_total_is_quarter_of_support_sum(self, medium_random):
        # Each butterfly contributes to exactly 4 edge supports.  The total
        # comes from enumeration, independent of the wedge kernel.
        support = count_per_edge(medium_random)
        total = count_butterflies_brute_force(medium_random)
        assert int(support.sum()) == 4 * total
        assert count_butterflies_total(medium_random) == total


class TestEquivalence:
    """The wedge-block kernel behind :func:`count_per_edge` agrees with the
    naive list-intersection counter on every graph shape."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        g = erdos_renyi_bipartite(15, 15, 100, seed=seed)
        np.testing.assert_array_equal(count_per_edge(g), count_per_edge_naive(g))

    def test_skewed_graph(self):
        g = chung_lu_bipartite(200, 20, 900, exponent_upper=2.4,
                               exponent_lower=1.8, seed=5)
        np.testing.assert_array_equal(count_per_edge(g), count_per_edge_naive(g))

    def test_structured_graphs(self):
        for g in (complete_biclique(4, 5), planted_bloom(7)):
            np.testing.assert_array_equal(
                count_per_edge(g), count_per_edge_naive(g)
            )

    def test_total(self, medium_random):
        assert count_butterflies_total(medium_random) == (
            count_butterflies_brute_force(medium_random)
        )

    def test_empty_graph(self):
        g = BipartiteGraph(0, 0)
        assert count_per_edge(g).shape == (0,)
        assert count_butterflies_total(g) == 0

    def test_no_butterflies(self):
        g = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        assert count_per_edge(g).tolist() == [0, 0]

    def test_with_supplied_priorities(self, medium_random):
        from repro.utils.priority import vertex_priorities

        prio = vertex_priorities(medium_random.degrees())
        np.testing.assert_array_equal(
            count_per_edge(medium_random, priorities=prio),
            count_per_edge_naive(medium_random),
        )


@settings(max_examples=60, deadline=None)
@given(bipartite_graphs())
def test_counting_property(graph):
    fast = count_per_edge(graph)
    naive = count_per_edge_naive(graph)
    np.testing.assert_array_equal(fast, naive)
    assert count_butterflies_total(graph) == count_butterflies_brute_force(graph)


class TestLemma8Bounds:
    def test_bounds_hold(self, medium_random):
        g = medium_random
        total = count_butterflies_total(g)
        m = g.num_edges
        assert total <= m * m  # Lemma 8 eq. (1)
        # eq. (2): per-edge bound sup(u,v) <= (d(u)-1)(d(v)-1)
        support = count_per_edge(g)
        for eid in range(m):
            u, v = g.edge_endpoints(eid)
            assert support[eid] <= (g.degree_upper(u) - 1) * (g.degree_lower(v) - 1)


class TestHelpers:
    def test_support_histogram(self):
        hist = support_histogram(np.array([0, 1, 1, 3]))
        assert hist == {0: 1, 1: 2, 3: 1}

    def test_max_support_empty(self):
        assert max_support(np.array([], dtype=np.int64)) == 0

    def test_priorities_can_be_supplied(self, figure4):
        from repro.utils.priority import vertex_priorities

        prio = vertex_priorities(figure4.degrees())
        np.testing.assert_array_equal(
            count_per_edge(figure4, priorities=prio), count_per_edge(figure4)
        )
