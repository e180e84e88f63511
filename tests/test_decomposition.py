"""End-to-end decomposition correctness for all five algorithms."""

import numpy as np
import pytest

from repro.core import (
    bit_bs,
    bit_bu,
    bit_bu_plus,
    bit_bu_plus_plus,
    bit_pc,
    reference_decomposition,
)
from repro.core.api import bitruss_decomposition
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    affiliation_bipartite,
    chung_lu_bipartite,
    complete_biclique,
    erdos_renyi_bipartite,
    hub_edge_example,
    nested_communities,
    paper_figure1_graph,
    paper_figure4_graph,
    planted_bloom,
)
from tests.conftest import assert_phi_equal

ALL_ALGORITHMS = [bit_bs, bit_bu, bit_bu_plus, bit_bu_plus_plus, bit_pc]


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
class TestKnownAnswers:
    def test_figure1(self, algorithm):
        # paper Figure 1: blue edges 2, yellow 1, gray 0
        g = paper_figure1_graph()
        result = algorithm(g)
        expected = {
            (0, 0): 2, (0, 1): 2, (1, 0): 2, (1, 1): 2, (2, 0): 2, (2, 1): 2,
            (2, 2): 1, (3, 1): 1, (3, 2): 1,
            (2, 3): 0, (3, 4): 0,
        }
        assert result.as_dict() == expected

    def test_figure4(self, algorithm):
        g = paper_figure4_graph()
        result = algorithm(g)
        assert result.phi.tolist() == [2, 2, 2, 2, 2, 2, 1, 1, 1, 0, 0]

    def test_single_butterfly(self, algorithm):
        result = algorithm(complete_biclique(2, 2))
        assert result.phi.tolist() == [1, 1, 1, 1]

    def test_complete_biclique(self, algorithm):
        # K_{a,b} is its own (a-1)(b-1)-bitruss
        for a, b in [(2, 4), (3, 3), (3, 5)]:
            result = algorithm(complete_biclique(a, b))
            assert set(result.phi.tolist()) == {(a - 1) * (b - 1)}

    def test_planted_bloom(self, algorithm):
        # a k-bloom: every edge has bitruss number k-1
        result = algorithm(planted_bloom(6))
        assert set(result.phi.tolist()) == {5}

    def test_star_has_no_butterflies(self, algorithm):
        result = algorithm(complete_biclique(1, 5))
        assert set(result.phi.tolist()) == {0}

    def test_empty_graph(self, algorithm):
        result = algorithm(BipartiteGraph(3, 3))
        assert len(result.phi) == 0
        assert result.max_k == 0

    def test_edgeless_vertices(self, algorithm):
        result = algorithm(BipartiteGraph(2, 2, [(0, 0)]))
        assert result.phi.tolist() == [0]

    def test_hub_edge_example(self, algorithm):
        # Figure 2: the hub edge (u1, v1) lies in exactly one butterfly and
        # has bitruss number 1 along with the rest of that butterfly.
        g = hub_edge_example(fan=30)
        result = algorithm(g)
        assert result.phi_of(1, 1) == 1
        assert result.phi_of(0, 0) == 1
        assert result.phi_of(2, 40) == 0

    def test_two_disjoint_blooms(self, algorithm):
        # 4-bloom (phi 3) next to an unrelated 2-bloom (phi 1)
        edges = [(0, v) for v in range(4)] + [(1, v) for v in range(4)]
        edges += [(2, 4), (2, 5), (3, 4), (3, 5)]
        g = BipartiteGraph(4, 6, edges)
        result = algorithm(g)
        assert result.phi.tolist() == [3] * 8 + [1] * 4


@pytest.mark.parametrize("seed", range(8))
def test_all_algorithms_match_reference_random(seed):
    g = erdos_renyi_bipartite(9, 9, 40, seed=seed)
    expected = reference_decomposition(g)
    for fn in ALL_ALGORITHMS:
        assert_phi_equal(fn(g).phi, expected, f"{fn.__name__} seed={seed}")


@pytest.mark.parametrize(
    "maker",
    [
        lambda: chung_lu_bipartite(40, 40, 200, seed=21),
        lambda: affiliation_bipartite(
            40, 40, 12, community_upper=5, community_lower=5, p_in=0.7, seed=22
        ),
        lambda: nested_communities(
            [(12, 12, 0.4), (5, 5, 1.0)], noise_edges=30, seed=23
        ),
    ],
)
def test_cross_agreement_structured(maker):
    g = maker()
    results = {fn.__name__: fn(g).phi for fn in ALL_ALGORITHMS}
    baseline = results["bit_bs"]
    for name, phi in results.items():
        assert_phi_equal(phi, baseline, name)


class TestApi:
    def test_algorithm_aliases(self, figure4):
        expected = [2, 2, 2, 2, 2, 2, 1, 1, 1, 0, 0]
        for name in ("bs", "bu", "bu+", "bu++", "pc", "BIT-PC", "Bit-Bu"):
            result = bitruss_decomposition(figure4, algorithm=name)
            assert result.phi.tolist() == expected

    def test_unknown_algorithm(self, figure4):
        with pytest.raises(ValueError, match="unknown algorithm"):
            bitruss_decomposition(figure4, algorithm="nope")

    @pytest.mark.parametrize("name", ["bit-bu-par", "bu-par", "par"])
    def test_parallel_aliases_are_unknown(self, figure4, name):
        with pytest.raises(ValueError, match="unknown algorithm"):
            bitruss_decomposition(figure4, algorithm=name)

    def test_stats_populated(self, figure4):
        from repro.utils.stats import UpdateCounter

        counter = UpdateCounter()
        result = bitruss_decomposition(figure4, algorithm="bu++", counter=counter)
        assert result.stats.algorithm == "BiT-BU++"
        assert "peeling" in result.stats.timings
        assert result.stats.updates == counter.total

    def test_default_is_bu_plus_plus(self, figure4):
        result = bitruss_decomposition(figure4)
        assert result.stats.algorithm == "BiT-BU++"


class TestMonotoneProperties:
    def test_phi_at_most_support(self, medium_random):
        from repro.butterfly.counting import count_per_edge

        support = count_per_edge(medium_random)
        phi = bit_bu_plus_plus(medium_random).phi
        assert np.all(phi <= support)

    def test_hierarchy_is_nested(self, medium_random):
        result = bit_bu_plus_plus(medium_random)
        hierarchy = result.hierarchy()
        counts = [hierarchy[k] for k in sorted(hierarchy)]
        assert counts == sorted(counts, reverse=True)

    def test_update_counts_ordering(self):
        # the batch optimizations may only reduce the update count, and
        # BiT-PC reduces it further on hub-heavy graphs (paper Fig. 10)
        from repro.utils.stats import UpdateCounter

        g = chung_lu_bipartite(150, 20, 700, exponent_upper=2.5,
                               exponent_lower=1.7, seed=33)
        counts = {}
        for name, fn in [("bu", bit_bu), ("bu++", bit_bu_plus_plus),
                         ("pc", bit_pc)]:
            counter = UpdateCounter()
            fn(g, counter=counter)
            counts[name] = counter.total
        assert counts["bu++"] <= counts["bu"]
        assert counts["pc"] < counts["bu"]
