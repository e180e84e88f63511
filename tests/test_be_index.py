"""BE-Index construction and edge-removal semantics (paper Section IV)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.butterfly.counting import count_per_edge
from repro.butterfly.enumeration import reference_blooms
from repro.core.bit_bu import bit_bu
from repro.core.bit_bu_batch import bit_bu_csr, bit_bu_plus_plus
from repro.core.bit_pc import bit_pc
from repro.datasets import dataset_names, load_dataset
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    complete_biclique,
    erdos_renyi_bipartite,
    paper_figure4_graph,
    planted_bloom,
)
from repro.index.be_index import BEIndex
from repro.utils.priority import vertex_priorities
from repro.utils.stats import UpdateCounter
from tests.conftest import bipartite_graphs, custom_priorities
from tests.wedge_oracles import scalar_be_index


class TestConstruction:
    def test_supports_match_counting(self, medium_random):
        index = BEIndex.build(medium_random)
        np.testing.assert_array_equal(
            index.support, count_per_edge(medium_random)
        )

    def test_blooms_match_reference(self, medium_random):
        g = medium_random
        prio = vertex_priorities(g.degrees())
        index = BEIndex.build(g, priorities=prio)
        expected = reference_blooms(g, priorities=prio)
        got = {
            (b.anchor, b.partner): b.k for b in index.blooms.values()
        }
        assert got == {key: len(mids) for key, mids in expected.items()}

    def test_figure4_index_structure(self):
        # Under the strict Definition 7 priority, the full Figure 4(a) graph
        # (pendants included) gives d(u2) = d(v1) = 4 and the upper vertex
        # wins the id tie-break, so H2's butterflies split across three
        # 2-blooms anchored at u2/v1 rather than the single 3-bloom drawn in
        # the paper's Figure 6 (which matches the pendant-free graph — see
        # the next test).  Lemma 3 still holds: 4 blooms x 1 butterfly each.
        g = paper_figure4_graph()
        index = BEIndex.build(g)
        assert index.num_blooms == 4
        assert all(b.k == 2 for b in index.blooms.values())
        assert sum(b.butterfly_count for b in index.blooms.values()) == 4
        # supports are structural and match the paper regardless of the
        # bloom decomposition
        assert index.support.tolist() == [2, 2, 2, 2, 2, 3, 1, 1, 1, 0, 0]

    def test_paper_figure6_index_on_pendant_free_graph(self):
        # Dropping the two pendant edges reproduces the paper's Figure 6
        # exactly: B0* is the 3-bloom on {u0,u1,u2} x {v0,v1} anchored at v1
        # (now the unique degree-4 vertex), B1* the 2-bloom on
        # {u2,u3} x {v1,v2}.
        from repro.graph.bipartite import BipartiteGraph

        g = BipartiteGraph(4, 5, [
            (0, 0), (0, 1), (1, 0), (1, 1),
            (2, 0), (2, 1), (2, 2), (3, 1), (3, 2),
        ])
        index = BEIndex.build(g)
        assert index.num_blooms == 2
        counts = sorted(b.butterfly_count for b in index.blooms.values())
        assert counts == [1, 3]
        big = next(b for b in index.blooms.values() if b.k == 3)
        small = next(b for b in index.blooms.values() if b.k == 2)
        # both blooms are anchored at v1 (gid 1), dominant layer = lower
        assert big.anchor == 1 and small.anchor == 1
        # twins inside B0*: (e0,e1), (e2,e3), (e4,e5) — exactly Figure 6
        assert big.twin[0] == 1 and big.twin[1] == 0
        assert big.twin[2] == 3 and big.twin[3] == 2
        assert big.twin[4] == 5 and big.twin[5] == 4
        # twins inside B1*: (e5,e6), (e7,e8)
        assert small.twin[5] == 6 and small.twin[6] == 5
        assert small.twin[7] == 8 and small.twin[8] == 7

    def test_twin_pairing_lemma4(self, medium_random):
        index = BEIndex.build(medium_random)
        for bloom in index.blooms.values():
            assert len(bloom.twin) == 2 * bloom.k
            for edge, twin in bloom.twin.items():
                assert bloom.twin[twin] == edge
                assert edge != twin

    def test_twins_form_wedges(self, medium_random):
        g = medium_random
        index = BEIndex.build(g)
        for bloom in index.blooms.values():
            for edge, twin in bloom.twin.items():
                u1, v1 = g.edge_endpoints(edge)
                u2, v2 = g.edge_endpoints(twin)
                # the twin shares exactly the wedge's middle vertex
                assert (u1 == u2) != (v1 == v2)

    def test_support_equals_bloom_contributions_lemma2(self, medium_random):
        index = BEIndex.build(medium_random)
        recomputed = np.zeros_like(index.support)
        for bloom in index.blooms.values():
            for edge in bloom.twin:
                recomputed[edge] += bloom.k - 1
        np.testing.assert_array_equal(recomputed, index.support)

    def test_index_size_lemma6_bound(self, medium_random):
        g = medium_random
        index = BEIndex.build(g)
        bound = sum(
            min(g.degree_upper(u), g.degree_lower(v)) for u, v in g.edges()
        )
        # each priority-obeyed wedge contributes at most 2 links
        assert index.num_links <= 2 * bound

    def test_planted_bloom_single_bloom(self):
        g = planted_bloom(7)
        index = BEIndex.build(g)
        assert index.num_blooms == 1
        bloom = next(iter(index.blooms.values()))
        assert bloom.k == 7
        assert bloom.butterfly_count == 21

    def test_validate_passes(self, medium_random):
        BEIndex.build(medium_random).validate()

    def test_validate_detects_broken_backlink(self, medium_random):
        index = BEIndex.build(medium_random)
        bloom = next(iter(index.blooms.values()))
        edge = next(iter(bloom.twin))
        index.edge_blooms[edge].discard(bloom.bloom_id)
        with pytest.raises(AssertionError):
            index.validate()


class TestCompressedConstruction:
    def test_assigned_edges_not_indexed(self, medium_random):
        g = medium_random
        assigned = np.zeros(g.num_edges, dtype=bool)
        assigned[::3] = True
        index = BEIndex.build(g, assigned=assigned)
        for eid in np.nonzero(assigned)[0]:
            assert int(eid) not in index.edge_blooms
            for bloom in index.blooms.values():
                assert int(eid) not in bloom.twin

    def test_supports_unchanged_by_compression(self, medium_random):
        g = medium_random
        assigned = np.zeros(g.num_edges, dtype=bool)
        assigned[: g.num_edges // 2] = True
        full = BEIndex.build(g)
        compressed = BEIndex.build(g, assigned=assigned)
        # bloom structure and supports are identical; only L(I)/E(I) shrink
        np.testing.assert_array_equal(full.support, compressed.support)
        assert full.num_blooms == compressed.num_blooms
        assert compressed.num_links <= full.num_links

    def test_all_assigned_empty_index_edges(self, medium_random):
        assigned = np.ones(medium_random.num_edges, dtype=bool)
        index = BEIndex.build(medium_random, assigned=assigned)
        assert index.num_indexed_edges == 0


class TestRemoveEdge:
    def _peel_invariant_check(self, g):
        """Peel min-support edges one by one; check the truss invariant.

        At every step, for each remaining edge: the stored support is at
        least the true support in the remaining graph, with equality
        whenever the stored support exceeds the current peel level.
        """
        index = BEIndex.build(g)
        alive = set(range(g.num_edges))
        level = 0
        while alive:
            eid = min(alive, key=lambda e: int(index.support[e]))
            level = max(level, int(index.support[eid]))
            index.remove_edge(eid)
            alive.discard(eid)
            index.validate()
            sub, orig = g.subgraph_from_edge_ids(sorted(alive))
            true_support = count_per_edge(sub)
            for sub_eid, old_eid in enumerate(orig):
                stored = int(index.support[old_eid])
                true = int(true_support[sub_eid])
                assert stored >= true
                if stored > level:
                    assert stored == true

    @pytest.mark.parametrize("seed", range(4))
    def test_full_peel_invariant_random(self, seed):
        g = erdos_renyi_bipartite(7, 7, 28, seed=seed)
        self._peel_invariant_check(g)

    def test_full_peel_invariant_figure4(self, figure4):
        self._peel_invariant_check(figure4)

    def test_remove_min_edge_exact_update(self, medium_random):
        # removing a globally minimal edge updates every strictly-above
        # neighbour to its exact new support
        g = medium_random
        index = BEIndex.build(g)
        support_before = index.support.copy()
        eid = int(np.argmin(index.support))
        index.remove_edge(eid)
        remaining = [e for e in range(g.num_edges) if e != eid]
        sub, orig = g.subgraph_from_edge_ids(remaining)
        true_support = count_per_edge(sub)
        for sub_eid, old_eid in enumerate(orig):
            if support_before[old_eid] > support_before[eid]:
                assert int(index.support[old_eid]) == int(true_support[sub_eid])

    def test_remove_edge_shrinks_bloom(self):
        g = planted_bloom(5)
        index = BEIndex.build(g)
        bloom = next(iter(index.blooms.values()))
        assert bloom.k == 5
        index.remove_edge(0)
        assert bloom.k == 4
        assert bloom.butterfly_count == 6

    def test_bloom_pruned_at_k1(self):
        g = planted_bloom(2)  # one butterfly
        index = BEIndex.build(g)
        assert index.num_blooms == 1
        index.remove_edge(0)
        # the 2-bloom degenerates to a single wedge and is dropped entirely
        assert index.num_blooms == 0
        assert index.num_links == 0

    def test_remove_untracked_edge_is_noop(self, figure4):
        index = BEIndex.build(figure4)
        # pendant edges carry no butterflies and are not in L(I)
        pendant = figure4.edge_id(2, 3)
        before = index.support.copy()
        index.remove_edge(pendant)
        np.testing.assert_array_equal(before, index.support)

    def test_update_counter_records(self, medium_random):
        from repro.utils.stats import UpdateCounter

        index = BEIndex.build(medium_random)
        counter = UpdateCounter()
        eid = int(np.argmin(index.support))
        index.remove_edge(eid, counter=counter)
        assert counter.total >= 0  # counted only strictly-updated edges

    def test_on_change_callback(self, medium_random):
        index = BEIndex.build(medium_random)
        eid = int(np.argmin(index.support))
        changed = {}
        index.remove_edge(eid, on_change=lambda e, v: changed.__setitem__(e, v))
        for e, v in changed.items():
            assert int(index.support[e]) == v


class TestBatchOperations:
    def test_detach_and_apply_matches_sequential(self):
        # A batch of equal-support edges through detach/apply must leave the
        # same supports as sequential Algorithm 2 removals (both floored).
        g = erdos_renyi_bipartite(8, 8, 40, seed=11)
        index_batch = BEIndex.build(g)
        index_seq = BEIndex.build(g)

        start = int(index_batch.support.min())
        batch = [
            e for e in range(g.num_edges) if index_batch.support[e] == start
        ]
        removal_counts = {}
        for eid in batch:
            index_batch.detach_edge(eid, removal_counts, floor=start)
        index_batch.apply_bloom_batch(removal_counts, floor=start)
        index_batch.validate()

        for eid in batch:
            index_seq.remove_edge(eid)
        index_seq.validate()

        alive = [e for e in range(g.num_edges) if e not in set(batch)]
        for e in alive:
            assert index_batch.support[e] == index_seq.support[e]

    def test_detach_counts_pairs_once(self):
        g = planted_bloom(4)
        index = BEIndex.build(g)
        bloom = next(iter(index.blooms.values()))
        removal_counts = {}
        # remove a twin pair: both ends of one wedge -> one pair counted
        e = next(iter(bloom.twin))
        t = bloom.twin[e]
        index.detach_edge(e, removal_counts, floor=0)
        index.detach_edge(t, removal_counts, floor=0)
        assert removal_counts == {bloom.bloom_id: 1}

    def test_apply_bloom_batch_shrinks_k(self):
        g = planted_bloom(6)
        index = BEIndex.build(g)
        bloom = next(iter(index.blooms.values()))
        removal_counts = {}
        edges = list(bloom.twin)
        index.detach_edge(edges[0], removal_counts, floor=0)
        index.apply_bloom_batch(removal_counts, floor=0)
        assert bloom.k == 5


@settings(max_examples=30, deadline=None)
@given(bipartite_graphs(max_upper=7, max_lower=7, max_edges=30))
def test_build_support_property(graph):
    index = BEIndex.build(graph)
    np.testing.assert_array_equal(index.support, count_per_edge(graph))
    index.validate()
    # links come in pairs within blooms, 2k links per k-wedge bloom
    for bloom in index.blooms.values():
        assert len(bloom.twin) == 2 * bloom.k


# ------------------------------------------- kernel build vs per-start oracle


def index_fields(index):
    """Every field the removal operations read, in iteration order."""
    return {
        "bloom ids": list(index.blooms),
        "blooms": [
            (b.bloom_id, b.anchor, b.partner, b.k) for b in index.blooms.values()
        ],
        "twin": [list(b.twin.items()) for b in index.blooms.values()],
        "edge_blooms": [
            (edge, list(ids)) for edge, ids in index.edge_blooms.items()
        ],
        "support": index.support.tolist(),
    }


def assert_matches_oracle(graph, **kwargs):
    got = BEIndex.build(graph, **kwargs)
    want = scalar_be_index(graph, **kwargs)
    assert got.support.dtype == want.support.dtype
    for (name, a), b in zip(index_fields(got).items(), index_fields(want).values()):
        assert a == b, f"{name} differs from the per-start oracle"
    got.validate()


@pytest.mark.parametrize("name", dataset_names())
def test_dataset_index_matches_oracle(name):
    graph = load_dataset(name)
    assert_matches_oracle(graph)
    assigned = np.random.default_rng(5).random(graph.num_edges) < 0.3
    assert_matches_oracle(graph, assigned=assigned)


@settings(max_examples=60, deadline=None)
@given(bipartite_graphs(max_upper=8, max_lower=8, max_edges=35), st.data())
def test_hypothesis_index_matches_oracle(graph, data):
    priorities = data.draw(custom_priorities(graph.num_vertices))
    assigned = np.asarray(
        data.draw(
            st.lists(
                st.booleans(), min_size=graph.num_edges, max_size=graph.num_edges
            )
        ),
        dtype=bool,
    )
    if len(set(priorities.tolist())) < graph.num_vertices:
        # Definition 7 is a strict order: the wedge kernel refuses ties.
        with pytest.raises(ValueError, match="distinct"):
            BEIndex.build(graph, priorities=priorities)
    else:
        assert_matches_oracle(graph, priorities=priorities)
        assert_matches_oracle(graph, priorities=priorities, assigned=assigned)
    assert_matches_oracle(graph, assigned=assigned)


@pytest.mark.parametrize(
    "graph",
    [
        BipartiteGraph(0, 0),
        BipartiteGraph(3, 4),
        BipartiteGraph(9, 7, [(0, 0), (0, 1), (1, 0), (1, 1), (5, 4), (6, 4)]),
        BipartiteGraph(1, 30, [(0, v) for v in range(30)]),
        BipartiteGraph(30, 1, [(u, 0) for u in range(30)]),
        complete_biclique(5, 5),
        BipartiteGraph(5, 6, [(i, i) for i in range(5)] + [(0, 5), (1, 5)]),
    ],
    ids=[
        "empty", "edgeless", "isolated", "upper-hub-star", "lower-hub-star",
        "K55", "butterfly-free",
    ],
)
def test_degenerate_index_matches_oracle(graph):
    assert_matches_oracle(graph)
    assert_matches_oracle(graph, assigned=np.arange(graph.num_edges) % 2 == 0)


PEELERS = {"bu": bit_bu, "bu++": bit_bu_plus_plus, "pc": bit_pc}


#: ``UpdateCounter.total`` of each peeler on the oracle index, recorded
#: from ``scalar_be_index`` once, for the datasets where that peel takes
#: seconds.  ``test_dataset_index_matches_oracle`` holds the two indices
#: bitwise equal and the peel is deterministic, so a live oracle peel there
#: would only repeat the kernel-index peel.
ORACLE_UPDATE_TOTALS = {
    "twitter": {"bu": 387021, "bu++": 284767, "pc": 51795},
    "d-label": {"bu": 635350, "bu++": 318783, "pc": 51120},
    "d-style": {"bu": 1439789, "bu++": 54788, "pc": 3757},
    "wiki-it": {"bu": 1225281, "bu++": 181153, "pc": 47208},
    "wiki-fr": {"bu": 846606, "bu++": 293786, "pc": 56605},
    "delicious": {"bu": 1823944, "bu++": 629465, "pc": 109285},
    "live-journal": {"bu": 2277664, "bu++": 1713302, "pc": 322747},
    "wiki-en": {"bu": 1061441, "bu++": 739955, "pc": 97855},
    "tracker": {"bu": 2398709, "bu++": 1997332, "pc": 226375},
}


@pytest.mark.parametrize("algorithm", sorted(PEELERS))
@pytest.mark.parametrize("name", dataset_names())
def test_update_totals_match_oracle_index(name, algorithm, monkeypatch):
    """Bloom ids and link order fix the order of support updates, and so
    the update counts of the figure benches."""
    graph = load_dataset(name)
    peel = PEELERS[algorithm]
    got = UpdateCounter()
    phi = peel(graph, counter=got).phi
    if name in ORACLE_UPDATE_TOTALS:
        np.testing.assert_array_equal(phi, bit_bu_csr(graph).phi)
        assert got.total == ORACLE_UPDATE_TOTALS[name][algorithm]
        return
    monkeypatch.setattr(
        BEIndex,
        "build",
        classmethod(lambda cls, g, **kwargs: scalar_be_index(g, **kwargs)),
    )
    want = UpdateCounter()
    np.testing.assert_array_equal(peel(graph, counter=want).phi, phi)
    assert got.total == want.total
