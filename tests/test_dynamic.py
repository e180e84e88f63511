"""Incremental butterfly-support maintenance under edge updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.butterfly.counting import count_per_edge
from repro.datasets import load_dataset
from repro.graph.bipartite import BipartiteGraph
from repro.maintenance.dynamic import DynamicBipartiteGraph


def _assert_supports_exact(dyn: DynamicBipartiteGraph) -> None:
    """Maintained supports must equal a fresh static recount."""
    snapshot = dyn.snapshot()
    static = count_per_edge(snapshot)
    for eid, (u, v) in enumerate(snapshot.edges()):
        assert dyn.support_of(u, v) == int(static[eid]), (u, v)


class TestBasics:
    def test_single_butterfly_lifecycle(self):
        dyn = DynamicBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
        assert dyn.support_of(0, 0) == 0
        created = dyn.insert_edge(1, 1)
        assert created == 1
        assert all(dyn.support_of(u, v) == 1 for u, v in dyn.supports())
        destroyed = dyn.delete_edge(1, 1)
        assert destroyed == 1
        assert dyn.support_of(0, 0) == 0

    def test_duplicate_insert_rejected(self):
        dyn = DynamicBipartiteGraph(1, 1, [(0, 0)])
        with pytest.raises(ValueError):
            dyn.insert_edge(0, 0)

    def test_delete_missing_rejected(self):
        dyn = DynamicBipartiteGraph(1, 1)
        with pytest.raises(ValueError, match=r"edge \(0, 0\) not present"):
            dyn.delete_edge(0, 0)

    def test_out_of_range_insert(self):
        dyn = DynamicBipartiteGraph(1, 1)
        with pytest.raises(ValueError):
            dyn.insert_edge(1, 0)

    def test_error_surface_is_uniform_valueerror(self):
        """insert/delete/support_of all raise ValueError with range checks."""
        dyn = DynamicBipartiteGraph(2, 2, [(0, 0)])
        for method in (dyn.insert_edge, dyn.delete_edge, dyn.support_of):
            with pytest.raises(ValueError, match="upper endpoint 5 out of range"):
                method(5, 0)
            with pytest.raises(ValueError, match="lower endpoint -1 out of range"):
                method(0, -1)
        with pytest.raises(ValueError, match=r"edge \(1, 1\) not present"):
            dyn.delete_edge(1, 1)
        with pytest.raises(ValueError, match=r"edge \(1, 1\) not present"):
            dyn.support_of(1, 1)
        with pytest.raises(ValueError, match="already present"):
            dyn.insert_edge(0, 0)

    def test_vertex_growth(self):
        dyn = DynamicBipartiteGraph(1, 1, [(0, 0)])
        u = dyn.add_upper_vertex()
        v = dyn.add_lower_vertex()
        dyn.insert_edge(u, 0)
        dyn.insert_edge(u, v)
        dyn.insert_edge(0, v)
        # now a complete 2x2: one butterfly
        assert dyn.support_of(0, 0) == 1

    def test_snapshot_matches_state(self):
        dyn = DynamicBipartiteGraph(2, 3, [(0, 0), (1, 2)])
        snap = dyn.snapshot()
        assert sorted(snap.edges()) == [(0, 0), (1, 2)]

    def test_decompose_snapshot(self):
        dyn = DynamicBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        result = dyn.decompose()
        assert result.max_k == 1


class TestExactness:
    def test_insert_sequence(self):
        dyn = DynamicBipartiteGraph(5, 5)
        rng = np.random.default_rng(3)
        pairs = [(int(u), int(v)) for u in range(5) for v in range(5)]
        rng.shuffle(pairs)
        for u, v in pairs[:18]:
            dyn.insert_edge(u, v)
            _assert_supports_exact(dyn)

    def test_mixed_sequence(self):
        dyn = DynamicBipartiteGraph(4, 4)
        ops = [
            ("+", 0, 0), ("+", 0, 1), ("+", 1, 0), ("+", 1, 1),
            ("+", 2, 0), ("+", 2, 1), ("-", 0, 1), ("+", 3, 3),
            ("+", 2, 3), ("-", 1, 1), ("+", 0, 1),
        ]
        for op, u, v in ops:
            if op == "+":
                dyn.insert_edge(u, v)
            else:
                dyn.delete_edge(u, v)
            _assert_supports_exact(dyn)

    def test_insert_then_delete_is_identity(self):
        base = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
        dyn = DynamicBipartiteGraph(3, 3, base)
        before = dyn.supports()
        created = dyn.insert_edge(2, 0)
        destroyed = dyn.delete_edge(2, 0)
        assert created == destroyed
        assert dyn.supports() == before

    def test_decomposition_tracks_updates(self):
        dyn = DynamicBipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert dyn.decompose().max_k == 1
        dyn.insert_edge(2, 0)
        dyn.insert_edge(2, 1)
        assert dyn.decompose().max_k == 2
        dyn.delete_edge(0, 0)
        assert dyn.decompose().max_k == 1


class TestRebuild:
    """rebuild(): the shared snapshot + re-decompose + re-register path."""

    def test_rebuild_returns_fresh_registered_artifact(self):
        dyn = DynamicBipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
        artifact = dyn.rebuild()
        assert artifact.max_k == 1
        assert not artifact.stale
        dyn.insert_edge(2, 0)
        dyn.insert_edge(2, 1)
        # Registered: the update stream invalidated it ...
        assert artifact.stale
        # ... and one more rebuild resynchronizes.
        fresh = dyn.rebuild()
        assert fresh.max_k == 2
        assert not fresh.stale

    def test_rebuild_register_false_stays_unsubscribed(self):
        dyn = DynamicBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
        artifact = dyn.rebuild(register=False)
        dyn.insert_edge(1, 1)
        assert not artifact.stale

    def test_rebuild_from_pretaken_snapshot(self):
        dyn = DynamicBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
        snap = dyn.snapshot()
        dyn.insert_edge(1, 1)  # mutation after the pin
        artifact = dyn.rebuild(snapshot=snap)
        assert artifact.graph.num_edges == 3  # reflects the pinned state
        assert dyn.num_edges == 4

    def test_rebuild_algorithms_agree(self):
        dyn = DynamicBipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
        phi_default = list(dyn.rebuild(register=False).phi)
        phi_csr = list(dyn.rebuild("bit-bu-csr", register=False).phi)
        assert phi_default == phi_csr


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        min_size=1,
        max_size=30,
    )
)
def test_random_update_stream_property(ops):
    """Toggling random edges keeps maintained supports exact throughout."""
    dyn = DynamicBipartiteGraph(5, 5)
    for u, v in ops:
        if dyn.has_edge(u, v):
            dyn.delete_edge(u, v)
        else:
            dyn.insert_edge(u, v)
    _assert_supports_exact(dyn)


# ------------------------------------------------------------------ seeding


def _replayed(num_upper, num_lower, edges):
    """The reference mirror: an empty graph plus one insert per edge."""
    dyn = DynamicBipartiteGraph(num_upper, num_lower)
    for u, v in edges:
        dyn.insert_edge(u, v)
    return dyn


def _assert_same_mirror(got: DynamicBipartiteGraph, ref: DynamicBipartiteGraph):
    """Equal state, down to set iteration order and support key order."""
    assert (got.num_upper, got.num_lower) == (ref.num_upper, ref.num_lower)
    assert [list(s) for s in got._adj_u] == [list(s) for s in ref._adj_u]
    assert [list(s) for s in got._adj_l] == [list(s) for s in ref._adj_l]
    assert list(got._support.items()) == list(ref._support.items())


def _assert_same_churn(got, ref, num_upper, num_lower, seed, batches=4):
    """One random apply_batch sequence gives equal φ and equal reports."""
    got.enable_incremental()
    ref.enable_incremental()
    rng = np.random.default_rng(seed)
    for _ in range(batches):
        present = list(ref._support)
        picks = rng.permutation(len(present))[: rng.integers(0, 4)]
        deletes = [present[i] for i in picks]
        inserts = []
        if num_upper and num_lower:
            for _ in range(rng.integers(0, 4)):
                e = (int(rng.integers(num_upper)), int(rng.integers(num_lower)))
                if not ref.has_edge(*e) and e not in inserts:
                    inserts.append(e)
        out_got = got.apply_batch(inserts, deletes)
        out_ref = ref.apply_batch(inserts, deletes)
        assert out_got.incremental == out_ref.incremental
        assert [list(r.changed.items()) for r in out_got.reports] == [
            list(r.changed.items()) for r in out_ref.reports
        ]
        assert got.tracker.phi_map() == ref.tracker.phi_map()
    _assert_same_mirror(got, ref)


def _check_seeding(num_upper, num_lower, edges, seed=0):
    """from_graph and the edges constructor both equal the replayed mirror."""
    ref = _replayed(num_upper, num_lower, edges)
    graph = BipartiteGraph(num_upper, num_lower, edges)
    for seeded in (
        DynamicBipartiteGraph.from_graph(graph),
        DynamicBipartiteGraph(num_upper, num_lower, edges),
    ):
        _assert_same_mirror(seeded, ref)
        _assert_same_churn(
            seeded, _replayed(num_upper, num_lower, edges),
            num_upper, num_lower, seed,
        )


class TestSeeding:
    """Array seeding (from_graph / edges constructor) vs the insert replay."""

    @pytest.mark.parametrize(
        "num_upper, num_lower, edges",
        [
            pytest.param(3, 4, [], id="m=0"),
            pytest.param(0, 5, [], id="empty-upper"),
            pytest.param(5, 0, [], id="empty-lower"),
            pytest.param(
                1, 12, [(0, v) for v in range(12)], id="single-upper-hub"
            ),
            pytest.param(
                12, 1, [(u, 0) for u in range(12)], id="single-lower-hub"
            ),
            pytest.param(
                5, 5, [(u, v) for u in range(5) for v in range(5)], id="K5,5"
            ),
            pytest.param(
                20, 20,
                [(u, v) for u in range(20) for v in range(20) if (u * 7 + v) % 3],
                id="dense-20x20",
            ),
            pytest.param(
                6, 40,
                [((v * 5) % 6, (v * 17) % 40) for v in range(40)]
                + [((v * 5 + 1) % 6, (v * 17) % 40) for v in range(40)][::-1],
                id="unsorted-hash-colliding",
            ),
        ],
    )
    def test_degenerate_shapes(self, num_upper, num_lower, edges):
        _check_seeding(num_upper, num_lower, edges)

    def test_unsorted_input_order_is_kept(self):
        edges = [(2, 1), (0, 0), (1, 1), (0, 1), (2, 0), (1, 0)]
        dyn = DynamicBipartiteGraph(3, 2, edges)
        assert list(dyn.supports()) == edges
        _check_seeding(3, 2, edges)

    def test_dataset_graph(self):
        graph = load_dataset("github")
        _assert_same_mirror(
            DynamicBipartiteGraph.from_graph(graph),
            _replayed(graph.num_upper, graph.num_lower, graph.edges()),
        )

    @pytest.mark.parametrize(
        "edges, match",
        [
            ([(0, 0), (1, 1), (0, 0)], r"duplicate edge \(0, 0\)"),
            ([(0, 0), (2, 1)], "upper endpoint 2 out of range"),
            ([(0, 3)], "lower endpoint 3 out of range"),
            ([(-1, 0)], "upper endpoint -1 out of range"),
        ],
    )
    def test_constructor_rejects_bad_edges(self, edges, match):
        with pytest.raises(ValueError, match=match):
            DynamicBipartiteGraph(2, 2, edges)

    def test_negative_layer_size_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DynamicBipartiteGraph(-1, 2)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 7),
    st.integers(0, 7),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=40),
    st.integers(0, 2**16),
)
def test_seeding_matches_replay_property(num_upper, num_lower, pairs, seed):
    """Random (unsorted, possibly empty-layer) graphs seed like a replay."""
    edges = list(
        dict.fromkeys((u, v) for u, v in pairs if u < num_upper and v < num_lower)
    )
    _check_seeding(num_upper, num_lower, edges, seed)
