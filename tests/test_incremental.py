"""Localized φ repair: exactness, regions, fallback, patch-in-place."""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.api import bitruss_decomposition
from repro.core.peeling_engine import NO_EXPIRY, peel_region
from repro.datasets import load_dataset
from repro.graph.bipartite import BipartiteGraph
from repro.maintenance import (
    AdaptiveBudget,
    DirtyTrackerError,
    DynamicBipartiteGraph,
    IncrementalBitruss,
)
from repro.server import ArtifactRegistry, UpdateManager
from repro.service import DecompositionArtifact, QueryEngine, build_artifact

ALGORITHM = "bit-bu-csr"


def fresh_phi(dyn):
    """Recompute φ from scratch, keyed by endpoints."""
    graph = dyn.snapshot()
    result = bitruss_decomposition(graph, algorithm=ALGORITHM)
    return {
        graph.edge_endpoints(e): int(result.phi[e])
        for e in range(graph.num_edges)
    }


def toggle(dyn, tracker, u, v):
    """Delete ``(u, v)`` if present, else insert it: a batch of one op."""
    if dyn.has_edge(u, v):
        return tracker.apply_batch(deletes=[(u, v)]).reports[0]
    return tracker.apply_batch(inserts=[(u, v)]).reports[0]


def assert_exact(tracker):
    """Tracker φ must be bitwise identical to a full recompute."""
    graph, phi = tracker.phi_snapshot()
    result = bitruss_decomposition(graph, algorithm=ALGORITHM)
    assert np.array_equal(phi, result.phi), (
        "incremental phi diverged from recompute"
    )


# ------------------------------------------------------------- region peel


class TestPeelRegion:
    def test_empty_region(self):
        assert peel_region(0, [], []).tolist() == []

    def test_isolated_edges(self):
        # No butterflies at all: every edge settles at phi = 0.
        assert peel_region(3, [], []).tolist() == [0, 0, 0]

    def test_single_interior_butterfly(self):
        # Four edges of one butterfly, all interior: classic phi = 1.
        flies = [[0, 1, 2, 3]]
        assert peel_region(4, flies, [NO_EXPIRY]).tolist() == [1, 1, 1, 1]

    def test_exterior_expiry_caps_support(self):
        # One interior edge in two butterflies whose exteriors settle at
        # phi 0 and 5: the level-0 expiry removes the first butterfly
        # before the floor rises, so the edge peels at 1, not 2.
        flies = [[0], [0]]
        assert peel_region(1, flies, [0, 5]).tolist() == [1]

    def test_expiry_never_fires_above_settle_level(self):
        # Expiry far above the edge's own level changes nothing.
        flies = [[0]]
        assert peel_region(1, flies, [100]).tolist() == [1]


# --------------------------------------------------------------- exactness


class TestExactness:
    def test_insert_completing_butterfly(self):
        dyn = DynamicBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
        tracker = dyn.enable_incremental()
        report = tracker.apply_batch(inserts=[(1, 1)]).reports[0]
        assert report.op == "insert"
        assert report.butterflies == 1
        assert report.changed[(1, 1)] == (-1, 1)
        assert report.changed[(0, 0)] == (0, 1)
        assert tracker.phi_of(0, 0) == 1
        assert_exact(tracker)

    def test_delete_breaking_butterfly(self):
        dyn = DynamicBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        tracker = dyn.enable_incremental()
        report = tracker.apply_batch(deletes=[(0, 1)]).reports[0]
        assert report.op == "delete"
        assert report.butterflies == 1
        assert tracker.phi_of(0, 0) == 0
        assert_exact(tracker)

    def test_insert_toggle_restores_phi(self):
        dyn = DynamicBipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
        tracker = dyn.enable_incremental()
        before = tracker.phi_map()
        tracker.apply_batch(inserts=[(2, 0)])
        tracker.apply_batch(deletes=[(2, 0)])
        assert tracker.phi_map() == before

    def test_cascading_rise(self):
        # K_{2,4} minus one edge: re-inserting it lifts every edge to 3.
        edges = [(u, v) for u in range(2) for v in range(4)]
        edges.remove((1, 3))
        dyn = DynamicBipartiteGraph(2, 4, edges)
        tracker = dyn.enable_incremental()
        report = tracker.apply_batch(inserts=[(1, 3)]).reports[0]
        assert tracker.phi_of(0, 0) == 3
        assert report.region_size == len(edges) + 1
        assert_exact(tracker)

    def test_seeded_churn_small_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            dyn = DynamicBipartiteGraph(5, 5)
            tracker = dyn.enable_incremental()
            for _ in range(30):
                u, v = int(rng.integers(0, 5)), int(rng.integers(0, 5))
                toggle(dyn, tracker, u, v)
                assert_exact(tracker)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        min_size=1,
        max_size=25,
    )
)
def test_random_churn_property(ops):
    """Hypothesis: toggling random edges keeps φ exact after every step."""
    dyn = DynamicBipartiteGraph(5, 5)
    tracker = dyn.enable_incremental()
    for u, v in ops:
        toggle(dyn, tracker, u, v)
        assert_exact(tracker)


@pytest.mark.parametrize("name", ["marvel", "condmat"])
def test_bundled_dataset_churn(name):
    """Interleaved insert/delete churn on bundled datasets stays bitwise
    exact against a recompute after every step (ISSUE 5 acceptance)."""
    graph = load_dataset(name)
    result = bitruss_decomposition(graph, algorithm=ALGORITHM)
    dyn = DynamicBipartiteGraph(
        graph.num_upper, graph.num_lower, list(graph.edges())
    )
    tracker = dyn.enable_incremental(
        {
            graph.edge_endpoints(e): int(result.phi[e])
            for e in range(graph.num_edges)
        }
    )
    rng = np.random.default_rng(23)
    edges = list(graph.edges())
    steps = 0
    while steps < 8:
        u, v = edges[int(rng.integers(0, len(edges)))]
        toggle(dyn, tracker, u, v)
        assert_exact(tracker)
        steps += 1


# ------------------------------------------------------- region + fallback


class TestRegionsAndFallback:
    def test_support_zero_ops_touch_nothing(self):
        dyn = DynamicBipartiteGraph(3, 3, [(0, 0), (1, 1), (2, 2)])
        tracker = dyn.enable_incremental()
        report = tracker.apply_batch(inserts=[(0, 1)]).reports[0]
        assert report.butterflies == 0
        assert report.region_size == 0
        report = tracker.apply_batch(deletes=[(0, 1)]).reports[0]
        assert report.region_size == 0
        assert_exact(tracker)

    def test_budget_exceeded_marks_dirty(self):
        dyn = DynamicBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
        tracker = dyn.enable_incremental()
        batch = tracker.apply_batch(
            inserts=[(1, 1)], max_region_edges=0, predict=False
        )
        assert batch.budget_aborts == 1
        report = batch.reports[0]
        assert report.fallback
        assert tracker.dirty
        # The mutation itself is applied; supports stay exact.
        assert dyn.has_edge(1, 1)
        assert dyn.support_of(0, 0) == 1
        with pytest.raises(DirtyTrackerError):
            tracker.phi_of(0, 0)
        with pytest.raises(DirtyTrackerError):
            tracker.phi_snapshot()
        # Further mutations keep applying without repair ...
        report = tracker.apply_batch(deletes=[(0, 1)]).reports[0]
        assert report.fallback
        # ... until a reseed restores service.
        tracker.reseed(fresh_phi(dyn))
        assert not tracker.dirty
        assert_exact(tracker)

    def test_rebuild_reseeds_attached_tracker(self):
        dyn = DynamicBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
        tracker = dyn.enable_incremental()
        tracker.apply_batch(
            inserts=[(1, 1)], max_region_edges=0, predict=False
        )
        assert tracker.dirty
        dyn.rebuild()
        assert not tracker.dirty
        assert tracker.phi_of(1, 1) == 1
        assert_exact(tracker)

    def test_reseed_rejects_wrong_coverage(self):
        dyn = DynamicBipartiteGraph(2, 2, [(0, 0)])
        tracker = dyn.enable_incremental()
        with pytest.raises(ValueError, match="cover exactly"):
            tracker.reseed({(0, 0): 0, (1, 1): 0})

    def test_delete_region_descends_in_phi(self):
        # A high-phi core next to a low-phi fringe: deleting a fringe edge
        # must not flood the core.
        edges = [(u, v) for u in range(4) for v in range(4)]  # K44 core
        edges += [(4, 0), (4, 1), (5, 0), (5, 1)]  # 2x2 fringe on v=0,1
        dyn = DynamicBipartiteGraph(6, 4, edges)
        tracker = dyn.enable_incremental()
        report = tracker.apply_batch(deletes=[(4, 0)]).reports[0]
        # The fringe edges sit far below the K44 core's phi; the repair
        # region stays in the fringe.
        assert report.region_size <= 6
        assert_exact(tracker)


# --------------------------------------------------------- patch-in-place


class TestPatchInPlace:
    def make_two_component_engine(self):
        # Component A: an open 2x2 (phi 0); component B: K_{3,3} (phi 4).
        edges_a = [(0, 0), (0, 1), (1, 0)]
        edges_b = [(u, v) for u in (2, 3, 4) for v in (2, 3, 4)]
        dyn = DynamicBipartiteGraph(5, 5, edges_a + edges_b)
        dyn.enable_incremental()
        artifact = build_artifact(dyn.snapshot(), algorithm=ALGORITHM)
        engine = QueryEngine(artifact)
        dyn.register_artifact(engine)
        return dyn, engine

    def test_apply_patches_engine_instead_of_stale(self):
        dyn, engine = self.make_two_component_engine()
        outcome = dyn.apply_batch(inserts=[(1, 1)])
        assert outcome.incremental
        assert outcome.patched == 1
        assert outcome.butterfly_delta == 1
        assert not engine.stale  # no StaleArtifactError for readers
        assert engine.phi_of(1, 1) == 1
        fresh = QueryEngine(build_artifact(dyn.snapshot(), algorithm=ALGORITHM))
        assert engine.phi_histogram() == fresh.phi_histogram()
        assert engine.stats()["max_k"] == fresh.stats()["max_k"]

    def test_engine_and_hierarchy_parity_after_churn(self):
        dyn, engine = self.make_two_component_engine()
        rng = np.random.default_rng(3)
        for _ in range(12):
            u, v = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            if dyn.has_edge(u, v):
                outcome = dyn.apply_batch(deletes=[(u, v)])
            else:
                outcome = dyn.apply_batch(inserts=[(u, v)])
            assert outcome.incremental
            fresh = QueryEngine(
                build_artifact(dyn.snapshot(), algorithm=ALGORITHM)
            )
            assert engine.phi_histogram() == fresh.phi_histogram()
            assert engine.stats()["max_k"] == fresh.stats()["max_k"]
            for k in (1, 2, fresh.max_phi):
                assert engine.k_bitruss(k) == fresh.k_bitruss(k)
            for upper in range(5):
                assert engine.max_k(upper=upper) == fresh.max_k(upper=upper)
                if engine.max_k(upper=upper) > 0:
                    ours = engine.community(1, upper=upper)
                    theirs = fresh.community(1, upper=upper)
                    assert sorted(ours.edges) == sorted(theirs.edges)

    def test_selective_cache_invalidation(self):
        dyn, engine = self.make_two_component_engine()
        # Warm vertex-keyed entries on the untouched component B ...
        community_b = engine.community(4, upper=2)
        max_k_b = engine.max_k(upper=3)
        # ... and id-keyed entries that must always drop.
        engine.k_bitruss(4)
        engine.phi_histogram()
        gid_2 = engine.graph.gid_of_upper(2)
        gid_3 = engine.graph.gid_of_upper(3)

        outcome = dyn.apply_batch(inserts=[(1, 1)])  # completes A's butterfly
        assert outcome.incremental
        assert outcome.max_affected_k == 1

        cached_keys = set(engine._cache)
        assert ("community", 4, gid_2) in cached_keys
        assert ("max_k", gid_3) in cached_keys
        assert not any(key[0] == "k_bitruss" for key in cached_keys)
        assert not any(key[0] == "phi_histogram" for key in cached_keys)

        # Surviving entries still answer correctly.
        hits_before = engine.cache_info()["hits"]
        assert engine.max_k(upper=3) == max_k_b
        assert sorted(engine.community(4, upper=2).edges) == sorted(
            community_b.edges
        )
        assert engine.cache_info()["hits"] == hits_before + 2
        fresh = QueryEngine(build_artifact(dyn.snapshot(), algorithm=ALGORITHM))
        assert engine.max_k(upper=3) == fresh.max_k(upper=3)

    def test_apply_plain_path_leaves_watchers_stale(self):
        dyn, engine = self.make_two_component_engine()
        outcome = dyn.apply_batch(inserts=[(1, 1)], incremental=False)
        assert not outcome.incremental
        assert outcome.patched == 0
        assert engine.stale

    def test_apply_fallback_leaves_watchers_stale(self):
        dyn, engine = self.make_two_component_engine()
        outcome = dyn.apply_batch(inserts=[(1, 1)], max_region_fraction=1e-9)
        assert not outcome.incremental
        assert outcome.reports[-1].fallback
        assert engine.stale
        assert dyn.tracker.dirty

    def test_apply_deletes_before_inserts(self):
        dyn, engine = self.make_two_component_engine()
        # Same edge deleted and re-inserted in one batch: net no-op.
        before = dyn.tracker.phi_map()
        outcome = dyn.apply_batch(inserts=[(2, 2)], deletes=[(2, 2)])
        assert outcome.incremental
        assert dyn.tracker.phi_map() == before

    def test_delete_with_no_phi_changes_still_invalidates_its_levels(self):
        """A deleted edge whose removal moves no other φ must still drop
        community caches at its own former levels — those k-bitrusses lost
        the edge itself (regression: max_affected_k ignored the deleted
        edge when `changed` was empty)."""
        # K_{3,3} plus one slack edge (3, 2): the extra edge settles at a
        # positive phi while the core has enough slack that deleting it
        # changes nobody else's phi.
        edges = [(u, v) for u in (0, 1, 2) for v in (0, 1, 2)] + [(3, 0), (3, 1), (3, 2)]
        dyn = DynamicBipartiteGraph(4, 3, edges)
        dyn.enable_incremental()
        artifact = build_artifact(dyn.snapshot(), algorithm=ALGORITHM)
        engine = QueryEngine(artifact)
        dyn.register_artifact(engine)
        phi_32 = engine.phi_of(3, 2)
        assert phi_32 > 0
        # Warm a community cache at the deleted edge's own level.
        before = engine.community(phi_32, upper=0)
        assert [3, 2] in [[u, v] for u, v in before.edges] or (3, 2) in before.edges

        outcome = dyn.apply_batch(deletes=[(3, 2)])
        assert outcome.incremental
        assert outcome.max_affected_k >= phi_32
        after = engine.community(phi_32, upper=0)
        assert (3, 2) not in set(after.edges)
        fresh = QueryEngine(build_artifact(dyn.snapshot(), algorithm=ALGORITHM))
        assert sorted(after.edges) == sorted(
            fresh.community(phi_32, upper=0).edges
        )

    def test_failed_reseed_leaves_tracker_untouched(self):
        """reseed() with non-covering φ must refuse atomically — the
        rebuild(snapshot=pinned) race relies on it (regression: the old
        code clobbered φ before validating)."""
        dyn = DynamicBipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
        tracker = dyn.enable_incremental()
        snap = dyn.snapshot()
        dyn.apply_batch(inserts=[(2, 0), (2, 1)])
        # Decompose the pre-mutation snapshot: its phi cannot cover the
        # current edges, so the rebuild's reseed attempt is refused ...
        dyn.rebuild(snapshot=snap)
        # ... and the tracker still serves the *current* exact phi.
        assert not tracker.dirty
        assert tracker.phi_of(2, 0) == 2
        assert_exact(tracker)

    def test_batch_patches_watchers_once(self):
        """A batch of several ops bumps each watcher exactly once."""
        dyn = DynamicBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
        dyn.enable_incremental()
        artifact = build_artifact(dyn.snapshot(), algorithm=ALGORITHM)
        dyn.register_artifact(artifact)
        outcome = dyn.apply_batch(inserts=[(1, 1)], deletes=[(0, 1)])
        assert outcome.incremental
        assert outcome.patched == 1
        assert len(outcome.reports) == 2
        assert artifact.meta["patches"] == 1  # one bump for two ops

    def test_artifact_patch_counts_and_hash(self):
        dyn = DynamicBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
        dyn.enable_incremental()
        artifact = build_artifact(dyn.snapshot(), algorithm=ALGORITHM)
        dyn.register_artifact(artifact)
        old_hash = artifact.graph_hash
        outcome = dyn.apply_batch(inserts=[(1, 1)])
        assert outcome.patched == 1
        assert not artifact.stale
        assert artifact.meta["patches"] == 1
        assert artifact.graph_hash != old_hash
        assert artifact.graph.num_edges == 4
        assert artifact.max_k == 1


class TestAdoptCache:
    """``QueryEngine.adopt_cache``, the server's publish path, keeps the
    same entries as ``QueryEngine.patch`` for the same batch."""

    @staticmethod
    def warm(engine):
        engine.community(4, upper=2)  # component B, above the batch
        engine.community(1, upper=2)  # component B, at the batch's level
        engine.max_k(upper=3)  # untouched vertex
        engine.max_k(upper=0)  # vertex of the mutated edge
        engine.k_bitruss(4)  # id-keyed: always drops
        engine.phi_histogram()

    def publish(self, inserts, *, add_upper=False, cache_size=128):
        """Patch one warmed engine in place and publish a successor that
        adopts from an identically warmed twin, for the same batch."""
        dyn, patched = TestPatchInPlace().make_two_component_engine()
        predecessor = QueryEngine(
            build_artifact(dyn.snapshot(), algorithm=ALGORITHM)
        )
        for engine in (patched, predecessor):
            self.warm(engine)
        if add_upper:
            dyn.add_upper_vertex()
        outcome = dyn.apply_batch(inserts=inserts)
        assert outcome.incremental and outcome.patched == 1
        graph, phi = dyn.tracker.phi_snapshot()
        successor = QueryEngine(
            DecompositionArtifact(graph=graph, phi=phi, algorithm=ALGORITHM),
            cache_size=cache_size,
        )
        adopted = successor.adopt_cache(
            predecessor,
            max_affected_k=outcome.max_affected_k,
            affected_gids=DynamicBipartiteGraph._affected_gids(
                graph, outcome.reports
            ),
        )
        return patched, predecessor, successor, adopted

    def test_keeps_exactly_the_keys_patch_keeps(self):
        patched, predecessor, successor, adopted = self.publish([(1, 1)])
        kept = set(patched._cache)
        assert set(successor._cache) == kept
        assert adopted == len(kept)
        assert kept and kept < set(predecessor._cache)
        # The adopted entries answer as a fresh engine would.
        fresh = QueryEngine(
            build_artifact(successor.graph, algorithm=ALGORITHM)
        )
        hits = successor.cache_info()["hits"]
        assert successor.max_k(upper=3) == fresh.max_k(upper=3)
        assert sorted(successor.community(4, upper=2).edges) == sorted(
            fresh.community(4, upper=2).edges
        )
        assert successor.cache_info()["hits"] == hits + 2

    def test_layer_change_keeps_nothing(self):
        # A new upper vertex changes the layer sizes: no vertex-keyed
        # entry transplants, on either path.
        patched, _, successor, adopted = self.publish(
            [(5, 0)], add_upper=True
        )
        assert adopted == 0
        assert not successor._cache
        assert not patched._cache

    def test_adoption_stops_at_capacity(self):
        patched, _, successor, adopted = self.publish([(1, 1)], cache_size=1)
        assert len(patched._cache) > 1
        assert adopted == 1
        assert len(successor._cache) == 1
        assert set(successor._cache) < set(patched._cache)

    def test_no_hints_adopts_nothing(self):
        _, predecessor, successor, _ = self.publish([(1, 1)])
        successor.clear_cache()
        assert successor.adopt_cache(predecessor) == 0
        assert not successor._cache


# ------------------------------------------------------------ batch repair


class TestBatchRepair:
    def test_batch_parity_overlapping_regions(self):
        """Re-inserting two missing K_{2,4} edges in one batch: the second
        op's region overlaps the first's pending peel, forcing a conflict
        flush — φ must still land bitwise exact."""
        edges = [(u, v) for u in range(2) for v in range(4)]
        edges.remove((1, 3))
        edges.remove((0, 2))
        dyn = DynamicBipartiteGraph(2, 4, edges)
        tracker = dyn.enable_incremental()
        batch = tracker.apply_batch(inserts=[(1, 3), (0, 2)])
        assert not batch.fallback
        assert len(batch.reports) == 2
        assert tracker.phi_of(0, 0) == 3
        assert_exact(tracker)

    def test_batch_disjoint_regions_merge_into_one_peel(self):
        """Two ops in far-apart components collect butterfly-disjoint
        regions; the flush peels both in ONE multi-seed call."""
        edges_a = [(0, 0), (0, 1), (1, 0)]  # open 2x2
        edges_b = [(u, v) for u in (2, 3, 4) for v in (2, 3, 4)]  # K33
        dyn = DynamicBipartiteGraph(5, 5, edges_a + edges_b)
        tracker = dyn.enable_incremental()
        batch = tracker.apply_batch(
            inserts=[(1, 1)], deletes=[(2, 2)]
        )
        assert not batch.fallback
        assert batch.regions_peeled == 2
        assert batch.merged_peels == 1  # the region union
        assert batch.conflict_flushes == 0
        assert_exact(tracker)

    def test_batch_toggle_same_edge_is_exact(self):
        """delete + insert of the same edge inside one batch (deletes run
        first) restores φ bitwise."""
        edges = [(u, v) for u in (0, 1, 2) for v in (0, 1, 2)]
        dyn = DynamicBipartiteGraph(3, 3, edges)
        tracker = dyn.enable_incremental()
        before = tracker.phi_map()
        batch = tracker.apply_batch(inserts=[(1, 1)], deletes=[(1, 1)])
        assert not batch.fallback
        assert tracker.phi_map() == before
        assert_exact(tracker)

    def test_predicted_fallback_skips_search(self):
        """A cap of 0 routes every op through the predictor: no region
        search, no abort, tracker dirty, mutation still applied."""
        dyn = DynamicBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
        tracker = dyn.enable_incremental()
        batch = tracker.apply_batch(inserts=[(1, 1)], max_region_edges=0)
        assert batch.fallback
        assert batch.predicted_fallbacks == 1
        assert batch.budget_aborts == 0
        assert tracker.dirty
        assert dyn.has_edge(1, 1)
        assert dyn.support_of(0, 0) == 1

    def test_predict_off_pays_the_abort(self):
        """predict=False runs the search and aborts at the budget — the
        historical behaviour, now opt-in."""
        dyn = DynamicBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
        tracker = dyn.enable_incremental()
        batch = tracker.apply_batch(
            inserts=[(1, 1)], max_region_edges=0, predict=False
        )
        assert batch.fallback
        assert batch.predicted_fallbacks == 0
        assert batch.budget_aborts == 1
        assert tracker.dirty

    def test_fallback_mid_batch_keeps_mirror_exact(self):
        """Ops after a fallback apply support-only; supports stay exact
        and a reseed restores φ service."""
        edges = [(u, v) for u in (0, 1, 2) for v in (0, 1, 2)]
        dyn = DynamicBipartiteGraph(4, 3, edges)
        tracker = dyn.enable_incremental()
        batch = tracker.apply_batch(
            inserts=[(3, 0), (3, 1)], max_region_edges=0
        )
        assert batch.fallback
        # (3, 0) completes no butterfly — trivially exact, no fallback;
        # (3, 1) predicts a blowout under cap 0 and goes dirty.
        assert not batch.reports[0].fallback
        assert batch.reports[1].fallback
        assert dyn.has_edge(3, 0) and dyn.has_edge(3, 1)
        tracker.reseed(fresh_phi(dyn))
        assert_exact(tracker)

    def test_batch_validates_atomically(self):
        """A bad op anywhere rejects the whole batch before any mutation."""
        dyn = DynamicBipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
        tracker = dyn.enable_incremental()
        before = tracker.phi_map()
        with pytest.raises(ValueError, match="not present"):
            tracker.apply_batch(inserts=[(2, 2)], deletes=[(2, 0)])
        with pytest.raises(ValueError, match="already present"):
            tracker.apply_batch(inserts=[(2, 2), (0, 0)])
        with pytest.raises(ValueError, match="duplicate insert"):
            tracker.apply_batch(inserts=[(2, 2), (2, 2)])
        assert not dyn.has_edge(2, 2)
        assert not tracker.dirty
        assert tracker.phi_map() == before
        assert_exact(tracker)

    def test_bundled_dataset_batch_churn(self):
        """Batched churn on a bundled dataset stays bitwise exact after
        every batch (the batch analogue of ISSUE 5's acceptance)."""
        graph = load_dataset("marvel")
        result = bitruss_decomposition(graph, algorithm=ALGORITHM)
        dyn = DynamicBipartiteGraph(
            graph.num_upper, graph.num_lower, list(graph.edges())
        )
        tracker = dyn.enable_incremental(
            {
                graph.edge_endpoints(e): int(result.phi[e])
                for e in range(graph.num_edges)
            }
        )
        rng = np.random.default_rng(29)
        edges = list(graph.edges())
        for _ in range(3):
            ins, dels, seen = [], [], set()
            while len(seen) < 4:
                u, v = edges[int(rng.integers(0, len(edges)))]
                if (u, v) in seen:
                    continue
                seen.add((u, v))
                (dels if dyn.has_edge(u, v) else ins).append((u, v))
            batch = tracker.apply_batch(ins, dels)
            assert not batch.fallback
            assert_exact(tracker)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        min_size=1,
        max_size=24,
    ),
    st.integers(2, 6),
)
def test_batched_churn_property(ops, batch_size):
    """Hypothesis: random edge toggles applied in batches — overlapping
    and disjoint regions alike — keep φ bitwise exact after every batch."""
    dyn = DynamicBipartiteGraph(5, 5)
    tracker = dyn.enable_incremental()
    for start in range(0, len(ops), batch_size):
        ins, dels, seen = [], [], set()
        for u, v in ops[start : start + batch_size]:
            if (u, v) in seen:
                continue
            seen.add((u, v))
            (dels if dyn.has_edge(u, v) else ins).append((u, v))
        batch = tracker.apply_batch(ins, dels)
        assert not batch.fallback
        assert len(batch.reports) == len(ins) + len(dels)
        assert_exact(tracker)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        min_size=1,
        max_size=16,
    ),
    st.integers(1, 8),
)
def test_batched_churn_with_budget_property(ops, cap):
    """Hypothesis: under a tight budget (predicted-fallback mixes), a
    batch either stays exact or goes dirty with the mirror still exact —
    and a reseed always restores bitwise parity."""
    dyn = DynamicBipartiteGraph(5, 5)
    tracker = dyn.enable_incremental()
    for start in range(0, len(ops), 4):
        ins, dels, seen = [], [], set()
        for u, v in ops[start : start + 4]:
            if (u, v) in seen:
                continue
            seen.add((u, v))
            (dels if dyn.has_edge(u, v) else ins).append((u, v))
        batch = tracker.apply_batch(ins, dels, max_region_edges=cap)
        if tracker.dirty:
            tracker.reseed(fresh_phi(dyn))
        assert_exact(tracker)


# --------------------------------------------------------- adaptive budget


class TestAdaptiveBudget:
    def test_cold_start_uses_ceiling(self):
        budget = AdaptiveBudget()
        assert budget.cap(1000, 0.15) == 150

    def test_ewma_tightens_ceiling(self):
        budget = AdaptiveBudget()
        for _ in range(4):
            budget.observe(10)
        assert budget.ewma == pytest.approx(10.0)
        # 8x headroom over a size-10 EWMA beats the 150-edge ceiling.
        assert budget.cap(1000, 0.15) == 80
        budget.observe(100)
        cap = budget.cap(1000, 0.15)
        assert 64 < cap <= 150

    def test_never_exceeds_ceiling(self):
        budget = AdaptiveBudget()
        budget.observe(10_000)
        assert budget.cap(1000, 0.15) == 150

    def test_unbounded_without_fraction(self):
        """No ceiling means no budget at all — adaptivity only ever
        tightens a finite ceiling (regression: the EWMA used to impose
        a cap on unbounded callers)."""
        budget = AdaptiveBudget()
        budget.observe(2)
        assert budget.cap(1000, None) is None

    def test_zero_regions_ignored(self):
        budget = AdaptiveBudget()
        budget.observe(0)
        assert budget.ewma is None and budget.samples == 0


# ----------------------------------------------------- spliced publishing


def oracle_publish(dyn, phi_map=None):
    """The sort-and-walk reference: ``BipartiteGraph(sorted(edges))`` plus
    one φ lookup per edge of it."""
    graph = BipartiteGraph(dyn.num_upper, dyn.num_lower, sorted(dyn.edge_keys()))
    if phi_map is None:
        return graph, None
    phi = np.fromiter(
        (phi_map[e] for e in graph.edges()),
        dtype=np.int64,
        count=graph.num_edges,
    )
    return graph, phi


def assert_same_graph(got, ref):
    """Bitwise equal: sizes, endpoint arrays and both CSR triples."""
    assert (got.num_upper, got.num_lower) == (ref.num_upper, ref.num_lower)
    pairs = [
        (got.edge_upper, ref.edge_upper),
        (got.edge_lower, ref.edge_lower),
        *zip(got.csr_upper(), ref.csr_upper()),
        *zip(got.csr_lower(), ref.csr_lower()),
    ]
    for a, b in pairs:
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


def assert_publish_matches_oracle(dyn, tracker=None):
    """``snapshot()`` and (for a clean tracker) ``phi_snapshot()`` equal the
    sort-and-walk oracle bitwise, and φ equals a full recompute."""
    ref, _ = oracle_publish(dyn)
    assert_same_graph(dyn.snapshot(), ref)
    if tracker is None or tracker.dirty:
        return
    graph, phi = tracker.phi_snapshot()
    ref, ref_phi = oracle_publish(dyn, tracker.phi_map())
    assert_same_graph(graph, ref)
    assert phi.dtype == np.int64 and np.array_equal(phi, ref_phi)
    fresh = bitruss_decomposition(graph, algorithm=ALGORITHM)
    assert np.array_equal(phi, fresh.phi)


class CountingDict(dict):
    """A φ dict that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


class PublishMachine(RuleBasedStateMachine):
    """Interleaves every way the mirror and tracker change between
    publishes; after each step the published snapshot and φ must equal
    the sort-and-walk oracle.  A plain set of pairs models the edges."""

    @initialize(
        num_upper=st.integers(0, 5),
        num_lower=st.integers(0, 5),
        pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4))),
    )
    def seed(self, num_upper, num_lower, pairs):
        edges = list(
            dict.fromkeys(
                (u, v) for u, v in pairs if u < num_upper and v < num_lower
            )
        )
        self.dyn = DynamicBipartiteGraph(num_upper, num_lower, edges)
        self.tracker = self.dyn.enable_incremental()
        self.model = set(edges)
        self.pinned = None

    def pick(self, data, present):
        """A pair inside the layers, present or absent as asked (None when
        there is none)."""
        n_u, n_l = self.dyn.num_upper, self.dyn.num_lower
        pool = sorted(self.model) if present else [
            (u, v)
            for u in range(n_u)
            for v in range(n_l)
            if (u, v) not in self.model
        ]
        return data.draw(st.sampled_from(pool)) if pool else None

    def batch(self, inserts, deletes):
        if self.tracker.dirty:
            self.tracker.apply_batch(inserts, deletes)
        else:
            self.dyn.apply_batch(inserts, deletes, max_region_fraction=None)
        self.model -= set(deletes)
        self.model |= set(inserts)

    @rule(data=st.data(), k=st.integers(1, 4))
    def apply_batch_mixed(self, data, k):
        """Inserts (often of brand-new pairs), deletes and toggles."""
        inserts, deletes = [], []
        for _ in range(k):
            kind = data.draw(st.sampled_from(["insert", "delete", "toggle"]))
            edge = self.pick(data, present=kind != "insert")
            if edge is None or edge in inserts or edge in deletes:
                continue
            if kind != "insert":
                deletes.append(edge)
            if kind != "delete":
                inserts.append(edge)
        self.batch(inserts, deletes)

    @rule(data=st.data(), upper=st.booleans())
    def delete_whole_row(self, data, upper):
        edge = self.pick(data, present=True)
        if edge is None:
            return
        side = 0 if upper else 1
        self.batch([], [e for e in sorted(self.model) if e[side] == edge[side]])

    @rule(upper=st.booleans())
    def add_vertex(self, upper):
        if upper:
            self.dyn.add_upper_vertex()
        else:
            self.dyn.add_lower_vertex()

    @rule(data=st.data(), insert=st.booleans())
    def support_only(self, data, insert):
        """The plain mutators desync φ: declare it, as the server does."""
        edge = self.pick(data, present=not insert)
        if edge is None:
            return
        self.tracker.mark_dirty()
        if insert:
            self.dyn.insert_edge(*edge)
            self.model.add(edge)
        else:
            self.dyn.delete_edge(*edge)
            self.model.discard(edge)

    @rule(data=st.data())
    def forced_fallback(self, data):
        edge = self.pick(data, present=False)
        if edge is None:
            return
        self.tracker.apply_batch(
            inserts=[edge], max_region_edges=0, predict=False
        )
        self.model.add(edge)
        self.tracker.mark_dirty()  # a butterfly-free insert needs no repair

    @rule()
    def rebuild(self):
        self.dyn.rebuild(ALGORITHM)
        assert not self.tracker.dirty

    @rule(source=st.sampled_from(["dict", "snapshot", "shuffled"]), data=st.data())
    def reseed(self, source, data):
        if source == "dict":
            self.tracker.reseed(fresh_phi(self.dyn))
        else:
            graph = self.dyn.snapshot()
            if source == "shuffled":
                edges = data.draw(st.permutations(list(graph.edges())))
                graph = BipartiteGraph(graph.num_upper, graph.num_lower, edges)
            self.tracker.reseed(build_artifact(graph, ALGORITHM))
        assert not self.tracker.dirty

    @rule()
    def pin(self):
        self.pinned = self.dyn.snapshot()

    @rule()
    def rebuild_pinned(self):
        """A rebuild of an older snapshot reseeds only if it still covers
        the edges, else leaves the tracker exactly as it was."""
        if self.pinned is None:
            return
        dirty = self.tracker.dirty
        before = None if dirty else self.tracker.phi_map()
        covers = set(self.pinned.edges()) == self.model
        self.dyn.rebuild(ALGORITHM, snapshot=self.pinned)
        if covers:
            assert not self.tracker.dirty
        else:
            assert self.tracker.dirty == dirty
            if not dirty:
                assert self.tracker.phi_map() == before

    @invariant()
    def publish_matches_oracle(self):
        assert set(self.dyn.edge_keys()) == self.model
        assert_publish_matches_oracle(self.dyn, self.tracker)


PublishMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=12, deadline=None
)
TestPublishInterleavings = PublishMachine.TestCase


class TestSplicedPublish:
    def test_edgeless(self):
        dyn = DynamicBipartiteGraph(2, 3)
        tracker = dyn.enable_incremental()
        assert_publish_matches_oracle(dyn, tracker)
        dyn.apply_batch(inserts=[(0, 0), (1, 1)])
        assert_publish_matches_oracle(dyn, tracker)
        dyn.apply_batch(deletes=[(0, 0), (1, 1)])
        assert_publish_matches_oracle(dyn, tracker)
        assert dyn.snapshot().num_edges == 0

    def test_unchanged_mirror_republishes_the_same_objects(self):
        dyn = DynamicBipartiteGraph(3, 3, [(2, 0), (0, 1), (1, 0), (0, 0)])
        tracker = dyn.enable_incremental()
        graph, phi = tracker.phi_snapshot()
        assert tracker.phi_snapshot()[0] is graph
        assert tracker.phi_snapshot()[1] is phi
        assert not phi.flags.writeable
        dyn.add_lower_vertex()  # new layer size: a new graph, same rows
        assert_publish_matches_oracle(dyn, tracker)

    @pytest.mark.parametrize("seed_from", ["artifact", "dict"])
    def test_publish_lookups_bounded_by_touched_pairs(self, seed_from):
        """One publish makes at most one φ lookup per pair the batch
        touched: O(batch), not O(m)."""
        graph = load_dataset("github")
        shuffled = np.random.default_rng(3).permutation(list(graph.edges()))
        graph = BipartiteGraph(graph.num_upper, graph.num_lower, shuffled)
        artifact = build_artifact(graph, algorithm=ALGORITHM)
        dyn = DynamicBipartiteGraph.from_graph(graph)
        if seed_from == "artifact":
            tracker = dyn.enable_incremental(artifact)
        else:
            tracker = dyn.enable_incremental(artifact.phi_by_endpoints())
        assert_publish_matches_oracle(dyn, tracker)  # a dict seed lays out here
        rng = np.random.default_rng(5)
        # Low-support edges keep the repairs small; brand-new pairs too.
        edges = [e for e in graph.edges() if dyn.support_of(*e) <= 3]
        fresh = [(u, 0) for u in range(8) if not dyn.has_edge(u, 0)]
        for round_ in range(4):
            picks = rng.choice(len(edges), size=6, replace=False)
            deletes = [edges[i] for i in picks]
            inserts = deletes + fresh[round_ : round_ + 1]
            batches = [
                tracker.apply_batch(deletes=deletes),
                tracker.apply_batch(inserts=inserts),
            ]
            assert not any(batch.fallback for batch in batches)
            touched = set(deletes) | set(inserts)
            for batch in batches:
                for report in batch.reports:
                    touched |= set(report.changed)
            tracker._phi = counting = CountingDict(tracker._phi)
            tracker.phi_snapshot()
            tracker._phi = dict(counting)
            assert 0 < counting.lookups <= len(touched)
            assert_publish_matches_oracle(dyn, tracker)

    def test_reseed_from_artifact_refuses_without_touching(self):
        dyn = DynamicBipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
        tracker = dyn.enable_incremental()
        stale = build_artifact(dyn.snapshot(), algorithm=ALGORITHM)
        dyn.apply_batch(inserts=[(2, 0), (2, 1)])
        before = tracker.phi_map()
        with pytest.raises(ValueError, match="cover exactly"):
            tracker.reseed(stale)
        assert not tracker.dirty and tracker.phi_map() == before
        assert_publish_matches_oracle(dyn, tracker)

    def test_server_reseed_reads_the_artifact_once(self, monkeypatch):
        """Attach and the fallback rebuild seed the tracker from the
        artifact's arrays, never through the endpoint-keyed dict."""

        def no_dict(self):
            raise AssertionError("reseed went through phi_by_endpoints")

        monkeypatch.setattr(DecompositionArtifact, "phi_by_endpoints", no_dict)
        graph = load_dataset("github")

        async def scenario():
            registry = ArtifactRegistry()
            registry.register("g", build_artifact(graph, algorithm=ALGORITHM))
            updates = UpdateManager(registry, debounce=0.0)
            dyn = updates.attach("g")
            u, v = graph.edge_endpoints(0)
            updates.max_incremental_batch = 0  # force the rebuild path
            assert updates.apply("g", [{"op": "delete", "u": u, "v": v}])[
                "rebuild"
            ] == "scheduled"
            await updates.wait_idle()
            assert not dyn.tracker.dirty
            updates.max_incremental_batch = 64
            body = updates.apply("g", [{"op": "insert", "u": u, "v": v}])
            assert body["rebuild"] == "incremental"
            entry = registry.get("g")
            assert entry.artifact.graph is dyn.snapshot()
            ref, ref_phi = oracle_publish(dyn, dyn.tracker.phi_map())
            assert_same_graph(entry.artifact.graph, ref)
            assert np.array_equal(entry.artifact.phi, ref_phi)

        asyncio.run(scenario())
