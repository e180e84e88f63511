"""The live refresh loop: mutations → incremental patch (or rebuild) → swap.

PR 2's staleness story was defensive: a
:class:`~repro.maintenance.dynamic.DynamicBipartiteGraph` invalidates
registered artifacts so nobody silently serves outdated φ.  This module
turns that into a *liveness* story.  Each mutable dataset keeps a dynamic
mirror of its graph; ``POST /{ds}/edges`` applies insert/delete ops to the
mirror (exact incremental butterfly supports, cheap) and then brings the
served artifact back in sync one of two ways:

* **Incremental batch patch** (the default): the whole POST batch is
  validated atomically, canonicalized to its net effect (an
  insert-then-delete of the same edge cancels out), and routed through the
  mirror tracker's
  :meth:`~repro.maintenance.incremental.IncrementalBitruss.apply_batch` —
  one region per op, butterfly-disjoint regions merged into single
  multi-seed peels.  One patched artifact + engine pair is built straight
  from the repaired φ — no decomposition — and hot-swapped into the
  registry before the ``POST`` even returns: one version bump per batch,
  with query-cache entries above the batch's ``max_affected_k`` carried
  across the swap.  Readers never see a stale version.
* **Debounced rebuild** (the fallback): when an op's affected
  region crosses the adaptive budget under ``rebuild_threshold`` (or the
  tracker's predictor says it will, skipping the region search entirely),
  the batch is too large, or the tracker has lost sync, the live engine —
  registered ``allow_stale=True`` — keeps answering from the last
  published φ while a debounced background task re-decomposes off the hot
  path and hot-swaps the fresh artifact in.  A burst of fallback batches
  lands inside one debounce window and costs **one** rebuild, not one
  per op.

Debounce semantics: the rebuild waits for a quiet period of ``debounce``
seconds after the *last* mutation, so an update burst costs one rebuild,
not one per edge; mutations that land while a rebuild is running trigger
one follow-up rebuild when it finishes.  The decomposition itself runs in
an executor thread via
:meth:`~repro.maintenance.dynamic.DynamicBipartiteGraph.rebuild` — the
shared offline/online rebuild path.  When it lands, the tracker is
reseeded from the fresh φ so incremental patching resumes.
"""

from __future__ import annotations

import asyncio
import contextvars
from concurrent.futures import Executor
from typing import Dict, List, Optional, Sequence

from repro.maintenance.dynamic import DynamicBipartiteGraph
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.server.registry import ArtifactRegistry
from repro.service.artifacts import DecompositionArtifact
from repro.service.engine import QueryEngine

_LOG = obs_log.get_logger("server.updates")


class MutationError(ValueError):
    """A ``POST /{ds}/edges`` payload could not be applied."""


#: ``stats()`` key → help of its ``repro_updates_{key}_total`` counter.
_COUNTERS = {
    "mutations": "Edge mutations accepted per dataset.",
    "rebuilds": "Full artifact rebuilds per dataset.",
    "rebuild_errors": "Background rebuilds that raised, per dataset.",
    "incremental_patches": "Localized incremental phi patches per dataset.",
    "incremental_fallbacks": "Incremental repairs that fell back to a rebuild.",
    "predicted_fallbacks": "Ops the fallback predictor routed past the "
    "region search (no abort cost paid).",
}

#: ``BatchReport`` field → help of its ``repro_incremental_{field}_total``
#: counter, counted from each tracked batch.
_TRACKER_COUNTERS = {
    "budget_aborts": "Region searches aborted by the budget (each forces "
    "a rebuild fallback), per dataset.",
    "predictor_hits": "Region searches the predictor allowed that "
    "completed within budget, per dataset.",
    "predictor_misses": "Region searches the predictor allowed that still "
    "aborted on the budget, per dataset.",
}


class UpdateManager:
    """Owns the dynamic mirrors and the debounced rebuild tasks.

    Parameters
    ----------
    registry:
        The registry whose entries get hot-swapped.
    debounce:
        Quiet seconds after the last mutation before a rebuild starts.
    algorithm:
        Decomposition algorithm for rebuilds (default ``bit-bu++``).
    executor:
        Where the rebuild computation runs (default: the loop's default
        thread pool).
    incremental:
        Repair φ in place for small batches (default) instead of always
        scheduling a rebuild.
    rebuild_threshold:
        *Ceiling* on the per-op affected-region budget as a fraction of
        the mirror's edge count; the effective budget is the tracker's
        :class:`~repro.maintenance.incremental.AdaptiveBudget` (an EWMA
        of observed region sizes) clamped below that ceiling.  An op
        whose region outgrows the budget — or is predicted to — aborts
        the repair and falls back to the debounced rebuild.  ``0``
        disables incremental patching outright (every region has at
        least one edge).
    max_incremental_batch:
        Batches with more ops than this skip the batched repair and go
        straight to one debounced rebuild (a bulk load should not pay m
        localized re-peels).

    Per-dataset counts go into the manager's own :attr:`metrics`
    registry, which :meth:`stats` reads and the server's ``/metrics``
    scrape merges.
    """

    def __init__(
        self,
        registry: ArtifactRegistry,
        *,
        debounce: float = 0.2,
        algorithm: str = "bit-bu++",
        executor: Optional[Executor] = None,
        incremental: bool = True,
        rebuild_threshold: float = 0.15,
        max_incremental_batch: int = 64,
    ) -> None:
        if debounce < 0:
            raise ValueError("debounce must be non-negative")
        if not 0.0 <= rebuild_threshold <= 1.0:
            raise ValueError("rebuild_threshold must be in [0, 1]")
        if max_incremental_batch < 1:
            raise ValueError("max_incremental_batch must be positive")
        self.registry = registry
        self.debounce = debounce
        self.algorithm = algorithm
        self.incremental = incremental
        self.rebuild_threshold = rebuild_threshold
        self.max_incremental_batch = max_incremental_batch
        self._executor = executor
        self._dynamics: Dict[str, DynamicBipartiteGraph] = {}
        self._gen: Dict[str, int] = {}
        self._tasks: Dict[str, asyncio.Task] = {}
        self._last_error: Dict[str, Optional[str]] = {}
        self.metrics = obs_metrics.MetricsRegistry()
        self._counts = {
            key: self.metrics.counter(
                f"repro_updates_{key}_total", help, ("dataset",)
            )
            for key, help in _COUNTERS.items()
        }
        self._tracker_counts = {
            key: self.metrics.counter(
                f"repro_incremental_{key}_total", help, ("dataset",)
            )
            for key, help in _TRACKER_COUNTERS.items()
        }
        self._batch_ops = self.metrics.histogram(
            "repro_updates_batch_ops",
            "Ops per accepted mutation batch.",
            ("dataset",),
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )

    # ----------------------------------------------------------- wiring

    def attach(
        self, name: str, dynamic: Optional[DynamicBipartiteGraph] = None
    ) -> DynamicBipartiteGraph:
        """Make a hosted dataset mutable.

        Seeds a dynamic mirror from the live artifact's graph arrays
        (:meth:`~repro.maintenance.dynamic.DynamicBipartiteGraph.from_graph`;
        unless ``dynamic`` is supplied), flips the entry to
        ``allow_stale`` serving, and subscribes the live engine to the
        mirror's invalidation feed — a mutation marks the served artifact
        stale (visible in ``/metrics``) until the rebuild lands.
        """
        entry = self.registry.get(name)
        if name in self._dynamics:
            raise ValueError(f"dataset {name!r} is already mutable")
        if dynamic is None:
            dynamic = DynamicBipartiteGraph.from_graph(entry.artifact.graph)
        entry.allow_stale = True
        entry.engine.allow_stale = True
        dynamic.register_artifact(entry.engine)
        self._dynamics[name] = dynamic
        self._gen[name] = 0
        self._last_error[name] = None
        for family in self._counts.values():
            family.inc(0, (name,))  # exposed at 0 from the start
        if self.incremental and dynamic.tracker is None:
            # Seed the φ tracker from the artifact being served — exact for
            # the mirror's current edge set, so no decomposition runs here.
            try:
                dynamic.enable_incremental(entry.artifact)
            except ValueError:
                # A caller-supplied mirror that already drifted from the
                # artifact: let the tracker compute its own seed.
                dynamic.enable_incremental()
        return dynamic

    def is_mutable(self, name: str) -> bool:
        """Whether ``POST /{name}/edges`` is accepted."""
        return name in self._dynamics

    def dynamic(self, name: str) -> DynamicBipartiteGraph:
        """The dynamic mirror of a mutable dataset."""
        return self._dynamics[name]

    # -------------------------------------------------------- mutations

    @staticmethod
    def _canonicalize(
        dynamic: DynamicBipartiteGraph, ops: Sequence[Dict[str, object]]
    ) -> "tuple[List[tuple], List[tuple]]":
        """Validate a POST batch op by op and collapse it to its net effect.

        Every op is checked — structure, endpoint ranges, membership
        against the batch's *own simulated state* (so ``delete (u,v)``
        right after ``insert (u,v)`` is legal) — before anything mutates;
        the first offender raises :class:`MutationError` with ``applied ==
        0`` attached.  Valid batches collapse per edge: an edge whose
        presence ends where it started (insert-then-delete, or
        delete-then-reinsert of a present edge) drops out entirely — the
        final graph, hence the final φ, is identical either way — and the
        rest canonicalize into deletes-first ``(inserts, deletes)`` lists.
        """
        def _bad(message: str) -> MutationError:
            exc = MutationError(message)
            exc.applied = 0  # type: ignore[attr-defined]
            return exc

        inserts: List[tuple] = []
        deletes: List[tuple] = []
        sim: Dict[tuple, bool] = {}
        for index, op in enumerate(ops):
            if not isinstance(op, dict):
                raise _bad(f"op #{index} is not an object")
            kind = op.get("op")
            u, v = op.get("u"), op.get("v")
            # Strict like the read side's validation: bools and floats
            # would silently coerce to a *different* edge than the
            # client named, corrupting the dataset.
            if not all(
                isinstance(x, int) and not isinstance(x, bool)
                for x in (u, v)
            ):
                raise _bad(f"op #{index} needs integer 'u' and 'v' fields")
            if kind not in ("insert", "delete"):
                raise _bad(
                    f"op #{index}: unknown op {kind!r} "
                    "(choose 'insert' or 'delete')"
                )
            if not 0 <= u < dynamic.num_upper:
                raise _bad(
                    f"op #{index}: upper endpoint {u} out of range "
                    f"[0, {dynamic.num_upper})"
                )
            if not 0 <= v < dynamic.num_lower:
                raise _bad(
                    f"op #{index}: lower endpoint {v} out of range "
                    f"[0, {dynamic.num_lower})"
                )
            edge = (u, v)
            present = (
                sim[edge] if edge in sim else dynamic.has_edge(u, v)
            )
            if kind == "insert":
                if present:
                    raise _bad(
                        f"op #{index}: edge ({u}, {v}) already present"
                    )
                sim[edge] = True
            else:
                if not present:
                    raise _bad(f"op #{index}: edge ({u}, {v}) not present")
                sim[edge] = False
        for edge, present_after in sim.items():
            present_before = dynamic.has_edge(*edge)
            if present_after and not present_before:
                inserts.append(edge)
            elif present_before and not present_after:
                deletes.append(edge)
        return inserts, deletes

    def apply(self, name: str, ops: Sequence[Dict[str, object]]) -> Dict[str, object]:
        """Apply one edge batch atomically; patch φ in place or rebuild.

        Each op is ``{"op": "insert"|"delete", "u": int, "v": int}``.  The
        whole batch validates before anything mutates — structure,
        endpoint ranges, and membership are checked against the batch's
        own simulated state — so a bad op at position k raises
        :class:`MutationError` with ``applied == 0`` and the mirror
        untouched (no more half-applied prefixes).  Per-edge op sequences
        then collapse to their net effect and the batch routes through the
        tracker's batched repair: one region per op, butterfly-disjoint
        regions merged into single multi-seed peels, a fallback predictor
        and adaptive budget deciding per op whether the repair is worth
        it.

        A batch repaired in full is hot-swapped before this call returns
        (``"rebuild": "incremental"``, exactly one version bump); a batch
        that falls back — predicted or observed blowout, oversized batch,
        dirty tracker — schedules the debounced background rebuild
        (``"rebuild": "scheduled"``), and any burst of such batches inside
        the debounce window coalesces into **one** rebuild.  A batch whose
        ops cancel out entirely returns ``"not_needed"``.
        """
        if not self.is_mutable(name):
            raise MutationError(
                f"dataset {name!r} is not mutable (no dynamic mirror attached)"
            )
        dynamic = self._dynamics[name]
        if not isinstance(ops, Sequence) or isinstance(ops, (str, bytes)):
            raise MutationError("ops must be a list of edge operations")
        inserts, deletes = self._canonicalize(dynamic, ops)
        if ops:
            self._batch_ops.observe(float(len(ops)), (name,))
        if not inserts and not deletes:
            return {
                "applied": len(ops),
                "butterfly_delta": 0,
                "num_edges": dynamic.num_edges,
                "rebuild": "not_needed",
            }
        tracker = dynamic.tracker
        net_ops = len(inserts) + len(deletes)
        use_tracker = (
            self.incremental
            and tracker is not None
            and not tracker.dirty
            and net_ops <= self.max_incremental_batch
            and self.rebuild_threshold > 0.0
        )
        self._count(name, "mutations", len(ops))
        if use_tracker:
            outcome = dynamic.apply_batch(
                inserts,
                deletes,
                max_region_fraction=self.rebuild_threshold,
                patch_watchers=False,
            )
            if outcome.batch is not None:
                self._count(
                    name, "predicted_fallbacks", outcome.batch.predicted_fallbacks
                )
                for key, family in self._tracker_counts.items():
                    family.inc(getattr(outcome.batch, key), (name,))
            if outcome.incremental:
                self._patch(name, outcome=outcome)
                mode = "incremental"
            else:
                # Pending repairs were flushed before the tracker went
                # dirty, so φ stays exact for everything already peeled;
                # one debounced rebuild reconciles the rest.
                self._count(name, "incremental_fallbacks")
                self._schedule(name)
                mode = "scheduled"
        else:
            # The plain mutators desync the tracker's φ; declare it dirty
            # up front — validation already passed, so the batch *will*
            # land.  (A batch rejected wholesale never reaches here and
            # leaves φ exact.)
            if tracker is not None and not tracker.dirty:
                tracker.mark_dirty()
            outcome = dynamic.apply_batch(
                inserts, deletes, incremental=False, patch_watchers=False
            )
            self._schedule(name)
            mode = "scheduled"
        return {
            "applied": len(ops),
            "butterfly_delta": outcome.butterfly_delta,
            "num_edges": dynamic.num_edges,
            "rebuild": mode,
        }

    def _count(self, name: str, key: str, amount: int = 1) -> None:
        self._counts[key].inc(amount, (name,))

    def _schedule(self, name: str) -> None:
        """Restart the debounce clock and ensure a refresh task is running."""
        self._gen[name] += 1
        if self._tasks.get(name) is None:
            self._tasks[name] = asyncio.get_running_loop().create_task(
                self._refresh_loop(name)
            )

    def _patch(self, name: str, outcome=None) -> None:
        """Publish the tracker's repaired φ as a fresh artifact + engine.

        No decomposition runs: the patched snapshot and φ come straight
        from the incremental tracker, the hierarchy is derived from them,
        and the pair is hot-swapped like a rebuild's would be — in-flight
        leases keep the old engine, later requests see the new version.
        When the batch's :class:`~repro.maintenance.dynamic.ApplyOutcome`
        is supplied, the new engine adopts the old engine's query-cache
        entries that the batch provably left untouched (``community``
        answers above the batch's ``max_affected_k``, ``max_k`` answers
        for vertices outside its affected set) — one selective
        invalidation per batch instead of a cold cache per publish.

        Deliberately synchronous on the loop thread, like ``apply()``
        itself: publishing before the ``POST`` returns keeps the mirror
        and the registry ordered with no await window a concurrent batch
        could interleave into.  The snapshot and φ are spliced from the
        last publish in O(batch) Python; what stays O(m) is numpy work
        (the splice's array copies, graph construction and hash, the
        vectorized hierarchy build), paid once per accepted batch, not
        per op.  If a deployment outgrows that, this is the seam to move
        onto the executor behind a per-dataset publish lock.
        """
        with obs_spans.span("publish patch"):
            entry = self.registry.get(name)
            dynamic = self._dynamics[name]
            tracker = dynamic.tracker
            assert tracker is not None and not tracker.dirty
            graph, phi = tracker.phi_snapshot()
            old = entry.artifact
            artifact = DecompositionArtifact(
                graph=graph,
                phi=phi,
                algorithm=old.algorithm,
                meta={
                    **{k: v for k, v in old.meta.items() if k != "patches"},
                    "patches": int(old.meta.get("patches", 0) or 0) + 1,
                },
            )
            old_engine = entry.engine
            engine = QueryEngine(
                artifact, cache_size=entry.cache_size, allow_stale=True
            )
            if outcome is not None and outcome.reports:
                engine.adopt_cache(
                    old_engine,
                    max_affected_k=outcome.max_affected_k,
                    affected_gids=DynamicBipartiteGraph._affected_gids(
                        graph, outcome.reports
                    ),
                )
            self.registry.swap(name, artifact, engine=engine)
            dynamic.unregister_artifact(old_engine)
            dynamic.register_artifact(engine)
            # The mirror advanced past whatever snapshot an in-flight rebuild
            # took: bump the generation so that rebuild's staleness check sees
            # the patch and marks its (older) artifact stale on landing.
            self._gen[name] += 1
            self._count(name, "incremental_patches")
        _LOG.debug(
            "published incremental patch for %r (version %d)",
            name,
            entry.version,
        )

    # ---------------------------------------------------------- rebuild

    async def _refresh_loop(self, name: str) -> None:
        """Debounce, rebuild, and re-run if mutations landed meanwhile."""
        # The task copied the context of the write request that scheduled
        # it; leave that request's trace, which finishes without waiting.
        obs_spans.detach()
        try:
            while True:
                gen = self._gen[name]
                await asyncio.sleep(self.debounce)
                if self._gen[name] != gen:
                    continue  # still hot; restart the quiet-period clock
                try:
                    await self._rebuild(name)
                except Exception as exc:  # noqa: BLE001 - must not vanish
                    # Don't hot-loop a broken build: record it loudly (the
                    # dataset stays advertised stale) and let the next
                    # mutation schedule a fresh attempt.
                    self._count(name, "rebuild_errors")
                    self._last_error[name] = f"{type(exc).__name__}: {exc}"
                    _LOG.exception("rebuild of dataset %r failed", name)
                    return
                self._last_error[name] = None
                if self._gen[name] == gen:
                    return
        finally:
            self._tasks.pop(name, None)

    async def _rebuild(self, name: str) -> None:
        """One rebuild + hot-swap cycle (runs the heavy part off-loop)."""
        entry = self.registry.get(name)
        dynamic = self._dynamics[name]
        # Snapshot on the loop thread so the frozen edge set is consistent
        # with every apply() that has returned to a client.
        gen_at_snapshot = self._gen[name]
        snapshot = dynamic.snapshot()

        def _build():
            artifact = dynamic.rebuild(
                self.algorithm,
                snapshot=snapshot,
                register=False,
            )
            engine = QueryEngine(
                artifact, cache_size=entry.cache_size, allow_stale=True
            )
            return artifact, engine

        loop = asyncio.get_running_loop()
        with obs_spans.span("rebuild"):
            # Copied inside the span, so the build's own spans nest under it.
            ctx = contextvars.copy_context()
            artifact, engine = await loop.run_in_executor(
                self._executor, ctx.run, _build
            )
        # Back on the loop thread: swap atomically and rewire staleness
        # subscriptions to the new pair.  The outgoing engine is read *now*
        # — an incremental patch may have swapped it while the build ran,
        # and unregistering a stale capture would orphan a watcher.
        old_engine = entry.engine
        self.registry.swap(name, artifact, engine=engine)
        dynamic.unregister_artifact(old_engine)
        dynamic.register_artifact(engine)
        tracker = dynamic.tracker
        if tracker is not None:
            try:
                tracker.reseed(artifact)
            except ValueError:
                # Mutations landed while the build ran; the follow-up
                # rebuild the refresh loop runs next will reseed.
                pass
        if self._gen[name] != gen_at_snapshot:
            # Mutations landed while the build ran: the fresh engine is
            # already behind.  Mark it stale immediately so /metrics and
            # /datasets keep advertising the lag until the follow-up
            # rebuild (which the refresh loop runs next) catches up.
            engine.invalidate()
        self._count(name, "rebuilds")

    async def wait_idle(self) -> None:
        """Block until every scheduled rebuild has landed (test/shutdown)."""
        while self._tasks:
            await asyncio.gather(
                *list(self._tasks.values()), return_exceptions=True
            )

    def pending(self, name: str) -> bool:
        """Whether a rebuild is scheduled or running for ``name``."""
        return self._tasks.get(name) is not None

    def tracker_dirty(self, name: str) -> bool:
        """Whether ``name``'s φ tracker lost sync and awaits a rebuild."""
        tracker = self._dynamics[name].tracker
        return bool(tracker is not None and tracker.dirty)

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-mutable-dataset counters for ``/metrics``."""
        return {
            name: {
                **{
                    key: int(family.value((name,)))
                    for key, family in self._counts.items()
                },
                "last_error": self._last_error[name],
                "pending_rebuild": self.pending(name),
                "mirror_edges": dyn.num_edges,
                "tracker_dirty": self.tracker_dirty(name),
            }
            for name, dyn in self._dynamics.items()
        }
