"""Exact localized bitruss-number repair under edge-update batches.

:mod:`repro.maintenance.dynamic` keeps butterfly *supports* exact under
edge insertions and deletions; this module keeps the *bitruss numbers* φ
exact too — without ever re-peeling the whole graph.  The one mutation
entry point is :meth:`IncrementalBitruss.apply_batch`; a single-edge
update is a batch of one.  Each op runs three localized steps:

1. **Bound** how deep the change can reach.  Inserting ``e₀`` can only
   *raise* φ (every old k-bitruss is still a witness subgraph), and an edge
   can only rise if its new butterflies survive at its new level — all of
   which contain ``e₀`` — so nothing above ``k* = φ_new(e₀)`` moves, and
   every moved edge had ``φ < k*`` before.  ``k*`` itself is capped before
   any peeling by an h-index over the butterflies through ``e₀``: at level
   ``k`` a butterfly needs all four edges in ``H_k`` and φ ≤ support always
   holds, so ``k* ≤ max{k : #{B ∋ e₀ : min support over B} ≥ k}``.
   Deleting ``e₀`` is the mirror image (re-inserting it would restore the
   old state), giving the known-exactly bound ``K = φ_old(e₀)``: only edges
   with ``φ_old ≤ K`` can drop.

2. **Collect** the affected region.  A moved edge must gain (or lose) a
   butterfly at its new level, and the other edges of that butterfly are
   either already settled above the bound or moved themselves — so moved
   edges form butterfly-connected chains anchored at ``e₀``.  A BFS from
   ``e₀`` over butterfly adjacency, expanding only through edges under the
   φ bound, therefore covers everything that can change (usually a tiny
   neighbourhood; the maintained supports make each hop one
   wedge-combination pass).

3. **Re-peel** the region against the frozen remainder with
   :func:`repro.core.peeling_engine.peel_region`: butterflies touching the
   region carry the minimum exterior φ as an expiry level, and the scalar
   bottom-up peel reproduces — bitwise — what a full recompute would assign
   the region edges.

The re-peel is *deferred*: pending regions accumulate until the batch
ends or a later op's butterflies touch a pending interior edge (detected
before any stale φ is read), at which point every pending region is merged
into **one** multi-seed :func:`peel_region` call.  Coexisting pending
regions are provably butterfly-disjoint (a shared butterfly would have
triggered the conflict flush), so the merged peel is bitwise identical to
peeling them one by one.

The repair reads and writes φ in an endpoint-keyed dict (edge *ids* shift
whenever an insert or delete lands in front of them; endpoints are
stable).  Next to it the tracker keeps φ as rows aligned with the mirror's
last snapshot (edges sorted by ``(u, v)``) plus a journal of the pairs
whose φ it wrote since, and :meth:`IncrementalBitruss.phi_snapshot`
splices both forward with the mirror's own journal
(:meth:`~repro.maintenance.dynamic.DynamicBipartiteGraph.snapshot`): a
publish costs O(touched) dict lookups, not one per edge, and hands an
immutable :class:`~repro.graph.bipartite.BipartiteGraph` plus φ to the
artifacts and query engines patched in place.  When an op's region
outgrows its budget, the tracker marks itself dirty and the caller falls
back to the full rebuild path — exactness is never traded for locality.
The budget adapts via an EWMA of observed region sizes
(:class:`AdaptiveBudget`) below the caller's ``budget_fraction × m``
ceiling (``max_region_edges`` pins it instead), and a **fallback
predictor** (h-index bound × first-layer candidate count) skips the
region BFS entirely for ops that will predictably exceed it — an abort
costs ~5x a successful repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.peeling_engine import NO_EXPIRY, peel_region
from repro.graph.bipartite import BipartiteGraph
from repro.obs import spans as obs_spans

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dynamic imports us)
    from repro.core.result import BitrussDecomposition
    from repro.maintenance.dynamic import DynamicBipartiteGraph
    from repro.service.artifacts import DecompositionArtifact

Edge = Tuple[int, int]

#: A butterfly as its canonical vertex quadruple:
#: ``(upper_lo, upper_hi, lower_lo, lower_hi)``.
FlyKey = Tuple[int, int, int, int]


#: Region search outcomes beyond a successful collection.
_BUDGET = "budget"
_CONFLICT = "conflict"


class DirtyTrackerError(RuntimeError):
    """φ repair was requested on a tracker that has lost sync.

    Raised after a region-budget fallback (or an explicit
    :meth:`IncrementalBitruss.mark_dirty`) until :meth:`~IncrementalBitruss.reseed`
    installs a freshly computed φ.
    """


@dataclass
class RepairReport:
    """What one op's localized repair did (one per insert or delete).

    Attributes
    ----------
    op:
        ``"insert"`` or ``"delete"``.
    edge:
        The mutated ``(u, v)`` pair.
    butterflies:
        Butterflies created (insert) or destroyed (delete) by the mutation.
    k_bound:
        The φ bound ``K`` that pruned the region search.
    region_size:
        Edges whose φ was recomputed (0 when the bound proved nothing can
        move).
    region_fraction:
        ``region_size`` over the post-mutation edge count.
    changed:
        Edges whose φ actually changed, with ``(old, new)`` values; the
        inserted edge appears with ``old = -1``, a deleted one is omitted.
    fallback:
        True when the region budget was exceeded — φ was *not* repaired
        and the tracker is now dirty.
    """

    op: str
    edge: Edge
    butterflies: int = 0
    k_bound: int = 0
    region_size: int = 0
    region_fraction: float = 0.0
    changed: Dict[Edge, Tuple[int, int]] = field(default_factory=dict)
    fallback: bool = False

    @property
    def max_affected_k(self) -> int:
        """Highest level whose k-bitruss may differ from before the op.

        For deletions this includes the deleted edge's own former level
        (``k_bound``): every ``H_k`` up to it lost that edge even when no
        *other* edge's φ moved, so caches keyed at those levels are stale
        regardless of ``changed``.
        """
        levels = [0]
        if self.op == "delete":
            levels.append(self.k_bound)
        for old, new in self.changed.values():
            levels.append(max(old, new))
        return max(levels)


@dataclass
class AdaptiveBudget:
    """Region budget that tracks the workload instead of a static fraction.

    The old budget was ``rebuild_threshold × m`` — tuned for "how big a
    region is still cheaper than a rebuild", which is the right *ceiling*
    but a terrible *abort bound*: the search's work cap scales with the
    budget, so every hopeless hub-edge search paid ~32× the ceiling in
    wedge enumerations before giving up.  This class keeps an EWMA of the
    region sizes that actually succeeded and caps the search at
    ``headroom ×`` that scale (never below ``floor``, never above the
    caller's ceiling).  Typical regions still fit with an order of
    magnitude to spare; hopeless ones abort after a fraction of the old
    work.
    """

    alpha: float = 0.25
    headroom: float = 8.0
    floor: int = 64
    ewma: Optional[float] = None
    samples: int = 0

    def observe(self, region_size: int) -> None:
        """Feed one successfully collected region size into the EWMA."""
        if region_size <= 0:
            return
        self.samples += 1
        if self.ewma is None:
            self.ewma = float(region_size)
        else:
            self.ewma = (1.0 - self.alpha) * self.ewma + self.alpha * region_size

    def cap(self, num_edges: int, fraction: Optional[float]) -> Optional[int]:
        """Current region budget in edges (``None`` = unbounded).

        ``fraction`` is the legacy ``rebuild_threshold`` ceiling; before the
        first observation it is the whole budget, after that it only bounds
        the adaptive cap from above.  ``fraction=None`` means the caller has
        no rebuild fallback at all, so no budget is imposed — adaptivity
        only ever *tightens* a finite ceiling.
        """
        if fraction is None:
            return None
        ceiling = int(fraction * max(1, num_edges))
        if self.ewma is None:
            return ceiling
        return min(ceiling, max(self.floor, int(self.headroom * self.ewma)))


@dataclass
class _PendingRegion:
    """A collected-but-not-yet-peeled region awaiting the batch flush."""

    region: List[Edge]
    flies: Dict[FlyKey, List[Edge]]
    report: RepairReport
    #: Set for insert ops: the new edge's ``changed`` entry is rewritten to
    #: ``(-1, φ_new)`` after the peel lands.
    inserted: Optional[Edge] = None


@dataclass
class _BatchState:
    """Per-:meth:`IncrementalBitruss.apply_batch` bookkeeping."""

    max_region_edges: Optional[int]
    budget_fraction: Optional[float]
    predict: bool
    pending: List[_PendingRegion] = field(default_factory=list)
    pending_edges: Set[Edge] = field(default_factory=set)
    predicted_fallbacks: int = 0
    budget_aborts: int = 0
    predictor_hits: int = 0
    predictor_misses: int = 0
    conflict_flushes: int = 0
    merged_peels: int = 0
    regions_peeled: int = 0


@dataclass
class BatchReport:
    """What one :meth:`IncrementalBitruss.apply_batch` call did.

    ``reports`` holds one :class:`RepairReport` per op in application order
    (deletes first, then inserts); the batch-level counters summarize the
    deferred-peel machinery: ``merged_peels`` is how many multi-seed
    :func:`peel_region` calls covered the batch's ``regions_peeled``
    regions, and ``conflict_flushes`` counts early flushes forced by
    overlapping regions.  The fallback predictor's outcomes are counted
    per op: ``predicted_fallbacks`` (searches it skipped),
    ``budget_aborts`` (searches that hit the budget), and, when the
    predictor ran, ``predictor_hits`` / ``predictor_misses`` (allowed
    searches that fit the budget / still aborted).  The server's
    :class:`~repro.server.updates.UpdateManager` counts them per dataset.
    """

    reports: List[RepairReport] = field(default_factory=list)
    predicted_fallbacks: int = 0
    budget_aborts: int = 0
    predictor_hits: int = 0
    predictor_misses: int = 0
    conflict_flushes: int = 0
    merged_peels: int = 0
    regions_peeled: int = 0

    @property
    def fallback(self) -> bool:
        """True when any op aborted or was predicted to — φ needs a rebuild."""
        return any(report.fallback for report in self.reports)

    @property
    def butterfly_delta(self) -> int:
        """Net change in butterfly count across the batch."""
        return sum(
            report.butterflies if report.op == "insert" else -report.butterflies
            for report in self.reports
        )

    @property
    def region_size(self) -> int:
        """Total edges whose φ was recomputed across the batch."""
        return sum(report.region_size for report in self.reports)


class IncrementalBitruss:
    """Maintain exact per-edge bitruss numbers on a dynamic graph.

    Parameters
    ----------
    dynamic:
        The :class:`~repro.maintenance.dynamic.DynamicBipartiteGraph` whose
        φ to maintain.  The tracker drives the graph's own mutators, so
        mutate through :meth:`apply_batch` (or
        :meth:`DynamicBipartiteGraph.apply_batch`) instead of calling
        ``insert_edge`` / ``delete_edge`` directly while a tracker is live.
    phi:
        Initial bitruss numbers covering exactly the current edges, in any
        form :meth:`reseed` takes: a dict keyed by ``(u, v)`` endpoints or
        a decomposition such as a served
        :class:`~repro.service.artifacts.DecompositionArtifact`.  Omitted:
        computed here with one static decomposition.

    Examples
    --------
    >>> from repro.maintenance.dynamic import DynamicBipartiteGraph
    >>> g = DynamicBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
    >>> tracker = IncrementalBitruss(g)
    >>> batch = tracker.apply_batch(inserts=[(1, 1)])
    >>> batch.reports[0].changed[(0, 0)]
    (0, 1)
    >>> tracker.phi_of(1, 1)
    1
    >>> _ = tracker.apply_batch(deletes=[(0, 1)])
    >>> tracker.phi_of(0, 0)
    0
    """

    def __init__(
        self,
        dynamic: "DynamicBipartiteGraph",
        phi: Union[
            Mapping[Edge, int],
            "DecompositionArtifact",
            "BitrussDecomposition",
            None,
        ] = None,
    ) -> None:
        self._dyn = dynamic
        self._phi: Dict[Edge, int] = {}
        # φ laid out as rows aligned with the mirror's base at commit
        # ``_phi_epoch`` (None until laid out), plus the pairs whose φ was
        # written since; see DynamicBipartiteGraph._commit.
        self._phi_rows: Optional[np.ndarray] = None
        self._phi_epoch = -1
        self._phi_touched: Set[Edge] = set()
        self.dirty = False
        #: Adaptive region budget fed by :meth:`apply_batch`.
        self.budget = AdaptiveBudget()
        self.reseed(dynamic.decompose() if phi is None else phi)

    # ------------------------------------------------------------ plumbing

    def _coverage_error(self, entries: int) -> ValueError:
        return ValueError(
            "phi must cover exactly the current edges of the graph "
            f"({entries} phi entries vs {self._dyn.num_edges} edges)"
        )

    def _align(
        self, graph: BipartiteGraph, values: np.ndarray
    ) -> Tuple[np.ndarray, Dict[Edge, int]]:
        """φ rows aligned with the mirror's base, and the φ dict, in one pass.

        ``graph`` must hold exactly the mirror's current edges (in any
        order); checked on the arrays, else :class:`ValueError` before
        anything is built.
        """
        dyn = self._dyn
        dyn._commit(self)
        values = np.asarray(values, dtype=np.int64)
        edge_u, edge_v = graph.edge_upper, graph.edge_lower
        rows = values
        if graph is not dyn._base_graph:
            base = dyn._base_codes
            covered = graph.num_edges == len(base) and (
                graph.num_edges == 0
                or (
                    edge_u.max() < dyn.num_upper
                    and edge_v.max() < dyn.num_lower
                )
            )
            if covered:
                codes = edge_u * dyn.num_lower + edge_v
                if not np.all(codes[1:] > codes[:-1]):
                    order = np.argsort(codes)
                    codes, rows = codes[order], values[order]
                covered = np.array_equal(codes, base)
            if not covered:
                raise self._coverage_error(graph.num_edges)
        pairs = zip(edge_u.tolist(), edge_v.tolist())
        return rows, dict(zip(pairs, values.tolist()))

    def _set_rows(self, rows: np.ndarray, epoch: int) -> None:
        if rows.flags.writeable:
            rows = rows.copy()
            rows.flags.writeable = False
        self._phi_rows = rows
        self._phi_epoch = epoch
        self._phi_touched = set()

    def _rows_at(self, epoch: int) -> Optional[np.ndarray]:
        """The φ rows, if in sync and aligned with the mirror's commit."""
        if self.dirty or self._phi_epoch != epoch:
            return None
        return self._phi_rows

    def _splice_rows(
        self, kept: np.ndarray, at: np.ndarray, pairs: List[Edge], epoch: int
    ) -> None:
        """Finish the mirror's splice: insert ``pairs``' φ at ``at``.

        One dict lookup per inserted pair.  A pair missing from the dict
        means φ lost sync outside the tracker (a support-only mutator ran
        while it was clean); the rows are then dropped, and the next
        :meth:`phi_snapshot` lays them out again and raises there.
        """
        phi = self._phi
        values = [phi.get(pair) for pair in pairs]
        if None in values:
            self._phi_rows = None
            return
        self._set_rows(
            np.insert(kept, at, np.array(values, dtype=np.int64)), epoch
        )

    def phi_of(self, u: int, v: int) -> int:
        """Current bitruss number of edge ``(u, v)``."""
        if self.dirty:
            raise DirtyTrackerError(
                "tracker lost sync after a region-budget fallback; a "
                "serving deployment reseeds it automatically once the "
                "scheduled rebuild lands — offline callers must reseed() "
                "from a fresh decomposition"
            )
        try:
            return self._phi[(u, v)]
        except KeyError:
            raise ValueError(f"edge ({u}, {v}) not present") from None

    def phi_map(self) -> Dict[Edge, int]:
        """Snapshot of all current φ values keyed by endpoints."""
        if self.dirty:
            raise DirtyTrackerError("tracker is dirty; reseed() first")
        return dict(self._phi)

    def phi_snapshot(self) -> Tuple[BipartiteGraph, np.ndarray]:
        """Freeze the graph and lay φ out by the snapshot's edge ids.

        Returns the pair an artifact patch needs: the mirror's
        :meth:`~repro.maintenance.dynamic.DynamicBipartiteGraph.snapshot`
        (edges sorted by ``(u, v)``) plus a read-only ``int64`` φ array
        aligned with its edge ids.  Both come out of one splice of the
        last snapshot, so a publish looks up φ only for the pairs touched
        since.  Only the first publish after a dict seed lays φ out edge
        by edge.
        """
        if self.dirty:
            raise DirtyTrackerError("tracker is dirty; reseed() first")
        dyn = self._dyn
        graph = dyn._publish(self)
        if self._rows_at(dyn._epoch) is None:
            phi = self._phi
            pairs = zip(graph.edge_upper.tolist(), graph.edge_lower.tolist())
            rows = np.fromiter(
                (phi[pair] for pair in pairs),
                dtype=np.int64,
                count=graph.num_edges,
            )
            self._set_rows(rows, dyn._epoch)
        assert self._phi_rows is not None
        return graph, self._phi_rows

    def mark_dirty(self) -> None:
        """Declare φ out of sync (mutations keep applying, repairs refuse)."""
        self.dirty = True

    def reseed(
        self,
        phi: Union[
            Mapping[Edge, int], "DecompositionArtifact", "BitrussDecomposition"
        ],
    ) -> None:
        """Install a freshly computed φ and clear ``dirty``.

        ``phi`` is either a dict keyed by ``(u, v)`` endpoints or a
        decomposition: anything with a ``graph`` and an aligned ``phi``
        array, such as a
        :class:`~repro.service.artifacts.DecompositionArtifact` or a
        :class:`~repro.core.result.BitrussDecomposition`.  A decomposition
        is read in one pass: coverage is checked on its arrays, the φ dict
        is built once, and its φ array becomes the publish rows as it is
        (reordered by one ``argsort`` if its edges are not sorted).  A
        dict is copied, and its rows are laid out at the next
        :meth:`phi_snapshot`.

        Validated *before* anything is replaced: a reseed whose φ does not
        cover the current edge set raises and leaves the tracker exactly
        as it was (callers that race rebuilds against mutations rely on a
        failed reseed being harmless).
        """
        if isinstance(phi, Mapping):
            candidate = dict(phi)
            edges = self._dyn.edge_keys()
            if candidate.keys() != edges:
                raise self._coverage_error(len(candidate))
            self._phi = candidate
            self._phi_rows = None
            self._phi_touched = set()
        else:
            rows, self._phi = self._align(phi.graph, phi.phi)
            self._set_rows(rows, self._dyn._epoch)
        self.dirty = False

    # ------------------------------------------------------ region search

    def _collect_region(
        self,
        seeds: Iterable[Edge],
        bound: int,
        mode: str,
        max_region_edges: Optional[int],
        forbidden: Optional[Set[Edge]] = None,
    ):
        """BFS over butterfly adjacency from ``seeds`` under the mode's rule.

        ``mode="insert"`` expands onto any butterfly partner with
        ``φ_old < bound`` — risers start below the new edge's level and can
        be lifted through arbitrarily low neighbours.  ``mode="delete"``
        uses the sharper rule: an edge can only *drop* if one of its
        level-``φ_old`` butterflies dies, and such a butterfly still exists
        at that level — every other edge in it carries φ at least as high —
        so the candidate must attain the minimum φ of the butterfly
        connecting it to the cascade.  Delete regions therefore descend in
        φ from the seeds instead of flooding the whole ``φ ≤ K`` component.

        ``forbidden`` is the batch's pending-interior set: those edges
        hold *stale* φ (their peel is deferred), so the search bails with
        :data:`_CONFLICT` the moment one appears in a touched butterfly —
        before any decision reads its φ.

        Returns the region edges plus every butterfly touching the region
        (keyed canonically, each holding its interior members),
        :data:`_BUDGET` when ``max_region_edges`` was exceeded, or
        :data:`_CONFLICT`.
        """
        phi = self._phi
        region: List[Edge] = []
        seen: Set[Edge] = set()
        flies: Dict[FlyKey, List[Edge]] = {}
        stack: List[Edge] = []
        # A region budget must also bound *work*, not just edges: one hub
        # edge inside a giant bloom owns O(k²) butterflies, and a search
        # that is going to abort anyway must not pay for all of them first.
        max_work = None if max_region_edges is None else 32 * max_region_edges
        work = 0
        for seed in seeds:
            if seed not in seen:
                seen.add(seed)
                stack.append(seed)
        while stack:
            edge = stack.pop()
            region.append(edge)
            if max_region_edges is not None and len(region) > max_region_edges:
                return _BUDGET
            u, v = edge
            phi_self = phi[edge]
            partners = self._dyn.butterfly_partners(u, v)
            work += len(partners)
            if max_work is not None and work > max_work:
                return _BUDGET
            for w, x in partners:
                others = ((u, x), (w, v), (w, x))
                if forbidden is not None and (
                    others[0] in forbidden
                    or others[1] in forbidden
                    or others[2] in forbidden
                ):
                    return _CONFLICT
                key = (min(u, w), max(u, w), min(v, x), max(v, x))
                members = flies.get(key)
                if members is None:
                    flies[key] = [edge]
                elif edge not in members:
                    members.append(edge)
                if mode == "insert":
                    for other in others:
                        if other not in seen and phi[other] < bound:
                            seen.add(other)
                            stack.append(other)
                else:
                    fly_min = min(
                        phi_self, phi[others[0]], phi[others[1]], phi[others[2]]
                    )
                    if fly_min > 0:  # a φ = 0 edge can never drop
                        for other in others:
                            if other not in seen and phi[other] == fly_min:
                                seen.add(other)
                                stack.append(other)
        return region, flies

    def _search(
        self,
        seeds: List[Edge],
        bound: int,
        mode: str,
        cap: Optional[int],
        state: _BatchState,
    ):
        """Region search: collect, with one flush-and-retry on overlap.

        A search that meets a pending interior edge flushes the pending
        peels and collects again against the now exact φ.  Returns
        ``(region, flies)`` or :data:`_BUDGET`.  The support-parity assert
        must run *here* (collect time), not at the deferred peel: later
        mutations of the batch legitimately change supports outside the
        pending regions.
        """
        with obs_spans.span("region search"):
            found = self._collect_region(
                seeds, bound, mode, cap, state.pending_edges
            )
        if found is _CONFLICT:
            self._conflict_flush(state)
            with obs_spans.span("region search"):
                found = self._collect_region(seeds, bound, mode, cap)
        if found is _BUDGET:
            return found
        region, flies = found
        if __debug__:
            # Safety net for the enumeration: a region edge's collected
            # butterfly count must equal its maintained support exactly.
            counts = {edge: 0 for edge in region}
            for members in flies.values():
                for member in members:
                    counts[member] += 1
            for (eu, ev), count in counts.items():
                assert count == self._dyn.support_of(eu, ev), (
                    f"butterfly enumeration out of sync at ({eu}, {ev})"
                )
        return region, flies

    def _peel_pending(self, pending: List[_PendingRegion]) -> None:
        """Peel every pending region in ONE multi-seed ``peel_region`` call.

        Coexisting pending regions are butterfly-disjoint by construction
        (any shared butterfly triggers a conflict flush before the second
        region goes pending), so concatenating them into a single local
        index space peels each connected component exactly as a standalone
        call would — at one call's overhead.  Exterior expiry levels are
        read *now*, which is safe for the same reason: a pending region's
        exterior edge is never another pending region's interior (the
        shared butterfly would have conflicted), so every φ read here is
        exact.
        """
        region: List[Edge] = []
        local_id: Dict[Edge, int] = {}
        for entry in pending:
            for edge in entry.region:
                local_id[edge] = len(region)
                region.append(edge)
        if not region:
            return
        fly_edges: List[List[int]] = []
        fly_expiry: List[int] = []
        for entry in pending:
            for (u_lo, u_hi, v_lo, v_hi), members in entry.flies.items():
                interior = [local_id[m] for m in members]
                expiry = NO_EXPIRY
                if len(members) < 4:
                    member_set = set(members)
                    exterior_phi = [
                        self._phi[e]
                        for e in (
                            (u_lo, v_lo),
                            (u_lo, v_hi),
                            (u_hi, v_lo),
                            (u_hi, v_hi),
                        )
                        if e not in member_set
                    ]
                    expiry = min(exterior_phi)
                fly_edges.append(interior)
                fly_expiry.append(expiry)
        with obs_spans.span("region peel"):
            new_phi = peel_region(len(region), fly_edges, fly_expiry)
        values = new_phi.tolist()
        for entry in pending:
            report = entry.report
            for edge in entry.region:
                old = self._phi[edge]
                value = values[local_id[edge]]
                if old != value:
                    report.changed[edge] = (old, value)
                    self._phi[edge] = value
                    self._phi_touched.add(edge)
            if entry.inserted is not None:
                report.changed[entry.inserted] = (
                    -1,
                    self._phi[entry.inserted],
                )

    def _flush(self, state: _BatchState) -> None:
        """Apply every deferred peel and clear the pending set."""
        if not state.pending:
            return
        state.merged_peels += 1
        state.regions_peeled += len(state.pending)
        self._peel_pending(state.pending)
        state.pending.clear()
        state.pending_edges.clear()

    def _conflict_flush(self, state: _BatchState) -> None:
        """Flush early because an op overlaps a pending region."""
        state.conflict_flushes += 1
        self._flush(state)

    # --------------------------------------------------------- op helpers

    def _insert_bound(
        self, u: int, v: int, partners: List[Tuple[int, int]]
    ) -> int:
        """h-index bound on ``φ_new(u, v)`` over its butterflies.

        A butterfly survives at level k only if all four of its edges do,
        and φ ≤ support always holds, so ``k* ≤ max{k : #{B ∋ e₀ :
        min support over B} ≥ k}``.  ``partners`` are the wedge completions
        of ``(u, v)``; supports are read post-insert.
        """
        mins = sorted(
            (
                min(
                    self._dyn.support_of(u, x),
                    self._dyn.support_of(w, v),
                    self._dyn.support_of(w, x),
                )
                for w, x in partners
            ),
            reverse=True,
        )
        bound = 0
        for i, value in enumerate(mins):
            bound = max(bound, min(value, i + 1))
        return bound

    def _delete_seeds(
        self, u: int, v: int, bound: int, partners: List[Tuple[int, int]]
    ) -> List[Edge]:
        """Seeds for a delete's region: partner edges that attain the
        minimum φ of a butterfly through ``(u, v)`` — only a butterfly
        alive at the candidate's own level can pull it down when it dies
        (the min includes ``(u, v)``'s φ, i.e. ``bound``)."""
        seeds: List[Edge] = []
        seeded: Set[Edge] = set()
        for w, x in partners:
            others = ((u, x), (w, v), (w, x))
            fly_min = min(bound, *(self._phi[e] for e in others))
            if fly_min > 0:  # a φ = 0 edge can never drop
                for edge in others:
                    if self._phi[edge] == fly_min and edge not in seeded:
                        seeded.add(edge)
                        seeds.append(edge)
        return seeds

    def _conflicts(
        self,
        edge: Optional[Edge],
        partners: List[Tuple[int, int]],
        u: int,
        v: int,
        state: _BatchState,
    ) -> bool:
        """True when an op's butterflies touch a pending interior edge.

        Checked against the *pre-mutation* graph before anything is
        applied: the mutation creates/destroys exactly the butterflies
        spanned by ``partners``, so a clear here guarantees the pending
        regions' collected butterfly sets (and their supports, and their
        exterior φ reads) stay valid after the mutation lands.
        """
        pending = state.pending_edges
        if not pending:
            return False
        if edge is not None and edge in pending:
            return True
        for w, x in partners:
            if (
                (u, x) in pending
                or (w, v) in pending
                or (w, x) in pending
            ):
                return True
        return False

    def _predicted_blowout(
        self,
        bound: int,
        first_layer: int,
        cap: Optional[int],
        state: _BatchState,
    ) -> bool:
        """Cheap fallback predictor: h-index bound × first-layer estimate.

        The insert BFS expands through edges below ``bound`` for up to
        ``bound`` cascading levels, so ``bound × first-layer candidates``
        estimates the region scale from quantities the op already computed
        — no BFS, no abort cost.  Mispredictions are economics, never
        correctness: a false positive skips a repair that would have fit
        (the batch falls back to one rebuild), a false negative runs the
        search and hits the work cap as before.
        """
        if not state.predict or cap is None:
            return False
        estimate = max(1, bound) * max(1, first_layer)
        return estimate > cap

    def _cap_for_op(self, state: _BatchState) -> Optional[int]:
        if state.max_region_edges is not None:
            return state.max_region_edges
        return self.budget.cap(self._dyn.num_edges, state.budget_fraction)

    def _fallback(
        self, report: RepairReport, state: _BatchState, predicted: bool
    ) -> RepairReport:
        """Give up on φ: land pending peels, then go dirty.

        The pending regions were collected against exact φ and are
        untouched by this op's mutation (the conflict check cleared it), so
        their deferred peels are still valid — applying them keeps φ
        repaired up to the last healthy op before the tracker goes dirty.
        """
        self._flush(state)
        if predicted:
            state.predicted_fallbacks += 1
        else:
            state.budget_aborts += 1
            if state.predict:
                state.predictor_misses += 1
        self.mark_dirty()
        report.fallback = True
        return report

    def _defer(
        self,
        region: List[Edge],
        flies: Dict[FlyKey, List[Edge]],
        report: RepairReport,
        state: _BatchState,
        inserted: Optional[Edge] = None,
    ) -> None:
        """Queue a collected region for the batch's merged peel."""
        report.region_size = len(region)
        num_edges = self._dyn.num_edges
        report.region_fraction = len(region) / num_edges if num_edges else 0.0
        self.budget.observe(len(region))
        if state.predict:
            state.predictor_hits += 1
        if not region:
            if inserted is not None:
                report.changed[inserted] = (-1, self._phi[inserted])
            return
        state.pending.append(
            _PendingRegion(
                region=region, flies=flies, report=report, inserted=inserted
            )
        )
        state.pending_edges.update(region)

    # ----------------------------------------------------------- mutation

    def _insert(self, u: int, v: int, state: _BatchState) -> RepairReport:
        partners = self._dyn.butterfly_partners(u, v)  # pre-insert
        if self._conflicts(None, partners, u, v, state):
            self._conflict_flush(state)
        created = self._dyn.insert_edge(u, v)
        report = RepairReport(op="insert", edge=(u, v), butterflies=created)
        self._phi[(u, v)] = 0
        self._phi_touched.add((u, v))
        if created == 0:
            # No butterflies: the new edge settles at φ = 0 and no support
            # moved anywhere, so the decomposition is already exact.
            return report
        bound = self._insert_bound(u, v, partners)
        report.k_bound = bound
        report.changed[(u, v)] = (-1, 0)
        if bound == 0:
            return report
        cap = self._cap_for_op(state)
        if state.predict and cap is not None:
            phi = self._phi
            first_layer = set()
            for w, x in partners:
                for other in ((u, x), (w, v), (w, x)):
                    if phi[other] < bound:
                        first_layer.add(other)
            if self._predicted_blowout(bound, len(first_layer), cap, state):
                return self._fallback(report, state, predicted=True)
        found = self._search([(u, v)], bound, "insert", cap, state)
        if found is _BUDGET:
            return self._fallback(report, state, predicted=False)
        region, flies = found
        self._defer(region, flies, report, state, inserted=(u, v))
        return report

    def _delete(self, u: int, v: int, state: _BatchState) -> RepairReport:
        partners = self._dyn.butterfly_partners(u, v)  # pre-delete
        if self._conflicts((u, v), partners, u, v, state):
            self._conflict_flush(state)
        # The bound K = φ_old(u, v) is exact: deletion can only pull edges
        # at or below the deleted edge's own level.
        bound = self._phi[(u, v)]
        seeds = self._delete_seeds(u, v, bound, partners)
        destroyed = self._dyn.delete_edge(u, v)
        del self._phi[(u, v)]
        self._phi_touched.add((u, v))
        report = RepairReport(
            op="delete", edge=(u, v), butterflies=destroyed, k_bound=bound
        )
        if destroyed == 0 or bound == 0 or not seeds:
            # Either no butterfly died, or every edge that lost one already
            # sits at φ = 0 (φ ≥ 0 cannot drop further): nothing to repair.
            return report
        cap = self._cap_for_op(state)
        if self._predicted_blowout(bound, len(seeds), cap, state):
            return self._fallback(report, state, predicted=True)
        found = self._search(seeds, bound, "delete", cap, state)
        if found is _BUDGET:
            return self._fallback(report, state, predicted=False)
        region, flies = found
        self._defer(region, flies, report, state)
        return report

    def apply_batch(
        self,
        inserts: Iterable[Edge] = (),
        deletes: Iterable[Edge] = (),
        *,
        max_region_edges: Optional[int] = None,
        budget_fraction: Optional[float] = None,
        predict: bool = True,
    ) -> BatchReport:
        """Apply a mutation batch and repair φ in its affected regions.

        The only mutation entry point: a single-edge update is
        ``apply_batch(inserts=[e])`` or ``apply_batch(deletes=[e])``.  The
        whole batch is validated against the current graph *before*
        anything mutates (see
        :meth:`DynamicBipartiteGraph.validate_batch`); a bad op raises
        ``ValueError`` and leaves graph and tracker untouched.  Deletes
        apply before inserts, so a delete+insert of the same edge is a
        toggle.

        Each op bounds and collects its region (see the module docstring);
        peels are deferred and merged: butterfly-disjoint regions
        accumulate until the batch ends (or an overlap forces a flush) and
        then re-peel in one multi-seed :func:`peel_region` call.

        Parameters
        ----------
        inserts, deletes:
            ``(u, v)`` pairs.
        max_region_edges:
            Per-op region budget in edges; overrides the adaptive budget.
            An op whose region outgrows it (or is predicted to) leaves its
            mutation applied but φ unrepaired: the tracker goes dirty, the
            op's report has ``fallback`` set, and the remaining ops apply
            support-only, so the caller can schedule one full rebuild.
        budget_fraction:
            Ceiling on the tracker's :class:`AdaptiveBudget` as a fraction
            of the edge count.  With neither budget given, the search is
            unbounded.
        predict:
            Skip the region search for ops whose bound × first-layer
            estimate already exceeds the budget.  ``False`` runs every
            search until it completes or exhausts the budget.

        Returns
        -------
        BatchReport
            Per-op reports plus batch-level predictor/peel counters.
        """
        inserts = [(int(u), int(v)) for u, v in inserts]
        deletes = [(int(u), int(v)) for u, v in deletes]
        self._dyn.validate_batch(inserts, deletes)
        state = _BatchState(
            max_region_edges=max_region_edges,
            budget_fraction=budget_fraction,
            predict=predict,
        )
        batch = BatchReport()
        for kind, (u, v) in [("delete", e) for e in deletes] + [
            ("insert", e) for e in inserts
        ]:
            if self.dirty:
                # φ is already lost: keep the mirror exact, skip repair.
                if kind == "insert":
                    created = self._dyn.insert_edge(u, v)
                    report = RepairReport(
                        op="insert",
                        edge=(u, v),
                        butterflies=created,
                        fallback=True,
                    )
                else:
                    destroyed = self._dyn.delete_edge(u, v)
                    report = RepairReport(
                        op="delete",
                        edge=(u, v),
                        butterflies=destroyed,
                        fallback=True,
                    )
            elif kind == "insert":
                report = self._insert(u, v, state)
            else:
                report = self._delete(u, v, state)
            batch.reports.append(report)
        self._flush(state)
        batch.predicted_fallbacks = state.predicted_fallbacks
        batch.budget_aborts = state.budget_aborts
        batch.predictor_hits = state.predictor_hits
        batch.predictor_misses = state.predictor_misses
        batch.conflict_flushes = state.conflict_flushes
        batch.merged_peels = state.merged_peels
        batch.regions_peeled = state.regions_peeled
        return batch

    def verify(self) -> bool:
        """Parity check against a fresh static decomposition (tests/debug)."""
        graph, phi = self.phi_snapshot()
        from repro.core.api import bitruss_decomposition

        fresh = bitruss_decomposition(graph, algorithm="bit-bu-csr")
        return bool(np.array_equal(phi, fresh.phi))

    def __repr__(self) -> str:
        return (
            f"IncrementalBitruss(m={self._dyn.num_edges}, "
            f"dirty={self.dirty})"
        )
