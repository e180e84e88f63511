"""Instrumentation: update counters, phase timers and the index-size model.

The paper evaluates its algorithms with three machine-neutral metrics besides
wall-clock time:

* the **number of butterfly-support updates** (Figs. 7 and 10) — every time an
  edge's support value is rewritten during peeling counts as one update;
* the same counter **bucketed by the edge's original support** (Fig. 7), which
  exposes how much work the *hub edges* cost each algorithm;
* the **size of the online index** (Fig. 11).

All decomposition algorithms in :mod:`repro.core` accept an optional
:class:`UpdateCounter` / :class:`PhaseTimer` and report through them.
"""

from __future__ import annotations

import bisect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import spans as _obs_spans


class UpdateCounter:
    """Counts butterfly-support updates, optionally bucketed.

    Parameters
    ----------
    original_supports:
        When given (one value per edge id), updates are additionally
        aggregated into buckets keyed by the edge's *original* butterfly
        support, reproducing the x-axis of the paper's Figure 7.
    bucket_bounds:
        Ascending, upper-inclusive bucket boundaries.  The paper uses
        ``<5000, 5001-10000, 10001-15000, 15001-20000, >20000``; our default
        is proportional but caller-configurable since the stand-in datasets
        are smaller.
    """

    def __init__(
        self,
        original_supports: Optional[Sequence[int]] = None,
        bucket_bounds: Optional[Sequence[int]] = None,
    ) -> None:
        self.total = 0
        self._original = (
            np.asarray(original_supports, dtype=np.int64)
            if original_supports is not None
            else None
        )
        self._bounds = list(bucket_bounds) if bucket_bounds is not None else None
        self._bucket_totals = np.zeros(
            len(self._bounds) + 1 if self._bounds is not None else 0, dtype=np.int64
        )

    def record(self, edge: int, count: int = 1) -> None:
        """Record ``count`` support updates applied to ``edge``."""
        self.total += count
        if self._original is not None and self._bounds is not None:
            # Bucket i holds supports in (bounds[i-1], bounds[i]].
            bucket = bisect.bisect_left(self._bounds, self._original[edge])
            self._bucket_totals[bucket] += count

    def record_many(self, edges: Sequence[int]) -> None:
        """Record one update per entry of ``edges`` (repeats count again) —
        the same totals as calling :meth:`record` on each, without a
        Python loop per edge."""
        edges = np.asarray(edges, dtype=np.int64)
        self.total += len(edges)
        if self._original is not None and self._bounds is not None and len(edges):
            buckets = np.searchsorted(self._bounds, self._original[edges])
            self._bucket_totals += np.bincount(
                buckets, minlength=len(self._bucket_totals)
            )

    def bucket_labels(self) -> List[str]:
        """Human-readable labels matching :meth:`bucket_totals`."""
        if self._bounds is None:
            return []
        labels = []
        low = 0
        for bound in self._bounds:
            labels.append(f"{low}-{bound}")
            low = bound + 1
        labels.append(f">{low - 1}")
        return labels

    def bucket_totals(self) -> List[int]:
        """Per-bucket update totals (empty when unbucketed)."""
        return self._bucket_totals.tolist()


class PhaseTimer:
    """Accumulates wall-clock time per named phase.

    Used to split BiT-BS into its counting and peeling phases (Fig. 5) and to
    report per-iteration pre-processing of BiT-PC.
    """

    def __init__(self) -> None:
        self._elapsed: Dict[str, float] = {}
        self._order: List[str] = []

    @contextmanager
    def time(self, phase: str) -> Iterator[None]:
        """Context manager accumulating into ``phase``.

        The block is also a :func:`repro.obs.spans.span`, so it shows in
        the phase tree while profiling and in the trace it runs in.
        """
        start = time.perf_counter()
        try:
            with _obs_spans.span(phase):
                yield
        finally:
            self.add(phase, time.perf_counter() - start)

    def add(self, phase: str, seconds: float) -> None:
        """Directly add ``seconds`` to ``phase``."""
        if phase not in self._elapsed:
            self._elapsed[phase] = 0.0
            self._order.append(phase)
        self._elapsed[phase] += seconds

    def elapsed(self, phase: str) -> float:
        """Seconds accumulated in ``phase`` (0.0 when never entered)."""
        return self._elapsed.get(phase, 0.0)

    def phases(self) -> List[str]:
        """Phases in first-entered order."""
        return list(self._order)

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of all phase timings."""
        return dict(self._elapsed)

    @property
    def total(self) -> float:
        """Sum over all phases."""
        return sum(self._elapsed.values())


@dataclass
class IndexSizeModel:
    """A simple, documented byte-cost model for BE-Index size (Fig. 11).

    The C++ implementation's index stores, per bloom, its id and butterfly
    count, and per (bloom, edge) link the edge id plus the twin-edge id.  We
    charge ``word_bytes`` for every stored word:

    * 2 words per bloom (id, butterfly count),
    * 2 words per edge vertex in ``L(I)`` (id, support),
    * 2 words per link in ``E(I)`` (edge id, twin id).

    ``peak_*`` fields track the largest index observed, which is what matters
    for BiT-PC where per-iteration indexes are built and released.
    """

    word_bytes: int = 8
    peak_blooms: int = 0
    peak_edges: int = 0
    peak_links: int = 0

    def observe(self, num_blooms: int, num_edges: int, num_links: int) -> None:
        """Record an index snapshot, keeping component-wise peaks."""
        total = self._bytes(num_blooms, num_edges, num_links)
        if total > self.peak_bytes:
            self.peak_blooms = num_blooms
            self.peak_edges = num_edges
            self.peak_links = num_links

    def _bytes(self, blooms: int, edges: int, links: int) -> int:
        return self.word_bytes * (2 * blooms + 2 * edges + 2 * links)

    @property
    def peak_bytes(self) -> int:
        """Peak modelled index footprint in bytes."""
        return self._bytes(self.peak_blooms, self.peak_edges, self.peak_links)

    @property
    def peak_megabytes(self) -> float:
        """Peak modelled index footprint in MiB."""
        return self.peak_bytes / (1024.0 * 1024.0)


@dataclass
class DecompositionStats:
    """Everything an algorithm run reports besides the bitruss numbers."""

    algorithm: str = ""
    updates: int = 0
    update_buckets: List[Tuple[str, int]] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    index_peak_bytes: int = 0
    iterations: int = 0
    parameters: Dict[str, object] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Total wall-clock across all recorded phases."""
        return sum(self.timings.values())

    def summary(self) -> str:
        """One-line human-readable summary."""
        phases = ", ".join(f"{k}={v:.3f}s" for k, v in self.timings.items())
        return (
            f"{self.algorithm}: {self.total_seconds:.3f}s ({phases}); "
            f"{self.updates} support updates; "
            f"index peak {self.index_peak_bytes / 1024.0:.1f} KiB"
        )
