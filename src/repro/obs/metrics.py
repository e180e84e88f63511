"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The primitives are deliberately minimal — plain Python attribute bumps
with no locks, safe on the server's single-threaded asyncio path and
cheap enough for per-request bookkeeping.  Labelled series live in one
dict per family keyed by the label-value tuple, so the common unlabelled
case is a single dict lookup with the empty tuple.

Each event is counted once, at the site where it happens, into a family
of the registry that owns it:

* a process-global registry (:func:`get_registry`) carries the metrics
  of library code that has no server to attach to — incremental-repair
  counters;
* each serving component (the HTTP server, its query coalescer, its
  update manager) owns a :class:`MetricsRegistry`, so two servers in one
  process never mix their counts, and its JSON ``stats()`` read the
  same families.

A Prometheus scrape folds every registry's plain-dict
:meth:`~MetricsRegistry.snapshot` into a scratch registry with
:meth:`~MetricsRegistry.merge_snapshot` (counters and histogram buckets
add; gauges last-write-win) and encodes it with
:meth:`MetricsRegistry.to_prometheus`.
"""

from __future__ import annotations

import time as _time
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

LabelValues = Tuple[str, ...]


def _now() -> float:
    return _time.time()

#: Default latency buckets (seconds): sub-millisecond cache hits up to
#: multi-second cold decompositions, roughly logarithmic.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)


def _check_labels(
    label_names: Tuple[str, ...], labels: Sequence[str]
) -> LabelValues:
    if len(labels) != len(label_names):
        raise ValueError(
            f"expected {len(label_names)} label value(s) "
            f"{label_names!r}, got {len(labels)}"
        )
    return tuple(str(v) for v in labels)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    # Prometheus accepts integers and floats; keep integers exact so the
    # golden-file exposition is stable across platforms.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _labels_text(names: Tuple[str, ...], values: LabelValues) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


def _exemplar_text(slot: list) -> str:
    labels, value, ts = slot
    inner = ",".join(
        f'{n}="{_escape_label(str(v))}"' for n, v in sorted(labels.items())
    )
    return f" # {{{inner}}} {_format_value(value)} {ts:.3f}"


class Counter:
    """A monotonically increasing family of labelled counters."""

    kind = "counter"

    __slots__ = ("name", "help", "label_names", "_values")

    def __init__(
        self, name: str, help: str, label_names: Tuple[str, ...] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = label_names
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, labels: Sequence[str] = ()) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValueError("counters only go up")
        key = _check_labels(self.label_names, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def set_to(self, value: float, labels: Sequence[str] = ()) -> None:
        """Overwrite the labelled series (for mirroring external counts).

        Used when a counter kept by another object (e.g. a query engine's
        cache hits) is reflected into a scrape-time registry; never for
        live accounting.
        """
        key = _check_labels(self.label_names, labels)
        self._values[key] = float(value)

    def value(self, labels: Sequence[str] = ()) -> float:
        """Current value of the labelled series (0 when never bumped)."""
        return self._values.get(_check_labels(self.label_names, labels), 0.0)

    def total(self) -> float:
        """Sum over every labelled series."""
        return sum(self._values.values())

    def series(self) -> Dict[LabelValues, float]:
        """All labelled series, keyed by label-value tuple."""
        return dict(self._values)


class Gauge(Counter):
    """A settable family of labelled values (can go up and down)."""

    kind = "gauge"

    __slots__ = ()

    def set(self, value: float, labels: Sequence[str] = ()) -> None:
        """Set the labelled series to ``value``."""
        key = _check_labels(self.label_names, labels)
        self._values[key] = float(value)

    def inc(self, amount: float = 1.0, labels: Sequence[str] = ()) -> None:
        key = _check_labels(self.label_names, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, labels: Sequence[str] = ()) -> None:
        self.inc(-amount, labels)


class Histogram:
    """Fixed-bucket latency histogram (cumulative on encode, not in RAM).

    Per labelled series: one per-bucket count list (non-cumulative,
    ``len(buckets) + 1`` slots, the last being the ``+Inf`` overflow),
    a value sum and an observation count.  ``observe`` is a bisect plus
    three attribute bumps — no numpy, no locks.
    """

    kind = "histogram"

    __slots__ = ("name", "help", "label_names", "buckets", "_series", "_exemplars")

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Tuple[str, ...] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("buckets must be a sorted, de-duplicated list")
        self.name = name
        self.help = help
        self.label_names = label_names
        self.buckets = bounds
        # label tuple -> [counts list, sum, count]
        self._series: Dict[LabelValues, List[object]] = {}
        # label tuple -> per-bucket [labels dict, value, unix ts] or None;
        # the last observation landing in each bucket wins (OpenMetrics
        # exemplars join histogram buckets to trace ids).
        self._exemplars: Dict[LabelValues, List[Optional[list]]] = {}

    def observe(
        self,
        value: float,
        labels: Sequence[str] = (),
        exemplar: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Record one observation, optionally tagged with exemplar labels.

        ``exemplar`` is a small label mapping (typically
        ``{"trace_id": ...}``) attached to the bucket the observation
        lands in and surfaced by the OpenMetrics exposition, joining
        latency buckets to inspectable traces.
        """
        key = _check_labels(self.label_names, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = [
                [0] * (len(self.buckets) + 1),
                0.0,
                0,
            ]
        idx = bisect_left(self.buckets, value)
        series[0][idx] += 1
        series[1] += value
        series[2] += 1
        if exemplar:
            slots = self._exemplars.get(key)
            if slots is None:
                slots = self._exemplars[key] = [None] * (len(self.buckets) + 1)
            slots[idx] = [dict(exemplar), float(value), _now()]

    def exemplars(self, labels: Sequence[str] = ()) -> List[Optional[list]]:
        """Per-bucket exemplars (``[labels, value, ts]`` or None) for a series."""
        slots = self._exemplars.get(_check_labels(self.label_names, labels))
        if slots is None:
            return [None] * (len(self.buckets) + 1)
        return [list(s) if s is not None else None for s in slots]

    def count(self, labels: Sequence[str] = ()) -> int:
        """Observations recorded into the labelled series."""
        series = self._series.get(_check_labels(self.label_names, labels))
        return int(series[2]) if series is not None else 0

    def sum(self, labels: Sequence[str] = ()) -> float:
        """Sum of observed values of the labelled series."""
        series = self._series.get(_check_labels(self.label_names, labels))
        return float(series[1]) if series is not None else 0.0

    def bucket_counts(self, labels: Sequence[str] = ()) -> List[int]:
        """Non-cumulative per-bucket counts (last slot is ``+Inf``)."""
        series = self._series.get(_check_labels(self.label_names, labels))
        if series is None:
            return [0] * (len(self.buckets) + 1)
        return list(series[0])

    def series(self) -> Dict[LabelValues, Tuple[List[int], float, int]]:
        """All labelled series as ``(bucket_counts, sum, count)``."""
        return {
            key: (list(counts), float(total), int(n))
            for key, (counts, total, n) in self._series.items()
        }


class MetricsRegistry:
    """A named collection of metric families.

    Families are get-or-create: asking for an existing name with the same
    kind and labels returns the live family, so modules can declare their
    metrics at call sites without import-order coupling.  An unlabelled
    counter or gauge starts with its one series at 0, so it is exposed
    before its first event.
    """

    def __init__(self) -> None:
        self._families: Dict[str, object] = {}

    # ------------------------------------------------------------ families

    def _get_or_create(self, cls, name: str, help: str, label_names, **kwargs):
        family = self._families.get(name)
        if family is not None:
            if type(family) is not cls or family.label_names != tuple(label_names):
                raise ValueError(
                    f"metric {name!r} already registered with a different "
                    "kind or label set"
                )
            return family
        family = cls(name, help, tuple(label_names), **kwargs)
        if not label_names and cls is not Histogram:
            family._values[()] = 0.0
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Counter:
        """Get or create a counter family."""
        return self._get_or_create(Counter, name, help, label_names)

    def gauge(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Gauge:
        """Get or create a gauge family."""
        return self._get_or_create(Gauge, name, help, label_names)

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram family."""
        return self._get_or_create(
            Histogram, name, help, label_names, buckets=buckets
        )

    def families(self) -> List[object]:
        """All families in name order."""
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[object]:
        """The named family, or None."""
        return self._families.get(name)

    def reset(self) -> None:
        """Drop every family (test isolation)."""
        self._families.clear()

    def __len__(self) -> int:
        return len(self._families)

    # ------------------------------------------------------ snapshot/merge

    def snapshot(self) -> Dict[str, dict]:
        """A picklable snapshot of every family (plain dicts and lists)."""
        out: Dict[str, dict] = {}
        for name, family in self._families.items():
            entry: Dict[str, object] = {
                "kind": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
            }
            if isinstance(family, Histogram):
                entry["buckets"] = list(family.buckets)
                entry["series"] = {
                    key: [list(counts), total, n]
                    for key, (counts, total, n) in family.series().items()
                }
                if family._exemplars:
                    entry["exemplars"] = {
                        key: [list(s) if s is not None else None for s in slots]
                        for key, slots in family._exemplars.items()
                    }
            else:
                entry["series"] = dict(family.series())
            out[name] = entry
        return out

    def merge_snapshot(self, snap: Mapping[str, dict]) -> None:
        """Fold a :meth:`snapshot` in: counters/histograms add, gauges set."""
        for name, entry in snap.items():
            kind = entry["kind"]
            label_names = tuple(entry["label_names"])
            if kind == "histogram":
                family = self.histogram(
                    name, entry.get("help", ""), label_names, entry["buckets"]
                )
                if tuple(float(b) for b in entry["buckets"]) != family.buckets:
                    raise ValueError(
                        f"histogram {name!r}: snapshot buckets differ"
                    )
                for key, (counts, total, n) in entry["series"].items():
                    key = tuple(key)
                    series = family._series.get(key)
                    if series is None:
                        family._series[key] = [list(counts), float(total), int(n)]
                    else:
                        for i, c in enumerate(counts):
                            series[0][i] += c
                        series[1] += total
                        series[2] += n
                for key, slots in entry.get("exemplars", {}).items():
                    key = tuple(key)
                    mine = family._exemplars.setdefault(
                        key, [None] * (len(family.buckets) + 1)
                    )
                    for i, incoming in enumerate(slots):
                        if incoming is None:
                            continue
                        if mine[i] is None or incoming[2] >= mine[i][2]:
                            mine[i] = [dict(incoming[0]), incoming[1], incoming[2]]
            elif kind == "gauge":
                family = self.gauge(name, entry.get("help", ""), label_names)
                for key, value in entry["series"].items():
                    family.set(value, tuple(key))
            elif kind == "counter":
                family = self.counter(name, entry.get("help", ""), label_names)
                for key, value in entry["series"].items():
                    family.inc(value, tuple(key))
            else:  # pragma: no cover - snapshot always round-trips our kinds
                raise ValueError(f"unknown metric kind {kind!r}")

    # ------------------------------------------------------------ encoding

    def to_prometheus(self, *, openmetrics: bool = False) -> str:
        """Encode every family in the Prometheus text exposition format.

        Families are emitted in name order and series in label order, so
        the output is deterministic (the golden-file tests rely on it).
        Histograms emit cumulative ``_bucket{le=...}`` series plus
        ``_sum`` and ``_count``, per the exposition format.

        With ``openmetrics=True`` the output additionally carries bucket
        exemplars (``... # {trace_id="..."} value ts``) and the ``# EOF``
        terminator; the classic text format stays byte-identical so
        existing golden files and scrapers are unaffected.
        """
        lines: List[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            names = family.label_names
            if isinstance(family, Histogram):
                for key in sorted(family._series):
                    counts, total, n = family._series[key]
                    slots = family._exemplars.get(key) if openmetrics else None
                    cumulative = 0
                    for i, (bound, c) in enumerate(zip(family.buckets, counts)):
                        cumulative += c
                        le = _labels_text(names + ("le",), key + (_format_value(bound),))
                        line = f"{family.name}_bucket{le} {cumulative}"
                        if slots is not None and slots[i] is not None:
                            line += _exemplar_text(slots[i])
                        lines.append(line)
                    cumulative += counts[-1]
                    le = _labels_text(names + ("le",), key + ("+Inf",))
                    line = f"{family.name}_bucket{le} {cumulative}"
                    if slots is not None and slots[-1] is not None:
                        line += _exemplar_text(slots[-1])
                    lines.append(line)
                    plain = _labels_text(names, key)
                    lines.append(
                        f"{family.name}_sum{plain} {_format_value(total)}"
                    )
                    lines.append(f"{family.name}_count{plain} {n}")
            else:
                for key in sorted(family._values):
                    labels = _labels_text(names, key)
                    value = _format_value(family._values[key])
                    lines.append(f"{family.name}{labels} {value}")
        if openmetrics:
            lines.append("# EOF")
        return "\n".join(lines) + "\n"


#: The process-global registry: library-level metrics with no server to
#: attach to (incremental-repair counters, ...).
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry`."""
    return _GLOBAL


def reset_registry() -> None:
    """Reset the process-global registry (test isolation)."""
    _GLOBAL.reset()
