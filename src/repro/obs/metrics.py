"""Metrics registry: counters, gauges, fixed-bucket histograms.

Metric instances are cheap mutable cells; the registry owns the namespace.
A metric is addressed by *name* plus optional *labels*, flattened into a
stable key -- ``runtime.intrinsic_calls{intrinsic=__quantum__qis__h__body}``
-- so snapshots are plain ``dict``\\ s that diff and serialise cleanly.

Snapshot layout (all keys sorted)::

    {
      "counters":   {key: number},
      "gauges":     {key: number},
      "histograms": {key: {"count": n, "sum": s, "min": ..., "max": ...,
                           "mean": ..., "buckets": {"0.001": n, ..., "+Inf": n}}},
    }

Beyond the JSON snapshot, :meth:`MetricsRegistry.to_openmetrics` renders
the same registry in the Prometheus/OpenMetrics text exposition format
(``# TYPE`` families, ``_total`` counters, cumulative ``_bucket{le=...}``
histograms, terminated by ``# EOF``), so any scrape-based collector can
ingest a ``--metrics-format openmetrics`` artifact unchanged.
"""

from __future__ import annotations

import json
import re
import threading
from bisect import bisect_left
from typing import Dict, IO, List, Optional, Sequence, Tuple, Union

# Latency buckets in seconds: 10us .. 10s, decade-and-half steps.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0,
)


def escape_label_value(value: object) -> str:
    """Label-value escaping shared by flattened keys and OpenMetrics.

    Backslash, double-quote, and newline are the three characters the
    Prometheus text format escapes; escaping them in :func:`metric_key`
    too keeps flattened keys single-line and makes the rendering
    deterministic and golden-testable.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        c = value[i]
        if c == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            else:
                out.append(nxt)
            i += 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


def metric_key(name: str, labels: Optional[Dict[str, object]] = None) -> str:
    """``name{k=v,...}`` with label keys sorted; just ``name`` when unlabeled.

    Label values are escaped (see :func:`escape_label_value`) so keys are
    always single-line and render identically no matter who built them.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={escape_label_value(labels[k])}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`metric_key` (labels come back as strings)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: Dict[str, str] = {}
    for part in inner[:-1].split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = _unescape_label_value(v)
    return name, labels


def openmetrics_name(name: str) -> str:
    """A legal Prometheus metric name: ``[a-zA-Z_:][a-zA-Z0-9_:]*``.

    The registry's dotted names (``runtime.shots.requested``) map to
    underscores; anything else illegal is replaced the same way.
    """
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not sanitized or not re.match(r"[a-zA-Z_:]", sanitized[0]):
        sanitized = "_" + sanitized
    return sanitized


def _openmetrics_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _openmetrics_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [
        f'{openmetrics_name(k)}="{escape_label_value(v)}"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


class Counter:
    """Monotonically increasing value (ints or float seconds)."""

    __slots__ = ("key", "value")

    def __init__(self, key: str):
        self.key = key
        self.value: float = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.key} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """Last-write-wins value."""

    __slots__ = ("key", "value")

    def __init__(self, key: str):
        self.key = key
        self.value: float = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def add(self, amount: Union[int, float]) -> None:
        self.value += amount


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max.

    ``bounds`` are upper bucket edges; an implicit ``+Inf`` bucket catches
    the tail, so ``len(counts) == len(bounds) + 1``.
    """

    __slots__ = ("key", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, key: str, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS):
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bucket bounds must be sorted")
        self.key = key
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, object]:
        buckets = {repr(b): n for b, n in zip(self.bounds, self.counts)}
        buckets["+Inf"] = self.counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Get-or-create namespace for all three metric kinds.

    Metric *creation* takes a lock so concurrent get-or-create from
    several threads sharing one observer cannot drop a cell.  The fast
    path -- the metric already
    exists -- stays a plain dict read.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- access ---------------------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        key = metric_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(key, Counter(key))
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = metric_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(key, Gauge(key))
        return metric

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_TIME_BUCKETS,
        **labels: object,
    ) -> Histogram:
        key = metric_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(key, Histogram(key, bounds))
        return metric

    def value(self, key: str, default: Optional[float] = None) -> Optional[float]:
        """Current value of a counter or gauge by its flattened key.

        Lookup helper for consumers that read metrics back out (qir-bench
        pulls ``runtime.shots.fastpath`` / ``pass.budget_bust`` counters);
        histograms are not scalars, so they are not reachable here.
        """
        metric = self._counters.get(key)
        if metric is None:
            metric = self._gauges.get(key)
        return metric.value if metric is not None else default

    def values_with_prefix(self, prefix: str) -> Dict[str, float]:
        """All counter/gauge values whose key starts with ``prefix``.

        Subsystem read-back helper: the process scheduler's supervision
        counters live under ``scheduler.worker.``, and both the CI chaos
        smoke and ``qir-bench`` pull the whole family in one call instead
        of guessing individual keys.
        """
        out: Dict[str, float] = {}
        for key, metric in self._counters.items():
            if key.startswith(prefix):
                out[key] = metric.value
        for key, metric in self._gauges.items():
            if key.startswith(prefix):
                out.setdefault(key, metric.value)
        return dict(sorted(out.items()))

    # -- snapshot -------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {
            "counters": {k: self._counters[k].value for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].snapshot() for k in sorted(self._histograms)
            },
        }

    def write_json(self, destination: Union[str, IO[str]]) -> None:
        if isinstance(destination, str):
            with open(destination, "w", encoding="utf-8") as handle:
                self.write_json(handle)
            return
        json.dump(self.snapshot(), destination, indent=2, sort_keys=True)
        destination.write("\n")

    # -- OpenMetrics ----------------------------------------------------------
    def to_openmetrics(self) -> str:
        """The registry in Prometheus/OpenMetrics text exposition format.

        * metric families are grouped under one ``# TYPE`` line each and
          emitted in sorted family order, samples in sorted label order,
          so the rendering is deterministic (golden-testable);
        * counters get the OpenMetrics ``_total`` sample suffix;
        * histogram buckets are emitted *cumulatively* with ``le=`` labels
          (the registry stores per-bucket counts), plus ``_sum``/``_count``;
        * label values are escaped per the text-format rules and the
          document is terminated by ``# EOF``.
        """
        families: Dict[str, Tuple[str, List[str]]] = {}

        def family(name: str, kind: str) -> Tuple[str, List[str]]:
            fam = openmetrics_name(name)
            slot = families.setdefault(fam, (kind, []))
            if slot[0] != kind:
                # Same sanitized name registered as a different kind:
                # disambiguate rather than emit a self-contradictory family.
                fam = f"{fam}_{kind}"
                slot = families.setdefault(fam, (kind, []))
            return fam, slot[1]

        # Keys are iterated sorted, so samples land in each family's line
        # list already ordered; histogram buckets must keep ascending
        # ``le=`` order, so lines are never re-sorted after the fact.
        for key in sorted(self._counters):
            name, labels = parse_metric_key(key)
            fam, lines = family(name, "counter")
            lines.append(
                f"{fam}_total{_openmetrics_labels(labels)} "
                f"{_openmetrics_value(self._counters[key].value)}"
            )
        for key in sorted(self._gauges):
            name, labels = parse_metric_key(key)
            fam, lines = family(name, "gauge")
            lines.append(
                f"{fam}{_openmetrics_labels(labels)} "
                f"{_openmetrics_value(self._gauges[key].value)}"
            )
        for key in sorted(self._histograms):
            name, labels = parse_metric_key(key)
            histogram = self._histograms[key]
            fam, lines = family(name, "histogram")
            cumulative = 0
            for bound, count in zip(histogram.bounds, histogram.counts):
                cumulative += count
                le = f'le="{_openmetrics_value(bound)}"'
                lines.append(
                    f"{fam}_bucket{_openmetrics_labels(labels, le)} {cumulative}"
                )
            inf_le = 'le="+Inf"'
            lines.append(
                f"{fam}_bucket{_openmetrics_labels(labels, inf_le)} {histogram.count}"
            )
            lines.append(
                f"{fam}_sum{_openmetrics_labels(labels)} "
                f"{_openmetrics_value(histogram.total)}"
            )
            lines.append(
                f"{fam}_count{_openmetrics_labels(labels)} {histogram.count}"
            )

        out: List[str] = []
        for fam in sorted(families):
            kind, lines = families[fam]
            out.append(f"# TYPE {fam} {kind}")
            out.extend(lines)
        out.append("# EOF")
        return "\n".join(out) + "\n"

    def write_openmetrics(self, destination: Union[str, IO[str]]) -> None:
        if isinstance(destination, str):
            with open(destination, "w", encoding="utf-8") as handle:
                self.write_openmetrics(handle)
            return
        destination.write(self.to_openmetrics())

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)
