"""Typed compile metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` is the numeric counterpart of the tracer: as
one (loop, configuration) compilation runs, each pass records the
paper-meaningful quantities — ResII/RecII/MinII and achieved II, RCG
shape and cut weight, copies inserted, spill rounds and spilled
symbolics, scheduler backtracks, cache hits — under stable dotted names
(documented in docs/architecture.md).  A registry snapshot is a plain
JSON-able dict, so it survives the process boundary of the parallel
runner unchanged; :func:`merge_snapshots` aggregates any number of
per-cell snapshots into the corpus-wide view exported by
``repro evaluate --metrics-out``.

Three metric kinds, deliberately strict about types (a counter fed a
float, or a name reused as a different kind, is a bug worth failing on):

* **Counter** — monotonically increasing event count (``int`` only).
* **Gauge** — last-set numeric value (``int``/``float``; ``bool``
  rejected).  Gauges aggregate into count/min/max/mean summaries.
* **Histogram** — streaming summary (count/sum/min/max) of observations
  plus fixed log-spaced bucket counts, from which snapshots estimate the
  p50/p99.  The buckets are the same in every process, so merging
  per-worker histograms gives the same quantiles in any order.
"""

from __future__ import annotations

import math
import numbers

#: buckets per doubling: bucket ``k`` holds the values in
#: (2^((k-1)/4), 2^(k/4)], so a quantile read off the buckets is within
#: one bucket ratio, 2^(1/4), of the sample's
BUCKETS_PER_OCTAVE = 4
#: the bucket of zero and negative values, below every positive float's
_NONPOSITIVE = -4300
#: the quantiles a histogram snapshot reports
QUANTILES = (("p50", 0.5), ("p99", 0.99))


class MetricTypeError(TypeError):
    """A metric was used with the wrong type or redeclared as another kind."""


def _check_number(name: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise MetricTypeError(
            f"metric {name!r} expects a real number, got {value!r}"
        )
    return float(value)


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if isinstance(n, bool) or not isinstance(n, int):
            raise MetricTypeError(
                f"counter {self.name!r} increments by int, got {n!r}"
            )
        if n < 0:
            raise MetricTypeError(
                f"counter {self.name!r} cannot decrease (inc by {n})"
            )
        self.value += n


class Gauge:
    """Last-set numeric value."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        v = _check_number(self.name, value)
        # keep ints exact so snapshots round-trip through JSON unchanged
        self.value = int(v) if isinstance(value, int) else v


def _bucket(value: float) -> int:
    if value <= 0:
        return _NONPOSITIVE
    return math.ceil(math.log2(value) * BUCKETS_PER_OCTAVE)


def _summary(count: int, total: float, lo, hi, buckets: dict[int, int]) -> dict:
    """A histogram snapshot.  Each quantile is the nearest-rank one, read
    as its bucket's geometric midpoint clamped to the observed range
    (``None`` when empty)."""
    out = {"count": count, "sum": total, "min": lo, "max": hi}
    ranked = sorted(buckets.items())
    for key, q in QUANTILES:
        out[key] = None
        rank, seen = max(1, math.ceil(q * count)), 0
        for k, n in ranked:
            seen += n
            if seen >= rank:
                estimate = 0.0 if k == _NONPOSITIVE else 2.0 ** (
                    (k - 0.5) / BUCKETS_PER_OCTAVE)
                out[key] = min(max(estimate, lo), hi)
                break
    out["buckets"] = [[k, n] for k, n in ranked]
    return out


class Histogram:
    """Streaming summary of observed finite values, with bucket counts."""

    __slots__ = ("name", "count", "sum", "min", "max", "buckets")
    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        #: bucket index -> observations in it
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        v = _check_number(self.name, value)
        if not math.isfinite(v):
            raise MetricTypeError(
                f"histogram {self.name!r} expects a finite value, got {value!r}"
            )
        self.count += 1
        self.sum += v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)
        k = _bucket(v)
        self.buckets[k] = self.buckets.get(k, 0) + 1

    def snapshot(self) -> dict:
        return _summary(self.count, self.sum, self.min, self.max, self.buckets)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Namespace of typed metrics for one compilation (or one worker)."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = _KINDS[kind](name)
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise MetricTypeError(
                f"metric {name!r} is a {metric.kind}, not a {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, "gauge")

    def histogram(self, name: str) -> Histogram:
        return self._get(name, "histogram")

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> dict:
        """JSON-able view: ``{"counters": {...}, "gauges": {...},
        "histograms": {...}}`` with names sorted for stable output."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.kind == "counter":
                counters[name] = metric.value
            elif metric.kind == "gauge":
                if metric.value is not None:
                    gauges[name] = metric.value
            else:
                histograms[name] = metric.snapshot()
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}


def merge_snapshots(snapshots) -> dict:
    """Aggregate per-cell snapshots corpus-wide.

    Counters sum; each gauge becomes a ``{count, min, max, mean}``
    summary over the cells that set it; histograms merge their streaming
    summaries and sum their buckets, and the merged quantiles are read
    off the summed buckets.  Sums are added exactly (``math.fsum``), so
    the result does not depend on the order of ``snapshots``.  The input
    may carry extra keys (e.g. the runner's ``loop`` tag); only the three
    metric sections are read.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, dict] = {}
    histograms: dict[str, dict] = {}
    n = 0
    for snap in snapshots:
        n += 1
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            agg = gauges.get(name)
            if agg is None:
                gauges[name] = {"count": 1, "min": value, "max": value,
                                "sum": value}
            else:
                agg["count"] += 1
                agg["min"] = min(agg["min"], value)
                agg["max"] = max(agg["max"], value)
                agg["sum"] += value
        for name, h in snap.get("histograms", {}).items():
            agg = histograms.get(name)
            if agg is None:
                agg = histograms[name] = {"count": 0, "sums": [], "min": None,
                                          "max": None, "buckets": {}}
            agg["count"] += h["count"]
            agg["sums"].append(h["sum"])
            for key, pick in (("min", min), ("max", max)):
                if h[key] is not None:
                    agg[key] = h[key] if agg[key] is None else pick(
                        agg[key], h[key])
            buckets = agg["buckets"]
            for k, count in h.get("buckets", ()):
                buckets[k] = buckets.get(k, 0) + count
    for agg in gauges.values():
        agg["mean"] = agg.pop("sum") / agg["count"]
    for name, agg in histograms.items():
        merged = _summary(agg["count"], math.fsum(agg["sums"]), agg["min"],
                          agg["max"], agg["buckets"])
        merged["mean"] = merged["sum"] / agg["count"] if agg["count"] else None
        histograms[name] = merged
    return {
        "cells": n,
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }
