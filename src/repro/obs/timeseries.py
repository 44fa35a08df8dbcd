"""Bounded in-memory time series: the live layer under scrape and alerting.

The metrics registry (:mod:`repro.obs.metrics`) answers "what is the state
of this run *now*" — one value per counter, one reservoir per histogram.
That is the right shape for an exit snapshot but useless for watching a
run evolve: a phase-error histogram that absorbed a sync fault five
minutes ago looks almost identical to a healthy one, and a stalled worker
pool still shows the same totals.

:class:`TimeSeriesStore` keeps *history*: per-series ring buffers of
``(timestamp, value)`` points with a bounded memory footprint.  Producers
append incrementally while the run executes: the fastsim/MAC sync-error
draws through cached :class:`Series` handles, event-shaped data (chunk
envelopes, progress ticks) through the points they name in
:func:`repro.obs.publish.emit`, and every registered metric through the
evaluator's :meth:`TimeSeriesStore.sample_registry`;
consumers (the alert engine in :mod:`repro.obs.alerts`, the HTTP endpoint
in :mod:`repro.obs.serve`) read windowed rollups — min/max/mean/p50/p95
over the last *N* seconds — and bucketed downsamples for sparklines.

Design constraints, in order:

* **Cheap appends.**  ``Series.record`` is a lock, two indexed numpy
  stores and a counter bump — safe on per-packet paths.
* **Bounded memory.**  Rings hold :data:`DEFAULT_CAPACITY` points; old
  points are overwritten, never reallocated.
* **Handles stay valid.**  Like the metrics registry, ``reset()`` clears
  series *in place* so producers that cached a handle keep publishing.

One process-global store (:func:`get_store`) mirrors the process-global
metrics registry: independent subsystems report into one run.
"""

from __future__ import annotations

import fnmatch
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Default ring capacity (points retained per series).
DEFAULT_CAPACITY = 1024

#: Rollup statistics rendered by :meth:`Series.rollup`.
ROLLUP_STATS = ("count", "first_ts", "last_ts", "last", "min", "max",
                "mean", "p50", "p95")


class Series:
    """One named ring buffer of ``(timestamp, value)`` points.

    Appends past ``capacity`` overwrite the oldest point; ``total``
    counts every point ever recorded so consumers can detect loss.
    All methods are thread-safe (producers append from the engine /
    simulator threads while the HTTP server reads).
    """

    __slots__ = ("name", "capacity", "total", "_ts", "_values", "_n",
                 "_head", "_lock")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("series capacity must be >= 1")
        self.name = name
        self.capacity = int(capacity)
        self.total = 0
        self._ts = np.empty(self.capacity, dtype=float)
        self._values = np.empty(self.capacity, dtype=float)
        self._n = 0
        self._head = 0  # next write slot
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._n

    def record(self, value: float, ts: Optional[float] = None) -> None:
        """Append one point (wall-clock ``time.time()`` unless given)."""
        if ts is None:
            ts = time.time()
        with self._lock:
            self._ts[self._head] = ts
            self._values[self._head] = float(value)
            self._head = (self._head + 1) % self.capacity
            if self._n < self.capacity:
                self._n += 1
            self.total += 1

    def _ordered(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of (ts, values) oldest-first.  Caller holds the lock."""
        idx = (self._head - self._n + np.arange(self._n)) % self.capacity
        return self._ts[idx].copy(), self._values[idx].copy()

    def points(self, since: Optional[float] = None) -> List[Tuple[float, float]]:
        """``(ts, value)`` pairs oldest-first, optionally from ``since``."""
        with self._lock:
            ts, values = self._ordered()
        if since is not None:
            keep = ts >= since
            ts, values = ts[keep], values[keep]
        return [(float(t), float(v)) for t, v in zip(ts, values)]

    def rollup(self, since: Optional[float] = None) -> dict:
        """Window statistics: :data:`ROLLUP_STATS` (``{"count": 0}`` when empty)."""
        with self._lock:
            ts, values = self._ordered()
        if since is not None:
            keep = ts >= since
            ts, values = ts[keep], values[keep]
        if ts.size == 0:
            return {"count": 0}
        p50, p95 = (float(x) for x in np.percentile(values, [50, 95]))
        return {
            "count": int(ts.size),
            "first_ts": float(ts[0]),
            "last_ts": float(ts[-1]),
            "last": float(values[-1]),
            "min": float(values.min()),
            "max": float(values.max()),
            "mean": float(values.mean()),
            "p50": p50,
            "p95": p95,
        }

    def downsample(
        self, buckets: int, since: Optional[float] = None
    ) -> List[dict]:
        """Equal-width time buckets over the (windowed) points.

        Each non-empty bucket renders ``{"ts", "count", "min", "max",
        "mean"}`` with ``ts`` at the bucket centre — the shape sparkline
        and dashboard consumers want.  Empty buckets are omitted.
        """
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        with self._lock:
            ts, values = self._ordered()
        if since is not None:
            keep = ts >= since
            ts, values = ts[keep], values[keep]
        if ts.size == 0:
            return []
        t0, t1 = float(ts[0]), float(ts[-1])
        if t1 <= t0 or buckets == 1:
            return [{
                "ts": (t0 + t1) / 2.0, "count": int(ts.size),
                "min": float(values.min()), "max": float(values.max()),
                "mean": float(values.mean()),
            }]
        width = (t1 - t0) / buckets
        which = np.minimum(((ts - t0) / width).astype(int), buckets - 1)
        out = []
        for b in range(buckets):
            sel = which == b
            if not sel.any():
                continue
            vs = values[sel]
            out.append({
                "ts": t0 + (b + 0.5) * width,
                "count": int(sel.sum()),
                "min": float(vs.min()),
                "max": float(vs.max()),
                "mean": float(vs.mean()),
            })
        return out

    def reset(self) -> None:
        """Drop all points in place (the handle stays valid)."""
        with self._lock:
            self._n = 0
            self._head = 0
            self.total = 0


class TimeSeriesStore:
    """Name -> :class:`Series` store with get-or-create accessors."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = int(capacity)
        self._series: Dict[str, Series] = {}
        self._lock = threading.Lock()

    def series(self, name: str, capacity: Optional[int] = None) -> Series:
        """Get-or-create the named series (capacity applies on create)."""
        s = self._series.get(name)
        if s is None:
            with self._lock:
                s = self._series.get(name)
                if s is None:
                    s = Series(name, capacity or self.capacity)
                    self._series[name] = s
        return s

    def record(self, name: str, value: float, ts: Optional[float] = None) -> None:
        self.series(name).record(value, ts=ts)

    def get(self, name: str) -> Optional[Series]:
        return self._series.get(name)

    def names(self) -> List[str]:
        return sorted(self._series)

    def reset(self) -> None:
        for s in self._series.values():
            s.reset()

    def sample_registry(
        self, registry: MetricsRegistry, ts: Optional[float] = None
    ) -> None:
        """Snapshot registry metrics into the store as one sample each.

        Called periodically by the serve-side evaluator thread so that
        *every* registered metric grows a history, not only the hot paths
        that publish points directly.  Counters and gauges record their
        current value under their own name; histograms record derived
        ``<name>.p50`` / ``<name>.p95`` / ``<name>.mean`` sub-series
        (their raw draws, when a producer publishes them, keep the bare
        name).
        """
        if ts is None:
            ts = time.time()
        for name in registry.names():
            metric = registry.get(name)
            if isinstance(metric, Counter):
                self.record(name, metric.value, ts=ts)
            elif isinstance(metric, Gauge):
                if metric.value is not None:
                    self.record(name, metric.value, ts=ts)
            elif isinstance(metric, Histogram):
                if metric.count:
                    p50, p95 = (float(x) for x in metric.percentile([50, 95]))
                    self.record(f"{name}.p50", p50, ts=ts)
                    self.record(f"{name}.p95", p95, ts=ts)
                    self.record(f"{name}.mean", metric.mean, ts=ts)

    def to_dict(
        self,
        since: Optional[float] = None,
        buckets: Optional[int] = None,
        names: Union[str, Sequence[str], None] = None,
    ) -> dict:
        """JSON-ready view: per-series rollup (+ optional downsample).

        Args:
            since: Only points at/after this wall-clock timestamp.
            buckets: Also include a ``points`` downsample per series.
            names: Glob pattern (or list of patterns) filtering series.
        """
        if isinstance(names, str):
            names = [names]
        out: Dict[str, dict] = {}
        for name in self.names():
            if names and not any(fnmatch.fnmatch(name, p) for p in names):
                continue
            s = self._series[name]
            entry = s.rollup(since=since)
            entry["total"] = s.total
            if buckets:
                entry["points"] = s.downsample(buckets, since=since)
            out[name] = entry
        return out


#: The process-global store every producer publishes into by default.
_STORE = TimeSeriesStore()


def get_store() -> TimeSeriesStore:
    return _STORE


def series(name: str, capacity: Optional[int] = None) -> Series:
    return _STORE.series(name, capacity=capacity)


def reset() -> None:
    _STORE.reset()
