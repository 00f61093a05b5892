"""Fixed-memory ring-buffer time-series over the metrics registry.

The registry (:mod:`repro.obs.metrics`) answers "what is the value
now"; an operator also needs "what happened over the last five
minutes" without running an external Prometheus. :class:`Timeline`
closes that gap: a background sampler collects the service's metric
families on a fixed interval and appends one point per series to a
per-series ring buffer.

Design constraints, in order:

1. **O(1) memory forever.** Every series is a ``deque(maxlen=capacity)``
   with ``capacity = ceil(window / interval) + 1``; sampling for a year
   retains exactly the same number of points as sampling for an hour.
   Scalar points are ``(ts, value)``; histogram points are
   ``(ts, HistogramSnapshot)``, so any two points diff (``minus``) into
   exactly the observations between them.
2. **One code path for both serving tiers, and no text.** The source is
   ``service.metrics()``: structured families (see
   :meth:`~repro.obs.metrics.MetricsRegistry.collect`), keyed by
   ``(name, label_key)``. In-process those are the global registry's;
   pooled, the parent's merged with every worker's, so ``GET /timeline``
   is merged across pool workers exactly like ``GET /metrics``. A tick
   costs O(series) — nothing is rendered or parsed — and label strings
   are written only when ``/timeline`` exports.
3. **Counters derive rates, not levels.** Query APIs (:meth:`rate`,
   :meth:`increase`, :meth:`quantile`) operate on windowed deltas with
   per-pair reset clamping (a restarted worker's counter dropping to 0
   never produces a negative rate).

The health engine (:mod:`repro.obs.health`) registers an
:meth:`add_listener` callback and evaluates its SLO rules after every
sample, so detection latency is bounded by one sampling interval.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque

from . import metrics
from .metrics import HistogramSnapshot

__all__ = ["Timeline", "TimelineSeries"]


class TimelineSeries:
    """One instrument's bounded ring of samples."""

    __slots__ = ("name", "labels", "kind", "points", "bounds")

    def __init__(self, name: str, labels: tuple, kind: str, capacity: int):
        self.name = name
        self.labels = labels          # label key: sorted (label, value) pairs
        self.kind = kind
        #: scalar point: ``(ts, value)``; histogram: ``(ts, snapshot)``.
        self.points: deque = deque(maxlen=capacity)
        self.bounds: list[float] | None = None   # shared by its snapshots

    def window_points(self, now: float, window_s: float) -> list:
        """Points inside ``[now - window_s, now]`` plus one baseline.

        The newest point *older* than the window edge is prepended when
        available: a delta across the edge then covers exactly the
        in-window activity, and a rule evaluated right after the first
        in-window increment still sees it.
        """
        start = now - window_s
        selected = [p for p in self.points if p[0] >= start]
        older = [p for p in self.points if p[0] < start]
        if older:
            selected.insert(0, older[-1])
        return selected


def _increase(points: list) -> float:
    """Summed positive deltas between consecutive scalar points.

    Per-pair clamping makes counter resets (a worker restart dropping a
    merged counter) read as "no increase", never a negative one.
    """
    total = 0.0
    for (_, v0), (_, v1) in zip(points, points[1:]):
        delta = v1 - v0
        if delta > 0:
            total += delta
    return total


class Timeline:
    """Background sampler + bounded store + windowed query API."""

    def __init__(self, window_s: float = 300.0, interval_s: float = 1.0,
                 source=None):
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if window_s < interval_s:
            raise ValueError("window_s must be >= interval_s")
        self.window_s = float(window_s)
        self.interval_s = float(interval_s)
        self.capacity = int(math.ceil(window_s / interval_s)) + 1
        self._source = source if source is not None \
            else metrics.REGISTRY.collect
        self._series: dict[tuple[str, tuple], TimelineSeries] = {}
        self._listeners: list = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.samples_taken = 0
        self.last_sample_ts: float | None = None
        self._m_samples = metrics.counter(
            "repro_timeline_samples_total", "timeline sampling ticks")
        self._m_errors = metrics.counter(
            "repro_timeline_sample_errors_total",
            "timeline ticks whose metrics source failed")

    # -- collection ----------------------------------------------------------

    def _get_series(self, name: str, labels: tuple,
                    kind: str) -> TimelineSeries:
        key = (name, labels)
        series = self._series.get(key)
        if series is None:
            series = TimelineSeries(name, labels, kind, self.capacity)
            self._series[key] = series
        return series

    def sample(self, now: float | None = None) -> float:
        """Take one sample of every instrument; returns the timestamp."""
        now = time.time() if now is None else float(now)
        try:
            families = self._source()
        except Exception:   # a failed source must not kill the sampler
            self._m_errors.inc()
            return now
        with self._lock:
            for name, (kind, _, values) in families.items():
                for labels, value in values.items():
                    series = self._get_series(name, labels, kind)
                    if kind == "histogram":
                        # One bounds list per series: a pool worker's
                        # snapshots arrive with a fresh copy every tick.
                        if series.bounds is None:
                            series.bounds = value.bounds
                        value = HistogramSnapshot(value.counts, value.total,
                                                  value.sum, series.bounds)
                    series.points.append((now, value))
            self.samples_taken += 1
            self.last_sample_ts = now
        self._m_samples.inc()
        for listener in list(self._listeners):
            try:
                listener(now)
            except Exception:   # pragma: no cover - listener bug guard
                pass
        return now

    def add_listener(self, fn) -> None:
        """Call ``fn(ts)`` after every sample (health rule evaluation)."""
        self._listeners.append(fn)

    # -- background sampler --------------------------------------------------

    def start(self) -> threading.Thread:
        if self._thread is not None:
            return self._thread
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-timeline", daemon=True)
        self._thread.start()
        return self._thread

    def _loop(self) -> None:
        self.sample()
        while not self._stop.wait(self.interval_s):
            self.sample()

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)

    # -- queries -------------------------------------------------------------

    def _matching(self, metric: str, label_pred=None) -> list[TimelineSeries]:
        out = []
        for (name, labels), series in self._series.items():
            if name != metric:
                continue
            if label_pred is not None and not label_pred(labels):
                continue
            out.append(series)
        return out

    def metric_names(self) -> list[str]:
        with self._lock:
            return sorted({name for name, _ in self._series})

    def latest_values(self, metric: str, label_pred=None) -> list[float]:
        """Newest scalar reading per matching series (NaN included)."""
        with self._lock:
            out = []
            for series in self._matching(metric, label_pred):
                if series.kind == "histogram" or not series.points:
                    continue
                out.append(series.points[-1][1])
            return out

    def increase(self, metric: str, window_s: float | None = None,
                 label_pred=None, now: float | None = None) -> float | None:
        """Summed counter increase over the window; None = no data yet."""
        window_s = self.window_s if window_s is None else window_s
        with self._lock:
            now = self._now(now)
            total, seen = 0.0, False
            for series in self._matching(metric, label_pred):
                if series.kind == "histogram":
                    continue
                points = series.window_points(now, window_s)
                if len(points) >= 2:
                    seen = True
                    total += _increase(points)
            return total if seen else None

    def rate(self, metric: str, window_s: float | None = None,
             label_pred=None, now: float | None = None) -> float | None:
        """Increase per second over the window (delta-rate for counters)."""
        window_s = self.window_s if window_s is None else window_s
        with self._lock:
            now = self._now(now)
            total, span = 0.0, 0.0
            for series in self._matching(metric, label_pred):
                if series.kind == "histogram":
                    continue
                points = series.window_points(now, window_s)
                if len(points) >= 2:
                    total += _increase(points)
                    span = max(span, points[-1][0] - points[0][0])
            return total / span if span > 0 else None

    def histogram_window(self, metric: str,
                         window_s: float | None = None,
                         now: float | None = None
                         ) -> HistogramSnapshot | None:
        """Merged snapshot of observations made inside the window."""
        window_s = self.window_s if window_s is None else window_s
        with self._lock:
            now = self._now(now)
            merged: HistogramSnapshot | None = None
            for series in self._matching(metric):
                if series.kind != "histogram":
                    continue
                points = series.window_points(now, window_s)
                if len(points) < 2:
                    continue
                snap = points[-1][1].minus(points[0][1])
                if merged is None:
                    merged = snap
                elif merged.bounds == snap.bounds:
                    merged = merged.plus(snap)
            return merged

    def quantile(self, metric: str, q: float,
                 window_s: float | None = None,
                 now: float | None = None) -> float | None:
        snap = self.histogram_window(metric, window_s, now=now)
        if snap is None or snap.total <= 0:
            return None
        return snap.quantile(q)

    def _now(self, now: float | None) -> float:
        if now is not None:
            return float(now)
        return self.last_sample_ts if self.last_sample_ts is not None \
            else time.time()

    # -- export (GET /timeline) ----------------------------------------------

    def export(self, metric: str | None = None,
               window_s: float | None = None) -> dict:
        """JSON-ready series for ``GET /timeline``.

        Without ``metric``: the list of sampled metric names. With one:
        per-label-set point arrays — ``[ts, rate]`` for counters
        (consecutive delta-rate), ``[ts, value]`` for gauges, and
        ``[ts, rate, p50, p99]`` for histograms (per-tick deltas).
        """
        if metric is None:
            return {"monitoring": True, "metrics": self.metric_names(),
                    "window_s": self.window_s,
                    "interval_s": self.interval_s,
                    "samples": self.samples_taken}
        window_s = self.window_s if window_s is None else float(window_s)
        with self._lock:
            now = self._now(None)
            out = {"monitoring": True, "metric": metric,
                   "window_s": window_s, "interval_s": self.interval_s,
                   "series": []}
            for series in self._matching(metric):
                points = series.window_points(now, window_s)
                entry = {"labels": metrics.label_string(series.labels),
                         "kind": series.kind,
                         "points": _export_points(series, points)}
                out["series"].append(entry)
            return out


def _export_points(series: TimelineSeries, points: list) -> list:
    if series.kind == "histogram":
        out = []
        for p0, p1 in zip(points, points[1:]):
            dt = p1[0] - p0[0]
            if dt <= 0:
                continue
            snap = p1[1].minus(p0[1])
            if snap.total > 0:
                out.append([p1[0], snap.total / dt,
                            snap.quantile(0.50), snap.quantile(0.99)])
            else:
                out.append([p1[0], 0.0, None, None])
        return out
    if series.kind == "counter":
        out = []
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            dt = t1 - t0
            if dt <= 0:
                continue
            out.append([t1, max(v1 - v0, 0.0) / dt])
        return out
    return [[ts, None if math.isnan(value) else value]
            for ts, value in points]
