"""The serving facade: registry routing over either serving tier.

:class:`RecommendationService` is what the HTTP endpoint, the CLI and
the streaming manager talk to. It validates every request, records its
latency, answers repeats from one result cache per scenario, and hands
every cache miss to one dispatcher: a
:class:`~repro.serve.batcher.BatcherTable` in this process
(``workers=0``) or a :class:`~repro.serve.pool.WorkerPool` whose forked
workers each run their own table (``workers=N``). A cache hit is
answered in the calling thread and never reaches a batcher or a pipe.
Every generation change goes through
:meth:`RecommendationService.publish_generation`.

A streaming manager (``repro.stream``) can be attached to close the
train→serve loop online: the service then accepts ``POST /events``
ingestion and exposes swap/staleness counters on ``/stats``. The
service only knows the small duck-typed protocol (``ingest`` /
``swap`` / ``stats`` / ``close``), keeping the layering one-directional
(stream imports serve, never the reverse).
"""

from __future__ import annotations

import threading
import time
from array import array

import numpy as np

from ..obs import metrics, trace
from .batcher import BatcherTable, LRUCache
from .pool import WorkerPool
from .registry import ModelRegistry, Scenario

__all__ = ["RecommendationService"]

#: Per-scenario batcher counters summed across serving processes.
_SUMMED = ("requests", "batches", "size_flushes", "timeout_flushes",
           "drain_flushes", "queue_depth")

#: The longest history a request may carry. Models encode only their
#: last ``max_seq_len`` items, and the longest history the repo's own
#: clients send is 25 ids; an unbounded one would stall its batch-mates.
MAX_HISTORY = 1024


def _checked_request(history, k, num_items: int) -> tuple[list[int], int]:
    """Validate one request before it joins a batch; raises ValueError.

    History ids must be integers in ``[1, num_items]``, at most
    :data:`MAX_HISTORY` of them, and ``k`` an integer >= 1 (a ``k`` past
    the catalogue is clamped by top-k). Booleans, floats, strings and
    nested lists are refused, never coerced.
    """
    if isinstance(history, np.ndarray):
        history = history.tolist()
    if not isinstance(history, list) or not history:
        raise ValueError("'history' must be a non-empty list of item ids")
    if len(history) > MAX_HISTORY:
        raise ValueError(f"'history' may hold at most {MAX_HISTORY} item "
                         f"ids; got {len(history)}")
    for item in history:
        # type(), not isinstance(): bool is a subclass of int.
        if type(item) is not int or not 1 <= item <= num_items:
            raise ValueError(f"history item ids must be integers in "
                             f"[1, {num_items}]; got {item!r}")
    if type(k) is not int or k < 1:
        raise ValueError(f"'k' must be an integer >= 1; got {k!r}")
    return history, k


def _merge_counters(per_process: list[dict]) -> dict:
    """One ``/stats`` entry per scenario from per-process batcher counters.

    Batchers see only cache misses, so their ``requests`` give
    ``mean_batch``; the facade then sets ``requests`` and the cache
    counts from its own lookups.
    """
    merged: dict[str, dict] = {}
    for scenarios in per_process:
        for name, counters in scenarios.items():
            entry = merged.setdefault(
                name, dict.fromkeys(_SUMMED, 0)
                | {"largest_batch": 0, "retrieval": counters["retrieval"]})
            for field in _SUMMED:
                entry[field] += counters[field]
            entry["largest_batch"] = max(entry["largest_batch"],
                                         counters["largest_batch"])
    for entry in merged.values():
        entry["mean_batch"] = (entry["requests"] / entry["batches"]
                               if entry["batches"] else 0.0)
    return merged


class _ResultCache:
    """One scenario's cached answers and the count of its lookups.

    ``lru`` maps ``(history as int64 bytes, k)`` to ``(items, scores,
    index_version)``, the answer packed into private ``array`` copies
    (under half the memory of tuples of boxed numbers), never the lists
    a caller received. It is ``None`` while a generation change of the
    scenario is in flight, and a new empty one replaces it once the
    change is published; the counts live as long as the service.
    """

    def __init__(self, label: str, capacity: int):
        self.lru: LRUCache | None = LRUCache(capacity)
        # This service's own counts feed /stats; the registry counters
        # are the process-wide view of the same lookups on /metrics.
        self._counts = {True: metrics.Counter("cache_hits"),
                        False: metrics.Counter("cache_misses")}
        self._m_lookups = {
            hit: metrics.counter("repro_serve_cache_total",
                                 "LRU cache lookups by outcome",
                                 labels={"scenario": label,
                                         "outcome": "hit" if hit else "miss"})
            for hit in (True, False)}

    def count(self, hit: bool) -> None:
        self._counts[hit].inc()
        self._m_lookups[hit].inc()

    def counters(self) -> dict:
        hits, misses = (int(self._counts[hit].value) for hit in (True, False))
        return {"requests": hits + misses, "cache_hits": hits,
                "cache_misses": misses}


class RecommendationService:
    """Validate, time, cache and route requests to in-process or pooled
    batchers; ``cache_size`` is the result-cache capacity per scenario."""

    def __init__(self, registry: ModelRegistry, workers: int = 0,
                 max_batch: int = 32, max_wait_ms: float = 2.0,
                 cache_size: int = 1024):
        self.registry = registry
        self.workers = workers
        self.max_batch = max_batch
        # The batching window applies in-process only: pool workers run
        # whatever their pipe holds at once, so it reads 0 there.
        self.max_wait_ms = max_wait_ms if workers == 0 else 0.0
        self.cache_size = cache_size
        self.stream = None          # attached via attach_stream()
        self.monitor = None         # attached via enable_monitoring()
        self.pool: WorkerPool | None = None
        self._batchers: BatcherTable | None = None
        if workers > 0:
            self.pool = WorkerPool(registry, workers=workers,
                                   max_batch=max_batch)
        else:
            self._batchers = BatcherTable(max_batch=max_batch,
                                          max_wait_ms=max_wait_ms)
        self._caches: dict[tuple[str, str], _ResultCache] = {}
        # Serializes generation changes: the registry must end on the
        # generation the serving processes were swapped to last.
        self._publish_lock = threading.Lock()
        self._closed = False
        # End-to-end latency per scenario lives in log-bucketed histograms:
        # /stats reads p50/p99 in O(1) over ~64 buckets instead of sorting
        # an ever-growing latency list (the pre-obs implementation kept
        # raw per-request floats).
        self._latency: dict[tuple[str, str], metrics.Histogram] = {}

    def _latency_hist(self, dataset: str, model: str) -> metrics.Histogram:
        key = (dataset, model)
        hist = self._latency.get(key)
        if hist is None:
            # Registry get-or-create is idempotent, so a benign double
            # create under race just returns the same instrument.
            hist = metrics.histogram(
                "repro_serve_request_seconds",
                "end-to-end recommend() latency",
                labels={"scenario": f"{dataset}:{model}"})
            self._latency[key] = hist
        return hist

    def _cache(self, key: tuple[str, str]) -> _ResultCache:
        cache = self._caches.get(key)
        if cache is None:
            cache = self._caches.setdefault(
                key, _ResultCache(f"{key[0]}:{key[1]}", self.cache_size))
        return cache

    # -- request API ---------------------------------------------------------

    def recommend(self, dataset: str, model: str, history,
                  k: int = 10) -> dict:
        """Answer one request; returns the JSON payload for the endpoint.

        A cached answer is served only when its ``index_version`` is the
        one the scenario serves now, from an index that is not stale:
        in-process that is the batcher's recommender; pooled, the
        registry's, whose index ``/refresh`` bumps before the fence.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        start = time.perf_counter()
        scenario = self.registry.get(dataset, model)
        history, k = _checked_request(history, k,
                                      scenario.dataset.num_items)
        key = (dataset, model)
        if self.pool is None:
            batcher = self._batchers.get(key, scenario.recommender)
            serving = batcher.recommender
        else:
            serving = scenario.recommender
        cache = self._cache(key)
        lru = cache.lru
        request = (array("q", history).tobytes(), k)
        # A stale index still reports the version of the snapshot it is
        # about to replace, so nothing cached may be served from it.
        entry = (None if lru is None or serving.index_stale
                 else lru.get(request))
        if entry is not None and entry[2] == serving.index_version:
            cache.count(hit=True)
            payload = {"items": entry[0].tolist(),
                       "scores": entry[1].tolist(),
                       "index_version": entry[2], "cached": True}
        else:
            cache.count(hit=False)
            if self.pool is not None:
                payload = self.pool.recommend(key, history, k)
            else:
                payload = batcher.recommend(history, k=k).to_json()
            payload["cached"] = False
            if lru is not None:
                # Into the cache it was looked up in, under the version
                # that produced it: an answer from a generation being
                # replaced never reaches its successor's cache.
                lru.put(request, (array("q", payload["items"]),
                                  array("d", payload["scores"]),
                                  payload["index_version"]))
        elapsed = time.perf_counter() - start
        self._latency_hist(dataset, model).observe(elapsed)
        ctx = trace.current()
        if ctx is not None:
            ctx.meta.setdefault("cached", payload["cached"])
        payload.update(dataset=dataset, model=model,
                       latency_ms=elapsed * 1e3)
        return payload

    def refresh(self, dataset: str, model: str) -> int:
        """Rebuild one scenario's catalogue index; returns the new version."""
        scenario = self.registry.get(dataset, model)
        version = scenario.recommender.refresh()
        self.publish_generation(scenario)
        return version

    # -- streaming / hot swap ------------------------------------------------

    def attach_stream(self, manager) -> None:
        """Attach a continual-learning manager (see ``repro.stream``).

        ``manager`` must provide ``ingest(dataset, model, events)``,
        ``swap(dataset, model)``, ``stats()`` and ``close()``. Once
        attached, the manager's lifecycle is tied to the service's.
        """
        self.stream = manager

    def ingest_events(self, dataset: str, model: str, events: list) -> dict:
        """Feed interaction/cold-item events to the streaming pipeline."""
        if self.stream is None:
            raise ValueError("streaming is not enabled on this service; "
                             "start it with `repro stream`")
        return self.stream.ingest(dataset, model, events)

    def trigger_swap(self, dataset: str, model: str) -> dict:
        """Force a hot swap of one scenario's model/index generation."""
        if self.stream is None:
            raise ValueError("streaming is not enabled on this service; "
                             "start it with `repro stream`")
        return self.stream.swap(dataset, model)

    def publish_generation(self, scenario: Scenario) -> dict:
        """Make ``scenario`` the live generation of its key.

        The one path every generation change takes. Each serving
        process first swaps its batcher onto the new recommender — the
        pool's generation fence, or its zero-worker case in-process —
        and only then does the registry publish the entry. Validation
        reads the registry and the catalogue only grows, so an item id
        it accepts is always one the serving generation knows. The
        scenario's result cache is off from before the fence until the
        registry names the new generation, which then starts with an
        empty one: pooled, workers flip one by one while the registry
        still names the old generation, and a hit there could answer on
        it after a flipped worker already answered on the new one.
        Returns ``publish_s`` / ``fence_s`` / ``drain_s`` timings and
        the worker ack counts.
        """
        key = scenario.spec.key
        with self._publish_lock:
            previous = self.registry.get(*key)
            cache = self._cache(key)
            cache.lru = None
            try:
                if self.pool is not None:
                    # Weights ride the segment only when the generation
                    # changed models (full swap); catalogue-only swaps
                    # reuse the workers' resident weights.
                    changed = previous.model is not scenario.model
                    info = self.pool.publish(scenario, model_changed=changed)
                else:
                    tick = time.perf_counter()
                    self._batchers.get(key, scenario.recommender).swap(
                        lambda: scenario.recommender)
                    info = {"workers": 0, "acked": 0, "errors": [],
                            "publish_s": 0.0,
                            "fence_s": time.perf_counter() - tick,
                            "drain_s": 0.0}
                self.registry.publish(scenario)
            finally:
                cache.lru = LRUCache(self.cache_size)
        return info

    # -- self-monitoring -----------------------------------------------------

    def enable_monitoring(self, interval_s: float = 1.0,
                          window_s: float = 300.0, rules=None,
                          start: bool = True):
        """Attach a timeline + SLO health monitor (idempotent).

        The monitor samples this service's own :meth:`metrics` —
        already merged across pool workers on the pooled tier — every
        ``interval_s`` seconds and evaluates its rules after each
        sample. ``start=False`` skips the background thread so tests
        can drive ``monitor.timeline.sample()`` deterministically.
        Without it ``/health`` stays the unconditional-``ok`` payload
        and ``/alerts`` / ``/timeline`` report ``monitoring: false``.
        """
        if self.monitor is None:
            from ..obs.health import monitor_service
            self.monitor = monitor_service(
                self, interval_s=interval_s, window_s=window_s,
                rules=rules, start=start)
        return self.monitor

    def health(self) -> dict:
        """The ``GET /health`` body; 503-worthy iff status is failing."""
        if self.monitor is None:
            return {"status": "ok", "monitoring": False, "causes": [],
                    "scenarios": len(self.registry)}
        payload = self.monitor.status()
        payload["scenarios"] = len(self.registry)
        return payload

    def alerts(self) -> dict:
        if self.monitor is None:
            return {"monitoring": False, "status": "ok",
                    "active": [], "history": [], "rules": []}
        return self.monitor.alerts()

    def timeline_export(self, metric: str | None = None,
                        window_s: float | None = None) -> dict:
        if self.monitor is None:
            return {"monitoring": False, "metrics": [], "series": []}
        return self.monitor.timeline.export(metric, window_s=window_s)

    def _close_monitor(self) -> None:
        monitor, self.monitor = self.monitor, None
        if monitor is not None:
            monitor.close()

    # -- introspection -------------------------------------------------------

    def scenarios(self) -> list[dict]:
        return self.registry.describe()

    def stats(self) -> dict:
        """Per-scenario counters, pool topology and settings (``/stats``)."""
        if self.pool is not None:
            topology = self.pool.stats()
            per_process = [worker.get("scenarios", {})
                           for worker in topology["per_worker"]]
        else:
            topology = {"mode": "in-process", "workers": 0, "alive": 0,
                        "per_worker": []}
            per_process = [self._batchers.counters()]
        per_scenario = _merge_counters(per_process)
        for (d, m), cache in list(self._caches.items()):
            per_scenario.setdefault(f"{d}:{m}", {}).update(cache.counters())
        for (d, m), hist in list(self._latency.items()):
            if hist.count:
                per_scenario.setdefault(f"{d}:{m}", {})["latency_ms"] = \
                    hist.snapshot().to_json(scale=1e3)
        payload = {"scenarios": per_scenario,
                   "pool": topology,
                   "settings": {"max_batch": self.max_batch,
                                "max_wait_ms": self.max_wait_ms,
                                "cache_size": self.cache_size,
                                "workers": self.workers}}
        if self.stream is not None:
            payload["stream"] = self.stream.stats()
        return payload

    def metrics(self) -> dict:
        """This service's metric families (``GET /metrics``, the monitor).

        In-process these are the process registry's; the pooled tier
        merges every worker's families into them.
        """
        families = metrics.REGISTRY.collect()
        if self.pool is None:
            return families
        return metrics.merge([families] + self.pool.metrics())

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._close_monitor()       # stop the sampler before its sources
        stream, self.stream = self.stream, None
        if stream is not None:
            stream.close()          # stop fine-tune workers first
        self._closed = True
        if self.pool is not None:
            self.pool.close()
        else:
            self._batchers.close()

    def __enter__(self) -> "RecommendationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
