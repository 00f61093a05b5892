"""Request micro-batching: coalesce concurrent requests into one pass.

The numpy substrate's throughput scales with batch width (one user
encoder pass over ``(B, L, d)`` costs barely more than over
``(1, L, d)``), so the server queues incoming requests and flushes them
as one ``recommend_batch`` call. A threaded batcher flushes when either
the batch is full (*size* trigger) or the oldest request has waited
``max_wait_ms`` (*timeout* trigger). A manual-mode batcher
(``start=False``) flushes whatever is queued when its owner calls
:meth:`MicroBatcher.flush_batch` (*drain* trigger, or *size* for a full
batch) — the pool workers' pipe loop drives it that way. Repeat users
hit an LRU cache keyed on the history hash, the requested ``k`` and the
catalogue index version, and never reach the model at all. A request
that fails inside a batch fails only itself: the batch is re-run one
member at a time.

A batcher lives as long as its scenario is served: a new generation
retargets it with :meth:`MicroBatcher.swap`, so its queue and counters
carry across hot swaps.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..obs import metrics, trace
from .recommender import Recommendation, Recommender

__all__ = ["BatcherStats", "BatcherTable", "LRUCache", "MicroBatcher"]


@dataclass
class BatcherStats:
    """Counters for capacity tuning (exposed on the ``/stats`` endpoint)."""

    requests: int = 0
    batches: int = 0
    size_flushes: int = 0
    timeout_flushes: int = 0
    drain_flushes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    largest_batch: int = 0


class LRUCache:
    """A small thread-safe LRU mapping request keys to recommendations."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        with self._lock:
            if key not in self._data:
                return None
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key, value) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)


def _request_key(history: np.ndarray, k: int, version: int) -> tuple:
    return (history.tobytes(), int(k), int(version))


@dataclass
class _Pending:
    history: np.ndarray
    k: int
    key: tuple
    enqueued: float = field(default_factory=time.monotonic)
    future: Future = field(default_factory=Future)
    # Trace-context handoff: the HTTP thread that submitted this request
    # parks its sampled context here; the batcher worker thread stamps
    # the queue-wait and batch-stage spans into it. None (the common,
    # unsampled case) costs the worker one attribute check.
    trace: trace.TraceContext | None = None
    enqueued_perf: float = 0.0


class MicroBatcher:
    """Queue + worker thread that turns single requests into batches.

    ``submit`` returns a ``concurrent.futures.Future``; ``recommend`` is
    the blocking convenience wrapper. Construct with ``start=False`` to
    drive flushing manually via :meth:`flush_batch` /
    :meth:`flush_pending` (pool workers, tests and the offline
    benchmark, where a background thread only adds a hop).
    """

    def __init__(self, recommender: Recommender, max_batch: int = 32,
                 max_wait_ms: float = 2.0, cache_size: int = 1024,
                 start: bool = True, metrics_label: str | None = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.recommender = recommender
        self.max_batch = max_batch
        self.max_wait = max_wait_ms / 1000.0
        self.cache = LRUCache(cache_size)
        self.stats = BatcherStats()
        # BatcherStats stays the per-instance truth (tests and /stats
        # count one batcher generation); the registry instruments are
        # the Prometheus view, scenario-labeled so counters continue
        # monotonically across hot-swap generations of the same key.
        scope = {"scenario": metrics_label or "default"}
        self._m_requests = metrics.counter(
            "repro_serve_batcher_requests_total",
            "requests submitted to the micro-batcher", labels=scope)
        self._m_cache = {
            hit: metrics.counter("repro_serve_cache_total",
                                 "LRU cache lookups by outcome",
                                 labels={**scope, "outcome": hit})
            for hit in ("hit", "miss")}
        self._m_batch_size = metrics.histogram(
            "repro_serve_batch_size", "requests coalesced per flush",
            labels=scope, start=1.0, factor=2 ** 0.25)
        self._m_flushes = {
            kind: metrics.counter("repro_serve_flushes_total",
                                  "batch flushes by trigger",
                                  labels={**scope, "trigger": kind})
            for kind in ("size", "timeout", "drain")}
        self._m_queue_wait = metrics.histogram(
            "repro_serve_queue_wait_seconds",
            "submit-to-flush wait of batched requests", labels=scope)
        self._pending: list[_Pending] = []
        self._cond = threading.Condition()
        # Held for the whole of every batch: swap() takes it to wait out
        # the batch in flight, so each batch reads one recommender.
        self._run_lock = threading.Lock()
        self._closed = False
        self._thread: threading.Thread | None = None
        if start:
            self._thread = threading.Thread(target=self._worker,
                                            name="repro-serve-batcher",
                                            daemon=True)
            self._thread.start()

    # -- client side ---------------------------------------------------------

    def submit(self, history, k: int = 10) -> Future:
        """Enqueue one request; resolves to a :class:`Recommendation`."""
        history = np.asarray(history, dtype=np.int64)
        key = _request_key(history, k, self.recommender.index_version)
        ctx = trace.current()
        with self._cond:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self.stats.requests += 1
            self._m_requests.inc()
            # A stale index means the current version number still names
            # the pre-update snapshot: bypass the cache so the flush
            # rebuilds and the result is cached under the new version.
            hit = (None if getattr(self.recommender, "index_stale", False)
                   else self.cache.get(key))
            if hit is not None:
                self.stats.cache_hits += 1
                self._m_cache["hit"].inc()
                future: Future = Future()
                future.set_result(Recommendation(
                    items=hit.items, scores=hit.scores,
                    index_version=hit.index_version, cached=True))
                return future
            self.stats.cache_misses += 1
            self._m_cache["miss"].inc()
            request = _Pending(history=history, k=k, key=key, trace=ctx)
            if ctx is not None:
                request.enqueued_perf = time.perf_counter()
            self._pending.append(request)
            self._cond.notify_all()
            return request.future

    @property
    def queue_depth(self) -> int:
        """Requests queued and not yet flushed (approximate, lock-free).

        A sustained non-zero depth on ``/stats`` means flushes cannot
        keep up with arrivals — the signal to raise ``max_batch`` or add
        pool workers.
        """
        return len(self._pending)

    def recommend(self, history, k: int = 10,
                  timeout: float | None = 30.0) -> Recommendation:
        """Blocking submit; flushes inline when no worker thread runs."""
        future = self.submit(history, k=k)
        if self._thread is None and not future.done():
            self.flush_pending()
        return future.result(timeout=timeout)

    # -- flushing ------------------------------------------------------------

    def _drain(self) -> list[_Pending]:
        batch = self._pending[:self.max_batch]
        self._pending = self._pending[self.max_batch:]
        return batch

    def _execute(self, batch: list[_Pending], trigger: str) -> None:
        if not batch:
            return
        self.stats.batches += 1
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        if trigger == "size":
            self.stats.size_flushes += 1
        elif trigger == "timeout":
            self.stats.timeout_flushes += 1
        else:
            self.stats.drain_flushes += 1
        self._m_flushes[trigger].inc()
        self._m_batch_size.observe(float(len(batch)))
        now_mono = time.monotonic()
        for pending in batch:
            self._m_queue_wait.observe(now_mono - pending.enqueued)
        # Sampled requests get a shared batch context: the model stages
        # (encode/shortlist/rerank/topk) are recorded once against it and
        # then copied into every traced request, because batch members
        # genuinely share that work.
        traced = [p for p in batch if p.trace is not None]
        batch_ctx: trace.TraceContext | None = None
        if traced:
            flush_tick = time.perf_counter()
            for pending in traced:
                pending.trace.add_span("queue_wait", pending.enqueued_perf,
                                       flush_tick)
            batch_ctx = trace.TraceContext(
                "batch", "micro_batch", meta={"batch_size": len(batch)})
        # All requests in a batch share one k so the top-k pass is a single
        # matrix operation; mixed-k batches use the largest and truncate.
        k_max = max(p.k for p in batch)
        with self._run_lock:
            try:
                with trace.activate(batch_ctx):
                    results = self.recommender.recommend_batch(
                        [p.history for p in batch], k=k_max)
            except Exception as exc:
                if len(batch) == 1:
                    self._fail(batch[0], exc)
                else:
                    # Which member failed is unknown, and a request's
                    # outcome must depend only on that request: re-run
                    # each one alone for its own answer or its own error.
                    for pending in batch:
                        self._run_alone(pending)
                return
            if batch_ctx is not None:
                for pending in traced:
                    pending.trace.extend(batch_ctx.spans)
            for pending, result in zip(batch, results):
                self._resolve(pending, result)

    def _run_alone(self, pending: _Pending) -> None:
        try:
            with trace.activate(pending.trace):
                (result,) = self.recommender.recommend_batch(
                    [pending.history], k=pending.k)
        except Exception as exc:
            self._fail(pending, exc)
        else:
            self._resolve(pending, result)

    @staticmethod
    def _fail(pending: _Pending, exc: Exception) -> None:
        if not pending.future.cancelled():
            pending.future.set_exception(exc)

    def _resolve(self, pending: _Pending, result: Recommendation) -> None:
        if pending.k < len(result.items):
            result = Recommendation(items=result.items[:pending.k],
                                    scores=result.scores[:pending.k],
                                    index_version=result.index_version)
        # Cache under the index version that actually produced the
        # answer — a refresh may have landed after submit keyed it.
        self.cache.put((pending.key[0], pending.k, result.index_version),
                       result)
        if not pending.future.cancelled():
            pending.future.set_result(result)

    def flush_batch(self) -> list[Future]:
        """Run one batch of what is queued (manual mode).

        Returns the futures of the requests it ran, all resolved; an
        empty list when nothing was queued. A partial batch counts as a
        *drain* flush: it was run because its owner had nothing more to
        add, not because a clock ran out.
        """
        with self._cond:
            batch = self._drain()
        self._execute(batch,
                      "size" if len(batch) >= self.max_batch else "drain")
        return [pending.future for pending in batch]

    def flush_pending(self) -> int:
        """Flush everything queued right now (manual mode); returns count."""
        flushed = 0
        while futures := self.flush_batch():
            flushed += len(futures)
        return flushed

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if self._closed and not self._pending:
                    return
                # The clock runs from the *oldest request's arrival*, not
                # from when the worker woke up — a request that queued
                # while the previous batch executed must not wait a full
                # extra max_wait.
                deadline = self._pending[0].enqueued + self.max_wait
                while (len(self._pending) < self.max_batch
                       and not self._closed):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                trigger = ("size" if len(self._pending) >= self.max_batch
                           else "timeout")
                batch = self._drain()
            self._execute(batch, trigger)

    # -- generations ---------------------------------------------------------

    def swap(self, adopt: Callable[[], Recommender]) -> None:
        """Serve a new generation: the recommender ``adopt()`` returns.

        Waits for the batch in flight, runs ``adopt`` while no batch can
        start — a pool worker loads new weights into its resident model
        there — then drops the LRU cache. Every later batch, including
        requests already queued, runs on the new recommender; no batch
        runs on the old one after this returns.
        """
        with self._run_lock:
            self.recommender = adopt()
            self.cache = LRUCache(self.cache.capacity)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop the worker after draining anything still queued."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.flush_pending()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BatcherTable:
    """One long-lived :class:`MicroBatcher` per scenario key.

    Both serving tiers run this table — the in-process service in its
    own process, every pool worker in its process — so per-scenario
    batching and :meth:`counters` read the same on either tier. The
    in-process tier runs threaded batchers; a pool worker passes
    ``start=False`` and flushes them from its pipe loop.
    Batchers are created on first use and closed only by :meth:`close`;
    a generation change goes through :meth:`MicroBatcher.swap`.
    """

    def __init__(self, max_batch: int = 32, max_wait_ms: float = 2.0,
                 cache_size: int = 1024, start: bool = True):
        self._settings = {"max_batch": max_batch, "max_wait_ms": max_wait_ms,
                          "cache_size": cache_size, "start": start}
        self._batchers: dict[tuple[str, str], MicroBatcher] = {}
        self._lock = threading.Lock()
        self._closed = False

    def get(self, key: tuple[str, str],
            recommender: Recommender | None = None) -> MicroBatcher | None:
        """The batcher for ``key``, built around ``recommender`` if new.

        Returns ``None`` for an unknown key when no recommender is given.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            batcher = self._batchers.get(key)
            if batcher is None and recommender is not None:
                batcher = self._batchers[key] = MicroBatcher(
                    recommender, metrics_label=f"{key[0]}:{key[1]}",
                    **self._settings)
            return batcher

    def counters(self) -> dict[str, dict]:
        """Per-scenario batcher counters, keyed ``dataset:model``."""
        with self._lock:
            batchers = list(self._batchers.items())
        return {f"{d}:{m}": dict(
                    vars(batcher.stats),
                    queue_depth=batcher.queue_depth,
                    index_version=batcher.recommender.index_version,
                    retrieval=batcher.recommender.describe_retrieval())
                for (d, m), batcher in batchers}

    def close(self) -> None:
        """Close every batcher, draining what is still queued."""
        with self._lock:
            self._closed = True
            batchers = list(self._batchers.values())
            self._batchers.clear()
        for batcher in batchers:
            batcher.close()
