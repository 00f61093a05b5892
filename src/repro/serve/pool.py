"""Multi-process serving tier: shared-memory catalogues + worker pool.

One python process is the QPS ceiling: the fused scoring kernels
saturate a core while the GIL serializes everything around them. This
module scales ``/recommend`` across cores without giving up the
old-or-new-ranks-only hot-swap contract (PR 5/6):

* :class:`SharedCatalogStore` owns ``multiprocessing.shared_memory``
  segments. Each segment carries a tiny JSON layout header followed by
  64-byte-aligned arrays — the catalogue matrix of one generation,
  plus (for full swaps) the model's state dict — so workers map them
  as zero-copy read-only ``np.ndarray`` views. The parent creates and
  unlinks; workers only attach.
* :class:`WorkerPool` forks N worker processes (fork, not spawn: the
  registry's datasets and models transfer by copy-on-write page, never
  by pickle) and dispatches requests over per-worker pipes. Each worker
  is one thread whose pipe loop batches whatever is readable through
  its own manual-mode :class:`~repro.serve.batcher.BatcherTable` (see
  :func:`_worker_main`): batches grow with load, and a lone request
  waits on no clock.
* Hot swaps run through a **generation fence**: the parent publishes
  the new generation's segment, sends a ``swap`` control message down
  every worker pipe, and waits for every live worker to ack before the
  old segment is unlinked. A worker handles its pipe in order: every
  request read before the ``swap`` is answered on the old generation,
  then :meth:`~repro.serve.batcher.MicroBatcher.swap` retargets the
  batcher and the ack goes out, so after the fence no batch runs on the
  old generation anywhere. No request is dropped, and no response ever
  mixes generations.
* :class:`~repro.serve.service.RecommendationService` with
  ``workers=N`` is the facade over this pool; the HTTP front, the CLI
  and the streaming manager never see the difference.

Requires POSIX ``fork`` and scenarios whose models expose
``encode_catalog`` (there is no matrix to share otherwise). Workers
must be forked *before* any thread the parent will rely on (HTTP
server, fine-tune workers) — the CLI and benches order construction
accordingly.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import secrets
import struct
import threading
import time
from concurrent.futures import Future
from multiprocessing import shared_memory

import numpy as np

from ..obs import metrics
from .batcher import BatcherTable
from .index import FrozenCatalogIndex
from .recommender import Recommender
from .registry import ModelRegistry, Scenario

__all__ = ["PoolError", "WorkerDied", "SharedCatalogStore", "WorkerPool"]

#: How long a generation fence waits for the workers' acks.
FENCE_TIMEOUT_S = 60.0


class PoolError(RuntimeError):
    """The worker pool cannot serve (no workers, bad scenario, ...)."""


class WorkerDied(PoolError):
    """A request or control exchange was lost to a worker process death."""


def _fork_context():
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError as exc:  # pragma: no cover - non-POSIX platforms
        raise PoolError("the multi-process serving tier requires the "
                        "'fork' start method (POSIX only)") from exc


# -- shared-memory segments ---------------------------------------------------

_ALIGN = 64
_HEADER_LEN = struct.Struct("<Q")
_TAG_RE = re.compile(r"[^A-Za-z0-9_.-]+")


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


class SharedCatalogStore:
    """Create, name and unlink the shared segments of one serving parent.

    Segment layout: an 8-byte little-endian header length, a JSON header
    ``{"arrays": [{"name", "dtype", "shape", "offset", "nbytes"}, ...]}``
    with offsets relative to the (aligned) end of the header, then the
    array payloads. Readers recompute the data start from the header
    length, so the header needs no self-referential offsets.

    The parent process owns every segment's lifetime: :meth:`publish`
    creates, :meth:`unlink` (per generation) and :meth:`close` (on
    shutdown) remove the ``/dev/shm`` names. Workers :meth:`attach`
    read-only and immediately unregister from the resource tracker —
    on this python version attachers register too, and a worker exit
    would otherwise unlink a segment the parent still serves from.
    """

    def __init__(self, prefix: str | None = None):
        self.prefix = prefix or f"repro-{os.getpid()}-{secrets.token_hex(3)}"
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._seq = itertools.count(1)
        self._lock = threading.Lock()

    def publish(self, tag: str, arrays: dict[str, np.ndarray]) -> str:
        """Write ``arrays`` into a fresh segment; returns its name."""
        clean: list[tuple[str, np.ndarray]] = [
            (name, np.ascontiguousarray(arr)) for name, arr in arrays.items()]
        entries, cursor = [], 0
        for name, arr in clean:
            cursor = _aligned(cursor)
            entries.append({"name": name, "dtype": arr.dtype.str,
                            "shape": list(arr.shape), "offset": cursor,
                            "nbytes": int(arr.nbytes)})
            cursor += arr.nbytes
        header = json.dumps({"arrays": entries}).encode()
        data_start = _aligned(_HEADER_LEN.size + len(header))
        total = max(data_start + cursor, 1)
        short_tag = _TAG_RE.sub("-", tag)[:48]
        name = f"{self.prefix}-{next(self._seq)}-{short_tag}"
        segment = shared_memory.SharedMemory(name=name, create=True,
                                             size=total)
        segment.buf[:_HEADER_LEN.size] = _HEADER_LEN.pack(len(header))
        segment.buf[_HEADER_LEN.size:_HEADER_LEN.size + len(header)] = header
        for (_, arr), entry in zip(clean, entries):
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf,
                              offset=data_start + entry["offset"])
            view[...] = arr
            del view               # release the buffer export before close
        with self._lock:
            self._segments[name] = segment
        return name

    @staticmethod
    def attach(name: str) -> tuple[shared_memory.SharedMemory,
                                   dict[str, np.ndarray]]:
        """Map a segment read-only; returns the handle and its arrays.

        Workers are forked, so they share the parent's resource_tracker
        process: the attach-side ``register`` this SharedMemory() call
        performs lands in the tracker's set-based cache where the
        creator's entry already sits — a no-op. The creator's
        ``unlink()`` is the one balanced unregister; do NOT unregister
        here or the shared cache loses the entry early and the real
        unlink trips a KeyError inside the tracker.
        """
        segment = shared_memory.SharedMemory(name=name)
        (header_len,) = _HEADER_LEN.unpack_from(segment.buf, 0)
        raw = bytes(segment.buf[_HEADER_LEN.size:_HEADER_LEN.size
                                + header_len])
        entries = json.loads(raw.decode())["arrays"]
        data_start = _aligned(_HEADER_LEN.size + header_len)
        views: dict[str, np.ndarray] = {}
        for entry in entries:
            view = np.ndarray(tuple(entry["shape"]),
                              dtype=np.dtype(entry["dtype"]),
                              buffer=segment.buf,
                              offset=data_start + entry["offset"])
            view.flags.writeable = False
            views[entry["name"]] = view
        return segment, views

    def unlink(self, name: str) -> None:
        """Remove one segment's ``/dev/shm`` name (worker maps persist)."""
        with self._lock:
            segment = self._segments.pop(name, None)
        if segment is None:
            return
        try:
            segment.close()
        except BufferError:  # pragma: no cover - parent holds no views
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def segments(self) -> list[str]:
        with self._lock:
            return list(self._segments)

    def close(self) -> None:
        for name in self.segments():
            self.unlink(name)


# -- worker-process side ------------------------------------------------------

class _DatasetView:
    """A dataset proxy whose ``num_items`` tracks the served generation.

    Workers never see the parent's grown ``GrowableDataset`` snapshots —
    only the catalogue matrix travels through shared memory — but the
    recommender validates history ids against ``dataset.num_items``.
    This proxy pins the generation's item count over the (read-only)
    base dataset the worker inherited at fork.
    """

    __slots__ = ("_base", "_num_items")

    def __init__(self, base, num_items: int):
        self._base = base
        self._num_items = int(num_items)

    @property
    def num_items(self) -> int:
        return self._num_items

    def __getattr__(self, name):
        return getattr(self._base, name)


class _WorkerScenario:
    """One scenario's serving state inside a worker process."""

    __slots__ = ("model", "base_dataset", "segment", "generation")

    def __init__(self, scenario: Scenario):
        self.model = scenario.model
        self.base_dataset = scenario.dataset
        self.segment = None
        self.generation = 0

    def adopt(self, registry: ModelRegistry, segment_name: str, version: int,
              num_items: int, generation: int,
              model_changed: bool) -> Recommender:
        """Map one generation's segment and build its recommender.

        Full-swap weights load into the resident model in place, so
        this runs inside :meth:`MicroBatcher.swap`, while no batch does.
        The caller closes the previous segment once the swap is done.
        """
        segment, views = SharedCatalogStore.attach(segment_name)
        dataset = _DatasetView(self.base_dataset, num_items)
        index = FrozenCatalogIndex(views["catalog"], version=version,
                                   num_items=num_items)
        recommender = registry.build_recommender(self.model, dataset,
                                                 index=index)
        weights = {name[2:]: array for name, array in views.items()
                   if name.startswith("w:")}
        if model_changed and weights:
            self.model.load_state_dict(weights)  # copies out of the segment
        self.segment, self.generation = segment, generation
        return recommender


def _close_segment(segment) -> None:
    """Unmap a segment nothing serves from any more."""
    if segment is None:
        return
    try:
        segment.close()
    except BufferError:  # pragma: no cover - lingering view
        # Something still borrows the buffer; the parent already
        # unlinked the name, so the pages die with the process.
        pass


def _outcome(req_id: int, future: Future) -> tuple:
    """The reply message for one resolved request future."""
    error = future.exception()
    if error is not None:
        return ("err", req_id, type(error).__name__, str(error))
    return ("res", req_id, future.result().to_json())


def _worker_main(worker_id: int, conn, parent_conn, registry: ModelRegistry,
                 boot: dict, settings: dict) -> None:
    """Entry point of one forked worker process; returns on ``stop``.

    One thread serves the pipe, and it never waits on a clock: it blocks
    for one message, drains every message already readable, and handles
    them in pipe order. A request joins its scenario's manual-mode
    batcher (an LRU hit is answered at once). Whenever the drained
    messages run out, or a control message comes next, every queued
    request runs, one batch per scenario and ``max_batch``, and each
    batch's replies go out as soon as that batch finishes. So a ``swap``
    first answers every request read before it on the old generation.
    Requests that arrive while a batch runs form the next batch.
    """
    try:
        parent_conn.close()        # our copy of the parent's pipe end
    except Exception:  # pragma: no cover - already closed
        pass
    # The fork copied the parent's metric shards; zero them so the
    # cross-process merge never double-counts pre-fork history.
    metrics.REGISTRY.reset()
    table = BatcherTable(**settings, start=False)
    states: dict[tuple[str, str], _WorkerScenario] = {}
    for key, info in boot.items():
        state = states[key] = _WorkerScenario(registry.get(*key))
        table.get(key, state.adopt(registry, info["segment"], info["version"],
                                   info["num_items"], info["generation"],
                                   model_changed=False))

    def reply(message) -> None:
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            pass

    def answer(requests: list) -> None:
        """Run ``requests``, one batch at a time, replying per batch."""
        queued: dict[Future, int] = {}
        touched: dict = {}                 # batchers in first-use order
        for _, req_id, key, history, k in requests:
            batcher = table.get(tuple(key))
            if batcher is None:
                reply(("err", req_id, "KeyError",
                       f"no scenario {key[0]}:{key[1]} in worker"))
                continue
            try:
                future = batcher.submit(history, k=k)
            except Exception as exc:
                reply(("err", req_id, type(exc).__name__, str(exc)))
                continue
            if future.done():
                reply(_outcome(req_id, future))
            else:
                queued[future] = req_id
                touched[batcher] = None
        for batcher in touched:
            while futures := batcher.flush_batch():
                for future in futures:
                    reply(_outcome(queued.pop(future), future))

    def control(message) -> bool:
        """Handle one control message; False once the pool says stop."""
        kind = message[0]
        if kind == "swap":
            (_, token, key, generation, segment_name, version, num_items,
             model_changed) = message
            key = tuple(key)
            state = states[key]
            previous = state.segment
            error = None
            try:
                table.get(key).swap(lambda: state.adopt(
                    registry, segment_name, version, num_items, generation,
                    model_changed))
                _close_segment(previous)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            reply(("ack", token, error))
        elif kind == "stats":
            counters = table.counters()
            for (dataset, model), state in states.items():
                counters[f"{dataset}:{model}"]["generation"] = \
                    state.generation
            reply(("stats", message[1],
                   {"pid": os.getpid(), "scenarios": counters}))
        elif kind == "metrics":
            reply(("metrics", message[1], metrics.REGISTRY.collect()))
        elif kind == "stop":
            reply(("bye", message[1]))
            return False
        return True

    running = True
    while running:
        try:
            messages = [conn.recv()]
            while conn.poll(0):
                messages.append(conn.recv())
        except (EOFError, OSError):        # parent died or closed us out
            break
        requests: list = []
        for message in messages:
            if message[0] == "req":
                requests.append(message)
                continue
            answer(requests)
            requests = []
            running = control(message)
            if not running:
                break
        answer(requests)
    try:
        table.close()
    except Exception:  # pragma: no cover - teardown best effort
        pass
    for state in states.values():
        _close_segment(state.segment)
    try:
        conn.close()
    except Exception:  # pragma: no cover - teardown best effort
        pass


# -- parent side --------------------------------------------------------------

_EXCEPTION_TYPES = {"ValueError": ValueError, "TypeError": TypeError,
                    "KeyError": KeyError, "RuntimeError": RuntimeError}


def _remote_exception(type_name: str, message: str) -> Exception:
    cls = _EXCEPTION_TYPES.get(type_name)
    if cls is None:
        return PoolError(f"{type_name}: {message}")
    return cls(message)


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    def __init__(self, worker_id: int, process, conn):
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.lock = threading.Lock()       # guards pending/control/alive
        self.pending: dict[int, Future] = {}
        self.control: dict[str, Future] = {}
        self.alive = True
        self.requests = 0
        self.reader: threading.Thread | None = None

    def inflight(self) -> int:
        with self.lock:
            return len(self.pending)


class WorkerPool:
    """Fork N serving processes and dispatch requests/fences over pipes."""

    def __init__(self, registry: ModelRegistry, workers: int = 2,
                 max_batch: int = 32, cache_size: int = 1024):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if len(registry) == 0:
            raise PoolError("cannot start a worker pool over an empty "
                            "registry")
        context = _fork_context()
        self.registry = registry
        self._settings = {"max_batch": max_batch, "cache_size": cache_size}
        self._store = SharedCatalogStore()
        self._seq = itertools.count(1)
        self._rr = 0
        self._rr_lock = threading.Lock()
        self._fence_lock = threading.Lock()  # one fence at a time
        self._fence_state: dict = {"state": "idle"}
        self._generation: dict[tuple[str, str], int] = {}
        self._segment: dict[tuple[str, str], str] = {}
        self._closed = False
        boot: dict[tuple[str, str], dict] = {}
        for scenario in registry:
            index = scenario.recommender.index
            if index is None:
                raise PoolError(
                    f"scenario {scenario.spec.dataset}:{scenario.spec.model} "
                    "has no catalogue index; the worker pool can only serve "
                    "indexed models (encode_catalog protocol)")
            matrix, version = index.snapshot()
            key = scenario.spec.key
            name = self._store.publish(f"g1-{key[0]}-{key[1]}",
                                       {"catalog": matrix})
            self._generation[key] = 1
            self._segment[key] = name
            boot[key] = {"segment": name, "version": version,
                         "num_items": scenario.dataset.num_items,
                         "generation": 1}
        self._m_fence = metrics.histogram(
            "repro_pool_fence_seconds",
            "generation-fence wall time (publish ack wait)")
        self._m_publishes = metrics.counter(
            "repro_pool_publishes_total",
            "generations published through the pool fence")
        self._m_retries = metrics.counter(
            "repro_pool_retries_total",
            "requests retried on another worker after a worker death")
        self._m_flip_errors = metrics.counter(
            "repro_pool_flip_errors_total",
            "workers that failed to adopt a published generation")
        metrics.gauge(
            "repro_pool_workers_alive",
            "live worker processes in the serving pool").set_function(
                lambda: sum(h.alive for h in self._workers))
        metrics.gauge(
            "repro_pool_workers_total",
            "worker processes the pool was started with").set_function(
                lambda: len(self._workers))
        self._m_deaths = metrics.counter(
            "repro_pool_worker_deaths_total",
            "pool worker processes that died unexpectedly "
            "(clean shutdown is not counted)")
        self._workers: list[_WorkerHandle] = []
        for worker_id in range(workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(worker_id, child_conn, parent_conn, registry, boot,
                      self._settings),
                name=f"repro-pool-{worker_id}", daemon=True)
            process.start()
            child_conn.close()             # parent keeps only its own end
            handle = _WorkerHandle(worker_id, process, parent_conn)
            handle.reader = threading.Thread(
                target=self._read_loop, args=(handle,),
                name=f"repro-pool-reader-{worker_id}", daemon=True)
            handle.reader.start()
            self._workers.append(handle)

    # -- properties ----------------------------------------------------------

    @property
    def shm_prefix(self) -> str:
        return self._store.prefix

    @property
    def size(self) -> int:
        return len(self._workers)

    def alive(self) -> int:
        return sum(handle.alive for handle in self._workers)

    def generations(self) -> dict[str, int]:
        return {f"{d}:{m}": gen for (d, m), gen in self._generation.items()}

    # -- reader threads ------------------------------------------------------

    def _read_loop(self, handle: _WorkerHandle) -> None:
        conn, process = handle.conn, handle.process
        while True:
            try:
                # poll+is_alive instead of a blocking recv: a sibling
                # worker forked later inherits this pipe's write end, so
                # EOF alone cannot be trusted to signal this worker's
                # death.
                if conn.poll(0.2):
                    self._dispatch(handle, conn.recv())
                elif not process.is_alive() and not conn.poll(0):
                    break
            except (EOFError, OSError):
                break
        self._mark_dead(handle)

    def _dispatch(self, handle: _WorkerHandle, message) -> None:
        kind = message[0]
        if kind in ("res", "err"):
            with handle.lock:
                future = handle.pending.pop(message[1], None)
            if future is None:             # pragma: no cover - late reply
                return
            if kind == "res":
                future.set_result(message[2])
            else:
                future.set_exception(_remote_exception(message[2],
                                                       message[3]))
        else:                              # ack / stats / metrics / bye
            with handle.lock:
                future = handle.control.pop(message[1], None)
            if future is not None:
                future.set_result(message[2] if len(message) > 2 else None)

    def _mark_dead(self, handle: _WorkerHandle) -> None:
        with handle.lock:
            if not handle.alive:
                return
            handle.alive = False
            pending = list(handle.pending.values())
            handle.pending.clear()
            control = list(handle.control.values())
            handle.control.clear()
        if not self._closed:
            # An unexpected death is a health event (the increase rule
            # `pool_worker_death` watches this counter); the mass
            # _mark_dead sweep inside close() is not.
            self._m_deaths.inc()
        error = WorkerDied(f"pool worker {handle.id} died")
        for future in pending + control:
            if not future.done():
                future.set_exception(error)

    # -- request path --------------------------------------------------------

    def _pick(self) -> _WorkerHandle | None:
        with self._rr_lock:
            count = len(self._workers)
            for _ in range(count):
                handle = self._workers[self._rr % count]
                self._rr += 1
                if handle.alive:
                    return handle
        return None

    def recommend(self, key: tuple[str, str], history: list, k: int,
                  timeout: float = 30.0) -> dict:
        """Dispatch one request; returns the worker's JSON payload.

        Requests are read-only and idempotent, so a request lost to a
        worker death is transparently retried on another worker.
        """
        attempts = max(2, len(self._workers) + 1)
        last_error: Exception | None = None
        for _ in range(attempts):
            handle = self._pick()
            if handle is None:
                break
            req_id = next(self._seq)
            future: Future = Future()
            with handle.lock:
                if not handle.alive:
                    continue
                handle.pending[req_id] = future
                handle.requests += 1
            try:
                with handle.send_lock:
                    handle.conn.send(("req", req_id, key, history, k))
            except (BrokenPipeError, OSError):
                with handle.lock:
                    handle.pending.pop(req_id, None)
                self._mark_dead(handle)
                continue
            try:
                return future.result(timeout=timeout)
            except WorkerDied as exc:
                last_error = exc
                self._m_retries.inc()
                continue
        raise last_error or PoolError("no live pool workers")

    # -- control path --------------------------------------------------------

    def _control(self, handle: _WorkerHandle, kind: str,
                 payload: tuple = ()) -> Future:
        token = f"c{next(self._seq)}"
        future: Future = Future()
        with handle.lock:
            if not handle.alive:
                raise WorkerDied(f"pool worker {handle.id} died")
            handle.control[token] = future
        try:
            with handle.send_lock:
                handle.conn.send((kind, token) + payload)
        except (BrokenPipeError, OSError):
            self._mark_dead(handle)
            raise WorkerDied(f"pool worker {handle.id} died") from None
        return future

    def _broadcast(self, kind: str, payload: tuple = ()) -> list:
        waits = []
        for handle in self._workers:
            if not handle.alive:
                continue
            try:
                waits.append((handle, self._control(handle, kind, payload)))
            except WorkerDied:
                continue
        return waits

    # -- generation fence ----------------------------------------------------

    def publish(self, scenario: Scenario, model_changed: bool) -> dict:
        """Publish one scenario's new generation and fence every worker.

        Returns timing/ack info: ``publish_s`` (segment write),
        ``fence_s`` (ack wait), ``drain_s`` (old-segment unlink). The
        old segment is unlinked only after every live worker acked the
        flip — by then no worker runs a batch on the old generation, so
        nothing still *needs* the name (and existing maps survive an
        unlink regardless).
        """
        key = scenario.spec.key
        index = scenario.recommender.index
        if index is None:
            raise PoolError(f"scenario {key[0]}:{key[1]} has no catalogue "
                            "index; cannot publish to the pool")
        with self._fence_lock:
            tick = time.perf_counter()
            generation = self._generation.get(key, 0) + 1
            matrix, version = index.snapshot()
            arrays: dict[str, np.ndarray] = {"catalog": matrix}
            if model_changed:
                for name, value in scenario.model.state_dict().items():
                    arrays[f"w:{name}"] = value
            segment_name = self._store.publish(
                f"g{generation}-{key[0]}-{key[1]}", arrays)
            published = time.perf_counter()
            self._fence_state = {"state": "fencing",
                                 "scenario": f"{key[0]}:{key[1]}",
                                 "generation": generation}
            waits = self._broadcast(
                "swap", (key, generation, segment_name, version,
                         scenario.dataset.num_items, model_changed))
            acked, errors = 0, []
            deadline = time.monotonic() + FENCE_TIMEOUT_S
            for handle, future in waits:
                remaining = max(deadline - time.monotonic(), 0.001)
                try:
                    error = future.result(timeout=remaining)
                except WorkerDied:
                    continue               # dead workers cannot hold a fence
                except TimeoutError:
                    errors.append(f"worker {handle.id}: fence timeout")
                    self._m_flip_errors.inc()
                    continue
                if error is None:
                    acked += 1
                else:
                    errors.append(f"worker {handle.id}: {error}")
                    self._m_flip_errors.inc()
            fenced = time.perf_counter()
            old_segment = self._segment.get(key)
            self._generation[key] = generation
            self._segment[key] = segment_name
            if old_segment is not None:
                self._store.unlink(old_segment)
            done = time.perf_counter()
            info = {"generation": generation, "version": version,
                    "workers": len(self._workers), "acked": acked,
                    "errors": errors,
                    "publish_s": published - tick,
                    "fence_s": fenced - published,
                    "drain_s": done - fenced}
            self._fence_state = {"state": "complete",
                                 "scenario": f"{key[0]}:{key[1]}",
                                 "generation": generation, "acked": acked,
                                 "errors": errors,
                                 "ms": round((done - tick) * 1e3, 3)}
            self._m_fence.observe(fenced - published)
            self._m_publishes.inc()
            return info

    # -- introspection -------------------------------------------------------

    def stats(self, timeout: float = 10.0) -> dict:
        waits: dict[int, Future] = {}
        for handle in self._workers:
            if handle.alive:
                try:
                    waits[handle.id] = self._control(handle, "stats")
                except WorkerDied:
                    pass
        per_worker = []
        for handle in self._workers:
            entry = {"worker": handle.id, "pid": handle.process.pid,
                     "alive": handle.alive, "requests": handle.requests,
                     "inflight": handle.inflight()}
            future = waits.get(handle.id)
            if future is not None:
                try:
                    data = future.result(timeout=timeout)
                    entry["scenarios"] = data["scenarios"]
                except (WorkerDied, TimeoutError):
                    entry["alive"] = handle.alive
            per_worker.append(entry)
        return {"mode": "pool", "workers": len(self._workers),
                "alive": self.alive(), "generations": self.generations(),
                "fence": dict(self._fence_state, timeout_s=FENCE_TIMEOUT_S),
                "per_worker": per_worker}

    def metrics(self, timeout: float = 10.0) -> list[dict]:
        """One ``MetricsRegistry.collect()`` result per live worker."""
        waits = self._broadcast("metrics")
        families = []
        for _, future in waits:
            try:
                families.append(future.result(timeout=timeout))
            except (WorkerDied, TimeoutError):  # pragma: no cover - racing
                continue
        return families

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        waits = []
        try:
            waits = self._broadcast("stop")
        except Exception:  # pragma: no cover - teardown best effort
            pass
        for _, future in waits:
            try:
                future.result(timeout=10.0)
            except (WorkerDied, TimeoutError):
                pass
        for handle in self._workers:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - hung worker
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            self._mark_dead(handle)
            try:
                handle.conn.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self._store.close()
        # The topology pull-gauges must not outlive the pool in the
        # process-global registry: a later service in this process would
        # read a dead pool (total N / alive 0) and false-fire the
        # pool_workers_dead liveness rule. Clearing the callbacks drops
        # both gauges back to their static default of 0 ("no pool"),
        # which keeps the guarded rule dormant.
        metrics.gauge("repro_pool_workers_alive").set_function(None)
        metrics.gauge("repro_pool_workers_total").set_function(None)


def PooledRecommendationService(registry, workers=2, **settings):  # noqa: N802
    # Only perfbench/tracer.py still looks this name up; serve through
    # RecommendationService(registry, workers=N) instead.
    from .service import RecommendationService
    return RecommendationService(registry, workers=workers, **settings)
