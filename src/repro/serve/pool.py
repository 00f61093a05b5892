"""Multi-process serving tier: shared-memory catalogues + worker pool.

One python process is the QPS ceiling: the fused scoring kernels
saturate a core while the GIL serializes everything around them. This
module scales ``/recommend`` across cores without giving up the
old-or-new-ranks-only hot-swap contract (PR 5/6):

* :class:`SharedCatalogStore` writes each generation into an anonymous
  ``memfd`` file: a tiny JSON layout header followed by 64-byte-aligned
  arrays — the catalogue matrix of one generation, plus (for full
  swaps) the model's state dict — so workers map it as zero-copy
  read-only ``np.ndarray`` views. A segment has no name in any
  filesystem and no tracker process: it lives as long as a descriptor
  or a mapping of it, so it cannot outlive the processes serving it.
* :class:`WorkerPool` forks N worker processes (fork, not spawn: the
  registry's datasets and models transfer by copy-on-write page, never
  by pickle) and dispatches requests over per-worker pipes. Each worker
  is one thread whose pipe loop batches whatever is readable through
  its own manual-mode :class:`~repro.serve.batcher.BatcherTable` (see
  :func:`_worker_main`): batches grow with load, and a lone request
  waits on no clock. Cache hits never get here: the facade answers
  them in the parent.
* Hot swaps run through a **generation fence**: the parent publishes
  the new generation's segment, sends a ``swap`` control message and
  the segment's descriptor down every worker pipe, and waits for every
  live worker to ack before it closes the old segment's descriptor. A
  worker handles its pipe in order: every request read before the
  ``swap`` is answered on the old generation, then
  :meth:`~repro.serve.batcher.MicroBatcher.swap` retargets the batcher
  and the ack goes out, so after the fence no batch runs on the old
  generation anywhere. No request is dropped, and no response ever
  mixes generations. While the ``swap`` messages are being written, a
  request for that scenario waits until every pipe holds one, so a
  request sent after an answer from the new generation is answered on
  it too.
* :class:`~repro.serve.service.RecommendationService` with
  ``workers=N`` is the facade over this pool; the HTTP front, the CLI
  and the streaming manager never see the difference.

Requires Linux (``fork`` and ``memfd_create``) and scenarios whose
models expose ``encode_catalog`` (there is no matrix to share
otherwise). Workers must be forked *before* any thread the parent will
rely on (HTTP server, fine-tune workers) — the CLI and benches order
construction accordingly.
"""

from __future__ import annotations

import ctypes
import gc
import itertools
import json
import mmap
import os
import struct
import threading
import time
from concurrent.futures import Future
from multiprocessing import reduction

import numpy as np

from ..obs import metrics
from .batcher import BatcherTable
from .index import FrozenCatalogIndex
from .recommender import Recommender
from .registry import ModelRegistry, Scenario

__all__ = ["PoolError", "PoolUnavailable", "WorkerDied",
           "SharedCatalogStore", "WorkerPool"]

#: How long a generation fence waits for the workers' acks.
FENCE_TIMEOUT_S = 60.0


class PoolError(RuntimeError):
    """The worker pool cannot serve (no workers, bad scenario, ...)."""


class WorkerDied(PoolError):
    """A request or control exchange was lost to a worker process death."""


class PoolUnavailable(PoolError):
    """No live pool worker could answer a request (HTTP 503)."""


def _fork_context():
    import multiprocessing
    if not hasattr(os, "memfd_create"):  # pragma: no cover - not Linux
        raise PoolError("the multi-process serving tier requires Linux "
                        "(fork and memfd_create)")
    return multiprocessing.get_context("fork")


# -- shared-memory segments ---------------------------------------------------

_ALIGN = 64
_HEADER_LEN = struct.Struct("<Q")


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


class SharedCatalogStore:
    """Write and hold the generation segments of one serving parent.

    Segment layout: an 8-byte little-endian header length, a JSON header
    ``{"arrays": [{"name", "dtype", "shape", "offset", "nbytes"}, ...]}``
    with offsets relative to the (aligned) end of the header, then the
    array payloads. Readers recompute the data start from the header
    length, so the header needs no self-referential offsets.

    A segment is an anonymous ``memfd`` file, which the kernel frees
    once its last descriptor and mapping are gone. The store holds one
    descriptor per segment from :meth:`publish` until :meth:`release`
    (per generation) or :meth:`close` (on shutdown). Workers get theirs
    by fork or over their pipe, and :meth:`attach` maps it read-only and
    closes it at once.
    """

    def __init__(self):
        self._fds: set[int] = set()
        self._lock = threading.Lock()

    def publish(self, tag: str, arrays: dict[str, np.ndarray]) -> int:
        """Write ``arrays`` into a fresh segment; returns its descriptor."""
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
        # The name only labels the descriptor in /proc/<pid>/fd.
        fd = os.memfd_create(f"repro-{tag}"[:64])
        try:
            os.ftruncate(fd, total)
            with mmap.mmap(fd, total) as segment:
                _HEADER_LEN.pack_into(segment, 0, len(header))
                segment[_HEADER_LEN.size:_HEADER_LEN.size + len(header)] = \
                    header
                for (_, arr), entry in zip(clean, entries):
                    view = np.ndarray(arr.shape, dtype=arr.dtype,
                                      buffer=segment,
                                      offset=data_start + entry["offset"])
                    view[...] = arr
                    del view       # release the buffer export before close
        except BaseException:
            os.close(fd)
            raise
        with self._lock:
            self._fds.add(fd)
        return fd

    @staticmethod
    def attach(fd: int) -> tuple[mmap.mmap, dict[str, np.ndarray]]:
        """Map a segment read-only and close ``fd``; returns the map and
        its arrays (read-only views)."""
        try:
            segment = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
        (header_len,) = _HEADER_LEN.unpack_from(segment, 0)
        entries = json.loads(segment[_HEADER_LEN.size:_HEADER_LEN.size
                                     + header_len])["arrays"]
        data_start = _aligned(_HEADER_LEN.size + header_len)
        return segment, {
            entry["name"]: np.ndarray(tuple(entry["shape"]),
                                      dtype=np.dtype(entry["dtype"]),
                                      buffer=segment,
                                      offset=data_start + entry["offset"])
            for entry in entries}

    def release(self, fd: int) -> None:
        """Close one segment's descriptor (worker maps persist)."""
        with self._lock:
            if fd not in self._fds:
                return
            self._fds.remove(fd)
        os.close(fd)

    def close(self) -> None:
        with self._lock:
            fds, self._fds = self._fds, set()
        for fd in fds:
            os.close(fd)


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

    def adopt(self, registry: ModelRegistry, fd: int, version: int,
              num_items: int, generation: int,
              model_changed: bool) -> Recommender:
        """Map one generation's segment and build its recommender.

        Full-swap weights load into the resident model in place, so
        this runs inside :meth:`MicroBatcher.swap`, while no batch does.
        ``fd`` is closed here; the caller closes the previous segment
        once the swap is done.
        """
        segment, views = SharedCatalogStore.attach(fd)
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
        # Something still borrows the buffer; the map goes with the
        # last view of it.
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
    batcher. Whenever the drained messages run out, or a control message
    comes next, every queued request runs, one batch per scenario and
    ``max_batch``, and each batch's replies go out as soon as that batch
    finishes. So a ``swap`` first answers every request read before it
    on the old generation. Requests that arrive while a batch runs form
    the next batch. The worker inherits its boot segments' descriptors
    at fork; each later generation's arrives right behind its ``swap``.
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
            queued[future] = req_id
            touched[batcher] = None
        for batcher in touched:
            while futures := batcher.flush_batch():
                for future in futures:
                    reply(_outcome(queued.pop(future), future))

    def receive():
        message = conn.recv()
        if message[0] == "swap":
            # The new segment's descriptor follows its message on the
            # pipe, outside the pickle stream: take it before reading
            # on, or its byte would be read as the next message.
            message += (reduction.recv_handle(conn),)
        return message

    def control(message) -> bool:
        """Handle one control message; False once the pool says stop."""
        kind = message[0]
        if kind == "swap":
            (_, token, key, generation, version, num_items, model_changed,
             fd) = message
            key = tuple(key)
            state = states[key]
            previous = state.segment
            error = None
            try:
                table.get(key).swap(lambda: state.adopt(
                    registry, fd, version, num_items, generation,
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
            messages = [receive()]
            while conn.poll(0):
                messages.append(receive())
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
                 max_batch: int = 32):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if len(registry) == 0:
            raise PoolError("cannot start a worker pool over an empty "
                            "registry")
        # Every scenario is checked before any segment is published.
        for scenario in registry:
            if scenario.recommender.index is None:
                raise PoolError(
                    f"scenario {scenario.spec.dataset}:{scenario.spec.model} "
                    "has no catalogue index; the worker pool can only serve "
                    "indexed models (encode_catalog protocol)")
        context = _fork_context()
        self.registry = registry
        self._settings = {"max_batch": max_batch}
        self._store = SharedCatalogStore()
        self._seq = itertools.count(1)
        self._rr = 0
        self._rr_lock = threading.Lock()
        self._fence_lock = threading.Lock()  # one fence at a time
        self._fence_state: dict = {"state": "idle"}
        # Held by a fence while it writes one scenario's swap messages.
        self._gates: dict[tuple[str, str], threading.Lock] = {}
        self._generation: dict[tuple[str, str], int] = {}
        # The descriptor of each scenario's serving segment.
        self._segment: dict[tuple[str, str], int] = {}
        self._closed = False
        self._workers: list[_WorkerHandle] = []
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
        try:
            self._start(context, workers)
        except BaseException:
            self.close()           # no segment or worker outlives a failure
            raise

    def _start(self, context, workers: int) -> None:
        """Publish every scenario's first generation and fork the workers."""
        boot: dict[tuple[str, str], dict] = {}
        for scenario in self.registry:
            matrix, version = scenario.recommender.index.snapshot()
            key = scenario.spec.key
            fd = self._store.publish(f"g1-{key[0]}-{key[1]}",
                                     {"catalog": matrix})
            self._generation[key] = 1
            self._segment[key] = fd
            boot[key] = {"segment": fd, "version": version,
                         "num_items": scenario.dataset.num_items,
                         "generation": 1}
        # A free heap page the workers inherit would be copied once the
        # parent reuses it, leaving the worker a private page of garbage:
        # give the free pages back first (glibc only).
        try:
            ctypes.CDLL(None).malloc_trim(0)
        except AttributeError:  # pragma: no cover - not glibc
            pass
        # Frozen objects leave the collector's lists, so a worker's
        # collections never write to the pages it shares with the
        # parent. Workers stay frozen; the parent thaws after the forks.
        gc.freeze()
        try:
            for worker_id in range(workers):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(worker_id, child_conn, parent_conn, self.registry,
                          boot, self._settings),
                    name=f"repro-pool-{worker_id}", daemon=True)
                process.start()
                child_conn.close()         # parent keeps only its own end
                handle = _WorkerHandle(worker_id, process, parent_conn)
                handle.reader = threading.Thread(
                    target=self._read_loop, args=(handle,),
                    name=f"repro-pool-reader-{worker_id}", daemon=True)
                handle.reader.start()
                self._workers.append(handle)
        finally:
            gc.unfreeze()

    # -- properties ----------------------------------------------------------

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
        worker death is transparently retried on another worker; with no
        live worker left to answer it, it raises :class:`PoolUnavailable`.
        One that times out is forgotten: a late reply to it is dropped.
        """
        gate = self._gates.get(key)
        if gate is not None:
            # A fence is writing this scenario's swap messages: wait
            # until every pipe holds one. A request sent after one
            # worker answered on the new generation then reaches every
            # other worker behind its swap, so it is never answered on
            # the old one.
            with gate:
                pass
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
            except TimeoutError:
                with handle.lock:
                    handle.pending.pop(req_id, None)
                raise
        raise PoolUnavailable("no live pool worker could answer") \
            from last_error

    # -- control path --------------------------------------------------------

    def _control(self, handle: _WorkerHandle, kind: str,
                 payload: tuple = (), fd: int | None = None
                 ) -> tuple[str, Future]:
        """Send one control message, and ``fd`` right behind it if given."""
        token = f"c{next(self._seq)}"
        future: Future = Future()
        with handle.lock:
            if not handle.alive:
                raise WorkerDied(f"pool worker {handle.id} died")
            handle.control[token] = future
        try:
            with handle.send_lock:
                handle.conn.send((kind, token) + payload)
                if fd is not None:
                    reduction.send_handle(handle.conn, fd,
                                          handle.process.pid)
        except (BrokenPipeError, OSError):
            self._mark_dead(handle)
            raise WorkerDied(f"pool worker {handle.id} died") from None
        return token, future

    def _broadcast(self, kind: str, payload: tuple = (),
                   fd: int | None = None) -> list:
        """Send one control message (and ``fd``) to every live worker.

        Returns ``(handle, token, future)`` per worker it reached.
        """
        waits = []
        for handle in self._workers:
            if not handle.alive:
                continue
            try:
                waits.append((handle, *self._control(handle, kind, payload,
                                                     fd)))
            except WorkerDied:
                continue
        return waits

    @staticmethod
    def _replies(waits: list, timeout: float) -> list:
        """``(handle, reply)`` per wait, under one deadline for them all.

        A worker that died reads as a :class:`WorkerDied` reply, one that
        missed the deadline as a ``TimeoutError``; a timed-out future
        also leaves its worker's control map, as nothing waits for it.
        """
        deadline = time.monotonic() + timeout
        replies = []
        for handle, token, future in waits:
            try:
                reply = future.result(
                    timeout=max(deadline - time.monotonic(), 0.0))
            except WorkerDied as exc:
                reply = exc
            except TimeoutError as exc:
                with handle.lock:
                    handle.control.pop(token, None)
                reply = exc
            replies.append((handle, reply))
        return replies

    # -- generation fence ----------------------------------------------------

    def publish(self, scenario: Scenario, model_changed: bool) -> dict:
        """Publish one scenario's new generation and fence every worker.

        Returns timing/ack info: ``publish_s`` (segment write),
        ``fence_s`` (ack wait), ``drain_s`` (old-segment release). The
        old segment's descriptor is closed only after every live worker
        acked the flip — by then no worker runs a batch on the old
        generation, and the workers' maps of it go as they unmap.
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
            fd = self._store.publish(f"g{generation}-{key[0]}-{key[1]}",
                                     arrays)
            published = time.perf_counter()
            self._fence_state = {"state": "fencing",
                                 "scenario": f"{key[0]}:{key[1]}",
                                 "generation": generation}
            with self._gates.setdefault(key, threading.Lock()):
                waits = self._broadcast(
                    "swap", (key, generation, version,
                             scenario.dataset.num_items, model_changed), fd)
            acked, errors = 0, []
            for handle, reply in self._replies(waits, FENCE_TIMEOUT_S):
                if isinstance(reply, WorkerDied):
                    continue               # dead workers cannot hold a fence
                if isinstance(reply, TimeoutError):
                    reply = "fence timeout"
                if reply is None:
                    acked += 1
                else:
                    errors.append(f"worker {handle.id}: {reply}")
                    self._m_flip_errors.inc()
            fenced = time.perf_counter()
            old_segment = self._segment.get(key)
            self._generation[key] = generation
            self._segment[key] = fd
            if old_segment is not None:
                self._store.release(old_segment)
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
        """Pool topology plus each worker's batcher counters.

        Waits at most ``timeout`` in all for the workers' replies; a
        worker that sends none is listed without ``scenarios``.
        """
        replies = {handle.id: reply for handle, reply in
                   self._replies(self._broadcast("stats"), timeout)}
        per_worker = []
        for handle in self._workers:
            entry = {"worker": handle.id, "pid": handle.process.pid,
                     "alive": handle.alive, "requests": handle.requests,
                     "inflight": handle.inflight()}
            reply = replies.get(handle.id)
            if isinstance(reply, dict):
                entry["scenarios"] = reply["scenarios"]
            per_worker.append(entry)
        return {"mode": "pool", "workers": len(self._workers),
                "alive": self.alive(), "generations": self.generations(),
                "fence": dict(self._fence_state, timeout_s=FENCE_TIMEOUT_S),
                "per_worker": per_worker}

    def metrics(self, timeout: float = 10.0) -> list[dict]:
        """One ``MetricsRegistry.collect()`` result per replying worker.

        Waits at most ``timeout`` in all, not per worker.
        """
        return [reply for _, reply in
                self._replies(self._broadcast("metrics"), timeout)
                if isinstance(reply, dict)]

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._replies(self._broadcast("stop"), 10.0)
        except Exception:  # pragma: no cover - teardown best effort
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
