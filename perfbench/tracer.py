"""Traced server launcher: timers around the calls into each repro module.

Run as ``python perfbench/tracer.py OUT_DIR serve|stream ARGS...``. It
wraps the public entry points of the serving, streaming, training,
monitoring and set-up layers, then hands ``ARGS`` to the CLI's own
``main`` — the same serve/stream code path the untraced runs launch.

A span is ``(name, start, end, child_time, thread, meta, id, parent)`` with
``perf_counter`` stamps (CLOCK_MONOTONIC on Linux, so the load generator
can cut the spans to its timed window). ``child_time`` is the time the
span's nested spans on the same thread covered; a span's self time is
its duration minus that. Spans stay in memory and are written out as
JSON when the process ends: the parent's on return from the CLI, each
forked pool worker's when its main loop returns on the pool's clean
stop. The file for the parent also carries ``ready`` (the entry into
``serve_forever``) and ``import_s``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

T_START = time.perf_counter()

_local = threading.local()
_ids = itertools.count(1)
SPANS: list = []


def _wrap(owner, attr: str, name: str, meta=None) -> None:
    """Replace ``owner.attr`` with a timed wrapper recording ``name``.

    ``meta(args, result)`` returns a number stored with the span (batch
    size, request path, series count). A missing attribute is skipped
    with a note so a renamed layer degrades to "unmeasured", not a crash.
    """
    original = getattr(owner, attr, None)
    if original is None:
        print(f"tracer: {getattr(owner, '__name__', owner)}.{attr} not found; "
              f"layer {name} unmeasured", file=sys.stderr)
        return

    @functools.wraps(original)
    def timed(*args, **kwargs):
        stack = _local.__dict__.setdefault("stack", [])
        frame = [0.0, next(_ids)]
        parent = stack[-1][1] if stack else None
        stack.append(frame)
        start = time.perf_counter()
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][0] += end - start
            SPANS.append((name, start, end, frame[0], threading.get_ident(),
                          None if meta is None else meta(args, result),
                          frame[1], parent))

    setattr(owner, attr, timed)


def _dump(out_dir: str, tag: str, extra: dict) -> None:
    path = os.path.join(out_dir, f"spans-{tag}-{os.getpid()}.json")
    with open(path + ".tmp", "w") as handle:
        json.dump({"pid": os.getpid(), "role": tag, "spans": SPANS, **extra},
                  handle)
    os.replace(path + ".tmp", path)


def install(out_dir: str) -> dict:
    """Import the layers and wrap their entry points; returns run info."""
    from repro import cli  # noqa: F401 - part of the measured import
    from repro.obs import health, timeline
    from repro.serve import batcher, http, index, pool, recommender, registry
    from repro.serve import service
    from repro.stream import worker
    from repro.train import trainer
    import repro.serve as serve_pkg
    info = {"import_s": time.perf_counter() - T_START, "ready": None}

    handler = getattr(http, "_Handler", None)
    if handler is not None:
        _wrap(handler, "do_POST", "serve.http",
              meta=lambda args, _: args[0].path)
    _wrap(service.RecommendationService, "recommend", "serve.service")
    _wrap(pool.PooledRecommendationService, "recommend", "serve.service")
    _wrap(pool.WorkerPool, "recommend", "serve.pool")
    _wrap(pool.WorkerPool, "__init__", "setup.pool")
    _wrap(batcher.MicroBatcher, "recommend", "serve.batcher")
    _wrap(batcher.MicroBatcher, "submit", "serve.batcher.submit")
    _wrap(recommender.Recommender, "recommend_batch", "serve.recommender",
          meta=lambda args, _: len(args[1]))
    _wrap(recommender, "score_batch", "serve.recommender.score")
    _wrap(recommender, "topk", "serve.recommender.topk")
    _wrap(index.CatalogIndex, "refresh", "serve.index.build")
    _wrap(index.CatalogIndex, "publish_partial", "serve.index.build")
    _wrap(timeline.Timeline, "sample", "obs.tick",
          meta=lambda args, _: len(getattr(args[0], "_series", ())))
    _wrap(health.HealthMonitor, "evaluate", "obs.evaluate")
    _wrap(trainer.Trainer, "train_step", "train.step")
    _wrap(worker.FineTuneWorker, "ingest", "stream.ingest")
    _wrap(registry, "build_dataset", "setup.dataset")
    _wrap(registry, "build_model", "setup.model")
    _wrap(worker, "build_model", "stream.build_model")

    original_serve = serve_pkg.serve_forever

    def serve_forever(*args, **kwargs):
        info["ready"] = time.perf_counter()
        return original_serve(*args, **kwargs)

    serve_pkg.serve_forever = serve_forever

    original_worker = getattr(pool, "_worker_main", None)
    if original_worker is not None:
        def worker_main(*args, **kwargs):
            # A forked worker starts with a copy of the parent's spans
            # and of the forking thread's open-span stack: drop both.
            del SPANS[:]
            _local.__dict__["stack"] = []
            try:
                return original_worker(*args, **kwargs)
            finally:
                _dump(out_dir, "worker", {})
        pool._worker_main = worker_main
    return info


def main(argv: list[str]) -> int:
    out_dir, cli_args = argv[0], argv[1:]
    info = install(out_dir)
    from repro import cli
    try:
        return cli.main(cli_args)
    finally:
        _dump(out_dir, "server", info)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
