"""Latency / throughput benchmarking for the serving stack.

Drives a :class:`~repro.serve.recommender.Recommender` with a stream of
request histories and reports p50/p99 latency and QPS, comparing the
serving hot path (batched scoring + argpartition top-k) against the
naive reference (one request at a time, full-catalogue ``argsort``).
Used by ``repro bench-serve`` and ``benchmarks/test_serve_perf.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..nn.ops import topk
from ..obs import metrics
from .ann import IVFIndex
from .recommender import Recommender

__all__ = ["BenchReport", "bench_topk_path", "bench_full_sort_path",
           "compare_paths", "request_stream", "render_comparison",
           "stage_snapshots",
           "RetrievalReport", "synthetic_catalog", "synthetic_queries",
           "bench_retrieval", "render_retrieval",
           "KeepAliveClient", "bench_pool_scaling", "render_pool_report"]


@dataclass
class BenchReport:
    """Latency distribution and throughput of one benchmarked path."""

    name: str
    requests: int
    batch_size: int
    p50_ms: float
    p99_ms: float
    mean_ms: float
    total_s: float
    qps: float

    def to_json(self) -> dict:
        return dict(self.__dict__)


def request_stream(dataset, count: int, seed: int = 0,
                   repeat_frac: float = 0.0) -> list[np.ndarray]:
    """Sample request histories from a dataset's evaluation split.

    ``repeat_frac`` re-issues a fraction of earlier requests, modelling
    repeat users (this is what the serving result cache feeds on).
    """
    rng = np.random.default_rng(seed)
    examples = dataset.split.test
    picks = rng.integers(0, len(examples), size=count)
    histories = [np.asarray(examples[i].history) for i in picks]
    if repeat_frac > 0.0 and count > 1:
        repeats = rng.random(count) < repeat_frac
        repeats[0] = False
        for pos in np.flatnonzero(repeats):
            histories[pos] = histories[int(rng.integers(0, pos))]
    return histories


def _report(name: str, latencies_s: list[float], requests: int,
            batch_size: int, total_s: float) -> BenchReport:
    lat_ms = np.asarray(latencies_s) * 1e3
    return BenchReport(
        name=name, requests=requests, batch_size=batch_size,
        p50_ms=float(np.percentile(lat_ms, 50)),
        p99_ms=float(np.percentile(lat_ms, 99)),
        mean_ms=float(lat_ms.mean()),
        total_s=total_s,
        qps=requests / total_s if total_s > 0 else float("inf"))


def bench_topk_path(recommender: Recommender, histories: list[np.ndarray],
                    k: int = 10, batch_size: int = 32) -> BenchReport:
    """The serving path: micro-batched scoring + argpartition top-k.

    Per-request latency within a batch is the batch wall time (every
    request in a coalesced flush waits for the whole batch) — the same
    accounting a real queue would produce. The report is labelled with
    the retrieval backend only when the ANN path served *every* batch;
    a configured backend that fell back on some batches is labelled
    ``mixed``, and on all of them ``exact-fallback``, so the table never
    attributes exact-path numbers to an index that was not consulted.
    """
    stats = getattr(recommender, "retrieval_stats", None)
    ann_before = stats.ann_batches if stats is not None else 0
    exact_before = stats.exact_batches if stats is not None else 0
    latencies: list[float] = []
    start = time.perf_counter()
    for lo in range(0, len(histories), batch_size):
        chunk = histories[lo:lo + batch_size]
        tick = time.perf_counter()
        recommender.recommend_batch(chunk, k=k)
        elapsed = time.perf_counter() - tick
        latencies.extend([elapsed] * len(chunk))
    total = time.perf_counter() - start
    retrieval = getattr(recommender, "retrieval", "exact")
    if retrieval == "exact":
        tag = ""
    else:
        ann_used = stats is not None and stats.ann_batches > ann_before
        exact_used = stats is not None and stats.exact_batches > exact_before
        if ann_used and not exact_used:
            tag = f"-{retrieval}"
        elif ann_used:
            tag = "-mixed"
        else:
            tag = "-exact-fallback"
    return _report(f"batched{tag}-top{k}", latencies, len(histories),
                   batch_size, total)


def bench_full_sort_path(recommender: Recommender,
                         histories: list[np.ndarray],
                         k: int = 10) -> BenchReport:
    """The naive reference: one request per pass, full-catalogue argsort."""
    latencies: list[float] = []
    start = time.perf_counter()
    for history in histories:
        tick = time.perf_counter()
        scores = recommender.score([np.asarray(history)])[0]
        scores[0] = -np.inf
        order = np.argsort(-scores, kind="stable")   # full O(n log n) sort
        order = order[:k]                            # the answer it would ship
        latencies.append(time.perf_counter() - tick)
    total = time.perf_counter() - start
    return _report("sequential-full-sort", latencies, len(histories), 1,
                   total)


def stage_snapshots(before: dict | None = None,
                    prefix: str = "repro_serve_") -> dict:
    """Registry histograms under ``prefix``, optionally diffed vs ``before``.

    With ``before=None``, returns ``{(name, labelset): HistogramSnapshot}``
    — the "before" marker. Called again with that marker, returns only
    what the run in between observed (``minus``), as JSON summaries in
    milliseconds (sizes stay unscaled). This is how bench reports carve
    per-run breakdowns out of process-lifetime instruments.
    """
    current = {}
    for hist in metrics.REGISTRY.histograms(prefix):
        label = ",".join(f"{k}={v}" for k, v in hist.label_key)
        current[(hist.name, label)] = hist.snapshot()
    if before is None:
        return current
    out = {}
    for key, snap in current.items():
        delta = snap.minus(before[key]) if key in before else snap
        if delta.total > 0:
            name, label = key
            scale = 1.0 if name.endswith(("_size", "_depth")) else 1e3
            out[f"{name}{{{label}}}" if label else name] = \
                delta.to_json(scale=scale)
    return out


def compare_paths(recommender: Recommender, histories: list[np.ndarray],
                  k: int = 10, batch_size: int = 32) -> dict:
    """Run both paths on the same request stream; returns both reports."""
    recommender.refresh()      # index build paid up front, outside timing
    before = stage_snapshots()
    batched = bench_topk_path(recommender, histories, k=k,
                              batch_size=batch_size)
    stages = stage_snapshots(before)
    sequential = bench_full_sort_path(recommender, histories, k=k)
    speedup = (sequential.total_s / batched.total_s
               if batched.total_s > 0 else float("inf"))
    return {"batched": batched, "sequential": sequential,
            "throughput_speedup": speedup, "stages": stages}


# -- retrieval-layer benchmark (exact vs IVF) --------------------------------


@dataclass
class RetrievalReport:
    """Recall/latency trade-off of one retrieval backend."""

    name: str
    requests: int
    k: int
    recall_at_k: float
    p50_ms: float
    p99_ms: float
    qps: float
    build_s: float
    nbytes: int

    def to_json(self) -> dict:
        return dict(self.__dict__)


def synthetic_catalog(num_items: int, dim: int = 48, num_clusters: int = 256,
                      spread: float = 0.35, seed: int = 0) -> np.ndarray:
    """A clustered item-embedding matrix standing in for a trained catalogue.

    Real item embeddings cluster by category/style — the structure both
    the paper's modality encoders and any IVF index exploit — so the
    benchmark catalogue is a mixture of Gaussians: ``num_clusters``
    centres on the unit sphere, items scattered around them with
    ``spread`` controlling intra-cluster variance. Row 0 is the padding
    item (all-zero), matching the ``encode_catalog`` contract.
    """
    rng = np.random.default_rng(seed)
    # Centres stay at their natural ~sqrt(dim) norm so inter-cluster
    # distance dominates the intra-cluster ``spread`` — the regime
    # trained embeddings live in. Normalizing them to unit length would
    # drown the structure in noise and make every ANN index look bad.
    centers = rng.normal(size=(num_clusters, dim))
    owner = rng.integers(0, num_clusters, size=num_items)
    matrix = np.zeros((num_items + 1, dim), dtype=np.float32)
    matrix[1:] = (centers[owner]
                  + spread * rng.normal(size=(num_items, dim)))
    return matrix


def synthetic_queries(catalog: np.ndarray, count: int,
                      seed: int = 1) -> np.ndarray:
    """User-state query vectors aimed at the catalogue's cluster structure.

    Each query is a perturbed catalogue item — the "user is close to
    some region of the catalogue" regime a trained user encoder
    produces — so ground-truth neighbours are non-degenerate.
    """
    rng = np.random.default_rng(seed)
    picks = rng.integers(1, len(catalog), size=count)
    noise = 0.25 * rng.normal(size=(count, catalog.shape[1]))
    return (catalog[picks] + noise).astype(catalog.dtype)


def _exact_top_ids(catalog: np.ndarray, query: np.ndarray,
                   k: int) -> np.ndarray:
    scores = catalog @ query
    scores[0] = -np.inf
    return topk(scores, k)[1]


def bench_retrieval(catalog: np.ndarray, queries: np.ndarray, k: int,
                    backends: dict[str, IVFIndex | None]) -> list[RetrievalReport]:
    """Measure recall@k and per-query QPS for each retrieval backend.

    ``backends`` maps a display name to an :class:`IVFIndex` (fitted
    here, build time reported) or ``None`` for the exact reference.
    Every backend answers the same queries; recall@k counts overlap with
    the exact top-k. ANN timings include the full serving work — cell
    probe, candidate gather, exact re-rank — not just the probe.
    """
    truth = [set(_exact_top_ids(catalog, q, k).tolist()) for q in queries]
    reports = []
    for name, index in backends.items():
        build_s = 0.0
        if index is not None:
            tick = time.perf_counter()
            index.fit(catalog, version=1)
            build_s = time.perf_counter() - tick
        latencies: list[float] = []
        hits = 0
        start = time.perf_counter()
        for query, expected in zip(queries, truth):
            tick = time.perf_counter()
            if index is None:
                ids = _exact_top_ids(catalog, query, k)
            else:
                candidates = index.candidates(query, k)
                scores = catalog[candidates] @ query
                ids = candidates[topk(scores, min(k, len(scores)))[1]]
            latencies.append(time.perf_counter() - tick)
            hits += len(expected.intersection(ids.tolist()))
        total = time.perf_counter() - start
        lat_ms = np.asarray(latencies) * 1e3
        reports.append(RetrievalReport(
            name=name, requests=len(queries), k=k,
            recall_at_k=hits / (len(queries) * k),
            p50_ms=float(np.percentile(lat_ms, 50)),
            p99_ms=float(np.percentile(lat_ms, 99)),
            qps=len(queries) / total if total > 0 else float("inf"),
            build_s=build_s,
            nbytes=catalog.nbytes if index is None else index.nbytes))
    return reports


def render_retrieval(reports: list[RetrievalReport],
                     title: str = "ann benchmark") -> str:
    """Human-readable recall/QPS table for the CLI and results/ artifact."""
    lines = [title,
             f"{'backend':<14} {'req':>5} {'recall@k':>9} {'p50 ms':>8} "
             f"{'p99 ms':>8} {'QPS':>9} {'build s':>8} {'MiB':>7}"]
    for r in reports:
        lines.append(f"{r.name:<14} {r.requests:>5} {r.recall_at_k:>9.4f} "
                     f"{r.p50_ms:>8.3f} {r.p99_ms:>8.3f} {r.qps:>9.1f} "
                     f"{r.build_s:>8.2f} {r.nbytes / 2**20:>7.2f}")
    exact = next((r for r in reports if r.name == "exact"), None)
    if exact is not None:
        for r in reports:
            if r is not exact:
                lines.append(f"{r.name}: {r.qps / exact.qps:.2f}x exact QPS "
                             f"at recall@{r.k} = {r.recall_at_k:.4f}")
    return "\n".join(lines)


def render_comparison(comparison: dict, title: str = "serve benchmark") -> str:
    """Human-readable table for the CLI and the results/ artifact."""
    rows = [comparison["batched"], comparison["sequential"]]
    lines = [title,
             f"{'path':<24} {'req':>5} {'batch':>5} {'p50 ms':>8} "
             f"{'p99 ms':>8} {'QPS':>8}"]
    for report in rows:
        lines.append(f"{report.name:<24} {report.requests:>5} "
                     f"{report.batch_size:>5} {report.p50_ms:>8.2f} "
                     f"{report.p99_ms:>8.2f} {report.qps:>8.1f}")
    lines.append(f"throughput speedup (batched top-k vs sequential "
                 f"full sort): {comparison['throughput_speedup']:.2f}x")
    stages = comparison.get("stages") or {}
    stage_rows = sorted(
        (name.split("stage=")[1].rstrip("}"), summary)
        for name, summary in stages.items()
        if name.startswith("repro_serve_stage_seconds"))
    if stage_rows:
        lines.append(f"{'stage':<12} {'count':>6} {'p50 ms':>8} "
                     f"{'p99 ms':>8} {'mean ms':>8}")
        for stage, s in stage_rows:
            lines.append(f"{stage:<12} {s['count']:>6} {s['p50']:>8.3f} "
                         f"{s['p99']:>8.3f} {s['mean']:>8.3f}")
    return "\n".join(lines)


# -- worker-pool scaling ------------------------------------------------------

class KeepAliveClient:
    """Persistent-connection JSON client for benchmarking the HTTP front.

    One TCP connection carries many requests (HTTP/1.1 keep-alive),
    which is how a real load balancer or SDK talks to the service —
    and what the per-request ``urllib`` pattern used to measure before
    the connection-churn fix. A server-side idle close is absorbed by
    one transparent reconnect.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        import http.client
        self._factory = lambda: http.client.HTTPConnection(
            host, port, timeout=timeout)
        self._conn = None
        #: Connections re-established mid-stream. Stays 0 against a
        #: healthy keep-alive server — a regression in connection churn
        #: shows up here before it shows up in latency.
        self.reconnects = 0

    def _request(self, method: str, path: str, body: str | None) -> dict:
        import http.client
        import json as _json
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            if self._conn is None:
                self._conn = self._factory()
            try:
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                data = response.read()
            except (http.client.RemoteDisconnected, ConnectionResetError,
                    BrokenPipeError, ConnectionAbortedError):
                self.close()
                self.reconnects += 1
                if attempt:
                    raise
                continue
            if response.status >= 400:
                raise RuntimeError(
                    f"HTTP {response.status} on {path}: {data[:200]!r}")
            return _json.loads(data)
        raise RuntimeError("unreachable")  # pragma: no cover

    def get_json(self, path: str) -> dict:
        return self._request("GET", path, None)

    def post_json(self, path: str, payload: dict) -> dict:
        import json as _json
        return self._request("POST", path, _json.dumps(payload))

    def close(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass


def bench_pool_scaling(dataset_name: str, model_name: str, *,
                       profile: str | None = None,
                       worker_counts: tuple = (1, 2, 4),
                       requests: int = 512, client_threads: int = 8,
                       k: int = 10, dtype: str = "float32",
                       max_batch: int = 32, max_wait_ms: float = 2.0,
                       checkpoint: str | None = None,
                       include_inprocess: bool = True,
                       seed: int = 0) -> dict:
    """Measure ``/recommend`` QPS over HTTP at several pool sizes.

    Each leg stands up the full serving stack — pooled service, HTTP
    server, ``client_threads`` keep-alive clients — and drives the same
    request stream through it. The registry (datasets + models + warmed
    index) is built once and reused across legs; only the pool is
    reforked per worker count. An in-process leg (no pool) rides along
    as the dispatch-overhead baseline and runs *last* so its batcher
    threads never precede a fork. ``max_wait_ms`` is the in-process
    leg's batching window; pool workers have none. Each leg also
    records its mean coalesced batch (``mean_batch``).
    """
    import threading
    from dataclasses import replace as _replace

    from .http import make_server
    from .registry import ModelRegistry, ScenarioSpec
    from .service import RecommendationService

    registry = ModelRegistry(profile=profile, dtype=dtype)
    scenario = registry.add(ScenarioSpec(dataset=dataset_name,
                                         model=model_name,
                                         checkpoint=checkpoint), seed=seed)
    histories = request_stream(scenario.dataset, requests, seed=seed,
                               repeat_frac=0.2)

    def run_leg(name: str, service) -> BenchReport:
        server = make_server(service)
        server.start_background()
        host, port = server.server_address[:2]
        latencies: list[list[float]] = [[] for _ in range(client_threads)]
        errors: list[str] = []
        slices = np.array_split(np.arange(len(histories)), client_threads)

        def client(tid: int, indices: np.ndarray) -> None:
            conn = KeepAliveClient(host, port)
            try:
                for i in indices:
                    payload = {"dataset": dataset_name, "model": model_name,
                               "history": [int(x) for x in
                                           histories[int(i)]],
                               "k": k}
                    tick = time.perf_counter()
                    conn.post_json("/recommend", payload)
                    latencies[tid].append(time.perf_counter() - tick)
            except Exception as exc:  # noqa: BLE001 - collected, reraised
                errors.append(f"{type(exc).__name__}: {exc}")
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(tid, idx),
                                    daemon=True)
                   for tid, idx in enumerate(slices)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = time.perf_counter() - start
        server.shutdown()
        server.server_close()
        if errors:
            raise RuntimeError(f"pool bench leg {name!r} failed: "
                               f"{errors[:3]}")
        flat = [value for per_thread in latencies for value in per_thread]
        return _replace(_report(name, flat, len(flat), 0, total),
                        batch_size=client_threads)

    reports: list[BenchReport] = []
    mean_batch: dict[str, float] = {}
    legs = [(f"pool-{count}w", int(count)) for count in worker_counts]
    if include_inprocess:
        legs.append(("in-process", 0))
    for name, workers in legs:
        window = {} if workers else {"max_wait_ms": max_wait_ms}
        service = RecommendationService(registry, workers=workers,
                                        max_batch=max_batch, **window)
        try:
            reports.append(run_leg(name, service))
            mean_batch[name] = service.stats()["scenarios"][
                f"{dataset_name}:{model_name}"]["mean_batch"]
        finally:
            service.close()
    base = next((r for r in reports if r.name == "pool-1w"), reports[0])
    import os
    return {"scenario": f"{dataset_name}:{model_name}",
            "profile": profile, "requests": requests,
            "clients": client_threads, "k": k,
            "cpu_count": os.cpu_count() or 1,
            "worker_counts": [int(c) for c in worker_counts],
            "reports": reports, "mean_batch": mean_batch,
            "scaling": {r.name: (r.qps / base.qps if base.qps else 0.0)
                        for r in reports if r.name.startswith("pool-")}}


def render_pool_report(sweep: dict,
                       title: str = "worker-pool scaling sweep") -> str:
    """Human-readable table for the CLI and the results/ artifact."""
    lines = [title,
             f"scenario {sweep['scenario']} (profile={sweep['profile']}); "
             f"{sweep['requests']} requests over HTTP keep-alive, "
             f"{sweep['clients']} client threads; host has "
             f"{sweep['cpu_count']} cpu core(s)",
             f"{'leg':<14} {'req':>5} {'p50 ms':>8} {'p99 ms':>8} "
             f"{'QPS':>8} {'batch':>6}"]
    for report in sweep["reports"]:
        lines.append(f"{report.name:<14} {report.requests:>5} "
                     f"{report.p50_ms:>8.2f} {report.p99_ms:>8.2f} "
                     f"{report.qps:>8.1f} "
                     f"{sweep['mean_batch'][report.name]:>6.2f}")
    for name, ratio in sweep["scaling"].items():
        if name != "pool-1w":
            lines.append(f"{name}: {ratio:.2f}x pool-1w QPS")
    if sweep["cpu_count"] < max(sweep["worker_counts"], default=1):
        lines.append(
            f"note: host exposes only {sweep['cpu_count']} core(s) — QPS "
            "cannot scale past the physical cores; the >=2.5x @ 4 workers "
            "target needs a >=4-core host")
    return "\n".join(lines)
