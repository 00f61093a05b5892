"""``repro.serve`` — the online recommendation serving subsystem.

Turns any model exposing the ``encode_catalog`` / ``sequence_hidden``
protocol (PMMRec and every sequential baseline) into an online service:

* :mod:`~repro.serve.scoring` — the batch-scoring kernel shared with
  offline evaluation (one hot path for tables and traffic);
* :class:`CatalogIndex` — precomputed, versioned item representations;
* :mod:`~repro.serve.ann` — approximate retrieval (:class:`IVFIndex`,
  k-means cells with an ``nprobe`` scan) with exact fallback, rebuilt
  incrementally on index refresh;
* :class:`Recommender` — ``recommend(history, k)`` with argpartition
  top-k, seen-item exclusion and ANN/exact retrieval routing;
* :class:`MicroBatcher` — size/timeout request coalescing;
* :class:`ModelRegistry` — many (dataset, model) scenarios, one process;
* :class:`RecommendationService` + :mod:`~repro.serve.http` — the JSON
  endpoint behind ``repro serve``, with one LRU result cache per
  scenario, in-process or over a :class:`WorkerPool`;
* :mod:`~repro.serve.bench` — p50/p99/QPS measurement for
  ``repro bench-serve`` plus the recall@k-vs-QPS retrieval benchmark.

See ``docs/serving.md`` for the architecture and the endpoint contract.
"""

from .ann import ANN_KINDS, AnnSearch, IVFIndex, make_ann_index
from .batcher import BatcherStats, BatcherTable, LRUCache, MicroBatcher
from .bench import (BenchReport, KeepAliveClient, RetrievalReport,
                    bench_full_sort_path, bench_pool_scaling,
                    bench_retrieval, bench_topk_path, compare_paths,
                    render_comparison, render_pool_report,
                    render_retrieval, request_stream, stage_snapshots,
                    synthetic_catalog, synthetic_queries)
from .http import RecommendationServer, make_server, serve_forever
from .index import CatalogIndex, FrozenCatalogIndex
from .pool import (PoolError, PoolUnavailable, SharedCatalogStore,
                   WorkerDied, WorkerPool)
from .recommender import Recommendation, Recommender, RetrievalStats
from .registry import ModelRegistry, Scenario, ScenarioSpec, build_model
from .scoring import (batch_scorer, encode_queries, model_max_len,
                      score_batch, supports_kernel)
from .service import RecommendationService

__all__ = [
    "score_batch", "encode_queries", "batch_scorer", "supports_kernel",
    "model_max_len",
    "CatalogIndex", "FrozenCatalogIndex",
    "ANN_KINDS", "AnnSearch", "IVFIndex", "make_ann_index",
    "Recommendation", "Recommender", "RetrievalStats",
    "MicroBatcher", "LRUCache", "BatcherStats", "BatcherTable",
    "ModelRegistry", "Scenario", "ScenarioSpec", "build_model",
    "RecommendationService", "WorkerPool", "SharedCatalogStore",
    "PoolError", "PoolUnavailable", "WorkerDied",
    "RecommendationServer", "make_server", "serve_forever",
    "BenchReport", "bench_topk_path", "bench_full_sort_path",
    "compare_paths", "render_comparison", "request_stream",
    "stage_snapshots",
    "RetrievalReport", "bench_retrieval", "render_retrieval",
    "synthetic_catalog", "synthetic_queries",
    "KeepAliveClient", "bench_pool_scaling", "render_pool_report",
]
