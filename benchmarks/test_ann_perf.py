"""Approximate-retrieval benchmark: recall@k vs QPS, exact vs IVF.

The acceptance benchmark behind `repro.serve.ann`: at a paper-scale
catalogue (the NineRec/HM sources PMMRec targets run to ~10^4–10^5
items; we use 50k) the IVF backend must deliver **>= 2x the QPS of
exact full-catalogue scoring at recall@10 >= 0.95**. The rendered
table is committed under ``results/ann_bench.txt``; like the serve
latency benchmark, the artifact-writing cases are ``slow``-marked so a
plain ``pytest`` run never clobbers the committed record (run them with
``pytest -m slow benchmarks/test_ann_perf.py``).

The catalogue is a seeded, clustered synthetic embedding matrix
(:func:`repro.serve.bench.synthetic_catalog`) — the cluster-structured
regime trained item encoders produce, which is exactly the structure an
IVF index exploits. Recall assertions are deterministic and always on;
the QPS-ratio assertion honors ``REPRO_SKIP_PERF_ASSERT=1`` like every
other wall-clock assertion in the repo.

A second, `slow`-marked case exercises the end-to-end serving path
(`Recommender` with ``retrieval="ivf"``) on a real model to confirm the
routed path, not just the index primitive, wins at scale.
"""

import os

import numpy as np
import pytest

from repro.serve import (IVFIndex, Recommender, bench_retrieval,
                         render_retrieval, synthetic_catalog,
                         synthetic_queries)

from .conftest import emit, host_note

PAPER_SCALE_ITEMS = 50_000
DIM = 48
K = 10

_skip_perf_assert = os.environ.get("REPRO_SKIP_PERF_ASSERT") == "1"


@pytest.mark.slow
def test_ann_bench_paper_scale(benchmark):
    """Record recall@10 and QPS for exact vs IVF; assert the floor."""
    catalog = synthetic_catalog(PAPER_SCALE_ITEMS, dim=DIM,
                                num_clusters=256, seed=0)
    queries = synthetic_queries(catalog, 256, seed=1)
    backends = {"exact": None, "ivf": IVFIndex(seed=0)}

    def run():
        return bench_retrieval(catalog, queries, k=K, backends=backends)

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    by_name = {r.name: r for r in reports}
    emit("ann_bench", render_retrieval(
        reports,
        title=f"ann benchmark — {PAPER_SCALE_ITEMS} items, dim={DIM}, "
              f"k={K}, {len(queries)} queries, default backend settings\n"
              f"{host_note()}"))

    # Recall floors are deterministic (seeded data, seeded indexes).
    assert by_name["exact"].recall_at_k == 1.0
    assert by_name["ivf"].recall_at_k >= 0.95
    # IVF's structure is ~16x smaller than the catalogue it indexes.
    assert by_name["ivf"].nbytes < catalog.nbytes / 4
    if not _skip_perf_assert:
        assert by_name["ivf"].qps >= 2.0 * by_name["exact"].qps


def test_ann_bench_harness_smoke(benchmark):
    """The harness itself stays sane at small scale (fast, always on)."""
    catalog = synthetic_catalog(2000, dim=16, num_clusters=32, seed=3)
    queries = synthetic_queries(catalog, 32, seed=4)
    backends = {"exact": None,
                "ivf": IVFIndex(nlist=64, nprobe=8, seed=0)}

    def run():
        return bench_retrieval(catalog, queries, k=5, backends=backends)

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    for report in reports:
        assert report.requests == 32
        assert 0.0 <= report.recall_at_k <= 1.0
        assert report.qps > 0.0 and report.p99_ms >= report.p50_ms
    assert reports[0].recall_at_k == 1.0      # exact is its own truth


class _CatalogBackedModel:
    """A kernel-protocol model whose catalogue is a fixed matrix.

    ``sequence_hidden`` is the identity, so a user's query vector is the
    embedding of their last item — the clustered-neighbourhood regime a
    trained encoder produces — while everything else (the scoring
    kernel, the ANN shortlist, the exclusion mask, the re-rank) runs the
    real serving code at full catalogue scale.
    """

    supports_score_kernel = True
    max_seq_len = 30

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def eval(self):
        return self

    def encode_catalog(self, dataset, chunk_size: int = 256) -> np.ndarray:
        return self.matrix.copy()

    def sequence_hidden(self, item_reps, mask):
        return item_reps


class _FakeDataset:
    name = "synthetic-50k"

    def __init__(self, num_items: int):
        self.num_items = num_items


@pytest.mark.slow
def test_ann_serving_path_end_to_end(benchmark):
    """`Recommender(retrieval="ivf")` beats its exact twin through the
    full request path (encode -> shortlist -> re-rank -> exclusion) at
    paper-scale, holding recall@10 >= 0.95 against the exact answers."""
    catalog = synthetic_catalog(PAPER_SCALE_ITEMS, dim=DIM,
                                num_clusters=256, seed=5)
    dataset = _FakeDataset(PAPER_SCALE_ITEMS)
    model = _CatalogBackedModel(catalog)
    rng = np.random.default_rng(6)
    histories = [rng.integers(1, PAPER_SCALE_ITEMS + 1,
                              size=int(rng.integers(3, 20)))
                 for _ in range(256)]

    exact = Recommender(model, dataset)
    approx = Recommender(model, dataset, retrieval="ivf",
                         ann_params={"seed": 0})
    exact.refresh()
    approx.refresh()

    def run():
        import time
        tick = time.perf_counter()
        truths = [exact.recommend(h, k=10) for h in histories]
        exact_s = time.perf_counter() - tick
        tick = time.perf_counter()
        answers = [approx.recommend(h, k=10) for h in histories]
        approx_s = time.perf_counter() - tick
        overlap = float(np.mean(
            [len(set(t.items.tolist()) & set(a.items.tolist()))
             / max(len(t.items), 1)
             for t, a in zip(truths, answers)]))
        return overlap, exact_s / approx_s

    recall, speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    assert approx.retrieval_stats.ann_batches == len(histories)
    assert recall >= 0.95
    if not _skip_perf_assert:
        assert speedup >= 1.5      # routed path, per-request accounting
