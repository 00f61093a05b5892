"""Approximate retrieval: recall floors, exact equivalence, fallbacks.

Three families lock the ANN layer down:

* **recall floors** — IVF holds recall@10 >= 0.95 against exact
  scoring on a seeded, clustered synthetic catalogue (the regime
  trained item embeddings live in), fresh and after a warm-started
  refit;
* **exact equivalence** — with exhaustive settings (probe every cell /
  one cell holding everything) the ANN path must reproduce the exact path
  bit-for-bit, including seen-item exclusion and the lower-item-id
  tie-break, which pins the candidate-re-rank plumbing;
* **fallback triggers** — every condition under which approximate
  recall would be unsafe must route to exact scoring and be visible in
  ``retrieval_stats``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import make_baseline
from repro.data import build_dataset
from repro.serve import (CatalogIndex, IVFIndex, ModelRegistry, Recommender,
                         make_ann_index, synthetic_catalog,
                         synthetic_queries)
from repro.serve.ann import default_nlist


# -- synthetic-catalogue fixtures (index-level tests) ------------------------


@pytest.fixture(scope="module")
def catalog():
    return synthetic_catalog(4096, dim=32, num_clusters=64, seed=7)


@pytest.fixture(scope="module")
def queries(catalog):
    return synthetic_queries(catalog, 64, seed=8)


def exact_top_ids(catalog, query, k):
    scores = catalog @ query
    scores[0] = -np.inf
    return np.argsort(-scores, kind="stable")[:k]


def recall_at_k(index, catalog, queries, k=10):
    hits = 0
    for query in queries:
        truth = set(exact_top_ids(catalog, query, k).tolist())
        candidates = index.candidates(query, k)
        scores = catalog[candidates] @ query
        picked = candidates[np.argsort(-scores, kind="stable")[:k]]
        hits += len(truth.intersection(picked.tolist()))
    return hits / (len(queries) * k)


# -- recall floors -----------------------------------------------------------


@pytest.mark.parametrize("refits", [
    pytest.param(0, id="ivf"),
    pytest.param(1, id="ivf-refit"),     # warm-started from its centroids
])
def test_recall_floor_at_default_settings(refits, catalog, queries):
    index = IVFIndex(seed=0)
    for version in range(1, refits + 2):
        index.fit(catalog, version=version)
    assert recall_at_k(index, catalog, queries, k=10) >= 0.95


def test_ivf_recall_improves_with_nprobe(catalog, queries):
    coarse = IVFIndex(nlist=128, nprobe=1, seed=0)
    fine = IVFIndex(nlist=128, nprobe=64, seed=0)
    coarse.fit(catalog, version=1)
    fine.fit(catalog, version=1)
    assert (recall_at_k(fine, catalog, queries)
            >= recall_at_k(coarse, catalog, queries))


# -- candidate-set contract --------------------------------------------------


@pytest.mark.parametrize("make_index", [
    pytest.param(lambda: IVFIndex(nlist=32, nprobe=2, seed=0), id="ivf"),
    # One ~64-item cell per probe: asking for 200 must widen.
    pytest.param(lambda: IVFIndex(nlist=64, nprobe=1, seed=0),
                 id="ivf-single-probe"),
])
def test_candidates_are_valid_ascending_ids(make_index, catalog, queries):
    index = make_index()
    index.fit(catalog, version=1)
    for query in queries[:8]:
        for count in (1, 10, 200):
            ids = index.candidates(query, count)
            assert len(ids) >= count
            assert len(np.unique(ids)) == len(ids)
            assert np.all(np.diff(ids) > 0)          # ascending, no dupes
            assert ids.min() >= 1                     # padding never shipped
            assert ids.max() <= len(catalog) - 1


def test_candidates_count_clamps_to_catalog(catalog):
    index = IVFIndex(nlist=16, nprobe=1, seed=0)
    index.fit(catalog, version=1)
    n = len(catalog) - 1
    ids = index.candidates(catalog[1], n + 500)
    assert np.array_equal(ids, np.arange(1, n + 1))


def test_ivf_probe_widening_beats_tiny_cells(catalog):
    # One probed cell holds ~4096/64 = 64 items; asking for more than a
    # cell can hold must widen to further cells, not come back short.
    index = IVFIndex(nlist=64, nprobe=1, seed=0)
    index.fit(catalog, version=1)
    ids = index.candidates(catalog[1], 500)
    assert len(ids) >= 500


def test_unfitted_index_raises():
    with pytest.raises(RuntimeError):
        IVFIndex().candidates(np.zeros(8), 5)


def test_make_ann_index_factory():
    assert make_ann_index("exact") is None
    assert make_ann_index(None) is None
    assert make_ann_index("ivf", nlist=8).nlist == 8
    assert make_ann_index("IVF", nprobe=2).nprobe == 2
    assert make_ann_index("ivf", nlist=None) .nlist is None  # None dropped
    for unknown in ("annoy", "lsh"):
        with pytest.raises(ValueError):
            make_ann_index(unknown)


def test_default_nlist_follows_sqrt_rule():
    assert default_nlist(10_000) == 400
    assert default_nlist(16) == 2      # clamped to n // 8
    assert default_nlist(1) == 1


# -- incremental refresh -----------------------------------------------------


def test_refresh_is_incremental_and_version_stamped(catalog):
    ivf = IVFIndex(seed=0)
    ivf.fit(catalog, version=3)
    assert ivf.fitted_version == 3
    first_centroids = ivf._fitted.state.centroids
    drifted = catalog.copy()
    drifted[1:] += 0.01
    ivf.fit(drifted, version=4)
    assert ivf.fitted_version == 4
    # Warm start: the refreshed quantizer descends from the previous
    # centroids rather than re-seeding (centroids moved only slightly).
    assert np.abs(ivf._fitted.state.centroids - first_centroids).max() < 0.5


# -- recommender integration (real model, real dataset) ----------------------


@pytest.fixture(scope="module")
def paper_dataset():
    return build_dataset("hm", profile="paper")


@pytest.fixture(scope="module")
def paper_model(paper_dataset):
    return make_baseline("sasrec", paper_dataset, seed=0)


@pytest.fixture(scope="module")
def paper_histories(paper_dataset):
    return [ex.history for ex in paper_dataset.split.test[:6]]


@pytest.fixture(scope="module")
def exact_answers(paper_model, paper_dataset, paper_histories):
    exact = Recommender(paper_model, paper_dataset)
    return exact.recommend_batch(paper_histories, k=10)


@pytest.mark.parametrize("kind,params", [
    pytest.param("ivf", {"nlist": 8, "nprobe": 8}, id="ivf-exhaustive"),
    pytest.param("ivf", {"nlist": 1}, id="ivf-one-cell"),
])
def test_exhaustive_ann_equals_exact_bit_for_bit(
        kind, params, paper_model, paper_dataset, paper_histories,
        exact_answers):
    rec = Recommender(paper_model, paper_dataset, retrieval=kind,
                      ann_params=params, min_ann_items=1)
    got = rec.recommend_batch(paper_histories, k=10)
    assert rec.retrieval_stats.ann_batches == 1
    for expected, answer in zip(exact_answers, got):
        assert np.array_equal(expected.items, answer.items)
        assert np.allclose(expected.scores, answer.scores)
        assert answer.index_version == 1


def test_ann_answers_are_frozen(paper_model, paper_dataset, paper_histories):
    rec = Recommender(paper_model, paper_dataset, retrieval="ivf",
                      ann_params={"nlist": 8, "nprobe": 8}, min_ann_items=1)
    answer = rec.recommend(paper_histories[0], k=5)
    with pytest.raises(ValueError):
        answer.items[0] = -1
    with pytest.raises(ValueError):
        answer.scores[0] = 0.0


def test_ann_respects_seen_item_exclusion(paper_model, paper_dataset,
                                          paper_histories):
    rec = Recommender(paper_model, paper_dataset, retrieval="ivf",
                      ann_params={"nlist": 8, "nprobe": 8}, min_ann_items=1)
    for history in paper_histories:
        answer = rec.recommend(history, k=10)
        assert not np.isin(answer.items, history).any()
        assert 0 not in answer.items


def test_refresh_rebuilds_ann_and_bumps_version(paper_model, paper_dataset,
                                                paper_histories):
    rec = Recommender(paper_model, paper_dataset, retrieval="ivf",
                      ann_params={"nlist": 8, "nprobe": 8}, min_ann_items=1)
    first = rec.recommend(paper_histories[0], k=5)
    rec.index.mark_stale()
    second = rec.recommend(paper_histories[0], k=5)
    assert second.index_version == first.index_version + 1
    assert rec.ann.fitted_version == second.index_version
    assert np.array_equal(first.items, second.items)  # weights unchanged
    assert rec.retrieval_stats.ann_batches == 2       # never fell back


# -- exact-fallback triggers -------------------------------------------------


def test_fallback_small_catalog(paper_model, paper_dataset, paper_histories,
                                exact_answers):
    rec = Recommender(paper_model, paper_dataset, retrieval="ivf")
    answer = rec.recommend_batch(paper_histories, k=10)
    assert rec.retrieval_stats.ann_batches == 0
    assert rec.retrieval_stats.fallbacks == {"small_catalog": 1}
    for expected, got in zip(exact_answers, answer):
        assert np.array_equal(expected.items, got.items)


def test_fallback_k_near_catalog(paper_model, paper_dataset,
                                 paper_histories):
    rec = Recommender(paper_model, paper_dataset, retrieval="ivf",
                      ann_params={"nlist": 8, "nprobe": 8}, min_ann_items=1)
    rec.recommend(paper_histories[0], k=paper_dataset.num_items // 2)
    assert rec.retrieval_stats.fallbacks == {"k_near_catalog": 1}


def test_fallback_non_kernel_model(paper_dataset, paper_histories):
    # BERT4Rec owns its inference (mask-token query) and opts out of the
    # scoring kernel — no query vectors, so ANN must never engage.
    model = make_baseline("bert4rec", paper_dataset, seed=0)
    rec = Recommender(model, paper_dataset, retrieval="ivf",
                      min_ann_items=1)
    assert rec.ann is None                   # structure never even built
    rec.recommend(paper_histories[0], k=5)
    assert rec.retrieval_stats.fallbacks == {"no_kernel": 1}


def test_fallback_heuristic_model_without_index(paper_dataset,
                                                paper_histories):
    model = make_baseline("pop", paper_dataset)
    rec = Recommender(model, paper_dataset, retrieval="ivf",
                      min_ann_items=1)
    assert rec.index is None and rec.ann is None
    rec.recommend(paper_histories[0], k=5)
    assert rec.retrieval_stats.fallbacks == {"no_kernel": 1}


def test_fallback_stale_ann_structure(paper_model, paper_dataset,
                                      paper_histories):
    rec = Recommender(paper_model, paper_dataset, retrieval="ivf",
                      ann_params={"nlist": 8, "nprobe": 8}, min_ann_items=1)
    rec.recommend(paper_histories[0], k=5)
    # Simulate a structure that missed a rebuild: its stamped version no
    # longer matches the published matrix. snapshot_retrieval must then
    # withhold it and the recommender must score exactly.
    rec.ann._fitted = rec.ann._fitted.__class__(
        state=rec.ann._fitted.state, version=999)
    answer = rec.recommend(paper_histories[0], k=5)
    assert rec.retrieval_stats.fallbacks == {"stale_index": 1}
    assert answer.index_version == 1


def test_exact_choice_is_not_counted_as_fallback(paper_model, paper_dataset,
                                                 paper_histories):
    rec = Recommender(paper_model, paper_dataset)    # retrieval="exact"
    rec.recommend(paper_histories[0], k=5)
    assert rec.retrieval_stats.exact_batches == 1
    assert rec.retrieval_stats.fallbacks == {}


def test_catalog_index_attach_ann_fits_immediately(paper_model,
                                                   paper_dataset):
    index = CatalogIndex(paper_model, paper_dataset)
    index.matrix                              # publish version 1
    ann = IVFIndex(nlist=8, nprobe=8, seed=0)
    index.attach_ann(ann)
    assert ann.fitted and ann.fitted_version == index.version
    matrix, version, search = index.snapshot_retrieval()
    assert search.index is ann and version == index.version
    assert search.version == version


def test_search_view_survives_concurrent_refit(catalog):
    # A request captures its search view, then a refresh refits the
    # live index: the captured view must keep shortlisting against the
    # state built for the snapshot the request is scoring.
    ivf = IVFIndex(nlist=16, nprobe=16, seed=0)
    ivf.fit(catalog, version=1)
    search = ivf.search_snapshot()
    pinned_state = search.state
    shuffled = catalog.copy()
    shuffled[1:] = catalog[1:][::-1]
    ivf.fit(shuffled, version=2)              # concurrent refit lands
    assert ivf._fitted.state is not pinned_state     # live index moved on...
    assert search.state is pinned_state       # ...the view did not
    assert search.version == 1
    ids = search.candidates(catalog[1], 50)
    assert len(ids) >= 50 and ids.min() >= 1


def test_configured_backend_overrides_mismatched_attached_ann(paper_model,
                                                              paper_dataset):
    # A shared index may arrive with a differently configured structure
    # attached; the recommender's explicit knobs must win, or /stats
    # would report one configuration while routing through another.
    index = CatalogIndex(paper_model, paper_dataset)
    index.attach_ann(IVFIndex(nlist=8, nprobe=8, seed=0))
    rec = Recommender(paper_model, paper_dataset, index=index,
                      retrieval="ivf", ann_params={"nlist": 4, "nprobe": 4},
                      min_ann_items=1)
    assert rec.ann.kind == "ivf"
    assert rec.ann.nlist == 4
    assert rec.describe_retrieval()["ann"]["kind"] == "ivf"


def test_matching_attached_ann_is_reused_without_params(paper_model,
                                                        paper_dataset):
    index = CatalogIndex(paper_model, paper_dataset)
    existing = IVFIndex(nlist=8, nprobe=8, seed=0)
    index.attach_ann(existing)
    rec = Recommender(paper_model, paper_dataset, index=index,
                      retrieval="ivf", min_ann_items=1)
    assert rec.ann is existing            # no rebuild of a matching one


def test_retrieval_kind_is_case_insensitive(paper_model, paper_dataset,
                                            paper_histories):
    rec = Recommender(paper_model, paper_dataset, retrieval="IVF",
                      ann_params={"nlist": 8, "nprobe": 8}, min_ann_items=1)
    rec.recommend(paper_histories[0], k=5)
    assert rec.retrieval == "ivf"
    assert rec.retrieval_stats.ann_batches == 1   # routed


def test_describe_retrieval_reports_backend(paper_model, paper_dataset,
                                            paper_histories):
    rec = Recommender(paper_model, paper_dataset, retrieval="ivf",
                      ann_params={"nlist": 4}, min_ann_items=1)
    rec.recommend(paper_histories[0], k=5)
    info = rec.describe_retrieval()
    assert info["retrieval"] == "ivf"
    assert info["ann"]["kind"] == "ivf" and info["ann"]["nlist"] == 4
    assert info["ann"]["fitted_version"] == 1


@pytest.mark.parametrize("model_name", ["sasrec", "pop"])
def test_unknown_retrieval_name_is_rejected_for_every_model(model_name,
                                                            paper_dataset):
    # Heuristic models never consult an index, but a misspelled backend
    # must still fail at construction rather than be reported on
    # /scenarios and counted as a fallback on every batch.
    model = make_baseline(model_name, paper_dataset, seed=0)
    for name in ("bogus", "lsh"):
        with pytest.raises(ValueError, match="unknown retrieval backend"):
            Recommender(model, paper_dataset, retrieval=name)


def test_registry_rejects_unknown_retrieval_name():
    registry = ModelRegistry(profile="smoke", retrieval="bogus")
    with pytest.raises(ValueError, match="unknown retrieval backend"):
        registry.add("kwai_food:pop")
