"""The facade's result cache: one per scenario, on both serving tiers.

``RecommendationService`` answers a repeated request from its own LRU,
in the calling thread, before any batcher or pool pipe sees it. These
tests pin when a cached answer may be served — only at the version the
scenario serves now, never from a stale index and never while a
generation change is in flight — and that the lookups are counted
once, as hits or misses, on ``/stats``.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import MicroBatcher, ModelRegistry, RecommendationService
from repro.serve.index import CatalogIndex

KEY = ("kwai_food", "sasrec")
SCENARIO = "kwai_food:sasrec"


def _service(workers: int) -> RecommendationService:
    # Each service gets its own registry: refreshing one tier's index
    # must not move the version another tier's cache checks against.
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add(SCENARIO, seed=0)
    return RecommendationService(registry, workers=workers, max_batch=4,
                                 max_wait_ms=1.0, cache_size=64)


@pytest.fixture(scope="module",
                params=[0, pytest.param(2, marks=pytest.mark.skipif(
                    not os.path.isdir("/dev/shm"),
                    reason="POSIX shared memory filesystem required"))],
                ids=["in-process", "pool-2w"])
def service(request):
    svc = _service(request.param)
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def in_process():
    svc = _service(0)
    yield svc
    svc.close()


def _histories(service, start: int, count: int) -> list[list[int]]:
    dataset = service.registry.get(*KEY).dataset
    return [[int(i) for i in ex.history]
            for ex in dataset.split.test[start:start + count]]


def _counts(service) -> tuple[int, int, int]:
    entry = service.stats()["scenarios"].get(SCENARIO, {})
    return (entry.get("requests", 0), entry.get("cache_hits", 0),
            entry.get("cache_misses", 0))


def _delta(after, before) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(after, before))


def test_lru_cache_hit_and_miss_accounting(service):
    history = _histories(service, 0, 1)[0]
    before = _counts(service)
    first = service.recommend(*KEY, history, k=3)
    assert first["cached"] is False
    again = service.recommend(*KEY, history, k=3)
    assert again["cached"] is True
    assert again["items"] == first["items"]
    # Different k is a different request.
    other_k = service.recommend(*KEY, history, k=2)
    assert other_k["cached"] is False
    requests, hits, misses = _delta(_counts(service), before)
    assert hits == 1
    assert misses == 2
    assert requests == 3


def test_stale_index_bypasses_cache_until_rebuilt(in_process):
    # In-process only: pool workers serve a frozen copy of the index, so
    # marking the parent's stale rebuilds nothing a request can see.
    service = in_process
    history = _histories(service, 1, 1)[0]
    first = service.recommend(*KEY, history, k=3)
    # Weight update: version number still names the old snapshot, so
    # the cached answer must not be served.
    service.registry.get(*KEY).recommender.index.mark_stale()
    after = service.recommend(*KEY, history, k=3)
    assert after["cached"] is False
    assert after["index_version"] == first["index_version"] + 1
    # Once rebuilt, caching resumes under the new version.
    again = service.recommend(*KEY, history, k=3)
    assert again["cached"] is True


def test_cache_invalidated_by_index_refresh(service):
    history = _histories(service, 2, 1)[0]
    before = _counts(service)
    service.recommend(*KEY, history, k=3)
    scenario = service.registry.get(*KEY)
    # A new index version => the cached entry no longer matches. Pooled,
    # this is the window between /refresh's re-encode and its fence.
    scenario.recommender.refresh()
    refreshed = service.recommend(*KEY, history, k=3)
    assert refreshed["cached"] is False
    assert _delta(_counts(service), before)[1] == 0
    # Bring the pool's workers onto the refreshed index too.
    service.publish_generation(scenario)


def test_mutating_a_returned_payload_never_changes_the_next_hit(service):
    history = _histories(service, 3, 1)[0]
    first = service.recommend(*KEY, history, k=3)
    items, scores = list(first["items"]), list(first["scores"])
    first["items"][0] = -1
    first["scores"].append(9.0)
    again = service.recommend(*KEY, history, k=3)
    assert again["cached"] is True
    assert (again["items"], again["scores"]) == (items, scores)
    again["items"].clear()
    third = service.recommend(*KEY, history, k=3)
    assert third["cached"] is True
    assert (third["items"], third["scores"]) == (items, scores)


def test_lru_entries_invalidate_after_refresh(service):
    history = _histories(service, 4, 1)[0]
    first = service.recommend(*KEY, history, k=5)
    assert service.recommend(*KEY, history, k=5)["cached"] is True
    new_version = service.refresh(*KEY)
    assert new_version == first["index_version"] + 1
    # The pre-refresh entry belongs to the old version: the next
    # request must miss, re-score against the new snapshot, and only
    # then repopulate the cache under the new version.
    fresh = service.recommend(*KEY, history, k=5)
    assert fresh["cached"] is False
    assert fresh["index_version"] == new_version
    assert service.recommend(*KEY, history, k=5)["cached"] is True


def test_threaded_stress_counts_every_request_once(service):
    """8 threads over 36 distinct requests: every answer is the direct
    one, and each request is one hit or one miss, never both."""
    recommender = service.registry.get(*KEY).recommender
    pool = [(history, k) for history in _histories(service, 20, 12)
            for k in (3, 5, 7)]
    expected = {(tuple(h), k): recommender.recommend(h, k=k)
                for h, k in pool}
    threads, per_thread = 8, 25
    responses: list = []
    errors: list = []

    def hammer(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            for pick in rng.integers(0, len(pool), size=per_thread):
                history, k = pool[pick]
                responses.append(((tuple(history), k),
                                  service.recommend(*KEY, history, k=k)))
        except Exception as exc:  # noqa: BLE001 - checked below
            errors.append(exc)

    before = _counts(service)
    workers = [threading.Thread(target=hammer, args=(seed,))
               for seed in range(threads)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)        # interleave the counting threads
    try:
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
            assert not thread.is_alive(), "stress thread wedged"
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
    total = threads * per_thread
    assert len(responses) == total
    requests, hits, misses = _delta(_counts(service), before)
    assert requests == total
    assert hits + misses == total
    assert hits > 0
    for key, payload in responses:
        reference = expected[key]
        assert payload["items"] == [int(i) for i in reference.items]
        assert np.allclose(payload["scores"], reference.scores)
        assert len(payload["items"]) <= key[1]


def _probe(service, history, dispatched) -> tuple[threading.Thread, list]:
    """Request ``history`` from a second thread.

    Returns once the answer is in or ``dispatched()`` says the request
    is past the cache; the thread and its answer list are returned.
    """
    answers: list = []
    thread = threading.Thread(target=lambda: answers.append(
        service.recommend(*KEY, history, k=3)))
    thread.start()
    deadline = time.monotonic() + 30
    while (thread.is_alive() and not dispatched()
           and time.monotonic() < deadline):
        time.sleep(0.001)
    return thread, answers


def test_no_cached_answer_while_a_generation_is_fenced(service,
                                                       monkeypatch):
    """A history cached on the old generation and requested while a spy
    holds the fence open is not a hit; once the new generation is
    published it misses once at the new version, then hits."""
    history = _histories(service, 5, 1)[0]
    assert service.recommend(*KEY, history, k=3)["cached"] is False
    assert service.recommend(*KEY, history, k=3)["cached"] is True
    scenario = service.registry.get(*KEY)
    index = CatalogIndex(scenario.model, scenario.dataset,
                         dtype=service.registry.dtype,
                         start_version=scenario.recommender.index_version)
    index.refresh()
    generation = service.registry.build_scenario(
        scenario.spec, scenario.dataset, scenario.model, index=index)
    probes: list = []
    if service.pool is None:
        # The in-process fence is MicroBatcher.swap: probe from inside
        # adopt(), where no batch can run, so a miss waits in the queue.
        batcher = service._batchers.get(KEY)
        submitted = batcher.stats.requests
        swap = MicroBatcher.swap

        def spy(self, adopt):
            def probed_adopt():
                probes.append(_probe(
                    service, history,
                    lambda: batcher.stats.requests > submitted))
                return adopt()
            return swap(self, probed_adopt)

        monkeypatch.setattr(MicroBatcher, "swap", spy)
    else:
        # Pooled: probe once every worker has flipped but the registry
        # still names the old generation.
        publish = service.pool.publish

        def spy(scenario, model_changed):
            info = publish(scenario, model_changed=model_changed)
            probes.append(_probe(service, history, lambda: False))
            return info

        monkeypatch.setattr(service.pool, "publish", spy)
    service.publish_generation(generation)
    monkeypatch.undo()
    (thread, answers), = probes
    thread.join(timeout=30)
    assert not thread.is_alive(), "probe wedged"
    assert answers[0]["cached"] is False
    assert answers[0]["index_version"] == index.version
    first = service.recommend(*KEY, history, k=3)
    assert (first["cached"], first["index_version"]) == (False,
                                                         index.version)
    again = service.recommend(*KEY, history, k=3)
    assert (again["cached"], again["index_version"]) == (True,
                                                         index.version)
