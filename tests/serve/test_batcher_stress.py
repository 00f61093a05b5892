"""Concurrency stress for the MicroBatcher: no drops, no dupes, no stale.

Many client threads hammer one batcher across flush-on-size and
flush-on-timeout boundaries; every single future must resolve to the
same answer direct retrieval gives, the request/response accounting
must balance exactly, and a mid-flight ``refresh()`` must invalidate
LRU entries through the version key rather than serving pre-refresh
answers as cached. A mid-flight ``swap()`` must hand every batch to
exactly one generation and retire the old one before it returns.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import MicroBatcher, Recommendation

THREADS = 8
REQUESTS_PER_THREAD = 25


@pytest.fixture()
def request_pool(recommender, dataset):
    histories = [ex.history for ex in dataset.split.test[:12]]
    ks = (3, 5, 7)
    pool = [(np.asarray(h), k) for h in histories for k in ks]
    expected = {(h.tobytes(), k): recommender.recommend(h, k=k)
                for h, k in pool}
    return pool, expected


def _hammer(batcher, pool, per_thread, thread_seed, out, errors):
    rng = np.random.default_rng(thread_seed)
    try:
        picks = rng.integers(0, len(pool), size=per_thread)
        futures = [(pool[p], batcher.submit(pool[p][0], k=pool[p][1]))
                   for p in picks]
        for (history, k), future in futures:
            out.append(((history.tobytes(), k), future.result(timeout=30)))
    except Exception as exc:  # noqa: BLE001 - surfaced in the main thread
        errors.append(exc)


def test_threaded_stress_no_dropped_or_duplicated_responses(recommender,
                                                            request_pool):
    pool, expected = request_pool
    responses: list = []
    errors: list = []
    with MicroBatcher(recommender, max_batch=4, max_wait_ms=1.0,
                      cache_size=64) as batcher:
        threads = [threading.Thread(
            target=_hammer,
            args=(batcher, pool, REQUESTS_PER_THREAD, seed, responses,
                  errors))
            for seed in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "stress thread wedged"
    assert errors == []
    total = THREADS * REQUESTS_PER_THREAD
    # Exactly one response per request: nothing dropped...
    assert len(responses) == total
    stats = batcher.stats
    assert stats.requests == total
    # ...nothing double-served: every request is either a cache hit or
    # went through exactly one flushed batch.
    assert stats.cache_hits + stats.cache_misses == total
    assert stats.batches <= stats.cache_misses
    assert stats.largest_batch <= 4
    # Every answer is the answer direct retrieval gives.
    for key, result in responses:
        reference = expected[key]
        assert np.array_equal(result.items, reference.items)
        assert np.allclose(result.scores, reference.scores)
        assert len(result.items) <= key[1]


def test_stress_across_refresh_keeps_answers_and_versions_sane(
        recommender, request_pool):
    pool, expected = request_pool
    responses: list = []
    errors: list = []
    stop = threading.Event()

    def refresher():
        while not stop.is_set():
            recommender.refresh()
            stop.wait(0.002)

    with MicroBatcher(recommender, max_batch=4, max_wait_ms=1.0,
                      cache_size=64) as batcher:
        churn = threading.Thread(target=refresher)
        threads = [threading.Thread(
            target=_hammer,
            args=(batcher, pool, REQUESTS_PER_THREAD, 100 + seed, responses,
                  errors))
            for seed in range(4)]
        churn.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "stress thread wedged"
        stop.set()
        churn.join(timeout=10)
    assert errors == []
    assert len(responses) == 4 * REQUESTS_PER_THREAD
    final_version = recommender.index_version
    for key, result in responses:
        # Model weights never changed, so every answer matches direct
        # retrieval regardless of which snapshot served it...
        reference = expected[key]
        assert np.array_equal(result.items, reference.items)
        # ...and no answer claims a version that never existed.
        assert 1 <= result.index_version <= final_version


def test_lru_entries_invalidate_after_refresh(recommender, request_pool):
    pool, _ = request_pool
    history, k = pool[0]
    with MicroBatcher(recommender, max_batch=4, max_wait_ms=1.0,
                      cache_size=64) as batcher:
        first = batcher.recommend(history, k=k)
        assert batcher.recommend(history, k=k).cached is True
        new_version = recommender.refresh()
        assert new_version == first.index_version + 1
        # The pre-refresh entry is keyed under the old version: the next
        # request must miss, re-score against the new snapshot, and only
        # then repopulate the cache under the new version.
        fresh = batcher.recommend(history, k=k)
        assert fresh.cached is False
        assert fresh.index_version == new_version
        assert batcher.recommend(history, k=k).cached is True


class _Generation:
    """Recommender stand-in that logs every batch it runs."""

    def __init__(self, tag: int, log: list):
        self.tag = tag
        self.log = log
        self.index_version = tag
        self.running = False

    def recommend_batch(self, histories, k=10):
        self.running = True
        self.log.append(("start", self.tag))
        time.sleep(0.0005)             # widen the window a swap can race
        self.log.append(("end", self.tag))
        self.running = False
        return [Recommendation(items=np.full(k, self.tag),
                               scores=np.zeros(k), index_version=self.tag)
                for _ in histories]


def test_swap_under_load_never_mixes_or_outlives_a_generation():
    log: list = []
    old, new = _Generation(1, log), _Generation(2, log)
    results: list = []
    errors: list = []
    adopted_while_running: list = []

    def client(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            for _ in range(60):
                history = rng.integers(1, 50, size=3)
                results.append(batcher.submit(history, k=4)
                               .result(timeout=30))
        except Exception as exc:  # noqa: BLE001 - checked below
            errors.append(exc)

    def adopt():
        adopted_while_running.append(old.running)
        return new

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with MicroBatcher(old, max_batch=4, max_wait_ms=0.5,
                          cache_size=64) as batcher:
            threads = [threading.Thread(target=client, args=(seed,))
                       for seed in range(6)]
            for thread in threads:
                thread.start()
            while len(results) < 40 and not errors:
                time.sleep(0.0005)
            batcher.swap(adopt)
            log.append(("swapped", None))
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "stress client wedged"
    finally:
        sys.setswitchinterval(previous)

    assert errors == []
    assert len(results) == 6 * 60                    # nothing dropped
    assert adopted_while_running == [False]          # no batch during adopt
    cut = log.index(("swapped", None))
    # Batches run one at a time, each start/end pair on one generation.
    events = [entry for entry in log if entry[0] != "swapped"]
    for begin, end in zip(events[::2], events[1::2]):
        assert begin[0] == "start" and end == ("end", begin[1])
    # Nothing ran on the old generation once swap() had returned.
    assert all(tag == 2 for _, tag in log[cut + 1:])
    assert ("start", 1) in log[:cut] and ("start", 2) in log[cut + 1:]
    # Every answer is one whole generation's, and the new one served.
    for result in results:
        assert set(result.items.tolist()) == {result.index_version}
    assert {result.index_version for result in results} == {1, 2}
