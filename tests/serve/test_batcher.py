"""MicroBatcher: flush triggers, coalescing, LRU cache accounting, and
request isolation — a request's outcome depends only on that request."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import LRUCache, MicroBatcher, Recommender

from .conftest import FakeDataset, TableScorer


@pytest.fixture()
def histories(dataset):
    return [ex.history for ex in dataset.split.test[:12]]


def test_flush_on_size_trigger(recommender, histories):
    with MicroBatcher(recommender, max_batch=4, max_wait_ms=10_000.0,
                      cache_size=0) as batcher:
        futures = [batcher.submit(h, k=3) for h in histories[:4]]
        results = [f.result(timeout=30) for f in futures]
    # The worker never had to wait out the clock: the 4th submit filled
    # the batch.
    assert batcher.stats.size_flushes >= 1
    assert batcher.stats.requests == 4
    for history, result in zip(histories[:4], results):
        expected = recommender.recommend(history, k=3)
        assert np.array_equal(result.items, expected.items)


def test_flush_on_timeout_trigger(recommender, histories):
    with MicroBatcher(recommender, max_batch=64, max_wait_ms=20.0,
                      cache_size=0) as batcher:
        future = batcher.submit(histories[0], k=3)
        result = future.result(timeout=30)
    assert batcher.stats.timeout_flushes == 1
    assert batcher.stats.size_flushes == 0
    assert np.array_equal(result.items,
                          recommender.recommend(histories[0], k=3).items)


def test_coalescing_batches_fewer_than_requests(recommender, histories):
    with MicroBatcher(recommender, max_batch=6, max_wait_ms=50.0,
                      cache_size=0) as batcher:
        futures = [batcher.submit(h, k=3) for h in histories]
        for future in futures:
            future.result(timeout=30)
    assert batcher.stats.requests == len(histories)
    assert batcher.stats.batches < len(histories)
    assert batcher.stats.largest_batch > 1


def test_lru_cache_hit_and_miss_accounting(recommender, histories):
    with MicroBatcher(recommender, max_batch=4, max_wait_ms=5.0,
                      cache_size=8) as batcher:
        first = batcher.recommend(histories[0], k=3)
        assert first.cached is False
        again = batcher.recommend(histories[0], k=3)
        assert again.cached is True
        assert np.array_equal(first.items, again.items)
        # Different k is a different request.
        other_k = batcher.recommend(histories[0], k=2)
        assert other_k.cached is False
    assert batcher.stats.cache_hits == 1
    assert batcher.stats.cache_misses == 2


def test_stale_index_bypasses_cache_until_rebuilt(recommender, histories):
    with MicroBatcher(recommender, max_batch=4, max_wait_ms=5.0,
                      cache_size=8) as batcher:
        first = batcher.recommend(histories[0], k=3)
        # Weight update: version number still names the old snapshot, so
        # the cached answer must not be served.
        recommender.index.mark_stale()
        after = batcher.recommend(histories[0], k=3)
        assert after.cached is False
        assert after.index_version == first.index_version + 1
        # Once rebuilt, caching resumes under the new version.
        again = batcher.recommend(histories[0], k=3)
        assert again.cached is True


def test_cache_invalidated_by_index_refresh(recommender, histories):
    with MicroBatcher(recommender, max_batch=4, max_wait_ms=5.0,
                      cache_size=8) as batcher:
        batcher.recommend(histories[0], k=3)
        recommender.refresh()          # new index version => new cache keys
        refreshed = batcher.recommend(histories[0], k=3)
        assert refreshed.cached is False
    assert batcher.stats.cache_hits == 0


def test_manual_mode_flushes_inline(recommender, histories):
    batcher = MicroBatcher(recommender, max_batch=4, cache_size=0,
                           start=False)
    result = batcher.recommend(histories[0], k=3)
    assert np.array_equal(result.items,
                          recommender.recommend(histories[0], k=3).items)
    assert batcher.stats.batches == 1
    batcher.close()


def test_mixed_k_batch_truncates_per_request(recommender, histories):
    batcher = MicroBatcher(recommender, max_batch=4, cache_size=0,
                           start=False)
    small = batcher.submit(histories[0], k=2)
    large = batcher.submit(histories[1], k=7)
    batcher.flush_pending()
    assert len(small.result(timeout=5).items) == 2
    assert len(large.result(timeout=5).items) == 7
    assert batcher.stats.batches == 1
    batcher.close()


def test_submit_after_close_raises(recommender, histories):
    batcher = MicroBatcher(recommender, max_batch=4, start=False)
    batcher.close()
    with pytest.raises(RuntimeError):
        batcher.submit(histories[0], k=3)


def test_a_failing_request_fails_only_itself(recommender, histories):
    batcher = MicroBatcher(recommender, max_batch=4, cache_size=0,
                           start=False)
    good = [batcher.submit(h, k=3) for h in histories[:2]]
    # Invalid item id: recommend_batch raises inside the flush.
    bad = batcher.submit(np.array([10_000]), k=3)
    batcher.flush_pending()
    assert batcher.stats.batches == 1
    with pytest.raises(ValueError):
        bad.result(timeout=5)
    # The batch-mates were re-run alone: each gets its solo answer.
    for history, future in zip(histories[:2], good):
        solo = recommender.recommend(history, k=3)
        answer = future.result(timeout=5)
        assert np.array_equal(answer.items, solo.items)
        assert np.array_equal(answer.scores, solo.scores)
    batcher.close()


def test_manual_flushes_count_as_drain_not_timeout(recommender, histories):
    batcher = MicroBatcher(recommender, max_batch=4, cache_size=0,
                           start=False)
    futures = [batcher.submit(h, k=3) for h in histories[:6]]
    first = batcher.flush_batch()
    assert first == futures[:4]        # one batch, in arrival order
    assert all(future.done() for future in first)
    assert not any(future.done() for future in futures[4:])
    assert batcher.flush_batch() == futures[4:]
    assert batcher.flush_batch() == []
    assert (batcher.stats.size_flushes, batcher.stats.drain_flushes,
            batcher.stats.timeout_flushes) == (1, 1, 0)
    batcher.close()


def test_results_are_frozen_so_cache_cannot_be_corrupted(recommender,
                                                         histories):
    with MicroBatcher(recommender, max_batch=4, max_wait_ms=5.0,
                      cache_size=8) as batcher:
        first = batcher.recommend(histories[0], k=3)
        with pytest.raises(ValueError):
            first.items[0] = -1        # shared with the LRU: read-only
        again = batcher.recommend(histories[0], k=3)
        assert again.cached is True
        assert np.array_equal(again.items, first.items)


def test_lru_cache_eviction_order():
    cache = LRUCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1         # refresh "a"; "b" is now oldest
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert len(cache) == 2


def test_lru_cache_zero_capacity_is_disabled():
    cache = LRUCache(capacity=0)
    cache.put("a", 1)
    assert cache.get("a") is None and len(cache) == 0


# -- request isolation, against a solo-run oracle -----------------------------


class _PoisonedTable(TableScorer):
    """A table scorer that refuses any batch holding the poison item.

    That error is raised past the recommender's own id validation, as a
    model failure would be.
    """

    POISON = 1

    def score_histories(self, dataset, histories):
        if any(self.POISON in h for h in histories):
            raise RuntimeError("poisoned history")
        return super().score_histories(dataset, histories)


#: How each failing kind of request fails.
_ERRORS = {"out_of_range": ValueError, "empty": ValueError,
           "poisoned": RuntimeError}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31), num_items=st.integers(3, 30),
       max_batch=st.integers(1, 8),
       requests=st.lists(st.tuples(
           st.sampled_from(["valid", "valid", "out_of_range", "empty",
                            "poisoned"]),
           st.integers(1, 8), st.integers(1, 12)), min_size=1, max_size=12))
def test_any_mix_answers_every_request_as_if_alone(seed, num_items,
                                                   max_batch, requests):
    rng = np.random.default_rng(seed)
    recommender = Recommender(_PoisonedTable(num_items, seed),
                              FakeDataset(num_items))
    histories = []
    for kind, length, _ in requests:
        history = rng.integers(2, num_items + 1, size=length)
        if kind == "out_of_range":
            history[-1] = rng.choice([0, num_items + 1])
        elif kind == "empty":
            history = history[:0]
        elif kind == "poisoned":
            history[0] = _PoisonedTable.POISON
        histories.append(history)
    batcher = MicroBatcher(recommender, max_batch=max_batch, cache_size=0,
                           start=False)
    futures = [batcher.submit(history, k=k)
               for history, (_, _, k) in zip(histories, requests)]
    batcher.flush_pending()
    batcher.close()
    for (kind, _, k), history, future in zip(requests, histories, futures):
        if kind == "valid":
            solo = recommender.recommend(history, k=k)
            answer = future.result(timeout=0)
            assert np.array_equal(answer.items, solo.items)
            assert np.array_equal(answer.scores, solo.scores)
        else:
            with pytest.raises(_ERRORS[kind]):
                future.result(timeout=0)
