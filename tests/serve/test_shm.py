"""Shared-memory hygiene for the worker pool (``repro.serve.pool``).

The pool maps catalogue matrices into ``/dev/shm`` segments; every test
here pins the same invariant from a different failure mode: after the
service is gone, **no segment with the pool's prefix survives** — clean
shutdown, a SIGKILLed worker, and a fence raced by a worker death all
included. Leaked segments are how a long-lived host quietly runs out of
shm, so the assertions check the filesystem, not bookkeeping dicts.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.serve import ModelRegistry, RecommendationService
from repro.serve.pool import PoolError, SharedCatalogStore

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="POSIX shared memory filesystem required")


def _segments(prefix: str) -> list[str]:
    return sorted(f for f in os.listdir("/dev/shm") if f.startswith(prefix))


def _make_service(workers: int = 2) -> RecommendationService:
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add("kwai_food:sasrec", seed=0)
    return RecommendationService(registry, workers=workers, max_wait_ms=1.0)


def _history(service) -> list[int]:
    scenario = service.registry.get("kwai_food", "sasrec")
    return [int(i) for i in scenario.dataset.split.test[0].history]


# -- store unit behaviour -----------------------------------------------------

def test_store_publish_attach_roundtrip():
    store = SharedCatalogStore()
    arrays = {"matrix": np.arange(24, dtype=np.float32).reshape(6, 4),
              "w:item_emb": np.linspace(-1, 1, 10, dtype=np.float16),
              "ids": np.arange(6, dtype=np.int64)}
    name = store.publish("g1-unit", arrays)
    assert _segments(store.prefix) == [name]
    shm, views = SharedCatalogStore.attach(name)
    try:
        assert set(views) == set(arrays)
        for key, expected in arrays.items():
            got = views[key]
            assert got.dtype == expected.dtype
            assert got.shape == expected.shape
            assert not got.flags.writeable          # read-only in workers
            np.testing.assert_array_equal(got, expected)
            # 64-byte alignment keeps vectorized loads happy.
            assert got.__array_interface__["data"][0] % 64 == 0
    finally:
        del views
        shm.close()
    store.unlink(name)
    assert _segments(store.prefix) == []
    store.unlink(name)                              # idempotent
    store.close()


def test_store_close_unlinks_everything():
    store = SharedCatalogStore()
    for generation in range(3):
        store.publish(f"g{generation}",
                      {"m": np.zeros((4, 2), dtype=np.float32)})
    assert len(_segments(store.prefix)) == 3
    store.close()
    assert _segments(store.prefix) == []


# -- pool lifecycle -----------------------------------------------------------

def test_clean_shutdown_leaves_no_segments():
    service = _make_service(workers=2)
    prefix = service.pool.shm_prefix
    assert _segments(prefix), "boot should have published gen-1 segments"
    result = service.recommend("kwai_food", "sasrec",
                               _history(service), k=5)
    assert len(result["items"]) == 5
    service.close()
    assert _segments(prefix) == []


def test_worker_crash_pool_survives_then_cleans_up():
    service = _make_service(workers=2)
    prefix = service.pool.shm_prefix
    try:
        victim = service.pool._workers[0]
        victim.process.kill()
        victim.process.join(timeout=10)
        # Traffic keeps flowing: the dispatcher retries on the survivor.
        result = service.recommend("kwai_food", "sasrec",
                                   _history(service), k=5)
        assert len(result["items"]) == 5
        assert service.pool.alive() == 1
        topology = service.stats()["pool"]
        assert topology["workers"] == 2 and topology["alive"] == 1
    finally:
        service.close()
    # The kill orphaned the worker's *maps*, not the names: unlink at
    # close still removes every /dev/shm entry.
    assert _segments(prefix) == []


def test_fence_with_dead_worker_completes_and_unlinks_old_generation():
    service = _make_service(workers=2)
    prefix = service.pool.shm_prefix
    try:
        victim = service.pool._workers[1]
        victim.process.kill()
        victim.process.join(timeout=10)
        scenario = service.registry.get("kwai_food", "sasrec")
        scenario.recommender.refresh()
        fence = service.publish_generation(scenario)
        # The fence must neither hang on the corpse nor report it acked.
        assert fence["generation"] == 2
        assert fence["acked"] == 1
        assert fence["workers"] == 2
        # Old generation's segment is gone the moment the fence closes;
        # exactly the new generation's segment remains.
        live = _segments(prefix)
        assert len(live) == 1 and "-g2-" in live[0]
        result = service.recommend("kwai_food", "sasrec",
                                   _history(service), k=5)
        assert len(result["items"]) == 5
    finally:
        service.close()
    assert _segments(prefix) == []


def test_all_workers_dead_raises_not_hangs():
    service = _make_service(workers=2)
    prefix = service.pool.shm_prefix
    try:
        for worker in list(service.pool._workers):
            worker.process.kill()
            worker.process.join(timeout=10)
        with pytest.raises(PoolError):
            service.recommend("kwai_food", "sasrec",
                              _history(service), k=5)
    finally:
        service.close()
    assert _segments(prefix) == []
