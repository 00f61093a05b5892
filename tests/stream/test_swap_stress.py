"""Concurrency stress: hot swaps under live traffic drop or mix nothing.

Extends the MicroBatcher stress patterns (tests/serve/test_batcher_stress)
to the full service across a *model generation* swap: many client
threads hammer ``service.recommend`` while the fine-tune worker
publishes new generations. Every response must be exactly the answer of
one complete generation — the old one or a new one, identified by its
``index_version`` — never a mixture (new model scored against a stale
index, or vice versa), and the request/response accounting must balance
to zero drops even though batchers are being swapped mid-flight.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serve import ModelRegistry, RecommendationService
from repro.stream import StreamConfig, StreamManager, parse_events

from .conftest import make_service

THREADS = 6
REQUESTS_PER_THREAD = 40
K = 5

#: The pooled variant's client count (ISSUE 9 acceptance: 8-thread churn
#: across a generation fence).
POOL_THREADS = 8


@pytest.fixture()
def stressed():
    service = make_service()
    manager = StreamManager(service,
                            StreamConfig(batch_size=4, steps_per_swap=2,
                                         seed=0),
                            start=False)
    service.attach_stream(manager)
    yield service, manager.worker("kwai_food", "pmmrec-text")
    service.close()


def _expected_by_version(scenario, histories) -> dict:
    """Map (history bytes, version) -> expected items for one generation."""
    version = scenario.recommender.index_version
    out = {}
    for history in histories:
        answer = scenario.recommender.recommend(history, k=K)
        assert answer.index_version == version
        out[(history.tobytes(), version)] = answer.items
    return out


def _hammer(service, pool, count, seed, responses, errors):
    rng = np.random.default_rng(seed)
    try:
        for pick in rng.integers(0, len(pool), size=count):
            history = pool[pick]
            payload = service.recommend("kwai_food", "pmmrec-text",
                                        [int(i) for i in history], k=K)
            responses.append((history.tobytes(), payload))
    except Exception as exc:  # noqa: BLE001 - surfaced in the main thread
        errors.append(exc)


def test_swap_under_load_serves_whole_generations_only(stressed):
    service, worker = stressed
    scenario = service.registry.get("kwai_food", "pmmrec-text")
    dataset = scenario.dataset
    pool = [np.asarray(ex.history) for ex in dataset.split.test[:10]]

    # Generation A (pre-swap) expectations, computed up front.
    expected = _expected_by_version(scenario, pool)
    version_a = scenario.recommender.index_version

    # Stage the weight update before the traffic starts so the swap
    # itself is the only thing that happens mid-flight.
    events = [{"user": int(u), "item": int(dataset.sequences[u][j])}
              for u in range(8)
              for j in (0, len(dataset.sequences[u]) // 2)]
    worker.ingest(parse_events(events))
    worker.run_steps(2)

    responses: list = []
    errors: list = []
    submitted = [0] * THREADS
    swapped = threading.Event()
    reports = []

    def swapper():
        # Let some generation-A traffic through, then swap mid-stream.
        while len(responses) < THREADS * 2 and not swapped.is_set():
            time.sleep(0.0005)
        reports.append(worker.swap())
        swapped.set()

    def client(thread_id: int) -> None:
        # Serve until the swap lands, then a post-swap tail, so traffic
        # provably straddles the generation boundary.
        thread_rng = np.random.default_rng(7000 + thread_id)
        tail = REQUESTS_PER_THREAD
        try:
            while True:
                if swapped.is_set():
                    if tail == 0:
                        return
                    tail -= 1
                history = pool[thread_rng.integers(0, len(pool))]
                submitted[thread_id] += 1
                payload = service.recommend(
                    "kwai_food", "pmmrec-text",
                    [int(i) for i in history], k=K)
                responses.append((history.tobytes(), payload))
        except Exception as exc:  # noqa: BLE001 - checked in main thread
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(THREADS)]
    swap_thread = threading.Thread(target=swapper)
    for thread in threads:
        thread.start()
    swap_thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "stress client wedged"
    swap_thread.join(timeout=120)
    assert not swap_thread.is_alive(), "swapper wedged"

    assert errors == []
    # Zero drops: every submitted request produced exactly one response.
    assert len(responses) == sum(submitted)
    assert reports and reports[0].kind == "full"
    version_b = reports[0].version
    assert version_b == version_a + 1

    # Generation B expectations from the published scenario (no further
    # steps ran, so it is exactly what the swap produced).
    expected.update(_expected_by_version(
        service.registry.get("kwai_food", "pmmrec-text"), pool))

    served_versions = set()
    for history_key, payload in responses:
        version = payload["index_version"]
        served_versions.add(version)
        # Whole-generation consistency: the answer must be bitwise the
        # answer *that* version's model+index gives — a response pairing
        # the new model with the old index (or any other mixture) would
        # match neither.
        assert version in (version_a, version_b), \
            f"response claims unknown generation v{version}"
        expected_items = expected[(history_key, version)]
        assert payload["items"] == [int(i) for i in expected_items], \
            f"mixed-generation answer at v{version}"
    # The swap landed mid-traffic: at least the new generation served
    # (old-generation responses depend on timing and may be few).
    assert version_b in served_versions


@pytest.fixture()
def pool_stressed():
    """Worker-pool service + synchronous stream worker.

    The pool MUST fork before any other threads exist in the service
    (fork snapshots the parent mid-thread otherwise), so the service is
    built first and the stream manager attached after — same order the
    CLI uses.
    """
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add("kwai_food:pmmrec-text", seed=0)
    service = RecommendationService(registry, workers=2, max_wait_ms=1.0)
    manager = StreamManager(service,
                            StreamConfig(batch_size=4, steps_per_swap=2,
                                         seed=0),
                            start=False)
    service.attach_stream(manager)
    yield service, manager.worker("kwai_food", "pmmrec-text")
    service.close()


def test_pooled_swap_under_load_zero_drops_whole_generations(pool_stressed):
    """8-thread churn across a generation-fenced pooled hot swap.

    Same contract as the in-process stress above, but the swap now
    crosses a process boundary: the stream worker publishes shared
    segments, every pool worker acks the flip, and old segments unlink
    after the drain. Every response must still be bitwise the answer of
    one complete generation, with zero drops.
    """
    service, worker = pool_stressed
    scenario = service.registry.get("kwai_food", "pmmrec-text")
    dataset = scenario.dataset
    pool = [np.asarray(ex.history) for ex in dataset.split.test[:10]]

    expected = _expected_by_version(scenario, pool)
    version_a = scenario.recommender.index_version

    events = [{"user": int(u), "item": int(dataset.sequences[u][j])}
              for u in range(8)
              for j in (0, len(dataset.sequences[u]) // 2)]
    worker.ingest(parse_events(events))
    worker.run_steps(2)

    responses: list = []
    errors: list = []
    submitted = [0] * POOL_THREADS
    swapped = threading.Event()
    reports = []

    def swapper():
        while len(responses) < POOL_THREADS * 2 and not swapped.is_set():
            time.sleep(0.0005)
        reports.append(worker.swap())
        swapped.set()

    def client(thread_id: int) -> None:
        thread_rng = np.random.default_rng(5000 + thread_id)
        tail = 25
        try:
            while True:
                if swapped.is_set():
                    if tail == 0:
                        return
                    tail -= 1
                history = pool[thread_rng.integers(0, len(pool))]
                submitted[thread_id] += 1
                payload = service.recommend(
                    "kwai_food", "pmmrec-text",
                    [int(i) for i in history], k=K)
                responses.append((history.tobytes(), payload))
        except Exception as exc:  # noqa: BLE001 - checked in main thread
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(POOL_THREADS)]
    swap_thread = threading.Thread(target=swapper)
    for thread in threads:
        thread.start()
    swap_thread.start()
    for thread in threads:
        thread.join(timeout=180)
        assert not thread.is_alive(), "stress client wedged"
    swap_thread.join(timeout=180)
    assert not swap_thread.is_alive(), "swapper wedged"

    assert errors == []
    assert len(responses) == sum(submitted)      # zero drops
    assert reports and reports[0].kind == "full"
    version_b = reports[0].version
    assert version_b == version_a + 1
    # The fence actually ran: every worker acked the new generation.
    fence = reports[0].fence
    assert fence is not None and fence["workers"] == 2
    assert fence["acked"] == 2 and fence["errors"] == []

    expected.update(_expected_by_version(
        service.registry.get("kwai_food", "pmmrec-text"), pool))

    served_versions = set()
    for history_key, payload in responses:
        version = payload["index_version"]
        served_versions.add(version)
        assert version in (version_a, version_b), \
            f"response claims unknown generation v{version}"
        expected_items = expected[(history_key, version)]
        assert payload["items"] == [int(i) for i in expected_items], \
            f"mixed-generation answer at v{version}"
    assert version_b in served_versions
    # Both generations' answers came from pool workers; all still alive.
    assert service.pool.alive() == 2


def test_traffic_across_many_catalog_swaps_never_drops(stressed):
    """Repeated cold-item (partial) swaps under load: drops stay zero."""
    service, worker = stressed
    dataset = service.registry.get("kwai_food", "pmmrec-text").dataset
    pool = [np.asarray(ex.history) for ex in dataset.split.test[:8]]
    responses: list = []
    errors: list = []
    stop = threading.Event()

    def churner():
        while not stop.is_set():
            worker.ingest(parse_events(
                [{"item": {"text_tokens": [3, 4, 5], "topic": 0}}]))
            worker.swap()

    threads = [threading.Thread(
        target=_hammer,
        args=(service, pool, 25, 9000 + seed, responses, errors))
        for seed in range(4)]
    churn = threading.Thread(target=churner)
    churn.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "stress client wedged"
    stop.set()
    churn.join(timeout=60)
    assert not churn.is_alive(), "churner wedged"

    assert errors == []
    assert len(responses) == 4 * 25
    final_version = service.registry.get(
        "kwai_food", "pmmrec-text").recommender.index_version
    stats = worker.stats_json()
    assert stats["swaps"] >= 1
    for _, payload in responses:
        # No response claims a version that never existed, and items are
        # always a valid non-empty top-k.
        assert 1 <= payload["index_version"] <= final_version
        assert 0 < len(payload["items"]) <= K
