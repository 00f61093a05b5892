"""The pool worker's pipe loop: work-conserving batches, in pipe order.

A worker blocks for one message, drains every message already readable
and handles them in order. These tests fork one worker with its pipe
pre-filled — the messages are all there when it first reads — and read
the replies off the parent's end, so batch composition and reply order
are exact, not timing-dependent. One more test drives a live pool and
checks that a lone request waits on no clock.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.serve import ModelRegistry, RecommendationService
from repro.serve import pool
from repro.serve.index import FrozenCatalogIndex

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="POSIX shared memory filesystem required")

SASREC = ("kwai_food", "sasrec")
PMMREC = ("bili_food", "pmmrec-text")
K = 5


@pytest.fixture(scope="module")
def registry():
    reg = ModelRegistry(profile="smoke", dtype="float32")
    reg.add_all("kwai_food:sasrec,bili_food:pmmrec-text")
    return reg


def _histories(registry, key, count: int) -> list[list[int]]:
    dataset = registry.get(*key).dataset
    return [[int(i) for i in ex.history] for ex in dataset.split.test[:count]]


@contextmanager
def _worker(registry, messages: list, store: pool.SharedCatalogStore,
            max_batch: int = 32):
    """Fork one worker whose pipe already holds ``messages``.

    Yields the parent's pipe end. ``messages`` should end in ``stop``:
    the worker must return on it, and this joins it.
    """
    boot = {}
    for scenario in registry:
        matrix, version = scenario.recommender.index.snapshot()
        boot[scenario.spec.key] = {
            "segment": store.publish("loop", {"catalog": matrix}),
            "version": version, "num_items": scenario.dataset.num_items,
            "generation": 1}
    context = multiprocessing.get_context("fork")
    parent_conn, child_conn = context.Pipe()
    for message in messages:
        parent_conn.send(message)
    process = context.Process(
        target=pool._worker_main,
        args=(0, child_conn, parent_conn, registry, boot,
              {"max_batch": max_batch, "cache_size": 0}), daemon=True)
    process.start()
    child_conn.close()
    try:
        yield parent_conn
    finally:
        process.join(timeout=30)
        alive = process.is_alive()
        if alive:
            process.kill()
        parent_conn.close()
        store.close()
        assert not alive, "the worker did not return on stop"


def _replies(conn, count: int) -> list[tuple]:
    out = []
    for _ in range(count):
        assert conn.poll(30), f"no reply after {len(out)} of {count}"
        out.append(conn.recv())
    return out


def _assert_bitwise(payload: dict, expected) -> None:
    assert payload["items"] == [int(i) for i in expected.items]
    assert payload["scores"] == [float(s) for s in expected.scores]
    assert payload["index_version"] == expected.index_version


def test_requests_already_in_the_pipe_form_one_batch_per_scenario(registry):
    sasrec = _histories(registry, SASREC, 3)
    pmmrec = _histories(registry, PMMREC, 2)
    arrivals = [(SASREC, sasrec[0]), (PMMREC, pmmrec[0]),
                (SASREC, sasrec[1]), (PMMREC, pmmrec[1]),
                (SASREC, sasrec[2])]
    messages = [("req", req_id, key, history, K)
                for req_id, (key, history) in enumerate(arrivals)]
    messages += [("stats", "s1"), ("stop", "t1")]
    with _worker(registry, messages, pool.SharedCatalogStore()) as conn:
        replies = _replies(conn, len(arrivals) + 2)
    # Scenario by scenario, each batch's replies in arrival order; the
    # control messages are answered after every request before them.
    assert [r[:2] for r in replies] == [
        ("res", 0), ("res", 2), ("res", 4), ("res", 1), ("res", 3),
        ("stats", "s1"), ("bye", "t1")]
    counters = replies[5][2]["scenarios"]
    for key, histories in ((SASREC, sasrec), (PMMREC, pmmrec)):
        stats = counters[f"{key[0]}:{key[1]}"]
        assert stats["batches"] == 1
        assert stats["largest_batch"] == len(histories)
        assert stats["drain_flushes"] == 1
        assert stats["timeout_flushes"] == stats["size_flushes"] == 0
    # Bit for bit the in-process answer to the same batch.
    payloads = {r[1]: r[2] for r in replies[:5]}
    for key, ids in ((SASREC, (0, 2, 4)), (PMMREC, (1, 3))):
        expected = registry.get(*key).recommender.recommend_batch(
            [arrivals[i][1] for i in ids], k=K)
        for req_id, answer in zip(ids, expected):
            _assert_bitwise(payloads[req_id], answer)


def test_a_burst_past_max_batch_runs_as_several_batches(registry):
    histories = _histories(registry, SASREC, 5)
    messages = [("req", req_id, SASREC, history, K)
                for req_id, history in enumerate(histories)]
    messages += [("stats", "s1"), ("stop", "t1")]
    with _worker(registry, messages, pool.SharedCatalogStore(),
                 max_batch=2) as conn:
        replies = _replies(conn, len(histories) + 2)
    assert [r[:2] for r in replies[:5]] == [("res", i) for i in range(5)]
    stats = replies[5][2]["scenarios"]["kwai_food:sasrec"]
    assert (stats["batches"], stats["size_flushes"],
            stats["drain_flushes"]) == (3, 2, 1)
    recommender = registry.get(*SASREC).recommender
    expected = [answer for batch in (histories[:2], histories[2:4],
                                     histories[4:])
                for answer in recommender.recommend_batch(batch, k=K)]
    for reply, answer in zip(replies[:5], expected):
        _assert_bitwise(reply[2], answer)


def test_a_swap_answers_the_requests_read_before_it_first(registry):
    scenario = registry.get(*SASREC)
    histories = _histories(registry, SASREC, 4)
    matrix, version = scenario.recommender.index.snapshot()
    # Generation 2 shuffles the catalogue rows, so its ranks differ.
    shuffled = matrix.copy()
    shuffled[1:] = matrix[1:][np.random.default_rng(0).permutation(
        len(matrix) - 1)]
    store = pool.SharedCatalogStore()
    segment = store.publish("loop-g2", {"catalog": shuffled})
    num_items = scenario.dataset.num_items
    messages = [("req", 0, SASREC, histories[0], K),
                ("req", 1, SASREC, histories[1], K),
                ("swap", "c1", SASREC, 2, segment, version + 1, num_items,
                 False),
                ("req", 2, SASREC, histories[2], K),
                ("req", 3, SASREC, histories[3], K),
                ("stop", "t1")]
    with _worker(registry, messages, store) as conn:
        replies = _replies(conn, 6)
    assert [r[:2] for r in replies] == [
        ("res", 0), ("res", 1), ("ack", "c1"), ("res", 2), ("res", 3),
        ("bye", "t1")]
    assert replies[2][2] is None                 # no flip error
    old = scenario.recommender.recommend_batch(histories[:2], k=K)
    new = registry.build_recommender(
        scenario.model, scenario.dataset,
        index=FrozenCatalogIndex(shuffled, version=version + 1,
                                 num_items=num_items)).recommend_batch(
        histories[2:], k=K)
    for reply, expected in zip(replies[:2] + replies[3:5], old + new):
        _assert_bitwise(reply[2], expected)


def _queue_wait(families: dict) -> tuple[float, int]:
    _, _, series = families.get("repro_serve_queue_wait_seconds",
                                (None, None, {}))
    snapshots = [snapshot for labels, snapshot in series.items()
                 if ("scenario", "kwai_food:sasrec") in labels]
    return (sum(s.sum for s in snapshots),
            sum(s.total for s in snapshots))


def test_a_lone_pooled_request_waits_on_no_clock(registry):
    service = RecommendationService(registry, workers=2, cache_size=0)
    try:
        wait_before, count_before = _queue_wait(service.metrics())
        for history in (_histories(registry, SASREC, 4) * 5):
            service.recommend(*SASREC, history, k=K)
        wait_after, count_after = _queue_wait(service.metrics())
    finally:
        service.close()
    waited = count_after - count_before
    assert waited == 20
    assert (wait_after - wait_before) / waited < 0.5e-3

