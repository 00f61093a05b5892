"""One facade, two tiers: the same HTTP contract in-process and pooled.

``RecommendationService`` validates, counts and reports every request
itself and only dispatches to in-process batchers (``workers=0``) or a
worker pool (``workers=2``). Each test here runs against both tiers:
malformed requests are a 400 before they join a batch, ``/stats``
counters survive a generation swap and agree with ``/metrics``, the
``/stats`` key set that ``repro top`` and perfbench read is identical,
and the self-monitor reads metric families without rendering text.
"""

from __future__ import annotations

import json
import os
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import metrics
from repro.obs.health import Rule
from repro.serve import ModelRegistry, RecommendationService, make_server
from repro.stream import StreamConfig, StreamManager

SCENARIO = "kwai_food:sasrec"
T0 = 4_000_000.0

#: The per-scenario ``/stats`` keys, identical on both tiers.
SCENARIO_KEYS = {"requests", "batches", "size_flushes", "timeout_flushes",
                 "cache_hits", "cache_misses", "largest_batch", "mean_batch",
                 "queue_depth", "retrieval", "latency_ms"}


@pytest.fixture(scope="module",
                params=[0, pytest.param(2, marks=pytest.mark.skipif(
                    not os.path.isdir("/dev/shm"),
                    reason="POSIX shared memory filesystem required"))],
                ids=["in-process", "pool-2w"])
def tier(request):
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add(SCENARIO, seed=0)
    # A 50 ms batching window: concurrent requests share a batch.
    service = RecommendationService(registry, workers=request.param,
                                    max_wait_ms=50.0, cache_size=0)
    # Attached after the pool forked, like the CLI does.
    service.attach_stream(StreamManager(service, StreamConfig(seed=0),
                                        start=False))
    server = make_server(service, port=0)
    server.start_background()
    yield service, server
    server.shutdown()
    server.server_close()
    service.close()


def _get(server, path: str):
    with urllib.request.urlopen(server.url + path, timeout=30) as response:
        body = response.read().decode()
    return body if path == "/metrics" else json.loads(body)


def _post(server, path: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        server.url + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as err:
        with err:
            return err.code, json.load(err)


def _recommend(server, history, **extra) -> tuple[int, dict]:
    return _post(server, "/recommend", {"dataset": "kwai_food",
                                        "model": "sasrec",
                                        "history": history, **extra})


def _histories(service, count: int) -> list[list[int]]:
    dataset = service.registry.get("kwai_food", "sasrec").dataset
    return [[int(i) for i in ex.history] for ex in dataset.split.test[:count]]


def test_malformed_requests_are_400_on_both_tiers(tier):
    service, server = tier
    num_items = service.registry.get("kwai_food", "sasrec").dataset.num_items
    bad = [{"history": [True]}, {"history": [1.5]}, {"history": ["3"]},
           {"history": [[1]]}, {"history": [2 ** 70]}, {"history": [0]},
           {"history": [num_items + 1]}, {"history": []},
           {"history": "1 2"}, {"history": None},
           {"history": [1], "k": 2.7}, {"history": [1], "k": 0},
           {"history": [1], "k": True}, {"history": [1], "k": "5"}]
    for body in bad:
        status, payload = _recommend(server, **body)
        assert status == 400 and "error" in payload, body
    # A k past the catalogue is clamped, not refused.
    status, payload = _recommend(server, [1, 2], k=10 ** 6)
    assert status == 200 and len(payload["items"]) == num_items - 2


def test_valid_requests_batched_beside_a_bad_one_succeed(tier):
    service, _ = tier
    histories = _histories(service, 2)
    num_items = service.registry.get("kwai_food", "sasrec").dataset.num_items
    histories.append([num_items + 1])
    outcomes: list = [None] * 3

    def call(slot: int) -> None:
        try:
            outcomes[slot] = service.recommend("kwai_food", "sasrec",
                                               histories[slot], k=5)
        except ValueError as exc:
            outcomes[slot] = exc

    threads = [threading.Thread(target=call, args=(slot,))
               for slot in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive(), "request wedged"
    assert isinstance(outcomes[2], ValueError)
    recommender = service.registry.get("kwai_food", "sasrec").recommender
    for history, payload in zip(histories[:2], outcomes[:2]):
        expected = recommender.recommend(history, k=5)
        assert payload["items"] == [int(i) for i in expected.items]


def test_stats_requests_survive_a_swap_and_match_metrics(tier):
    service, server = tier

    def counts() -> tuple[float, float]:
        stats = _get(server, "/stats")["scenarios"].get(SCENARIO, {})
        parsed = metrics.parse_prometheus(_get(server, "/metrics"))
        # The process-global registry also holds other services' series
        # for this label, so compare deltas.
        served = sum(value for (name, labels), value in parsed.items()
                     if name == "repro_serve_batcher_requests_total"
                     and SCENARIO in labels)
        return stats.get("requests", 0), served

    stats_before, metrics_before = counts()
    histories = _histories(service, 6)
    for history in histories:
        assert _recommend(server, history, k=3)[0] == 200
    status, refreshed = _post(server, "/refresh", {"dataset": "kwai_food",
                                                   "model": "sasrec"})
    assert status == 200
    for history in histories[:2]:
        status, payload = _recommend(server, history, k=3)
        assert status == 200
        assert payload["index_version"] == refreshed["index_version"]
    stats_after, metrics_after = counts()
    assert stats_after - stats_before == 8
    assert metrics_after - metrics_before == 8


def test_stats_key_set_is_the_same_on_both_tiers(tier):
    service, server = tier
    assert _recommend(server, _histories(service, 1)[0], k=3)[0] == 200
    stats = _get(server, "/stats")
    assert set(stats) == {"scenarios", "pool", "settings", "stream"}
    assert set(stats["scenarios"][SCENARIO]) == SCENARIO_KEYS
    assert {"p50", "p99"} <= set(stats["scenarios"][SCENARIO]["latency_ms"])
    assert {"mode", "workers", "alive", "per_worker"} <= set(stats["pool"])
    assert set(stats["settings"]) == {"max_batch", "max_wait_ms",
                                      "cache_size", "workers"}
    assert {"swaps_rejected", "round_errors"} \
        <= set(stats["stream"]["totals"])


def test_monitor_never_renders_text(tier, monkeypatch):
    """Timeline ticks and health rules read metric structures on both
    tiers: with every text renderer broken, they still record and no
    tick counts as a failed scrape."""
    service, server = tier

    def broken(*args, **kwargs):
        raise AssertionError("the monitor rendered exposition text")

    monkeypatch.setattr(metrics.MetricsRegistry, "render", broken)
    monkeypatch.setattr(metrics, "render", broken, raising=False)
    errors = metrics.counter("repro_timeline_sample_errors_total")
    errors_before = errors.value
    monitor = service.enable_monitoring(start=False, rules=[
        Rule("served", kind="increase",
             metric="repro_serve_batcher_requests_total",
             label_prefix=("scenario", "kwai_food:"), limit=1e9)])
    timeline = monitor.timeline
    timeline.sample(now=T0)
    assert _recommend(server, _histories(service, 1)[0], k=3)[0] == 200
    timeline.sample(now=T0 + 1)
    assert errors.value == errors_before
    assert timeline.samples_taken == 2
    # Worker-side batcher counters reach the timeline on both tiers.
    assert timeline.latest_values("repro_serve_batcher_requests_total")
    status = monitor.status()
    assert status["last_evaluated"] == T0 + 1
    assert status["rules"]["served"]["value"] >= 1.0
