"""Worker-pool serving tier: correctness, topology, merged observability.

The pooled service must be indistinguishable from the in-process one at
the API boundary: bitwise-identical rankings (workers score the *same*
float32 matrices through shared memory), the same payload contract, the
same error taxonomy across the process hop — plus pool-only extras
(topology on ``/stats``, cross-process merged ``/metrics``, cache hits
answered in the parent, and a fence no client sees step backwards).
"""

from __future__ import annotations

import json
import os
import threading
import urllib.request

import pytest

from repro.obs import metrics
from repro.serve import (KeepAliveClient, ModelRegistry,
                         RecommendationService, make_server)

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="POSIX shared memory filesystem required")


@pytest.fixture(scope="module")
def registry():
    reg = ModelRegistry(profile="smoke", dtype="float32")
    reg.add_all("kwai_food:sasrec,bili_food:pmmrec-text")
    return reg


@pytest.fixture(scope="module")
def pooled(registry):
    service = RecommendationService(registry, workers=2, max_wait_ms=1.0)
    yield service
    service.close()


def _history(registry, dataset, model, row=0):
    scenario = registry.get(dataset, model)
    return [int(i) for i in scenario.dataset.split.test[row].history]


def test_pooled_matches_in_process_bitwise(registry, pooled):
    for dataset, model in (("kwai_food", "sasrec"),
                           ("bili_food", "pmmrec-text")):
        for row in range(4):
            history = _history(registry, dataset, model, row)
            expected = registry.get(dataset, model) \
                .recommender.recommend(history, k=10)
            payload = pooled.recommend(dataset, model, history, k=10)
            assert payload["items"] == [int(i) for i in expected.items]
            assert payload["scores"] == pytest.approx(
                [float(s) for s in expected.scores], abs=0.0)
            assert payload["index_version"] == expected.index_version
            assert payload["dataset"] == dataset
            assert payload["model"] == model
            assert payload["latency_ms"] > 0.0


def test_requests_spread_across_workers(registry, pooled):
    # Distinct histories: a repeat would be answered from the parent's
    # cache and reach no worker.
    for row in range(6):
        history = _history(registry, "kwai_food", "sasrec", row=10 + row)
        pooled.recommend("kwai_food", "sasrec", history, k=5)
    per_worker = pooled.stats()["pool"]["per_worker"]
    assert len(per_worker) == 2
    # Round-robin: both workers served traffic (exact split depends on
    # how many earlier tests ran; >0 each is the invariant).
    assert all(w["requests"] > 0 for w in per_worker)


def test_a_cache_hit_never_reaches_a_worker(registry, pooled):
    history = _history(registry, "kwai_food", "sasrec", row=20)

    def dispatched() -> list[int]:
        return [w["requests"] for w in pooled.stats()["pool"]["per_worker"]]

    first = pooled.recommend("kwai_food", "sasrec", history, k=5)
    before = dispatched()
    again = pooled.recommend("kwai_food", "sasrec", history, k=5)
    assert (first["cached"], again["cached"]) == (False, True)
    assert again["items"] == first["items"]
    assert dispatched() == before


def test_stats_reports_pool_topology(pooled):
    stats = pooled.stats()
    pool = stats["pool"]
    assert pool["mode"] == "pool"
    assert pool["workers"] == 2
    assert pool["alive"] == 2
    assert pool["fence"]["state"] in ("idle", "fencing")
    assert set(pool["generations"]) == {"kwai_food:sasrec",
                                        "bili_food:pmmrec-text"}
    assert all(g >= 1 for g in pool["generations"].values())
    for worker in pool["per_worker"]:
        assert worker["alive"] is True
        assert worker["pid"] != os.getpid()
        for counters in worker["scenarios"].values():
            assert counters["generation"] >= 1
    assert stats["settings"]["workers"] == 2
    # Aggregated per-scenario counters still present (service contract).
    assert set(stats["scenarios"]) >= {"kwai_food:sasrec"}


def test_metrics_merge_sums_worker_counters(registry, pooled):
    history = _history(registry, "kwai_food", "sasrec", row=1)
    for _ in range(3):
        pooled.recommend("kwai_food", "sasrec", history, k=7)
    text = metrics.render(pooled.metrics())
    parsed = metrics.parse_prometheus(text)
    batcher_requests = sum(
        v for (name, labels), v in parsed.items()
        if name == "repro_serve_batcher_requests_total"
        and "kwai_food:sasrec" in labels)
    served = sum(w["scenarios"]["kwai_food:sasrec"]["requests"]
                 for w in pooled.stats()["pool"]["per_worker"])
    # Worker batcher counters surface in the parent's single exposition.
    assert batcher_requests >= served > 0
    # Parent-side series co-exist with merged worker series.
    assert any(name == "repro_serve_request_seconds_count"
               for name, _ in parsed)
    assert any(name == "repro_pool_workers_alive" for name, _ in parsed)
    # No family is declared twice — merging folded duplicates.
    type_lines = [line for line in text.splitlines()
                  if line.startswith("# TYPE ")]
    assert len(type_lines) == len(set(type_lines))


def test_unknown_scenario_and_bad_history_error_types(pooled):
    with pytest.raises(KeyError):
        pooled.recommend("kwai_food", "nope", [1, 2], k=5)
    with pytest.raises((ValueError, IndexError)):
        # Out-of-range item ids must fail loudly across the pipe, not
        # crash the worker or silently truncate.
        pooled.recommend("kwai_food", "sasrec", [10 ** 9], k=5)
    # The pool survived the failed request.
    assert pooled.pool.alive() == 2


def test_http_keepalive_reuses_one_connection(registry, pooled):
    server = make_server(pooled, port=0)
    server.start_background()
    client = KeepAliveClient("127.0.0.1", server.server_address[1])
    try:
        history = _history(registry, "kwai_food", "sasrec", row=2)
        payloads = [client.post_json("/recommend",
                                     {"dataset": "kwai_food",
                                      "model": "sasrec",
                                      "history": history, "k": 5})
                    for _ in range(4)]
        assert all(p["items"] == payloads[0]["items"] for p in payloads)
        assert client.reconnects == 0, \
            "keep-alive server closed the connection between requests"
        stats = client.get_json("/stats")
        assert stats["pool"]["mode"] == "pool"
        request = urllib.request.Request(server.url + "/metrics")
        with urllib.request.urlopen(request, timeout=30) as response:
            text = response.read().decode()
        assert "repro_pool_workers_alive" in text
    finally:
        client.close()
        server.shutdown()
        server.server_close()


def test_refresh_over_pool_bumps_every_worker(registry, pooled):
    version = pooled.refresh("bili_food", "pmmrec-text")
    assert version >= 2
    per_worker = pooled.stats()["pool"]["per_worker"]
    versions = {w["scenarios"]["bili_food:pmmrec-text"]["index_version"]
                for w in per_worker}
    assert versions == {version}
    history = _history(registry, "bili_food", "pmmrec-text")
    expected = registry.get("bili_food", "pmmrec-text") \
        .recommender.recommend(history, k=10)
    payload = pooled.recommend("bili_food", "pmmrec-text", history, k=10)
    assert payload["items"] == [int(i) for i in expected.items]
    assert payload["index_version"] == version


def test_a_client_never_steps_back_a_generation_during_a_fence(
        monkeypatch):
    """A fence stalled between its two swap writes holds back requests
    for its scenario only, so one sequential client reads versions that
    never decrease: worker 0 already answers on the new generation while
    worker 1's pipe has no swap yet."""
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add_all("kwai_food:sasrec,bili_food:pmmrec-text")
    service = RecommendationService(registry, workers=2, cache_size=0)
    written, go = threading.Event(), threading.Event()
    control = service.pool._control

    def stalled(handle, kind, payload=(), fd=None):
        sent = control(handle, kind, payload, fd)
        if kind == "swap" and handle.id == 0:
            written.set()
            go.wait(timeout=30)
        return sent

    monkeypatch.setattr(service.pool, "_control", stalled)
    histories = [_history(registry, "kwai_food", "sasrec", row)
                 for row in range(4)]
    versions: list[int] = []

    def client() -> None:
        for history in histories * 3:
            payload = service.recommend("kwai_food", "sasrec", history, k=5)
            versions.append(payload["index_version"])
            if len(versions) == 4:
                go.set()               # enough answers read mid-fence

    try:
        old = registry.get("kwai_food", "sasrec").recommender.index_version
        fence = threading.Thread(target=service.refresh,
                                 args=("kwai_food", "sasrec"))
        fence.start()
        assert written.wait(timeout=30)
        # Another scenario's requests never wait for this fence.
        service.recommend("bili_food", "pmmrec-text",
                          _history(registry, "bili_food", "pmmrec-text"),
                          k=5)
        assert fence.is_alive()
        reader = threading.Thread(target=client)
        reader.start()
        reader.join(timeout=0.3)
        go.set()
        reader.join(timeout=30)
        fence.join(timeout=30)
        assert not reader.is_alive() and not fence.is_alive()
    finally:
        go.set()
        service.close()
    assert len(versions) == 12
    assert versions == sorted(versions), versions
    assert versions[-1] == old + 1
