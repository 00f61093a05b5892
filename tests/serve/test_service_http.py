"""End-to-end service + HTTP endpoint smoke (in-process, ephemeral port).

This is the CI serve-smoke path: start the service in-process, issue
real HTTP requests against two scenarios, and assert the returned top-k
matches direct retrieval.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import (MicroBatcher, ModelRegistry, RecommendationService,
                         build_model, make_server)


@pytest.fixture(scope="module")
def service():
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add_all("kwai_food:sasrec,bili_food:pmmrec-text")
    svc = RecommendationService(registry, max_batch=8, max_wait_ms=2.0,
                                cache_size=64)
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def server(service):
    srv = make_server(service, port=0)
    srv.start_background()
    yield srv
    srv.shutdown()
    srv.server_close()


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=30) as response:
        return response.status, json.load(response)


def _post(server, path, payload):
    request = urllib.request.Request(
        server.url + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.load(response)


def test_health_and_scenarios(server):
    status, health = _get(server, "/health")
    assert status == 200 and health == {"status": "ok",
                                        "monitoring": False,
                                        "causes": [], "scenarios": 2}
    status, scenarios = _get(server, "/scenarios")
    assert {f"{s['dataset']}:{s['model']}" for s in scenarios} == \
        {"kwai_food:sasrec", "bili_food:pmmrec-text"}
    assert all(s["index_version"] >= 1 for s in scenarios)


def test_recommend_over_http_matches_direct_topk(server, service):
    for dataset_name, model_name in (("kwai_food", "sasrec"),
                                     ("bili_food", "pmmrec-text")):
        scenario = service.registry.get(dataset_name, model_name)
        history = [int(i) for i in scenario.dataset.split.test[0].history]
        status, payload = _post(server, "/recommend",
                                {"dataset": dataset_name,
                                 "model": model_name,
                                 "history": history, "k": 5})
        assert status == 200
        expected = scenario.recommender.recommend(history, k=5)
        assert payload["items"] == [int(i) for i in expected.items]
        assert payload["index_version"] == expected.index_version
        assert payload["latency_ms"] > 0.0
        assert payload["dataset"] == dataset_name


def test_repeat_request_hits_cache(server, service):
    scenario = service.registry.get("kwai_food", "sasrec")
    history = [int(i) for i in scenario.dataset.split.test[1].history]
    body = {"dataset": "kwai_food", "model": "sasrec",
            "history": history, "k": 4}
    _, first = _post(server, "/recommend", body)
    _, second = _post(server, "/recommend", body)
    assert first["cached"] is False
    assert second["cached"] is True
    assert second["items"] == first["items"]


def test_refresh_endpoint_bumps_index_version(server):
    _, before = _post(server, "/refresh",
                      {"dataset": "kwai_food", "model": "sasrec"})
    _, after = _post(server, "/refresh",
                     {"dataset": "kwai_food", "model": "sasrec"})
    assert after["index_version"] == before["index_version"] + 1


def test_stats_endpoint_reports_batcher_counters(server):
    status, stats = _get(server, "/stats")
    assert status == 200
    assert stats["settings"]["max_batch"] == 8
    assert "kwai_food:sasrec" in stats["scenarios"]
    counters = stats["scenarios"]["kwai_food:sasrec"]
    assert counters["requests"] >= 1 and counters["batches"] >= 1


def test_http_error_contract(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/recommend", {"dataset": "nope", "model": "x",
                                     "history": [1]})
    assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/recommend", {"dataset": "kwai_food",
                                     "model": "sasrec", "history": []})
    assert err.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/recommend", {"dataset": "kwai_food",
                                     "model": "sasrec",
                                     "history": [999999]})
    assert err.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(server, "/nope")
    assert err.value.code == 404


def test_unexpected_failure_yields_well_formed_500(server, service,
                                                   monkeypatch, capfd):
    """A handler bug mid-request is a JSON 500, not a hung connection.

    The body names the exception class (the client-side contract), the
    full traceback goes to the server's stderr (the operator-side
    contract), and the server keeps answering afterwards.
    """
    def boom(*args, **kwargs):
        raise RuntimeError("exploded mid-request")

    monkeypatch.setattr(service, "recommend", boom)
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/recommend", {"dataset": "kwai_food",
                                     "model": "sasrec", "history": [1]})
    assert err.value.code == 500
    body = json.load(err.value)
    assert body["error"] == "internal error: exploded mid-request"
    assert body["error_type"] == "RuntimeError"
    logged = capfd.readouterr().err
    assert "unhandled RuntimeError serving /recommend" in logged
    assert "Traceback (most recent call last)" in logged
    assert "exploded mid-request" in logged
    # The worker thread survived: the very next request is served.
    monkeypatch.undo()
    status, payload = _post(server, "/recommend",
                            {"dataset": "kwai_food", "model": "sasrec",
                             "history": [1], "k": 3})
    assert status == 200 and len(payload["items"]) == 3


def test_service_hot_swap_rebinds_batcher(monkeypatch):
    """Publishing a generation retargets the scenario's one batcher.

    The registry flips only after the batcher swapped: request
    validation reads the registry, so it must never run ahead of the
    generation that serves.
    """
    registry = ModelRegistry(profile="smoke", dtype="float32")
    first = registry.add("kwai_food:sasrec")
    routed_during_swap = []
    swap = MicroBatcher.swap

    def spy(batcher, adopt):
        routed_during_swap.append(registry.get("kwai_food", "sasrec"))
        return swap(batcher, adopt)

    monkeypatch.setattr(MicroBatcher, "swap", spy)
    with RecommendationService(registry) as svc:
        history = [int(i) for i in first.dataset.split.test[0].history]
        svc.recommend("kwai_food", "sasrec", history, k=3)
        batcher = svc._batchers.get(("kwai_food", "sasrec"))
        swapped = registry.build_scenario(
            first.spec, first.dataset,
            build_model("sasrec", first.dataset, seed=9))
        svc.publish_generation(swapped)
        assert routed_during_swap == [first]
        assert registry.get("kwai_food", "sasrec") is swapped
        payload = svc.recommend("kwai_food", "sasrec", history, k=3)
        assert svc._batchers.get(("kwai_food", "sasrec")) is batcher
        assert batcher.recommender is swapped.recommender
        expected = swapped.recommender.recommend(history, k=3)
        assert payload["items"] == [int(i) for i in expected.items]
        assert payload["cached"] is False


def test_cli_serve_smoke_mode(capsys):
    from repro.cli import main
    code = main(["serve", "--scenarios",
                 "kwai_food:sasrec,kwai_food:grurec",
                 "--profile", "smoke", "--smoke"])
    out = capsys.readouterr().out
    assert code == 0
    assert "serve smoke: PASS" in out


def test_cli_bench_serve(capsys):
    from repro.cli import main
    code = main(["bench-serve", "--dataset", "kwai_food", "--model",
                 "sasrec", "--profile", "smoke", "--requests", "32",
                 "--batch", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "p50" in out and "QPS" in out and "speedup" in out
