"""HTTP surface of the self-monitor: /health, /alerts, /timeline."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import metrics
from repro.obs.health import Rule, default_rules
from repro.serve import ModelRegistry, RecommendationService, make_server

#: Gauge the tests flip to drive /health through its states.
TRIP_GAUGE = "repro_test_trip_level"


@pytest.fixture(scope="module")
def monitored():
    trip = metrics.gauge(TRIP_GAUGE, "test-only fault injection lever")
    trip.set(0)
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add("kwai_food:sasrec", seed=0)
    service = RecommendationService(registry, max_batch=8, cache_size=64)
    rules = default_rules() + [
        Rule("test_trip", kind="threshold", metric=TRIP_GAUGE,
             limit=0.5, severity="failing", cooldown_s=0.0,
             description="test lever above its limit")]
    monitor = service.enable_monitoring(rules=rules, start=False)
    monitor.timeline.sample()
    server = make_server(service, port=0)
    server.start_background()
    yield server, service, monitor, trip
    server.shutdown()
    server.server_close()
    service.close()


def _get(server, path):
    try:
        with urllib.request.urlopen(server.url + path,
                                    timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def test_health_ok_then_503_when_failing_then_recovers(monitored):
    server, _, monitor, trip = monitored
    trip.set(0)
    monitor.timeline.sample()
    status, payload = _get(server, "/health")
    assert status == 200
    assert payload["status"] == "ok" and payload["monitoring"] is True
    assert payload["scenarios"] == 1
    assert payload["rules"]["test_trip"]["state"] == "ok"

    trip.set(1)                     # inject the fault
    monitor.timeline.sample()       # detection = one sampling interval
    status, payload = _get(server, "/health")
    assert status == 503
    assert payload["status"] == "failing"
    assert payload["causes"][0]["rule"] == "test_trip"

    trip.set(0)
    monitor.timeline.sample()
    status, payload = _get(server, "/health")
    assert status == 200 and payload["status"] == "ok"


def test_alerts_reports_rules_and_edge_history(monitored):
    server, _, monitor, trip = monitored
    trip.set(1)
    monitor.timeline.sample()
    trip.set(0)
    monitor.timeline.sample()
    status, payload = _get(server, "/alerts")
    assert status == 200
    assert payload["monitoring"] is True
    assert {rule["name"] for rule in payload["rules"]} >= \
        {"latency_p99", "test_trip", "pool_workers_dead"}
    events = [(e["rule"], e["event"]) for e in payload["history"]]
    assert ("test_trip", "fired") in events
    assert ("test_trip", "resolved") in events


def test_timeline_endpoint_lists_and_exports(monitored):
    server, _, monitor, _ = monitored
    monitor.timeline.sample()
    status, payload = _get(server, "/timeline")
    assert status == 200
    assert payload["monitoring"] is True
    assert TRIP_GAUGE in payload["metrics"]

    status, payload = _get(server,
                           f"/timeline?metric={TRIP_GAUGE}&window=60")
    assert status == 200
    assert payload["metric"] == TRIP_GAUGE
    assert payload["window_s"] == 60.0
    (series,) = payload["series"]
    assert series["kind"] == "gauge"
    assert series["points"], "sampled gauge must export points"


def test_timeline_bad_window_is_a_400(monitored):
    server, _, _, _ = monitored
    status, payload = _get(server, "/timeline?metric=x&window=banana")
    assert status == 400
    assert "error" in payload


def test_timeline_query_collapses_into_bounded_path_label(monitored):
    server, _, monitor, _ = monitored
    _get(server, f"/timeline?metric={TRIP_GAUGE}&window=60")
    parsed = metrics.parse_prometheus(metrics.REGISTRY.render())
    timeline_labels = [labels for (name, labels) in parsed
                       if name == "repro_http_requests_total"
                       and "timeline" in labels]
    assert timeline_labels
    assert all('path="/timeline"' in labels for labels in timeline_labels)


def test_health_without_monitoring_keeps_legacy_ok():
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add("kwai_food:sasrec", seed=0)
    service = RecommendationService(registry)
    server = make_server(service, port=0)
    server.start_background()
    try:
        status, payload = _get(server, "/health")
        assert status == 200
        assert payload == {"status": "ok", "monitoring": False,
                           "causes": [], "scenarios": 1}
        status, payload = _get(server, "/alerts")
        assert status == 200 and payload["monitoring"] is False
        status, payload = _get(server, "/timeline")
        assert status == 200 and payload["monitoring"] is False
    finally:
        server.shutdown()
        server.server_close()
        service.close()
