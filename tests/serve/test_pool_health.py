"""Fault injection: killed pool workers must surface on /health.

Each test builds its own pool (never the shared module fixture used by
test_pool.py) because the whole point is to damage it: SIGKILL a worker
process, then assert the self-monitor flips within one sampling
interval, names the right rule, keeps serving through rebalancing, and
resolves once the death ages out of the rule window.
"""

from __future__ import annotations

import json
import os
import signal
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.health import default_rules
from repro.serve import ModelRegistry, RecommendationService, make_server

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="POSIX shared memory filesystem required")

#: Short rule window so a death ages out within a test-sized jump.
WINDOW_S = 5.0


@pytest.fixture()
def pooled():
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add("kwai_food:sasrec", seed=0)
    service = RecommendationService(registry, workers=2, max_wait_ms=1.0)
    yield service
    service.close()


def _monitor(service):
    return service.enable_monitoring(
        start=False,
        rules=default_rules(window_s=WINDOW_S, cooldown_s=0.0))


def _kill_worker(service, index=0) -> int:
    pid = service.pool._workers[index].process.pid
    os.kill(pid, signal.SIGKILL)
    return pid


def _await_alive(service, expected, timeout=10.0) -> None:
    deadline = time.time() + timeout
    while service.pool.alive() != expected:
        if time.time() > deadline:
            raise AssertionError(
                f"pool never reached alive={expected} "
                f"(now {service.pool.alive()})")
        time.sleep(0.05)


def _history(service, row=0):
    scenario = service.registry.get("kwai_food", "sasrec")
    return [int(i) for i in scenario.dataset.split.test[row].history]


def test_sigkill_degrades_within_one_sample_then_recovers(pooled):
    monitor = _monitor(pooled)
    monitor.timeline.sample()           # clean baseline
    assert monitor.status()["status"] == "ok"

    _kill_worker(pooled, index=0)
    _await_alive(pooled, 1)             # the read loop noticed the death
    monitor.timeline.sample()           # detection = one sampling interval
    payload = monitor.status()
    assert payload["status"] == "degraded"
    assert [c["rule"] for c in payload["causes"]] == ["pool_worker_death"]
    assert "repro_pool_worker_deaths_total" in payload["causes"][0]["cause"]

    # Requests rebalance onto the survivor: the service still answers
    # with the same ranking the in-process recommender produces.
    history = _history(pooled)
    expected = pooled.registry.get("kwai_food", "sasrec") \
        .recommender.recommend(history, k=10)
    result = pooled.recommend("kwai_food", "sasrec", history, k=10)
    assert result["items"] == [int(i) for i in expected.items]

    # Once the death increment ages out of the rule window, the alert
    # resolves (one worker down of two is degraded history, not state).
    monitor.timeline.sample(now=time.time() + 10 * WINDOW_S)
    payload = monitor.status()
    assert payload["status"] == "ok"
    events = [(e["rule"], e["event"]) for e in monitor.alerts()["history"]]
    assert ("pool_worker_death", "fired") in events
    assert ("pool_worker_death", "resolved") in events


def test_all_workers_dead_is_failing_and_health_answers_503(pooled):
    monitor = _monitor(pooled)
    monitor.timeline.sample()
    server = make_server(pooled, port=0)
    server.start_background()
    try:
        for index in range(2):
            _kill_worker(pooled, index=index)
        _await_alive(pooled, 0)
        monitor.timeline.sample()
        payload = monitor.status()
        assert payload["status"] == "failing"
        firing = {c["rule"] for c in payload["causes"]}
        assert "pool_workers_dead" in firing

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/health", timeout=30)
        assert excinfo.value.code == 503
        body = json.loads(excinfo.value.read().decode())
        assert body["status"] == "failing"
        assert body["rules"]["pool_workers_dead"]["state"] == "firing"
    finally:
        server.shutdown()
        server.server_close()


def test_clean_shutdown_never_counts_as_worker_death():
    from repro.obs import metrics
    deaths = metrics.counter("repro_pool_worker_deaths_total")
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add("kwai_food:sasrec", seed=0)
    service = RecommendationService(registry, workers=2, max_wait_ms=1.0)
    before = deaths.value
    service.close()                     # orderly stop of both workers
    # close() marks every handle dead, but that sweep must not read as
    # a health event — the pool_worker_death rule watches this counter.
    assert deaths.value == before
