"""Fault injection: killed pool workers must surface on /health, and
hung ones must cost a caller no more than its own timeout.

Each test builds its own pool (never the shared module fixture used by
test_pool.py) because the whole point is to damage it: SIGKILL a worker
process, then assert the self-monitor flips within one sampling
interval, names the right rule, keeps serving through rebalancing, and
resolves once the death ages out of the rule window. With no live
worker left, ``/recommend`` is a counted 503, not a 500. SIGSTOP both
workers, and a timed-out request, ``stats`` or ``metrics`` call leaves
nothing behind and waits one timeout in all, not one per worker.
"""

from __future__ import annotations

import json
import os
import signal
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import metrics
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


def _recommend_503s(url: str) -> float:
    parsed = metrics.parse_prometheus(
        urllib.request.urlopen(url + "/metrics", timeout=30).read().decode())
    return sum(value for (name, labels), value in parsed.items()
               if name == "repro_http_requests_total"
               and metrics.parse_label_string(labels)
               == {"method": "POST", "path": "/recommend", "status": "503"})


def test_a_one_worker_pool_with_its_worker_dead_answers_503(capsys):
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add("kwai_food:sasrec", seed=0)
    service = RecommendationService(registry, workers=1)
    server = make_server(service, port=0)
    server.start_background()
    try:
        _kill_worker(service)
        _await_alive(service, 0)
        before = _recommend_503s(server.url)
        body = json.dumps({"dataset": "kwai_food", "model": "sasrec",
                           "history": _history(service), "k": 5}).encode()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(urllib.request.Request(
                server.url + "/recommend", data=body,
                headers={"Content-Type": "application/json"}), timeout=30)
        assert excinfo.value.code == 503
        assert excinfo.value.headers["Retry-After"] == "1"
        assert json.loads(excinfo.value.read().decode()) == {
            "error": "no live pool worker could answer"}
        assert _recommend_503s(server.url) == before + 1
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    assert "Traceback" not in capsys.readouterr().err


def test_clean_shutdown_never_counts_as_worker_death():
    deaths = metrics.counter("repro_pool_worker_deaths_total")
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add("kwai_food:sasrec", seed=0)
    service = RecommendationService(registry, workers=2, max_wait_ms=1.0)
    before = deaths.value
    service.close()                     # orderly stop of both workers
    # close() marks every handle dead, but that sweep must not read as
    # a health event — the pool_worker_death rule watches this counter.
    assert deaths.value == before


@pytest.fixture()
def hung(pooled):
    """The pooled service with both workers stopped; resumed at teardown."""
    pids = [handle.process.pid for handle in pooled.pool._workers]
    for pid in pids:
        os.kill(pid, signal.SIGSTOP)
    try:
        yield pooled
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGCONT)


def test_a_timed_out_request_is_not_left_inflight(hung):
    pool = hung.pool
    with pytest.raises(TimeoutError):
        pool.recommend(("kwai_food", "sasrec"), _history(hung), 5,
                       timeout=0.3)
    per_worker = pool.stats(timeout=0.3)["per_worker"]
    assert [worker["inflight"] for worker in per_worker] == [0, 0]


def test_stats_and_metrics_wait_one_timeout_for_hung_workers(hung):
    pool = hung.pool
    for call in (pool.stats, pool.metrics):
        tick = time.monotonic()
        call(timeout=0.5)
        assert time.monotonic() - tick < 0.8, call.__name__
    # The timed-out control replies are forgotten, not left waiting.
    assert [len(handle.control) for handle in pool._workers] == [0, 0]
