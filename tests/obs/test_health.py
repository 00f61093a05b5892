"""Health engine: every rule kind fires and resolves with edge semantics."""

from __future__ import annotations

import pytest

from repro.obs import metrics as global_metrics
from repro.obs.health import (STATUS_LEVELS, HealthMonitor, Rule,
                              default_rules)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import Timeline

T0 = 2_000_000.0


@pytest.fixture()
def registry():
    return MetricsRegistry()


def make_monitor(registry, rules, window_s=60.0):
    timeline = Timeline(window_s=window_s, interval_s=1.0,
                        source=registry.collect)
    return HealthMonitor(timeline, rules=rules), timeline


# -- rule kinds ----------------------------------------------------------------


def test_threshold_rule_fires_and_resolves(registry):
    gauge = registry.gauge("t_depth")
    monitor, timeline = make_monitor(registry, [
        Rule("deep", kind="threshold", metric="t_depth", limit=5.0,
             cooldown_s=0.0)])
    gauge.set(3)
    assert timeline.sample(now=T0) and monitor.status()["status"] == "ok"
    gauge.set(9)
    timeline.sample(now=T0 + 1)
    payload = monitor.status()
    assert payload["status"] == "degraded"
    assert payload["causes"][0]["rule"] == "deep"
    assert "t_depth = 9" in payload["causes"][0]["cause"]
    gauge.set(1)
    timeline.sample(now=T0 + 2)
    assert monitor.status()["status"] == "ok"


def test_threshold_less_than_uses_min_across_series(registry):
    registry.gauge("lt_level", labels={"scope": "a"}).set(10)
    low = registry.gauge("lt_level", labels={"scope": "b"})
    low.set(10)
    monitor, timeline = make_monitor(registry, [
        Rule("low", kind="threshold", metric="lt_level", limit=2.0,
             op="<", cooldown_s=0.0)])
    timeline.sample(now=T0)
    assert monitor.status()["status"] == "ok"
    low.set(1)          # the worst series breaches, not the best
    timeline.sample(now=T0 + 1)
    assert monitor.status()["status"] == "degraded"


def test_quantile_rule_watches_windowed_p99(registry):
    hist = registry.histogram("q_seconds")
    monitor, timeline = make_monitor(registry, [
        Rule("slow", kind="quantile", metric="q_seconds", q=0.99,
             limit=0.1, window_s=60.0, cooldown_s=0.0)])
    timeline.sample(now=T0)
    for _ in range(50):
        hist.observe(1e-3)
    timeline.sample(now=T0 + 1)
    assert monitor.status()["status"] == "ok"
    for _ in range(50):
        hist.observe(2.0)
    timeline.sample(now=T0 + 2)
    assert monitor.status()["status"] == "degraded"


def test_increase_rule_watches_windowed_counter_delta(registry):
    deaths = registry.counter("i_deaths_total")
    monitor, timeline = make_monitor(registry, [
        Rule("death", kind="increase", metric="i_deaths_total",
             limit=0.0, window_s=5.0, cooldown_s=0.0)])
    timeline.sample(now=T0)
    timeline.sample(now=T0 + 1)
    assert monitor.status()["status"] == "ok"
    deaths.inc()
    timeline.sample(now=T0 + 2)
    assert monitor.status()["status"] == "degraded"
    # The increment ages out of the 5 s window → auto-resolve.
    timeline.sample(now=T0 + 10)
    timeline.sample(now=T0 + 11)
    assert monitor.status()["status"] == "ok"


def test_ratio_rule_needs_min_denominator(registry):
    requests = registry.counter("r_requests_total",
                                labels={"status": "200"})
    errors = registry.counter("r_requests_total", labels={"status": "500"})
    monitor, timeline = make_monitor(registry, [
        Rule("errors", kind="ratio", metric="r_requests_total",
             label_prefix=("status", "5"),
             denominator="r_requests_total", limit=0.1,
             min_denominator=8.0, window_s=60.0, severity="failing",
             cooldown_s=0.0)])
    timeline.sample(now=T0)
    errors.inc(2)       # 100% errors but only 2 requests: dormant
    timeline.sample(now=T0 + 1)
    payload = monitor.status()
    assert payload["status"] == "ok"
    assert payload["rules"]["errors"]["state"] == "dormant"
    requests.inc(2)
    errors.inc(8)       # 10 of 12 total are 5xx
    timeline.sample(now=T0 + 2)
    payload = monitor.status()
    assert payload["status"] == "failing"
    assert payload["rules"]["errors"]["value"] == pytest.approx(10 / 12)


def test_liveness_rule_guarded_by_topology_gauge(registry):
    total = registry.gauge("l_workers_total")
    alive = registry.gauge("l_workers_alive")
    monitor, timeline = make_monitor(registry, [
        Rule("dead_pool", kind="liveness", metric="l_workers_alive",
             guard_metric="l_workers_total", limit=1.0,
             severity="failing", cooldown_s=0.0)])
    total.set(0)        # no pool configured: rule stays dormant
    alive.set(0)
    timeline.sample(now=T0)
    payload = monitor.status()
    assert payload["status"] == "ok"
    assert payload["rules"]["dead_pool"]["state"] == "dormant"
    total.set(2)
    timeline.sample(now=T0 + 1)
    assert monitor.status()["status"] == "failing"
    alive.set(2)
    timeline.sample(now=T0 + 2)
    assert monitor.status()["status"] == "ok"


# -- alert state machine -------------------------------------------------------


def test_for_samples_requires_consecutive_breaches(registry):
    gauge = registry.gauge("fs_depth")
    monitor, timeline = make_monitor(registry, [
        Rule("flap", kind="threshold", metric="fs_depth", limit=5.0,
             for_samples=2, cooldown_s=0.0)])
    gauge.set(9)
    timeline.sample(now=T0)
    assert monitor.status()["status"] == "ok"      # 1 of 2 breaches
    gauge.set(1)
    timeline.sample(now=T0 + 1)                    # streak broken
    gauge.set(9)
    timeline.sample(now=T0 + 2)
    assert monitor.status()["status"] == "ok"
    timeline.sample(now=T0 + 3)                    # second consecutive
    assert monitor.status()["status"] == "degraded"


def test_cooldown_holds_alert_until_quiet(registry):
    gauge = registry.gauge("cd_depth")
    monitor, timeline = make_monitor(registry, [
        Rule("sticky", kind="threshold", metric="cd_depth", limit=5.0,
             cooldown_s=10.0)])
    gauge.set(9)
    timeline.sample(now=T0)
    assert monitor.status()["status"] == "degraded"
    gauge.set(1)
    timeline.sample(now=T0 + 1)     # clean, but within cooldown
    assert monitor.status()["status"] == "degraded"
    timeline.sample(now=T0 + 11)    # 11 s past the last breach
    assert monitor.status()["status"] == "ok"
    events = [(e["rule"], e["event"]) for e in monitor.alerts()["history"]]
    assert events == [("sticky", "fired"), ("sticky", "resolved")]


def test_alert_edges_hit_counters_and_history(registry):
    gauge = registry.gauge("ae_depth")
    monitor, timeline = make_monitor(registry, [
        Rule("edge", kind="threshold", metric="ae_depth", limit=5.0,
             cooldown_s=0.0)])
    fired = global_metrics.counter("repro_health_alerts_fired_total",
                                   labels={"rule": "edge"})
    resolved = global_metrics.counter("repro_health_alerts_resolved_total",
                                      labels={"rule": "edge"})
    fired0, resolved0 = fired.value, resolved.value
    for tick, value in enumerate([9, 1, 9, 1]):
        gauge.set(value)
        timeline.sample(now=T0 + tick)
    assert fired.value - fired0 == 2.0
    assert resolved.value - resolved0 == 2.0
    history = monitor.alerts()["history"]
    assert [e["event"] for e in history] == \
        ["fired", "resolved", "fired", "resolved"]
    assert all(e["rule"] == "edge" for e in history)


def test_worst_severity_wins(registry):
    registry.gauge("sv_a").set(9)
    registry.gauge("sv_b").set(9)
    monitor, timeline = make_monitor(registry, [
        Rule("warn", kind="threshold", metric="sv_a", limit=5.0,
             severity="degraded", cooldown_s=0.0),
        Rule("crit", kind="threshold", metric="sv_b", limit=5.0,
             severity="failing", cooldown_s=0.0)])
    timeline.sample(now=T0)
    payload = monitor.status()
    assert payload["status"] == "failing"
    assert payload["alerts_active"] == 2
    assert STATUS_LEVELS["failing"] > STATUS_LEVELS["degraded"]


def test_broken_rule_evaluation_does_not_kill_health(registry):
    registry.gauge("br_depth").set(1)
    rule = Rule("broken", kind="quantile", metric="br_depth", limit=1.0)
    monitor, timeline = make_monitor(registry, [rule])
    timeline.sample(now=T0)     # quantile over a gauge: no data, dormant
    assert monitor.status()["status"] == "ok"


# -- configuration -------------------------------------------------------------


def test_rule_validation():
    with pytest.raises(ValueError, match="unknown rule kind"):
        Rule("x", kind="nope", metric="m")
    with pytest.raises(ValueError, match="invalid severity"):
        Rule("x", kind="threshold", metric="m", severity="ok")
    with pytest.raises(ValueError, match="comparator"):
        Rule("x", kind="threshold", metric="m", op=">=")
    with pytest.raises(ValueError, match="for_samples"):
        Rule("x", kind="threshold", metric="m", for_samples=0)


def test_duplicate_rule_names_rejected(registry):
    rules = [Rule("dup", kind="threshold", metric="a"),
             Rule("dup", kind="threshold", metric="b")]
    with pytest.raises(ValueError, match="duplicate"):
        make_monitor(registry, rules)


def test_default_rules_all_dormant_on_empty_registry(registry):
    monitor, timeline = make_monitor(registry, default_rules())
    timeline.sample(now=T0)
    payload = monitor.status()
    assert payload["status"] == "ok"
    states = {name: rule["state"]
              for name, rule in payload["rules"].items()}
    assert set(states) == {"latency_p99", "http_error_rate",
                           "pool_worker_death", "pool_workers_dead",
                           "pool_retry_burn", "stream_staleness",
                           "swap_rejection_streak"}
    assert all(state == "dormant" for state in states.values())


def test_default_rules_knobs_flow_through():
    rules = {r.name: r for r in default_rules(latency_ceiling_s=0.123,
                                              rejection_streak_limit=3)}
    assert rules["latency_p99"].limit == pytest.approx(0.123)
    # Streak limit N means "fire at the Nth consecutive rejection".
    assert rules["swap_rejection_streak"].limit == pytest.approx(2.0)
