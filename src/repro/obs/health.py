"""Rule-based SLO health engine over the timeline.

The timeline remembers; this module judges. A :class:`HealthMonitor`
evaluates a declarative rule set against a
:class:`~repro.obs.timeline.Timeline` after every sample and folds the
results into a tri-state health model:

* ``ok`` — no rule is firing;
* ``degraded`` — at least one ``severity="degraded"`` rule fires
  (service answers, an operator should look);
* ``failing`` — at least one ``severity="failing"`` rule fires
  (``GET /health`` answers **503**, a load balancer should eject).

Rule kinds (see ``docs/observability.md`` for the operator runbook):

``threshold``
    newest gauge reading (max across label sets for ``op=">"``, min for
    ``op="<"``) compared against ``limit``.
``quantile``
    ``q``-quantile of a histogram's observations inside ``window_s``
    compared against ``limit`` (e.g. request-latency p99 ceilings).
``ratio``
    windowed counter increase of label-matched series divided by the
    ``denominator`` family's increase (error-rate burn); dormant until
    the denominator saw ``min_denominator`` events.
``increase``
    windowed counter increase compared against ``limit`` (worker
    deaths, retry burn).
``liveness``
    fires when the newest ``metric`` reading drops below ``limit``
    while ``guard_metric`` is positive (pool alive-vs-total).

A rule whose series are absent is **dormant** (treated as clean), so
one default rule set serves every deployment shape: the stream rules
stay dormant on a pure serving tier, the pool rules stay dormant
in-process.

Alerts have edge semantics: a rule must breach ``for_samples``
consecutive evaluations to fire (one by default — detection within one
sampling interval), then stays firing until it has been clean for
``cooldown_s`` past the last breach (no flapping). Both edges land in
a bounded history and on ``repro_health_alerts_{fired,resolved}_total``
counters.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass

from . import metrics
from .timeline import Timeline

__all__ = ["Rule", "HealthMonitor", "default_rules", "monitor_service",
           "STATUS_LEVELS"]

STATUS_LEVELS = {"ok": 0, "degraded": 1, "failing": 2}

_KINDS = ("threshold", "quantile", "ratio", "increase", "liveness")


@dataclass
class Rule:
    """One declarative SLO rule (see module docstring for kinds)."""

    name: str
    kind: str
    metric: str
    severity: str = "degraded"
    limit: float = 0.0
    q: float = 0.99
    op: str = ">"
    window_s: float = 60.0
    denominator: str | None = None
    label_prefix: tuple[str, str] | None = None
    min_denominator: float = 1.0
    guard_metric: str | None = None
    for_samples: int = 1
    cooldown_s: float = 30.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.severity not in STATUS_LEVELS or self.severity == "ok":
            raise ValueError(f"invalid severity {self.severity!r}")
        if self.op not in (">", "<"):
            raise ValueError(f"invalid comparator {self.op!r}")
        if self.for_samples < 1:
            raise ValueError("for_samples must be >= 1")

    def to_json(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "metric": self.metric, "severity": self.severity,
                "limit": self.limit, "window_s": self.window_s,
                "for_samples": self.for_samples,
                "cooldown_s": self.cooldown_s,
                "description": self.description}


def default_rules(*, latency_ceiling_s: float = 0.5,
                  error_rate_limit: float = 0.1,
                  staleness_limit_s: float = 600.0,
                  rejection_streak_limit: int = 2,
                  retry_limit: float = 8.0,
                  window_s: float = 60.0,
                  cooldown_s: float = 30.0) -> list[Rule]:
    """The stock SLO rule set; every knob has a CLI flagging surface.

    Rules over absent series are dormant, so the same list is correct
    for in-process serving, the worker pool, and streaming deployments.
    """
    return [
        Rule("latency_p99", kind="quantile",
             metric="repro_serve_request_seconds", q=0.99,
             limit=latency_ceiling_s, window_s=window_s,
             severity="degraded", cooldown_s=cooldown_s,
             description="end-to-end p99 latency above the SLO ceiling"),
        Rule("http_error_rate", kind="ratio",
             metric="repro_http_requests_total",
             label_prefix=("status", "5"),
             denominator="repro_http_requests_total",
             limit=error_rate_limit, min_denominator=8.0,
             window_s=window_s, severity="failing", cooldown_s=cooldown_s,
             description="HTTP 5xx responses burning the error budget"),
        Rule("pool_worker_death", kind="increase",
             metric="repro_pool_worker_deaths_total", limit=0.0,
             window_s=window_s, severity="degraded", cooldown_s=cooldown_s,
             description="a pooled serving worker died recently "
                         "(requests rebalance onto survivors)"),
        Rule("pool_workers_dead", kind="liveness",
             metric="repro_pool_workers_alive",
             guard_metric="repro_pool_workers_total", limit=1.0,
             severity="failing", cooldown_s=0.0,
             description="no live worker remains in the serving pool"),
        Rule("pool_retry_burn", kind="increase",
             metric="repro_pool_retries_total", limit=retry_limit,
             window_s=window_s, severity="degraded", cooldown_s=cooldown_s,
             description="requests repeatedly retried across workers "
                         "(drop pressure from dying workers)"),
        Rule("stream_staleness", kind="threshold",
             metric="repro_stream_staleness_seconds",
             limit=staleness_limit_s, severity="degraded",
             cooldown_s=0.0,
             description="a streaming scenario has not published a swap "
                         "within the staleness budget"),
        Rule("swap_rejection_streak", kind="threshold",
             metric="repro_stream_rejection_streak",
             limit=float(rejection_streak_limit - 1),
             severity="degraded", cooldown_s=0.0,
             description="the eval gate rejected consecutive fine-tune "
                         "rounds (model drift or poisoned data)"),
    ]


class _AlertState:
    __slots__ = ("breaches", "firing", "since", "last_breach", "value",
                 "cause")

    def __init__(self) -> None:
        self.breaches = 0
        self.firing = False
        self.since: float | None = None
        self.last_breach: float | None = None
        self.value: float | None = None
        self.cause: str | None = None


class HealthMonitor:
    """Evaluate rules after every timeline sample; hold alert state."""

    def __init__(self, timeline: Timeline, rules: list[Rule] | None = None,
                 history: int = 64):
        self.timeline = timeline
        self.rules = list(rules) if rules is not None else default_rules()
        names = [rule.name for rule in self.rules]
        if len(names) != len(set(names)):
            raise ValueError("duplicate rule names")
        self._states = {rule.name: _AlertState() for rule in self.rules}
        self._history: deque = deque(maxlen=history)
        self._status = "ok"
        self._causes: list[dict] = []
        self._last_eval: float | None = None
        self._lock = threading.Lock()
        self._g_status = metrics.gauge(
            "repro_health_status",
            "tri-state health (0 ok, 1 degraded, 2 failing)")
        self._g_active = metrics.gauge(
            "repro_health_alerts_active", "alerts currently firing")
        timeline.add_listener(self.evaluate)

    # -- rule evaluation -----------------------------------------------------

    @staticmethod
    def _label_pred(rule: Rule):
        if rule.label_prefix is None:
            return None
        key, prefix = rule.label_prefix

        def pred(labels: tuple) -> bool:
            return dict(labels).get(key, "").startswith(prefix)
        return pred

    def _evaluate_rule(self, rule: Rule):
        """Returns ``(value, breached)``; value None = dormant."""
        timeline = self.timeline
        if rule.kind == "threshold":
            values = [v for v in timeline.latest_values(rule.metric)
                      if not math.isnan(v)]
            if not values:
                return None, False
            value = max(values) if rule.op == ">" else min(values)
            breached = value > rule.limit if rule.op == ">" \
                else value < rule.limit
            return value, breached
        if rule.kind == "liveness":
            guard = [v for v in
                     timeline.latest_values(rule.guard_metric or "")
                     if not math.isnan(v)]
            if not guard or max(guard) <= 0:
                return None, False
            values = [v for v in timeline.latest_values(rule.metric)
                      if not math.isnan(v)]
            if not values:
                return None, False
            value = max(values)
            return value, value < rule.limit
        if rule.kind == "quantile":
            value = timeline.quantile(rule.metric, rule.q, rule.window_s)
            if value is None:
                return None, False
            return value, value > rule.limit
        if rule.kind == "increase":
            value = timeline.increase(rule.metric, rule.window_s,
                                      label_pred=self._label_pred(rule))
            if value is None:
                return None, False
            return value, value > rule.limit
        # ratio
        numerator = timeline.increase(rule.metric, rule.window_s,
                                      label_pred=self._label_pred(rule))
        denominator = timeline.increase(rule.denominator or rule.metric,
                                        rule.window_s)
        if denominator is None or denominator < rule.min_denominator:
            return None, False
        value = (numerator or 0.0) / denominator
        return value, value > rule.limit

    @staticmethod
    def _cause(rule: Rule, value: float) -> str:
        comparator = "<" if rule.kind == "liveness" else rule.op
        return (f"{rule.metric} = {value:.6g} {comparator} "
                f"{rule.limit:g} ({rule.description})")

    def evaluate(self, now: float | None = None) -> str:
        """One evaluation pass over every rule; returns the status."""
        now = time.time() if now is None else float(now)
        with self._lock:
            worst = "ok"
            causes: list[dict] = []
            for rule in self.rules:
                state = self._states[rule.name]
                try:
                    value, breached = self._evaluate_rule(rule)
                except Exception:   # a broken rule must not kill health
                    value, breached = None, False
                state.value = value
                if breached:
                    state.breaches += 1
                    state.last_breach = now
                    state.cause = self._cause(rule, value)
                    if not state.firing \
                            and state.breaches >= rule.for_samples:
                        state.firing = True
                        state.since = now
                        self._edge(rule, "fired", now, state.cause)
                else:
                    state.breaches = 0
                    if state.firing and (
                            state.last_breach is None
                            or now - state.last_breach >= rule.cooldown_s):
                        state.firing = False
                        self._edge(rule, "resolved", now, state.cause)
                if state.firing:
                    causes.append({"rule": rule.name,
                                   "severity": rule.severity,
                                   "cause": state.cause,
                                   "since": state.since,
                                   "value": state.value})
                    if STATUS_LEVELS[rule.severity] > STATUS_LEVELS[worst]:
                        worst = rule.severity
            self._status = worst
            self._causes = causes
            self._last_eval = now
        self._g_status.set(STATUS_LEVELS[worst])
        self._g_active.set(len(causes))
        return worst

    def _edge(self, rule: Rule, event: str, now: float,
              cause: str | None) -> None:
        self._history.append({"rule": rule.name, "event": event,
                              "severity": rule.severity, "time": now,
                              "cause": cause})
        metrics.counter(f"repro_health_alerts_{event}_total",
                        f"health alerts {event}",
                        labels={"rule": rule.name}).inc()

    # -- payloads ------------------------------------------------------------

    def status(self) -> dict:
        """The ``GET /health`` body (readiness + liveness with reasons)."""
        with self._lock:
            rules = {}
            for rule in self.rules:
                state = self._states[rule.name]
                rules[rule.name] = {
                    "state": ("firing" if state.firing
                              else "dormant" if state.value is None
                              else "ok"),
                    "severity": rule.severity,
                    "value": state.value,
                    "limit": rule.limit,
                    "description": rule.description}
            return {"status": self._status,
                    "monitoring": True,
                    "causes": list(self._causes),
                    "alerts_active": len(self._causes),
                    "rules": rules,
                    "samples": self.timeline.samples_taken,
                    "last_evaluated": self._last_eval}

    def alerts(self) -> dict:
        """The ``GET /alerts`` body: firing now + bounded edge history."""
        with self._lock:
            return {"monitoring": True,
                    "status": self._status,
                    "active": list(self._causes),
                    "history": list(self._history),
                    "rules": [rule.to_json() for rule in self.rules]}

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self.timeline.stop()


def monitor_service(service, interval_s: float = 1.0,
                    window_s: float = 300.0,
                    rules: list[Rule] | None = None,
                    start: bool = True) -> HealthMonitor:
    """Attach a timeline + health monitor to a serving-tier service.

    Samples ``service.metrics()`` — the metric families, already merged
    across pool workers on the pooled tier — so pooled deployments get
    cross-worker health for free, and no tick renders or parses text.
    ``start=False`` leaves sampling to the caller (deterministic tests
    drive ``monitor.timeline.sample()`` by hand).
    """
    timeline = Timeline(window_s=window_s, interval_s=interval_s,
                        source=service.metrics)
    monitor = HealthMonitor(timeline, rules=rules)
    if start:
        timeline.start()
    return monitor
