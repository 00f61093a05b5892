"""Fault-injection demo behind ``results/health_bench.txt``.

Three real injections, each under live request load, each asserting the
self-monitor's contract: the fault flips ``/health`` with the correct
named rule within one sampling interval, and resolves once the fault
clears.

1. **Killed pool worker** — SIGKILL one of two worker processes; the
   ``pool_worker_death`` increase rule fires, requests rebalance, and
   the alert resolves when the death ages out of the rule window.
2. **Latency spike** — wrap a scenario's batcher with an injected
   sleep far above a tightened p99 SLO; ``latency_p99`` fires and then
   resolves after the spike leaves the quantile window.
3. **Poisoned fine-tune batch** — the test_gate.py recipe (poison
   burst at a hot LR, twice) drives a 2-long gate-rejection streak;
   ``swap_rejection_streak`` fires while every served rank stays
   bitwise identical, then a clean publish resolves it.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.obs.health import default_rules
from repro.serve import ModelRegistry, RecommendationService
from repro.stream import (StreamConfig, StreamManager, parse_events,
                          poisoned_events, synthetic_interactions)

from .conftest import emit

pytestmark = [pytest.mark.slow,
              pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                                 reason="worker pool needs /dev/shm")]

INTERVAL_S = 0.2
RULE_WINDOW_S = 3.0


class _Load:
    """Background request loop against one scenario (read-only)."""

    def __init__(self, service, dataset, model):
        scenario = service.registry.get(dataset, model)
        self._history = [int(i)
                         for i in scenario.dataset.split.test[0].history]
        self._call = lambda: service.recommend(dataset, model,
                                               self._history, k=10)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.requests = 0
        self.errors = 0

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self._call()
                self.requests += 1
            except Exception:
                self.errors += 1
            time.sleep(0.002)

    def __enter__(self) -> "_Load":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=30)


def _await(monitor, predicate, timeout=20.0):
    """Poll the monitor until ``predicate(status_payload)``."""
    deadline = time.time() + timeout
    while True:
        payload = monitor.status()
        if predicate(payload):
            return payload, time.time()
        if time.time() > deadline:
            raise AssertionError(
                f"health stuck at {payload['status']} "
                f"(causes {payload['causes']})")
        time.sleep(0.02)


def _firing(payload, rule):
    return any(c["rule"] == rule for c in payload["causes"])


def _inject_worker_death(lines: list[str]) -> None:
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add("kwai_food:sasrec", seed=0)
    service = RecommendationService(registry, workers=2, max_wait_ms=1.0)
    monitor = service.enable_monitoring(
        interval_s=INTERVAL_S,
        rules=default_rules(window_s=RULE_WINDOW_S, cooldown_s=0.0))
    try:
        with _Load(service, "kwai_food", "sasrec") as load:
            _await(monitor, lambda p: p["samples"] >= 2)
            assert monitor.status()["status"] == "ok"
            t_kill = time.time()
            os.kill(service.pool._workers[0].process.pid, signal.SIGKILL)
            payload, t_detect = _await(
                monitor, lambda p: _firing(p, "pool_worker_death"))
            assert payload["status"] == "degraded"
            _, t_resolve = _await(
                monitor, lambda p: p["status"] == "ok", timeout=30.0)
            lines += [
                "1. killed pool worker (SIGKILL, 1 of 2 processes)",
                f"   rule fired      pool_worker_death "
                f"(degraded) after {t_detect - t_kill:.2f} s "
                f"(sampling interval {INTERVAL_S:.1f} s)",
                f"   resolved        {t_resolve - t_detect:.2f} s later "
                f"(death aged out of the {RULE_WINDOW_S:.0f} s window)",
                f"   during fault    {load.requests} requests answered, "
                f"{load.errors} errors; pool alive "
                f"{service.pool.alive()}/2",
            ]
            assert load.requests > 0
    finally:
        service.close()


def _inject_latency_spike(lines: list[str]) -> None:
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add("kwai_food:sasrec", seed=0)
    service = RecommendationService(registry, max_batch=8, cache_size=0)
    monitor = service.enable_monitoring(
        interval_s=INTERVAL_S,
        rules=default_rules(latency_ceiling_s=0.02, window_s=2.0,
                            cooldown_s=0.0))
    try:
        batcher = service._batchers.get(
            ("kwai_food", "sasrec"),
            service.registry.get("kwai_food", "sasrec").recommender)
        original = batcher.recommend
        with _Load(service, "kwai_food", "sasrec") as load:
            _await(monitor, lambda p: p["samples"] >= 2)
            assert monitor.status()["status"] == "ok"

            def slow(history, k=10):
                time.sleep(0.06)        # 3x the 20 ms p99 ceiling
                return original(history, k=k)

            t_inject = time.time()
            batcher.recommend = slow
            payload, t_detect = _await(
                monitor, lambda p: _firing(p, "latency_p99"))
            assert payload["status"] == "degraded"
            batcher.recommend = original
            _, t_resolve = _await(
                monitor, lambda p: p["status"] == "ok", timeout=30.0)
            lines += [
                "2. latency spike (injected 60 ms sleep vs 20 ms p99 SLO)",
                f"   rule fired      latency_p99 (degraded) after "
                f"{t_detect - t_inject:.2f} s",
                f"   resolved        {t_resolve - t_detect:.2f} s after "
                f"removing the sleep (2 s quantile window drained)",
                f"   during fault    {load.requests} requests answered, "
                f"{load.errors} errors",
            ]
    finally:
        service.close()


def _inject_poisoned_batch(lines: list[str]) -> None:
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add("hm:pmmrec-text", seed=0)
    service = RecommendationService(registry)
    manager = StreamManager(
        service,
        StreamConfig(batch_size=8, lr=5e-3, steps_per_swap=16,
                     buffer_capacity=64, eval_gate=True,
                     gate_tolerance=0.05, eval_set_size=64,
                     eval_holdout_frac=0.0, seed=0),
        start=False)
    service.attach_stream(manager)
    worker = manager.worker("hm", "pmmrec-text")
    monitor = service.enable_monitoring(
        start=False,
        rules=default_rules(rejection_streak_limit=2, cooldown_s=0.0))
    try:
        monitor.timeline.sample()
        assert monitor.status()["status"] == "ok"
        scenario = service.registry.get("hm", "pmmrec-text")
        dataset = scenario.dataset
        probes = [np.asarray(ex.history) for ex in dataset.split.test[:8]]
        before = {h.tobytes(): scenario.recommender.recommend(h, k=10).items
                  for h in probes}

        rng = np.random.default_rng(1)
        rejections = 0
        t_poison = time.time()
        for _ in range(2):      # streak limit is 2 consecutive rejections
            worker.ingest(parse_events(poisoned_events(dataset, 240, rng)))
            worker.trainer.optimizer.lr = 0.2   # reset on each rejection
            worker.run_steps(16)
            report = worker.swap()
            assert report.kind == "rejected"
            rejections += 1
            monitor.timeline.sample()
        t_detect = time.time()
        payload = monitor.status()
        assert payload["status"] == "degraded"
        assert _firing(payload, "swap_rejection_streak")

        for history in probes:  # serving never saw the poisoned rounds
            np.testing.assert_array_equal(
                scenario.recommender.recommend(history, k=10).items,
                before[history.tobytes()])

        worker.ingest(parse_events(
            synthetic_interactions(dataset, 96, rng)))
        worker.run_steps(16)
        clean = worker.swap()
        assert clean.kind == "full"
        monitor.timeline.sample()
        t_resolve = time.time()
        assert monitor.status()["status"] == "ok"
        lines += [
            "3. poisoned fine-tune batch (240-event poison burst at "
            "lr=0.2, twice)",
            f"   rule fired      swap_rejection_streak (degraded) after "
            f"{rejections} consecutive gate rejections "
            f"({t_detect - t_poison:.2f} s; detection = the sample "
            f"after the 2nd rejection)",
            f"   resolved        {t_resolve - t_detect:.2f} s later "
            f"(clean round published, streak reset to 0)",
            "   during fault    all served ranks bitwise identical to "
            "the pre-poison generation",
        ]
    finally:
        service.close()


def test_health_bench_artifact():
    lines = [
        "self-monitoring fault-injection benchmark",
        "=========================================",
        f"sampling interval {INTERVAL_S:.1f} s; rule window "
        f"{RULE_WINDOW_S:.0f} s; cooldown 0 s",
        "",
    ]
    _inject_worker_death(lines)
    lines.append("")
    _inject_latency_spike(lines)
    lines.append("")
    _inject_poisoned_batch(lines)
    emit("health_bench", "\n".join(lines))
