"""Observability overhead: the instrumented hot path must stay ~free.

The obs PR's acceptance bar: serving QPS with the metrics registry and
span sites live must land within 5% of the same path with every
instrument write disabled (``REGISTRY.disable()`` + tracing off — the
pre-obs baseline, modulo dead branches). The ``slow``-marked artifact
case records both sides plus the per-instrument micro-costs under
``results/obs_bench.txt``. Wall-clock ratio assertions honor
``REPRO_SKIP_PERF_ASSERT=1`` (CI; numbers are still recorded).
"""

import os
import statistics
import time

import numpy as np
import pytest

from repro.data import build_dataset
from repro.obs import REGISTRY, metrics, trace
from repro.serve import MicroBatcher, Recommender, request_stream
from repro.serve.registry import build_model

from .conftest import emit

_skip_perf_assert = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_ASSERT") == "1",
    reason="wall-clock ratio asserts disabled (shared/throttled runner)")


def _serving_qps(histories, recommender, batch_size: int = 16,
                 repeats: int = 3) -> float:
    """Best-of-N QPS through the micro-batcher's manual-flush path."""
    best = 0.0
    for _ in range(repeats):
        batcher = MicroBatcher(recommender, max_batch=batch_size,
                               start=False, metrics_label="obs-bench")
        futures = []
        start = time.perf_counter()
        for history in histories:
            futures.append(batcher.submit(history, k=10))
            if len(futures) % batch_size == 0:
                batcher.flush_pending()
        batcher.flush_pending()
        for future in futures:
            future.result(timeout=0)
        elapsed = time.perf_counter() - start
        best = max(best, len(histories) / elapsed)
        batcher.close()
    return best


@pytest.fixture()
def serving_setup():
    dataset = build_dataset("kwai_food", profile="smoke")
    model = build_model("sasrec", dataset, seed=0)
    model.to_dtype("float32")
    recommender = Recommender(model, dataset, index_dtype="float32")
    recommender.refresh()
    histories = request_stream(dataset, 192, seed=0)
    return recommender, histories


def _ab_compare(recommender, histories) -> dict:
    """QPS with instruments live vs with every registry write disabled."""
    trace.configure(sample_rate=0.0)
    _serving_qps(histories[:32], recommender)         # warm both paths
    REGISTRY.disable()
    try:
        bare = _serving_qps(histories, recommender)
    finally:
        REGISTRY.enable()
    instrumented = _serving_qps(histories, recommender)
    return {"bare_qps": bare, "instrumented_qps": instrumented,
            "overhead_frac": 1.0 - instrumented / bare}


def test_obs_overhead_harness(serving_setup):
    """The A/B harness runs and produces sane, comparable numbers."""
    recommender, histories = serving_setup
    result = _ab_compare(recommender, histories[:64])
    assert result["bare_qps"] > 0 and result["instrumented_qps"] > 0
    # Generous envelope for the fast suite (tiny run, noisy timer);
    # the slow artifact case pins the real 5% bar.
    assert result["overhead_frac"] < 0.5


def _micro_costs() -> dict:
    """Nanosecond-scale cost of each hot-path obs primitive."""
    out = {}
    counter = metrics.counter("obs_bench_counter")
    hist = metrics.histogram("obs_bench_hist")
    n = 200_000

    start = time.perf_counter()
    for _ in range(n):
        counter.inc()
    out["counter_inc_ns"] = (time.perf_counter() - start) / n * 1e9

    start = time.perf_counter()
    for _ in range(n):
        hist.observe(3.5e-3)
    out["hist_observe_ns"] = (time.perf_counter() - start) / n * 1e9

    start = time.perf_counter()
    for _ in range(n):
        trace.current()
    out["trace_current_ns"] = (time.perf_counter() - start) / n * 1e9

    tracer = trace.Tracer(sample_rate=0.0)
    start = time.perf_counter()
    for _ in range(n):
        tracer.sample()
    out["sample_disabled_ns"] = (time.perf_counter() - start) / n * 1e9
    return out


@pytest.mark.slow
@_skip_perf_assert
def test_obs_overhead_within_5pct_artifact(serving_setup):
    """Acceptance: instrumented serving QPS within 5% of the bare path."""
    recommender, histories = serving_setup
    result = _ab_compare(recommender, histories)
    micro = _micro_costs()
    quantile_snapshot = metrics.histogram(
        "repro_serve_queue_wait_seconds",
        labels={"scenario": "obs-bench"}).snapshot()
    lines = [
        "observability overhead benchmark",
        "================================",
        f"serving path (sasrec @ smoke, 192 requests, batch 16, "
        f"best of 3):",
        f"  bare (registry disabled, tracing off)  "
        f"{result['bare_qps']:>10.1f} req/s",
        f"  instrumented (counters+histograms)     "
        f"{result['instrumented_qps']:>10.1f} req/s",
        f"  overhead                               "
        f"{result['overhead_frac'] * 100:>10.2f} %",
        "",
        "per-call primitive costs:",
        f"  counter.inc()                {micro['counter_inc_ns']:>8.0f} ns",
        f"  histogram.observe()          {micro['hist_observe_ns']:>8.0f} ns",
        f"  trace.current() (span site)  "
        f"{micro['trace_current_ns']:>8.0f} ns",
        f"  tracer.sample() (rate 0)     "
        f"{micro['sample_disabled_ns']:>8.0f} ns",
        "",
        f"queue-wait histogram after run: {quantile_snapshot.total} "
        f"observations, p50 "
        f"{quantile_snapshot.quantile(0.5) * 1e3:.3f} ms",
    ]
    emit("obs_bench", "\n".join(lines))
    # The 5% acceptance bar, with headroom for timer noise at this scale.
    assert result["overhead_frac"] < 0.05, (
        f"obs overhead {result['overhead_frac']:.2%} exceeds the 5% bar")
    # Disabled-tracing span sites must stay nanosecond-scale.
    assert micro["trace_current_ns"] < 2_000
    assert micro["sample_disabled_ns"] < 2_000


def _service_qps(service, histories, duration_s: float = 1.0,
                 repeats: int = 3) -> float:
    """Best-of-N QPS through the full service facade (direct path).

    Duration-based rather than request-count-based so the background
    monitor (when on) takes several samples inside every measurement
    window — otherwise a short burst could dodge the sampler entirely
    and the A/B would measure nothing.
    """
    best = 0.0
    for _ in range(repeats):
        served = 0
        start = time.perf_counter()
        while True:
            service.recommend("kwai_food", "sasrec",
                              histories[served % len(histories)], k=10)
            served += 1
            elapsed = time.perf_counter() - start
            if elapsed >= duration_s:
                break
        best = max(best, served / elapsed)
    return best


@pytest.fixture()
def monitored_setup():
    from repro.serve import ModelRegistry, RecommendationService
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add("kwai_food:sasrec", seed=0)
    service = RecommendationService(registry, cache_size=0, max_wait_ms=0)
    histories = request_stream(
        registry.get("kwai_food", "sasrec").dataset, 192, seed=0)
    yield service, histories
    service.close()


def _monitor_ab(service, histories, pairs: int = 12,
                duration_s: float = 0.5) -> dict:
    """QPS with the self-monitor sampling at 2 Hz vs monitor off.

    2 Hz is 2x the default production interval, so every measurement
    window contains at least one full sample+evaluate cycle. Raw QPS
    on a shared single-core host jitters far more than the effect
    under test, so the comparison is paired: each round measures both
    arms back to back, alternating which arm goes first (cancels
    monotonic host drift), and the statistic is the ratio of the two
    arms' medians rather than any single reading.
    """
    trace.configure(sample_rate=0.0)

    def measure_on() -> float:
        service.enable_monitoring(interval_s=0.5, window_s=60.0)
        time.sleep(0.05)        # first background sample lands
        try:
            return _service_qps(service, histories,
                                duration_s=duration_s, repeats=1)
        finally:
            service._close_monitor()

    def one_round() -> dict:
        offs, ons = [], []
        for i in range(pairs):
            if i % 2 == 0:
                offs.append(_service_qps(service, histories,
                                         duration_s=duration_s, repeats=1))
                ons.append(measure_on())
            else:
                ons.append(measure_on())
                offs.append(_service_qps(service, histories,
                                         duration_s=duration_s, repeats=1))
        off = statistics.median(offs)
        on = statistics.median(ons)
        return {"off_qps": off, "on_qps": on,
                "overhead_frac": 1.0 - on / off}

    _service_qps(service, histories, duration_s=0.3, repeats=1)  # warm
    # Even paired medians wobble by several percent across rounds on a
    # throttled runner; the median of three full rounds is the estimate.
    rounds = sorted((one_round() for _ in range(3)),
                    key=lambda r: r["overhead_frac"])
    result = dict(rounds[1])
    result["pairs"] = pairs
    result["rounds"] = [r["overhead_frac"] for r in rounds]
    return result


def test_monitoring_overhead_harness(monitored_setup):
    service, histories = monitored_setup
    result = _monitor_ab(service, histories, pairs=1, duration_s=0.15)
    assert result["off_qps"] > 0 and result["on_qps"] > 0
    # Generous fast-suite envelope; the slow case pins the 5% bar.
    assert result["overhead_frac"] < 0.5


@pytest.mark.slow
@_skip_perf_assert
def test_monitoring_overhead_within_5pct_artifact(monitored_setup):
    """Acceptance: monitor-on QPS within the existing 5% obs bar."""
    service, histories = monitored_setup
    result = _monitor_ab(service, histories)
    lines = [
        "self-monitoring overhead benchmark",
        "==================================",
        f"serving path (sasrec @ smoke, direct path, "
        f"{result['pairs']} paired 0.5 s windows, median of each arm):",
        f"  monitor off                            "
        f"{result['off_qps']:>10.1f} req/s",
        f"  monitor on (2 Hz sampling + rules)     "
        f"{result['on_qps']:>10.1f} req/s",
        f"  overhead                               "
        f"{result['overhead_frac'] * 100:>10.2f} %",
        f"  (median of 3 rounds: "
        f"{', '.join(f'{r * 100:+.2f}%' for r in result['rounds'])})",
        "",
        "production default samples at 1 Hz (2x slower than measured).",
    ]
    emit("monitor_bench", "\n".join(lines))
    assert result["overhead_frac"] < 0.05, (
        f"monitoring overhead {result['overhead_frac']:.2%} "
        f"exceeds the 5% bar")


def test_obs_bench_counters_visible():
    """The bench path's instruments land in the global registry."""
    rng = np.random.default_rng(0)
    hist = metrics.histogram("obs_bench_visibility")
    for value in rng.uniform(1e-4, 1e-2, size=32):
        hist.observe(float(value))
    rendered = metrics.REGISTRY.render()
    assert "obs_bench_visibility_count" in rendered
    parsed = metrics.parse_prometheus(rendered)
    assert parsed[("obs_bench_visibility_count", "")] >= 32.0
