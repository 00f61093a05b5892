"""``repro.obs`` — dependency-free observability for serve + stream.

Five pieces, all stdlib:

* :mod:`~repro.obs.metrics` — a thread-sharded registry of counters,
  gauges and fixed-layout log-bucketed histograms (p50/p95/p99 in O(1)
  over bounded state), collected as structured families and rendered
  as Prometheus text only on ``GET /metrics``;
* :mod:`~repro.obs.trace` — span-context request/swap tracing with
  probabilistic sampling and a JSONL sink, propagated across the
  micro-batcher thread handoff (``--trace-sample-rate`` /
  ``--trace-log``);
* :mod:`~repro.obs.prof` — ``REPRO_PROF=1`` per-kernel wall-time
  accumulation behind the ``repro prof`` table;
* :mod:`~repro.obs.timeline` — a fixed-memory ring-buffer time-series
  store sampling those families on a background interval (the memory
  behind ``GET /timeline``);
* :mod:`~repro.obs.health` — a rule-based SLO/alert engine over the
  timeline producing the tri-state ``GET /health`` model and
  ``GET /alerts`` edges, with :mod:`~repro.obs.top` rendering both as
  the live ``repro top`` dashboard.

See ``docs/observability.md`` for the instrument naming scheme, the
histogram bucket layout, the span taxonomy, the self-monitoring rule
syntax and the measured overhead (``results/obs_bench.txt``).
"""

from . import health, metrics, prof, timeline, top, trace
from .health import HealthMonitor, Rule, default_rules, monitor_service
from .metrics import (REGISTRY, Counter, Gauge, Histogram,
                      HistogramSnapshot, MetricsRegistry,
                      parse_label_string, parse_prometheus)
from .timeline import Timeline
from .trace import TRACER, TraceContext, Tracer

__all__ = ["metrics", "trace", "prof", "timeline", "health", "top",
           "REGISTRY", "MetricsRegistry", "Counter", "Gauge", "Histogram",
           "HistogramSnapshot", "parse_prometheus",
           "parse_label_string", "Timeline", "HealthMonitor", "Rule",
           "default_rules", "monitor_service",
           "TRACER", "Tracer", "TraceContext"]
