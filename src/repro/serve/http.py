"""Stdlib JSON-over-HTTP endpoint for the recommendation service.

No web framework — ``http.server.ThreadingHTTPServer`` is enough for a
reproduction-scale deployment and keeps the dependency surface at zero.

Endpoint contract (all bodies JSON):

``GET /health``
    readiness + liveness: ``{"status": "ok"|"degraded"|"failing",
    "causes": [...], "scenarios": <count>, ...}`` from the service's
    self-monitor (``repro.obs.health``) — HTTP **503** when failing so
    load balancers can eject the instance; services without monitoring
    enabled answer the legacy unconditional ``ok``
``GET /alerts``
    active alerts + the bounded fired/resolved edge history + the rule
    set (``{"monitoring": false, ...}`` when self-monitoring is off)
``GET /timeline?metric=NAME&window=SECONDS``
    ring-buffer time-series export from the self-monitor's timeline —
    delta-rates for counters, values for gauges, rate/p50/p99 per tick
    for histograms; without ``metric`` lists the sampled metric names.
    Merged across pool workers exactly like ``/metrics``
``GET /scenarios``
    list of scenario descriptors (dataset, model, catalogue size, index
    version/bytes)
``GET /stats``
    per-scenario micro-batcher counters + latency quantiles + service
    settings
``GET /metrics``
    Prometheus text exposition of the process metrics registry
    (``repro.obs.metrics``) — serving, streaming and profiling series
``POST /recommend``
    request ``{"dataset": str, "model": str, "history": [int, ...],
    "k": int?}`` → ``{"items": [...], "scores": [...],
    "index_version": int, "cached": bool, "latency_ms": float, ...}``
``POST /refresh``
    request ``{"dataset": str, "model": str}`` → ``{"index_version": int}``
``POST /events`` (streaming services only — ``repro stream``)
    request ``{"dataset": str, "model": str, "events": [
    {"user": int, "item": int} | {"user": int?, "item":
    {"text_tokens": [...], "image": [[...]]?, "topic": int?}}, ...]}``
    → ingestion receipt ``{"accepted": int, "cold_item_ids": [...], ...}``
``POST /swap``
    request ``{"dataset": str, "model": str}`` → hot-swap report
    (``{"version": int, "kind": "full"|"catalog", "latency_ms": ...}``)

Errors come back as ``{"error": <message>}`` with status 400 (bad
request), 404 (unknown route/scenario) or 500 — the same on every
serving tier, since one service validates every request. Unexpected
failures additionally carry ``"error_type"`` (the exception class) and
the full traceback is logged server-side — the client gets a
well-formed JSON 500, never a hung connection or a silent swallow.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from ..obs import metrics, trace
from .service import RecommendationService

__all__ = ["RecommendationServer", "make_server", "serve_forever"]

#: Routes counted individually on ``repro_http_requests_total``; anything
#: else collapses into ``other`` so label cardinality stays bounded no
#: matter what paths clients probe.
_KNOWN_ROUTES = frozenset({"/health", "/alerts", "/timeline", "/scenarios",
                           "/stats", "/metrics",
                           "/recommend", "/refresh", "/events", "/swap"})


class _Handler(BaseHTTPRequestHandler):
    """Route table over the service owned by the server."""

    server: "RecommendationServer"
    # HTTP/1.1 + Content-Length on every response (see _send_bytes) means
    # persistent connections: a bench client or scraper reuses one TCP
    # connection across requests instead of paying a handshake each.
    protocol_version = "HTTP/1.1"
    # Keep-alive needs an idle bound, or an abandoned connection parks a
    # handler thread in readline() forever; the stdlib turns a socket
    # timeout into close_connection for us.
    timeout = 120
    # Recommend responses are single small writes on a latency-sensitive
    # path: never let the kernel hold them back for coalescing.
    disable_nagle_algorithm = True

    # -- helpers -------------------------------------------------------------

    def _send(self, payload: dict | list, status: int = 200) -> None:
        body = json.dumps(payload).encode()
        self._send_bytes(body, "application/json", status)

    def _send_bytes(self, body: bytes, content_type: str,
                    status: int = 200) -> None:
        self._last_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, message: str, status: int,
               error_type: str | None = None) -> None:
        body: dict = {"error": message}
        if error_type is not None:
            body["error_type"] = error_type
        self._send(body, status=status)

    def _internal_error(self, exc: Exception) -> None:
        """Unexpected failure: JSON 500 with the class, traceback logged.

        The traceback goes to stderr unconditionally (not through the
        verbose-gated access log): a 500 is an operator event, and the
        class name alone — which is all the client body carries — is not
        enough to debug one.
        """
        sys.stderr.write(
            f"unhandled {type(exc).__name__} serving {self.path}:\n"
            f"{traceback.format_exc()}")
        self._error(f"internal error: {exc}", 500,
                    error_type=type(exc).__name__)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ValueError("request body required")
        try:
            payload = json.loads(self.rfile.read(length))
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def log_message(self, format: str, *args) -> None:
        if self.server.verbose:  # pragma: no cover - manual servers only
            super().log_message(format, *args)

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._observed(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._observed(self._route_post)

    def _observed(self, route) -> None:
        """Time one request, count it, and emit the access-log line."""
        tick = time.perf_counter()
        self._last_status = 0       # left 0 if the handler dies mid-write
        self._trace_id = None
        try:
            route()
        finally:
            elapsed = time.perf_counter() - tick
            # Strip the query string so /timeline?metric=... collapses
            # into the /timeline label (bounded cardinality).
            bare = self.path.partition("?")[0]
            path = bare if bare in _KNOWN_ROUTES else "other"
            metrics.counter(
                "repro_http_requests_total", "HTTP requests served",
                labels={"path": path, "method": self.command,
                        "status": str(self._last_status)}).inc()
            self.server.log_access(
                method=self.command, path=self.path,
                status=self._last_status, latency_ms=elapsed * 1e3,
                trace_id=self._trace_id)

    def _route_get(self) -> None:
        service = self.server.service
        path, _, query = self.path.partition("?")
        try:
            if path == "/health":
                # The service's self-monitor decides readiness.
                payload = service.health()
                status = 503 if payload.get("status") == "failing" else 200
                self._send(payload, status=status)
            elif path == "/alerts":
                self._send(service.alerts())
            elif path == "/timeline":
                params = parse_qs(query)
                metric = params.get("metric", [None])[0]
                window = params.get("window", [None])[0]
                self._send(service.timeline_export(
                    metric, window_s=float(window) if window else None))
            elif path == "/scenarios":
                self._send(service.scenarios())
            elif path == "/stats":
                self._send(service.stats())
            elif path == "/metrics":
                # The service decides what one scrape means: in-process
                # renders the global registry, the pooled tier merges
                # per-worker expositions into it.
                self._send_bytes(service.metrics_text().encode(),
                                 "text/plain; version=0.0.4")
            else:
                self._error(f"unknown route {self.path!r}", 404)
        except ValueError as exc:
            self._error(str(exc), 400)
        except Exception as exc:  # noqa: BLE001 - boundary of the server
            self._internal_error(exc)

    def _recommend(self, payload: dict, t_request: float,
                   t_parsed: float) -> None:
        """The traced hot route: parse → (batcher) → respond spans."""
        service = self.server.service
        dataset = str(payload.get("dataset", ""))
        model = str(payload.get("model", ""))
        ctx = trace.start("request", "/recommend",
                          meta={"scenario": f"{dataset}:{model}"})
        if ctx is not None:
            # Re-anchor the trace at socket-read time so the parse span
            # (which predates the sampling decision) sits inside it.
            ctx.t0 = t_request
            ctx.add_span("parse", t_request, t_parsed)
            self._trace_id = ctx.trace_id
        with trace.activate(ctx):
            # The service validates history and k on every tier.
            result = service.recommend(dataset, model,
                                       payload.get("history"),
                                       k=payload.get("k", 10))
        if ctx is None:
            self._send(result)
            return
        result["trace_id"] = ctx.trace_id
        t_respond = time.perf_counter()
        self._send(result)
        done = time.perf_counter()
        ctx.add_span("respond", t_respond, done)
        trace.finish(ctx, done - t_request, status=200)

    def _route_post(self) -> None:
        service = self.server.service
        t_request = time.perf_counter()
        try:
            payload = self._read_json()
        except ValueError as exc:
            return self._error(str(exc), 400)
        t_parsed = time.perf_counter()
        try:
            if self.path == "/recommend":
                self._recommend(payload, t_request, t_parsed)
            elif self.path == "/refresh":
                version = service.refresh(str(payload.get("dataset", "")),
                                          str(payload.get("model", "")))
                self._send({"index_version": version})
            elif self.path == "/events":
                events = payload.get("events")
                if not isinstance(events, list) or not events:
                    raise ValueError("'events' must be a non-empty list")
                receipt = service.ingest_events(
                    str(payload.get("dataset", "")),
                    str(payload.get("model", "")), events)
                self._send(receipt)
            elif self.path == "/swap":
                report = service.trigger_swap(
                    str(payload.get("dataset", "")),
                    str(payload.get("model", "")))
                self._send(report)
            else:
                self._error(f"unknown route {self.path!r}", 404)
        except KeyError as exc:
            self._error(str(exc.args[0]) if exc.args else str(exc), 404)
        except (ValueError, TypeError) as exc:
            self._error(str(exc), 400)
        except Exception as exc:  # noqa: BLE001 - boundary of the server
            self._internal_error(exc)


class RecommendationServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`RecommendationService`."""

    daemon_threads = True
    # socketserver's default listen backlog of 5 resets connections the
    # moment a burst of clients arrives together — exactly the traffic
    # the micro-batcher exists to coalesce.
    request_queue_size = 128

    def __init__(self, service: RecommendationService,
                 address: tuple[str, int], verbose: bool = False,
                 access_log: str | None = None):
        self.service = service
        self.verbose = verbose
        self.access_log = access_log
        self._access_handle = None
        self._access_lock = threading.Lock()
        super().__init__(address, _Handler)

    def log_access(self, **record) -> None:
        """Append one structured access-log line (JSONL) if enabled.

        Replaces the silent ``log_message`` suppression: operators opt in
        with ``--access-log PATH`` and get machine-parseable lines
        (method, path, status, latency_ms, trace_id) instead of the
        stdlib's stderr format or nothing.
        """
        if self.access_log is None:
            return
        record = {"time": time.time(), **record}
        line = json.dumps(record) + "\n"
        with self._access_lock:
            if self._access_handle is None:
                self._access_handle = open(self.access_log, "a",
                                           encoding="utf-8")
            self._access_handle.write(line)
            self._access_handle.flush()

    def server_close(self) -> None:
        super().server_close()
        with self._access_lock:
            if self._access_handle is not None:
                self._access_handle.close()
                self._access_handle = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread (tests / in-process smoke checks)."""
        thread = threading.Thread(target=self.serve_forever,
                                  name="repro-serve-http", daemon=True)
        thread.start()
        return thread


def make_server(service: RecommendationService, host: str = "127.0.0.1",
                port: int = 0, verbose: bool = False,
                access_log: str | None = None) -> RecommendationServer:
    """Bind (port 0 picks a free ephemeral port) without serving yet."""
    return RecommendationServer(service, (host, port), verbose=verbose,
                                access_log=access_log)


def serve_forever(service: RecommendationService, host: str = "127.0.0.1",
                  port: int = 8765, verbose: bool = True,
                  access_log: str | None = None) -> None:
    """Blocking entry point used by ``repro serve``."""
    server = make_server(service, host=host, port=port, verbose=verbose,
                        access_log=access_log)
    print(f"serving {len(service.registry)} scenario(s) on {server.url}")
    for line in service.scenarios():
        print(f"  {line['dataset']}:{line['model']} "
              f"({line['num_items']} items, "
              f"index v{line['index_version']})")
    print("POST /recommend  "
          '{"dataset": ..., "model": ..., "history": [...], "k": 10}')
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close()
