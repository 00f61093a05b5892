"""Thread-sharded metrics: counters, gauges, log-bucketed histograms.

The serving and streaming subsystems each grew a hand-rolled ``/stats``
dict; this module replaces the ad-hoc accounting with one registry of
typed instruments that is cheap enough to sit on the request hot path:

* **Counters** and **histograms** keep one shard per writer thread
  (keyed by thread id). A thread only ever mutates its own shard, so
  increments take no lock — under the GIL the final ``shard[0] += v``
  store is atomic, and a concurrent reader merging shards can observe a
  slightly *stale* value but never a torn one. Monotonicity across
  successive reads follows for free.
* **Histograms** use a fixed 64-bucket geometric layout (default
  ``√2`` growth from 1 µs, covering ~1 µs…1 h for latencies and
  1…10^9 for sizes), so p50/p95/p99 are O(buckets) merges over bounded
  state — no unbounded latency lists, no percentile pass over a deque.
  Quantile estimates return the geometric midpoint of the target
  bucket: relative error is bounded by the quarter-power of the growth
  factor (≈ ±19 % at the default layout), which the test suite pins
  against ``numpy.percentile`` on known distributions.
* The registry collects the whole instrument set as structured
  families (:meth:`MetricsRegistry.collect`): ``{name: (kind, help,
  {label_key: value})}``, a float per counter or gauge and a
  :class:`HistogramSnapshot` per histogram. Everything inside the
  server works on those — the pool ships them over its pipes,
  :func:`merge` folds processes together, the timeline and the health
  rules sample them — and :func:`render` writes Prometheus text once,
  for ``GET /metrics``.

``REGISTRY`` is the process-global default — the serving/streaming/
profiling instrumentation all writes there, mirroring the design of
every Prometheus client library. ``MetricsRegistry.enabled`` is a
measurement kill-switch used by ``benchmarks/test_obs_perf.py`` to A/B
the instrumented hot path against the bare one.
"""

from __future__ import annotations

import math
import re
import threading
from threading import get_ident

__all__ = ["Counter", "Gauge", "Histogram", "HistogramSnapshot",
           "MetricsRegistry", "REGISTRY", "counter", "gauge", "histogram",
           "merge", "render", "label_string", "parse_prometheus",
           "parse_label_string",
           "DEFAULT_BUCKETS", "DEFAULT_START", "DEFAULT_FACTOR"]

#: Fixed histogram geometry: 64 buckets, √2 growth from 1e-6. Bucket i
#: (1 ≤ i ≤ 62) covers (start·f^(i-1), start·f^i]; bucket 0 is
#: (-inf, start] and bucket 63 the +Inf overflow. 64 buckets at √2
#: span a 2^31.5 ≈ 3·10^9 dynamic range — microseconds to ~50 minutes
#: for latencies recorded in seconds.
DEFAULT_BUCKETS = 64
DEFAULT_START = 1e-6
DEFAULT_FACTOR = math.sqrt(2.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def label_string(label_key: tuple, extra: tuple = ()) -> str:
    """The exposition form ``{k="v",...}`` of a label key (``""`` if none)."""
    pairs = list(label_key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


class _Instrument:
    """Shared naming/label plumbing for all instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labels: dict | None = None, registry=None):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labels = labels or {}
        for key in labels:
            if not _LABEL_RE.match(str(key)):
                raise ValueError(f"invalid label name {key!r}")
        self.name = name
        self.help = help
        self.labels = dict(labels)
        self.label_key = _label_key(labels)
        self._reg = registry

    def _on(self) -> bool:
        reg = self._reg
        return reg is None or reg._enabled


class Counter(_Instrument):
    """A monotonically increasing value, sharded per writer thread.

    Each thread owns a one-element list box in ``_shards``; only the
    owner ever writes it, so :meth:`inc` is lock-free. A thread that
    exits leaves its box behind — its contribution to the running total
    must survive the thread (counters are cumulative).
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: dict | None = None, registry=None):
        super().__init__(name, help, labels, registry)
        self._shards: dict[int, list[float]] = {}

    def inc(self, value: float = 1.0) -> None:
        if not self._on():
            return
        shards = self._shards
        tid = get_ident()
        box = shards.get(tid)
        if box is None:
            # setdefault, not assignment: never clobber a box another
            # lookup of the same tid just created (paranoia — a tid is
            # only reused after its thread died).
            box = shards.setdefault(tid, [0.0])
        box[0] += value

    @property
    def value(self) -> float:
        return sum(box[0] for box in list(self._shards.values()))


class Gauge(_Instrument):
    """A point-in-time value: set/add, or computed by a callback.

    ``set_function`` turns the gauge into a pull-mode instrument whose
    value is read at collection time — used for depths that already
    live somewhere authoritative (replay-buffer size, catalogue items)
    rather than being double-booked on every mutation.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: dict | None = None, registry=None):
        super().__init__(name, help, labels, registry)
        self._value = 0.0
        self._fn = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        if self._on():
            self._value = float(value)

    def add(self, value: float = 1.0) -> None:
        if not self._on():
            return
        with self._lock:
            self._value += value

    def set_function(self, fn) -> None:
        """Read ``fn()`` at collection time instead of the stored value."""
        self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        if fn is not None:
            try:
                return float(fn())
            except Exception:           # a dead callback must not kill
                return float("nan")     # the whole collection
        return self._value


class HistogramSnapshot:
    """Immutable merged view of a histogram: bounded, diff-able, O(1) stats.

    ``minus`` subtracts an earlier snapshot, yielding the distribution
    of only the observations made in between — how the timeline windows
    a histogram and the bench reports carve per-run stage breakdowns out
    of process-lifetime instruments. ``plus`` pools two processes'
    observations for the cross-process merge.
    """

    __slots__ = ("counts", "total", "sum", "bounds")

    def __init__(self, counts: list[int], total: int, sum_: float,
                 bounds: list[float]):
        self.counts = counts
        self.total = total
        self.sum = sum_
        self.bounds = bounds

    def quantile(self, q: float) -> float:
        """Geometric-midpoint estimate of the q-quantile (0 ≤ q ≤ 1)."""
        if self.total <= 0:
            return float("nan")
        rank = q * self.total
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank and count > 0:
                if i == 0:
                    return self.bounds[0]
                lo = self.bounds[i - 1]
                hi = (self.bounds[i] if i < len(self.bounds)
                      else self.bounds[-1] * (self.bounds[-1]
                                              / self.bounds[-2]))
                return math.sqrt(lo * hi)
        return self.bounds[-1]

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else float("nan")

    def minus(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Observations since ``other``; a reset reads as none, not < 0.

        A replaced worker process restarts its share of a merged
        histogram from zero, so a bucket can drop between two samples.
        """
        counts = [max(a - b, 0) for a, b in zip(self.counts, other.counts)]
        return HistogramSnapshot(counts, max(self.total - other.total, 0),
                                 self.sum - other.sum, self.bounds)

    def plus(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        counts = [a + b for a, b in zip(self.counts, other.counts)]
        return HistogramSnapshot(counts, self.total + other.total,
                                 self.sum + other.sum, self.bounds)

    def to_json(self, scale: float = 1.0) -> dict:
        """Summary dict; ``scale`` converts units (e.g. 1e3 → ms)."""
        if self.total <= 0:
            return {"count": 0, "sum": 0.0,
                    "p50": None, "p95": None, "p99": None, "mean": None}
        return {"count": int(self.total),
                "sum": float(self.sum * scale),
                "p50": float(self.quantile(0.50) * scale),
                "p95": float(self.quantile(0.95) * scale),
                "p99": float(self.quantile(0.99) * scale),
                "mean": float(self.mean * scale)}


class Histogram(_Instrument):
    """Log-bucketed histogram with one count array per writer thread.

    ``observe`` computes the bucket index in closed form (one ``log``)
    rather than a search, and touches only the calling thread's shard:
    ``[counts…, n, sum]`` as a flat list, owner-written, reader-merged.
    All percentile math happens on merged :class:`HistogramSnapshot`
    objects so the hot path stays allocation- and lock-free.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: dict | None = None, registry=None,
                 start: float = DEFAULT_START,
                 factor: float = DEFAULT_FACTOR,
                 buckets: int = DEFAULT_BUCKETS):
        super().__init__(name, help, labels, registry)
        if start <= 0 or factor <= 1.0 or buckets < 2:
            raise ValueError("need start > 0, factor > 1, buckets >= 2")
        self.start = start
        self.factor = factor
        self.buckets = buckets
        self._inv_log_factor = 1.0 / math.log(factor)
        self._log_start = math.log(start)
        # Upper bounds of buckets 0..buckets-2; the last bucket is +Inf.
        self.bounds = [start * factor ** i for i in range(buckets - 1)]
        self._shards: dict[int, list] = {}

    def _bucket(self, value: float) -> int:
        if value <= self.start:
            return 0
        index = int(math.ceil((math.log(value) - self._log_start)
                              * self._inv_log_factor - 1e-9))
        return index if index < self.buckets else self.buckets - 1

    def observe(self, value: float) -> None:
        if not self._on():
            return
        shards = self._shards
        tid = get_ident()
        shard = shards.get(tid)
        if shard is None:
            shard = shards.setdefault(tid, [0] * self.buckets + [0, 0.0])
        shard[self._bucket(value)] += 1
        shard[self.buckets] += 1       # n
        shard[self.buckets + 1] += value  # sum

    def snapshot(self) -> HistogramSnapshot:
        counts = [0] * self.buckets
        total, sum_ = 0, 0.0
        for shard in list(self._shards.values()):
            for i in range(self.buckets):
                counts[i] += shard[i]
            total += shard[self.buckets]
            sum_ += shard[self.buckets + 1]
        return HistogramSnapshot(counts, total, sum_, self.bounds)

    def quantile(self, q: float) -> float:
        return self.snapshot().quantile(q)

    @property
    def count(self) -> int:
        return self.snapshot().total


class MetricsRegistry:
    """Get-or-create instrument store + structured collection."""

    def __init__(self):
        self._instruments: dict[tuple, _Instrument] = {}
        self._lock = threading.Lock()
        self._enabled = True

    # -- kill-switch (overhead measurement only) -----------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def disable(self) -> None:
        """Turn every write into a no-op (bench baseline; not for prod)."""
        self._enabled = False

    def enable(self) -> None:
        self._enabled = True

    # -- get-or-create -------------------------------------------------------

    def _get(self, cls, name: str, help: str, labels: dict | None,
             **kwargs) -> _Instrument:
        key = (name, _label_key(labels or {}))
        found = self._instruments.get(key)   # lock-free fast path
        if found is not None:
            return found
        with self._lock:
            found = self._instruments.get(key)
            if found is None:
                found = cls(name, help=help, labels=labels, registry=self,
                            **kwargs)
                self._instruments[key] = found
            return found

    def counter(self, name: str, help: str = "",
                labels: dict | None = None) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: dict | None = None) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: dict | None = None,
                  start: float = DEFAULT_START,
                  factor: float = DEFAULT_FACTOR,
                  buckets: int = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, labels,
                         start=start, factor=factor, buckets=buckets)

    # -- introspection -------------------------------------------------------

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def histograms(self, prefix: str = "") -> list[Histogram]:
        return [inst for inst in self.instruments()
                if inst.kind == "histogram"
                and inst.name.startswith(prefix)]

    def collect(self) -> dict:
        """Every instrument as families: ``{name: (kind, help, series)}``.

        ``series`` maps each label key (sorted ``((label, value), ...)``
        pairs) to a float, or to a :class:`HistogramSnapshot` for a
        histogram. Families and label keys come sorted, in exposition
        order.
        """
        families: dict[str, tuple] = {}
        for inst in self.instruments():
            kind, help_text, series = families.get(inst.name,
                                                   (inst.kind, "", {}))
            series[inst.label_key] = (inst.snapshot()
                                      if inst.kind == "histogram"
                                      else inst.value)
            families[inst.name] = (kind, help_text or inst.help, series)
        return _sorted(families)

    def render(self) -> str:
        """This registry alone as Prometheus text (see :func:`render`)."""
        return render(self.collect())

    # -- fork support --------------------------------------------------------

    def reset(self) -> None:
        """Zero every instrument's state without discarding instruments.

        A forked worker process (``repro.serve.pool``) inherits the
        parent's shards by copy-on-write; left alone, its ``/metrics``
        exposition would replay the parent's whole pre-fork history and
        the cross-process merge would double-count it. Instruments
        themselves are kept — module-level code holds direct references
        to them (e.g. the recommender's stage histograms), so clearing
        ``_instruments`` would silently orphan those writers from the
        exposition. Gauge callbacks are dropped too: they close over
        parent-side objects whose forked copies no longer track anything
        real. Locks are recreated because fork copies them in whatever
        state some unrelated parent thread held them.
        """
        self._lock = threading.Lock()
        for inst in self.instruments():
            if inst.kind in ("counter", "histogram"):
                inst._shards.clear()
            elif inst.kind == "gauge":
                inst._value = 0.0
                inst._fn = None
                inst._lock = threading.Lock()


#: The process-global registry all built-in instrumentation writes to.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "",
            labels: dict | None = None) -> Counter:
    return REGISTRY.counter(name, help=help, labels=labels)


def gauge(name: str, help: str = "", labels: dict | None = None) -> Gauge:
    return REGISTRY.gauge(name, help=help, labels=labels)


def histogram(name: str, help: str = "", labels: dict | None = None,
              start: float = DEFAULT_START, factor: float = DEFAULT_FACTOR,
              buckets: int = DEFAULT_BUCKETS) -> Histogram:
    return REGISTRY.histogram(name, help=help, labels=labels,
                              start=start, factor=factor, buckets=buckets)


def _sorted(families: dict) -> dict:
    return {name: (kind, help_text, dict(sorted(series.items())))
            for name, (kind, help_text, series) in sorted(families.items())}


def merge(sources: list[dict]) -> dict:
    """Fold several processes' :meth:`MetricsRegistry.collect` into one.

    The pool parent merges its own families with one set per worker
    process, so ``GET /metrics`` and the timeline each see one service.
    **Counters and histograms** with the same name and label key add —
    valid for histograms because every process uses the same bucket
    geometry (code-, not state-derived), so the bucket arrays line up.
    **Gauges take the max**, not the sum: a point-in-time reading
    (staleness seconds, rejection streak, worker count) summed across
    N processes is meaningless, while max reports the worst reading —
    and since forked workers reset inherited gauges to 0, the parent's
    authoritative value wins. A ``NaN`` reading (dead callback) loses
    to any real one. The first non-empty help text wins.
    """
    merged: dict[str, tuple] = {}
    for families in sources:
        for name, (kind, help_text, series) in families.items():
            if name not in merged:
                merged[name] = (kind, help_text, dict(series))
                continue
            kind, first_help, into = merged[name]
            if not first_help:
                merged[name] = (kind, help_text, into)
            for key, value in series.items():
                old = into.get(key)
                if old is None:
                    into[key] = value
                elif kind == "histogram":
                    into[key] = old.plus(value)
                elif kind != "gauge":
                    into[key] = old + value
                elif math.isnan(old) or value > old:
                    into[key] = value
    return _sorted(merged)


def _number(value: float) -> str:
    """``{:g}`` where six digits are exact, else the round-trip repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def render(families: dict) -> str:
    """The Prometheus text exposition of collected families.

    Histograms expand into cumulative ``_bucket`` series (one per
    finite bound, then ``+Inf``) plus ``_sum`` and ``_count``. Every
    value parses back to exactly the float it was written from.
    """
    lines = []
    for name in sorted(families):
        kind, help_text, series = families[name]
        if help_text:
            lines.append(f"# HELP {name} {_escape(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for key in sorted(series):
            value, tag = series[key], label_string(key)
            if kind != "histogram":
                lines.append(f"{name}{tag} {_number(value)}")
                continue
            cumulative = 0
            for bound, count in zip(value.bounds, value.counts):
                cumulative += count
                le = label_string(key, (("le", format(bound, ".6g")),))
                lines.append(f"{name}_bucket{le} {_number(cumulative)}")
            inf = label_string(key, (("le", "+Inf"),))
            lines.append(f"{name}_bucket{inf} {_number(value.total)}")
            lines.append(f"{name}_sum{tag} {_number(value.sum)}")
            lines.append(f"{name}_count{tag} {_number(value.total)}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[tuple[str, str], float]:
    """Parse a text exposition into ``{(name, label_string): value}``.

    A deliberately small parser for the CI smoke check ("the endpoint's
    output parses and the core series exist") and the ``repro stats``
    table — not a general Prometheus client. Raises ``ValueError`` on a
    malformed sample line.
    """
    samples: dict[tuple[str, str], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
                         r"(\{.*\})?\s+(\S+)$", line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        name, labels, value = match.groups()
        samples[(name, labels or "")] = float(value)
    return samples


_UNESCAPE = {"n": "\n", '"': '"', "\\": "\\"}


def parse_label_string(label_str: str) -> dict[str, str]:
    """Decode a rendered label string back into ``{name: value}``.

    The escape-aware inverse of the exposition's label rendering:
    quoted values may contain ``\\"``, ``\\\\`` and ``\\n`` (which is
    why a naive ``split(",")`` cannot parse them). Accepts ``""`` for
    an instrument with no labels. Raises ``ValueError`` on malformed
    input.
    """
    if not label_str or label_str == "{}":
        return {}
    if not (label_str.startswith("{") and label_str.endswith("}")):
        raise ValueError(f"malformed label string {label_str!r}")
    body = label_str[1:-1]
    out: dict[str, str] = {}
    i, n = 0, len(body)
    try:
        while i < n:
            eq = body.index("=", i)
            key = body[i:eq]
            if body[eq + 1] != '"':
                raise ValueError(f"unquoted label value in {label_str!r}")
            j = eq + 2
            chars: list[str] = []
            while True:
                char = body[j]
                if char == "\\":
                    chars.append(_UNESCAPE.get(body[j + 1],
                                               "\\" + body[j + 1]))
                    j += 2
                elif char == '"':
                    j += 1
                    break
                else:
                    chars.append(char)
                    j += 1
            out[key] = "".join(chars)
            if j < n and body[j] == ",":
                j += 1
            i = j
    except (IndexError, ValueError) as exc:
        raise ValueError(
            f"malformed label string {label_str!r}: {exc}") from exc
    return out
