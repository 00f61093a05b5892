#!/usr/bin/env python3
"""Live-HTTP benchmark of the train -> serve -> learn loop.

    python3 perfbench/run.py --workload serve-solo --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. Each run launches the real ``repro serve``
/ ``repro stream`` CLI as a separate process with its defaults (only the
scenarios, ``--workers`` and ``--port 0`` are given), drives it over
keep-alive HTTP from this single process with at most two connections,
checks the answers, and prints one JSON object as the last line:

* ``--trace 0``: the end-to-end metrics, measured untraced;
* ``--trace 1``: the per-layer metrics from a traced server (see
  ``tracer.py``), after an untraced run of the same seed whose p50 gives
  the tracing overhead, plus the request waterfall.

Workloads are defined in ``workloads.py``; ``README.md`` explains the
metrics and the checks.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

WARMUP_S = 1.0
SETUP_LAUNCHES = 5        # setup_s is the median over this many launches
ORACLE_SAMPLE = 48        # served top-10 lists checked per scenario
SCORE_RTOL = 1e-5         # float32 scores: batch width may move last bits
REFRESH_BURST = 12        # serve workloads: /refresh ack -> visible samples
                          # on each set-up launch and after the window
WAVE_PERIOD_S = 2.0       # stream-churn: one event wave every period ...
WAVE_TAIL_S = 2.0         # ... none due in the window's last seconds
PRIMING_WAVES = 3         # warm-up waves at most, until a swap publishes
DRAIN_S = 20.0            # how long a wave's round may take to close
POLL_S = 0.25             # /stats poll period while a round is open
SLICE_S = 2.0             # CPU per request is the median over slices this long

# recommend_p99_ms is in the run record, not here: on a shared 2-vCPU VM
# the hypervisor's CPU steal moved it by up to 4x between runs (IQR over
# median of 10 seeds up to 0.75), while that of p90 stayed at 0.22 or less.
END_TO_END = (("setup_s", "s"), ("recommend_p50_ms", "ms"),
              ("recommend_p90_ms", "ms"), ("recommend_qps", "1/s"),
              ("freshness_p50_s", "s"), ("cpu_ms_per_req", "ms"),
              ("server_pss_mb", "MB"))


class Tally:
    """Operations attempted/failed and correctness violations of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        self._lock = threading.Lock()

    def op(self, ok: bool) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 0 if ok else 1

    def violation(self, text: str) -> None:
        with self._lock:
            if len(self.violations) < 20:
                self.violations.append(text)
            else:
                self.violations[-1] = f"... and more (last: {text})"


class Thread(threading.Thread):
    """A thread whose exception ``join`` re-raises in the caller."""

    error: BaseException | None = None

    def run(self) -> None:
        try:
            super().run()
        except BaseException as exc:  # re-raised by join()
            self.error = exc

    def join(self, timeout: float | None = None) -> None:
        super().join(timeout)
        if self.error is not None:
            raise self.error


class Reader:
    """One closed-loop /recommend connection and its observations."""

    def __init__(self, conn, stream, tally: Tally):
        self.conn = conn
        self.stream = stream
        self.tally = tally
        self.samples: list[tuple[float, float]] = []   # (start, end) of 200s
        self.sent: list = []                           # (start, request)
        self.versions: list[tuple[float, int]] = []    # (end, index_version)
        self.max_version = -1

    def run(self, until, done=lambda: False, tick=lambda: None) -> None:
        while time.perf_counter() < until() and not done():
            if self.one(self.stream.next()) is None:
                self.tally.op(False)
            tick()

    def one(self, request) -> dict | None:
        start = time.perf_counter()
        status, body = self.conn.request("POST", "/recommend", request.body)
        end = time.perf_counter()
        if status != 200:
            sys.stderr.write(f"/recommend -> {status}: {body[:200]!r}\n")
            return None
        answer = json.loads(body)
        self.samples.append((start, end))
        self.sent.append((start, request))
        version = int(answer["index_version"])
        if version < self.max_version:
            self.tally.violation(f"index_version went back from "
                                 f"{self.max_version} to {version}")
        self.max_version = max(self.max_version, version)
        self.versions.append((end, version))
        if set(answer["items"]) & set(request.history):
            self.tally.violation("answer contains an item of its own history")
        return answer


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def server_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    # numpy links scipy-openblas, which starts one thread per core by
    # default and oversubscribes 2 cores beside 2 pool workers.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def openblas_threads() -> int | None:
    import ctypes
    import glob
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def git_sha() -> str | None:
    """HEAD of ``.git`` when the checkout has one (no git subprocess)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """One server life: launches, warm-up, timed window, checks, stop."""

    def __init__(self, workload, seed: int, seconds: float, work_dir: str,
                 traced: bool, launches: int):
        import numpy as np
        from repro.data import build_dataset
        from workloads import EventSchedule, HistoryPool, RequestStream
        self.workload = workload
        self.seconds = seconds
        self.work_dir = work_dir
        self.tally = Tally()
        self.datasets = {s: build_dataset(s.split(":")[0])
                         for s in workload.scenarios}
        self.pools = {s: HistoryPool(self.datasets[s],
                                     np.random.default_rng([seed, i]))
                      for i, s in enumerate(workload.scenarios)}
        self.stream = RequestStream(self.pools, list(workload.scenarios),
                                    workload.repeat_fraction,
                                    np.random.default_rng([seed, 100]))
        self.rng = np.random.default_rng([seed, 300])
        self.wave_bodies: list[bytes] = []
        if workload.waves:
            schedule = EventSchedule(self.datasets[workload.scenarios[0]],
                                     np.random.default_rng([seed, 200]))
            dataset, model = workload.scenarios[0].split(":")
            # The priming waves for the warm-up, then the timed schedule.
            count = PRIMING_WAVES + max(
                int((seconds - WAVE_TAIL_S) // WAVE_PERIOD_S) + 1, 1)
            self.wave_bodies = [json.dumps({
                "dataset": dataset, "model": model,
                "events": schedule.next_wave()}).encode()
                for _ in range(count)]
        self.trace_dir = os.path.join(work_dir, "trace")
        if traced:
            os.makedirs(self.trace_dir, exist_ok=True)
            argv = [sys.executable, os.path.join(HERE, "tracer.py"),
                    self.trace_dir]
        else:
            argv = [sys.executable, "-m", "repro.cli"]
        self.argv = argv + workload.server_args()
        self.launches = launches

    # -- the run --------------------------------------------------------------

    def execute(self) -> dict:
        from client import Server
        setups, fresh, refresh = [], [], []
        server = None
        for i in range(self.launches):
            server = Server(self.argv, server_env(),
                            os.path.join(self.work_dir, f"server-{i}.log"))
            setups.append(server.setup_s)
            if i < self.launches - 1:
                try:
                    if not self.workload.waves:
                        reader = Reader(server.connect(), self.stream,
                                        self.tally)
                        self._refresh_burst(reader, fresh, refresh)
                        reader.conn.close()
                finally:
                    server.stop()
        try:
            out = self._drive(server)
            if self.workload.waves:
                out["freshness_s"] = self._wave_freshness(out)
            else:
                self._oracle_check(out)
                self._refresh_burst(out["readers"][0], fresh, refresh)
                out["freshness_s"], out["refresh_s"] = fresh, refresh
        except Exception:
            sys.stderr.write(f"server log tail:\n{server.log_tail()}\n")
            raise
        finally:
            code = server.stop()
        if code != 0:
            self.tally.violation(f"server exited with {code}")
        out["setup_s"] = setups
        out["tally"] = self.tally
        return out

    def _drive(self, server) -> dict:
        from repro.obs.metrics import parse_prometheus
        wl = self.workload
        readers = [Reader(server.connect(), self.stream, self.tally)
                   for _ in range(wl.connections)]
        main = readers[0]
        pids = server.tree()
        stop_at = [float("inf")]
        threads = [Thread(target=r.run, args=(lambda: stop_at[0],))
                   for r in readers[1:]]
        for thread in threads:
            thread.start()
        warm_end = time.perf_counter() + WARMUP_S
        main.run(lambda: warm_end)
        if wl.waves:
            primer = Thread(target=self._prime, args=(server, main))
            primer.start()
            main.run(lambda: float("inf"), done=lambda: not primer.is_alive())
            primer.join()
        before = parse_prometheus(main.conn.get("/metrics").decode())
        cpu0 = server.cpu_s(pids)
        start = time.perf_counter()
        end = stop_at[0] = start + self.seconds
        waves: list[dict] = []
        writer = None
        if wl.waves:
            writer = Thread(target=self._writer,
                            args=(server, start, main, waves))
            writer.start()
        readings = [(start, cpu0, None)]
        next_slice = [start + SLICE_S]

        def sample() -> None:
            # CPU and PSS are read at every slice boundary of the window.
            now = time.perf_counter()
            if now >= next_slice[0]:
                readings.append((now, server.cpu_s(pids),
                                 server.pss_mb(pids)))
                next_slice[0] += SLICE_S

        main.run(lambda: end, tick=sample)
        readings.append((time.perf_counter(), server.cpu_s(pids),
                         server.pss_mb(pids)))
        after = parse_prometheus(main.conn.get("/metrics").decode())
        for thread in threads:
            thread.join()
        final = after
        if writer is not None:
            # Keep reading (outside the window) until the last wave's round
            # has closed, so a published last wave gets its sample.
            main.run(lambda: float("inf"), done=lambda: not writer.is_alive())
            writer.join()
            final = parse_prometheus(main.conn.get("/metrics").decode())
        window = [(s, e) for r in readers for s, e in r.samples
                  if start <= e <= end]
        for _ in window:
            self.tally.op(True)
        for r in readers[1:]:
            r.conn.close()
        latencies = [(e - s) * 1e3 for s, e in window]
        ends = sorted(e for _, e in window)
        cpu_per_req = []
        for (t0, c0, _), (t1, c1, _) in zip(readings, readings[1:]):
            done = (bisect.bisect_right(ends, t1)
                    - bisect.bisect_right(ends, t0))
            if t1 - t0 >= SLICE_S / 2 and done:
                cpu_per_req.append((c1 - c0) * 1e3 / done)
        pss = [p for _, _, p in readings[1:]]
        return {"window": (start, end), "latencies_ms": latencies,
                "cpu_ms_per_req": statistics.median(cpu_per_req),
                "cpu_slices": cpu_per_req,
                "pss_mb": statistics.median(pss), "pss_series": pss,
                "pids": len(pids),
                "before": before, "after": after, "final": final,
                "readers": readers, "waves": waves}

    def _prime(self, server, main: Reader) -> None:
        """Warm the write path before timing: waves until a swap publishes.

        A cold learner's first rounds start from an untrained model and an
        almost empty replay buffer; their swaps are the ones the eval gate
        rejects, and the first gate also encodes its baseline. Up to
        ``PRIMING_WAVES`` waves run (and may be rejected) before the
        window opens, while ``main`` keeps reading.
        """
        conn = server.connect()
        try:
            for body in self.wave_bodies[:PRIMING_WAVES]:
                if self._post_wave(conn, main, body)["outcome"] == "published":
                    return
        finally:
            conn.close()

    def _writer(self, server, start: float, main: Reader,
                waves: list) -> None:
        """Post the timed event waves on their fixed schedule.

        A wave goes out at its due time, but not before the previous
        wave's round has closed: each round then learns exactly one wave,
        so the training work per run is fixed and every freshness sample
        times the swap of its own wave.
        """
        conn = server.connect()
        try:
            for i, body in enumerate(self.wave_bodies[PRIMING_WAVES:]):
                wave = self._post_wave(conn, main, body,
                                       due=start + i * WAVE_PERIOD_S)
                # A wave whose swap did not reach serving is a failed write.
                self.tally.op(wave["outcome"] == "published")
                waves.append(wave)
        finally:
            conn.close()

    def _post_wave(self, conn, main: Reader, body: bytes,
                   due: float = 0.0) -> dict:
        """Post one event wave (at ``due``) and wait for its round to close.

        The round publishes when an answer on ``main`` that ended after
        the ack comes from a newer ``index_version``; it closes without
        publishing when ``/stats`` counts one more gate rejection or round
        error. ``main`` must keep reading meanwhile.
        """
        version, closed = main.max_version, self._closed_rounds(conn)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        status, reply = conn.request("POST", "/events", body)
        ack = time.perf_counter()
        wave = {"late_s": max(sent - due, 0.0), "ack": ack,
                "version": version, "outcome": "refused"}
        if status != 200:
            self.tally.violation(f"/events -> {status}: {reply[:120]!r}")
            return wave
        poll = ack + POLL_S
        while time.perf_counter() < ack + DRAIN_S:
            end, seen = main.versions[-1]
            if end >= ack and seen > version:
                wave["outcome"] = "published"
                return wave
            if time.perf_counter() >= poll:
                if self._closed_rounds(conn) > closed:
                    wave["outcome"] = "rejected"
                    return wave
                poll += POLL_S
            time.sleep(0.005)
        wave["outcome"] = "lost"
        self.tally.violation(f"an event wave's round did not close within "
                             f"{DRAIN_S} s")
        return wave

    @staticmethod
    def _closed_rounds(conn) -> int:
        """Rounds that ended without publishing: rejections and errors."""
        totals = json.loads(conn.get("/stats"))["stream"]["totals"]
        return totals["swaps_rejected"] + totals["round_errors"]

    # -- checks ---------------------------------------------------------------

    def _oracle_check(self, out: dict) -> None:
        """Served top-10 lists must equal an in-process Recommender's."""
        from repro.serve import ModelRegistry
        from workloads import K
        registry = ModelRegistry(dtype="float32")
        for spec in self.workload.scenarios:
            registry.add(spec, seed=0)
        start, end = out["window"]
        main = out["readers"][0]
        by_scenario: dict[str, list] = {}
        for reader in out["readers"]:
            for sent, request in reader.sent:
                if start <= sent < end:
                    by_scenario.setdefault(request.scenario, []).append(
                        request)
        checked = 0
        for scenario in self.workload.scenarios:
            pool = by_scenario.get(scenario, [])
            picks = self.rng.choice(len(pool), size=min(ORACLE_SAMPLE,
                                                        len(pool)),
                                    replace=False)
            recommender = registry.get(*scenario.split(":")).recommender
            for i in sorted(int(p) for p in picks):
                request = pool[i]
                answer = main.one(request)
                self.tally.op(answer is not None)
                if answer is None:
                    continue
                expected = recommender.recommend(request.history, k=K)
                checked += 1
                items = [int(x) for x in expected.items]
                # Items must match exactly. Scores may differ in the last
                # bits when the answer was computed (and cached) inside a
                # wider micro-batch, whose BLAS call sums in another order.
                close = all(abs(a - float(b)) <= SCORE_RTOL * max(1.0, abs(a))
                            for a, b in zip(answer["scores"],
                                            expected.scores))
                if items != answer["items"] or not close:
                    self.tally.violation(
                        f"{scenario} history {request.history}: served "
                        f"{answer['items']} {answer['scores']} != oracle "
                        f"{items} {[float(x) for x in expected.scores]}")
        out["oracle_checked"] = checked

    def _refresh_burst(self, main: Reader, fresh: list, refresh: list) -> None:
        """``POST /refresh`` ack -> first answer from the new version.

        As on stream-churn, the clock starts at the write's ack. The
        refresh is synchronous: the catalogue re-encode (and the pool
        fence) are done by the ack, and the sample in ``fresh`` is the
        first answer that serves the new version (a cache miss on it,
        and on the pooled tier the workers' adoption of the fenced
        generation). The re-encode itself, ``POST /refresh`` sent ->
        ack, goes to ``refresh`` for the run record: it is pure compute,
        and the host's speed moved its median by a quarter between runs.
        The host's speed also drifts within a run, over a few seconds,
        so a run takes one burst on each set-up launch and one after
        the window rather than all its samples at once.
        """
        from workloads import Request
        for i in range(REFRESH_BURST):
            scenarios = self.workload.scenarios
            scenario = scenarios[i % len(scenarios)]
            dataset, model = scenario.split(":")
            sent = time.perf_counter()
            ack = main.conn.post("/refresh", {"dataset": dataset,
                                              "model": model})
            acked = time.perf_counter()
            self.tally.op(True)
            version = int(ack["index_version"])
            for _ in range(100):
                answer = main.one(Request.recommend(
                    scenario, self.pools[scenario].fresh()))
                self.tally.op(answer is not None)
                if answer is not None and answer["index_version"] >= version:
                    break
            else:
                raise RuntimeError(f"{scenario}: index v{version} never "
                                   "served after /refresh")
            fresh.append(time.perf_counter() - acked)
            refresh.append(acked - sent)

    def _wave_freshness(self, out: dict) -> list[float]:
        """Per published wave: ack -> first answer from a newer version.

        A wave whose round closed without publishing has no such answer;
        it gives no sample and counts as a failed write.
        """
        versions = out["readers"][0].versions
        samples = [next(t for t, v in versions
                        if t >= wave["ack"] and v > wave["version"])
                   - wave["ack"]
                   for wave in out["waves"] if wave["outcome"] == "published"]
        if not samples:
            self.tally.violation("no event wave's swap was published")
            samples = [DRAIN_S]
        return samples


def end_to_end(out: dict, seconds: float) -> dict:
    latencies = out["latencies_ms"]
    return {"setup_s": statistics.median(out["setup_s"]),
            "recommend_p50_ms": percentile(latencies, 0.50),
            "recommend_p90_ms": percentile(latencies, 0.90),
            "recommend_qps": len(latencies) / seconds,
            "freshness_p50_s": statistics.median(out["freshness_s"]),
            "cpu_ms_per_req": out["cpu_ms_per_req"],
            "server_pss_mb": out["pss_mb"]}


def load_spans(trace_dir: str) -> tuple[dict, list[dict]]:
    server, workers = None, []
    for name in sorted(os.listdir(trace_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(trace_dir, name)) as handle:
            data = json.load(handle)
        if data["role"] == "server":
            server = data
        else:
            workers.append(data)
    if server is None:
        raise RuntimeError("the traced server wrote no spans")
    return server, workers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print("perfbench: src/repro/cli.py not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    import numpy
    work_dir = os.path.join(HERE, ".runs", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        return _measure(workload, args, work_dir, numpy.__version__)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(workload, args, work_dir: str, numpy_version: str) -> int:
    base = Run(workload, args.seed, args.seconds, work_dir, traced=False,
               launches=SETUP_LAUNCHES if args.trace == 0 else 1).execute()
    tally = Tally()
    runs = [base]
    e2e = end_to_end(base, args.seconds)
    if args.trace:
        traced_run = Run(workload, args.seed, args.seconds, work_dir,
                         traced=True, launches=1)
        traced = traced_run.execute()
        runs.append(traced)
        from layers import PER_LAYER, analyse, render_waterfall
        server, workers = load_spans(traced_run.trace_dir)
        traced_e2e = end_to_end(traced, args.seconds)
        layer, rows = analyse(server, workers, traced["window"],
                              traced["before"], traced["after"],
                              traced["final"], traced["latencies_ms"],
                              e2e["recommend_p50_ms"],
                              traced_e2e["recommend_p50_ms"])
        print(render_waterfall(workload.name, rows, layer))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    for out in runs:
        tally.attempted += out["tally"].attempted
        tally.failed += out["tally"].failed
        tally.violations += out["tally"].violations
    latencies = base["latencies_ms"]
    p99 = percentile(latencies, 0.99)
    waves = base["waves"]
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy_version, "git_sha": git_sha(),
        "openblas_threads": openblas_threads(),
        "server_env": {"OPENBLAS_NUM_THREADS": "1"},
        "connections": workload.connections + (1 if workload.waves else 0),
        "server": " ".join(workload.server_args()),
        "repeat_fraction": workload.repeat_fraction,
        "cache_hit_ratio": _hit_ratio(base),
        "samples": len(latencies),
        "recommend_p99_ms": p99,
        "beyond_p99": sum(1 for x in latencies if x > p99),
        "setup_launches_s": [round(x, 4) for x in base["setup_s"]],
        "freshness_samples": len(base["freshness_s"]),
        "freshness_s": [round(x, 6) for x in base["freshness_s"]],
        "refresh_p50_s": (statistics.median(base["refresh_s"])
                          if "refresh_s" in base else None),
        "pss_mb": [round(x, 1) for x in base["pss_series"]],
        "cpu_ms_per_req_slices": [round(x, 3) for x in base["cpu_slices"]],
        "oracle_checked": base.get("oracle_checked", 0),
        "server_processes": base["pids"],
        "waves": len(waves),
        "wave_outcomes": {o: sum(w["outcome"] == o for w in waves)
                          for o in sorted({w["outcome"] for w in waves})},
        "wave_late_max_ms": max((w["late_s"] * 1e3 for w in waves),
                                default=0.0),
        "wave_late_mean_ms": (statistics.mean(w["late_s"] * 1e3
                                              for w in waves)
                              if waves else 0.0),
        "violations": tally.violations,
    }
    print("record: " + json.dumps(record))
    print(f"{workload.name} seed {args.seed}: {len(latencies)} /recommend "
          f"samples, {record['beyond_p99']} beyond p99; cache hit ratio "
          f"{record['cache_hit_ratio']:.3f} at repeat fraction "
          f"{workload.repeat_fraction}")
    for name, unit in END_TO_END:
        print(f"  {name:<18} {e2e[name]:12.4f} {unit}")
    print(f"  {'recommend_p99_ms':<18} {p99:12.4f} ms (record only)")
    print(json.dumps({"correct": not tally.violations,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def _hit_ratio(out: dict) -> float:
    from client import metric_sum
    hits, misses = (metric_sum(out["after"], "repro_serve_cache_total",
                               outcome=o)
                    - metric_sum(out["before"], "repro_serve_cache_total",
                                 outcome=o) for o in ("hit", "miss"))
    return hits / (hits + misses) if hits + misses else 0.0


if __name__ == "__main__":
    raise SystemExit(main())
