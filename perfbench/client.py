"""Keep-alive HTTP client, server process control and /proc readers.

Everything the load generator needs to talk to a ``repro serve`` /
``repro stream`` process from outside it: one persistent connection per
client thread, the launch/ready/stop life cycle of the server process,
its CPU time and PSS from ``/proc``, and sums over ``GET /metrics``
scrapes parsed by ``repro.obs.metrics.parse_prometheus``.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import time

from repro.obs.metrics import parse_label_string

__all__ = ["Connection", "HttpError", "Server", "metric_sum",
           "histogram_delta"]


class HttpError(RuntimeError):
    """A non-2xx answer or a broken connection."""


class Connection:
    """One keep-alive HTTP/1.1 connection with a minimal response parser.

    Requests go out as one pre-encoded ``sendall`` and responses are
    framed by ``Content-Length`` (which the server always sends). The
    stdlib ``http.client`` behind ``repro.serve.bench.KeepAliveClient``
    costs more client CPU, and on a 2-core host that cost lands in every
    latency sample: an interleaved A/B on serve-solo (2-vCPU VM, 11
    blocks of 300 requests per client) measured 0.14 vs 0.35 ms of
    client CPU per request and a p50 of 3.71 vs 3.96 ms.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host, self.port = host, port
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def request(self, method: str, path: str,
                body: bytes = b"") -> tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        self.sock.sendall(head + body)
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        header, _, rest = self.buf.partition(b"\r\n\r\n")
        lines = header.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            self.buf = rest
            self._fill()
            rest = self.buf
        self.buf = rest[length:]
        return status, rest[:length]

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise HttpError("server closed the connection")
        self.buf += chunk

    def post(self, path: str, payload) -> dict:
        status, body = self.request("POST", path, json.dumps(payload).encode())
        if status != 200:
            raise HttpError(f"POST {path} -> {status}: {body[:200]!r}")
        return json.loads(body)

    def get(self, path: str) -> bytes:
        status, body = self.request("GET", path)
        if status != 200:
            raise HttpError(f"GET {path} -> {status}: {body[:200]!r}")
        return body

    def close(self) -> None:
        self.sock.close()


_URL = re.compile(rb"serving \d+ scenario\(s\) on http://([\d.]+):(\d+)")


class Server:
    """One server process: launch, wait for readiness, measure, stop.

    The process writes its stdout/stderr (including the per-request log
    lines ``repro serve`` prints by default) to a file, so no client
    thread is spent draining a pipe. ``setup_s`` is the time from
    ``Popen`` to the first 200 on ``GET /scenarios``.
    """

    def __init__(self, argv: list[str], env: dict, log_path: str):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=self._log,
                                     stderr=subprocess.STDOUT, env=env,
                                     start_new_session=True)
        deadline = start + 120.0
        self.host, self.port = self._await_url(deadline)
        while True:
            try:
                conn = Connection(self.host, self.port)
                try:
                    status, _ = conn.request("GET", "/scenarios")
                finally:
                    conn.close()
                if status == 200:
                    break
            except OSError:
                pass
            self._check_alive(deadline)
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - start

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"server exited with {self.proc.returncode}; "
                               f"log tail:\n{self.log_tail()}")
        if time.perf_counter() > deadline:
            self.stop()
            raise RuntimeError(f"server not ready in time; log tail:\n"
                               f"{self.log_tail()}")

    def _await_url(self, deadline: float) -> tuple[str, int]:
        while True:
            with open(self.log_path, "rb") as handle:
                match = _URL.search(handle.read())
            if match:
                return match.group(1).decode(), int(match.group(2))
            self._check_alive(deadline)
            time.sleep(0.002)

    def log_tail(self) -> str:
        with open(self.log_path, "rb") as handle:
            text = handle.read().decode(errors="replace")
        return "\n".join(text.splitlines()[-30:])

    def connect(self) -> Connection:
        return Connection(self.host, self.port)

    # -- /proc ----------------------------------------------------------------

    def tree(self) -> list[int]:
        """The server pid and every live descendant (pool workers)."""
        parents: dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", "rb") as handle:
                    stat = handle.read()
            except OSError:
                continue
            # Field 4 (ppid) follows the parenthesised command name.
            fields = stat[stat.rindex(b")") + 2:].split()
            parents[int(entry)] = int(fields[1])
        pids, frontier = [self.proc.pid], [self.proc.pid]
        while frontier:
            children = [p for p, pp in parents.items() if pp in frontier]
            pids += children
            frontier = children
        return pids

    @staticmethod
    def cpu_s(pids: list[int]) -> float:
        """utime + stime of the process tree ``pids``, in seconds."""
        ticks = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/stat", "rb") as handle:
                    stat = handle.read()
            except OSError:
                continue
            fields = stat[stat.rindex(b")") + 2:].split()
            ticks += int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    @staticmethod
    def pss_mb(pids: list[int]) -> float:
        """PSS of the process tree ``pids`` (shared pages counted once)."""
        kb = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/smaps_rollup") as handle:
                    for line in handle:
                        if line.startswith("Pss:"):
                            kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return kb / 1024.0

    # -- shutdown -------------------------------------------------------------

    def stop(self) -> int:
        """SIGINT (the CLI's clean shutdown path), then SIGKILL the group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._log.close()
        return self.proc.returncode


# -- Prometheus text ----------------------------------------------------------
# Scrapes are ``repro.obs.metrics.parse_prometheus`` output:
# ``{(name, label string): value}``.


def metric_sum(samples: dict, name: str, **want) -> float:
    """Sum of every sample of ``name`` whose labels include ``want``."""
    return sum(value for (n, labels), value in samples.items()
               if n == name and all(parse_label_string(labels).get(k) == v
                                    for k, v in want.items()))


def histogram_delta(before, after, name: str, **want) -> tuple[float, float]:
    """``(sum, count)`` increase of a histogram between two scrapes.

    Means from ``_sum / _count`` are exact, unlike the bucket quantiles.
    """
    total = (metric_sum(after, name + "_sum", **want)
             - metric_sum(before, name + "_sum", **want))
    count = (metric_sum(after, name + "_count", **want)
             - metric_sum(before, name + "_count", **want))
    return total, count
