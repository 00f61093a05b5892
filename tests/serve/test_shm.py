"""Shared-memory hygiene for the worker pool (``repro.serve.pool``).

The pool keeps every generation's catalogue in an anonymous memfd file:
no ``/dev/shm`` name, no resource-tracker process, and the kernel frees
the pages once the last descriptor and mapping are gone. Every test here
pins that from a different failure mode — boot, a refresh fence, a
SIGKILLed worker, a fence raced by a worker death, a failed start, clean
shutdown and a SIGKILLed server process group: **no ``/dev/shm`` entry is
ever created, and the parent holds exactly the descriptors of the
generations it serves.** The assertions read the filesystem and
``/proc``, not bookkeeping dicts.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.serve import ModelRegistry, RecommendationService
from repro.serve.pool import PoolError, SharedCatalogStore

pytestmark = pytest.mark.skipif(
    not hasattr(os, "memfd_create"), reason="Linux memfd_create required")

SRC = str(Path(repro.__file__).resolve().parents[1])


def _shm() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _memfds() -> dict[int, str]:
    """This process's memfd descriptors: ``{fd: link target}``."""
    found = {}
    for entry in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{entry}")
        except OSError:                 # the listing's own descriptor
            continue
        if target.startswith("/memfd:"):
            found[int(entry)] = target
    return found


def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if int(stat[stat.rindex(b")") + 2:].split()[1]) == pid:
            kids.append(int(entry))
    return kids


class _Leaks:
    """What this process holds beyond a baseline taken at creation."""

    def __init__(self):
        self.shm, self.fds = _shm(), set(_memfds())
        self.children = set(_children(os.getpid()))

    def new_shm(self) -> set[str]:
        return _shm() - self.shm

    def new_memfds(self) -> list[str]:
        return sorted(target for fd, target in _memfds().items()
                      if fd not in self.fds)

    def new_children(self) -> set[int]:
        return set(_children(os.getpid())) - self.children

    def assert_none(self) -> None:
        assert self.new_shm() == set()
        assert self.new_memfds() == []


@pytest.fixture()
def leaks() -> _Leaks:
    return _Leaks()


def _make_service(workers: int = 2) -> RecommendationService:
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add("kwai_food:sasrec", seed=0)
    return RecommendationService(registry, workers=workers, max_wait_ms=1.0)


def _history(service) -> list[int]:
    scenario = service.registry.get("kwai_food", "sasrec")
    return [int(i) for i in scenario.dataset.split.test[0].history]


# -- store unit behaviour -----------------------------------------------------

def test_store_publish_attach_roundtrip(leaks):
    store = SharedCatalogStore()
    arrays = {"matrix": np.arange(24, dtype=np.float32).reshape(6, 4),
              "w:item_emb": np.linspace(-1, 1, 10, dtype=np.float16),
              "ids": np.arange(6, dtype=np.int64)}
    fd = store.publish("g1-unit", arrays)
    assert leaks.new_memfds() == ["/memfd:repro-g1-unit (deleted)"]
    assert leaks.new_shm() == set()
    copy = os.dup(fd)
    segment, views = SharedCatalogStore.attach(copy)
    with pytest.raises(OSError):
        os.fstat(copy)                              # attach closed it
    assert set(views) == set(arrays)
    for key, expected in arrays.items():
        assert views[key].dtype == expected.dtype
        assert views[key].shape == expected.shape
        assert not views[key].flags.writeable       # read-only in workers
        np.testing.assert_array_equal(views[key], expected)
        # 64-byte alignment keeps vectorized loads happy.
        assert views[key].__array_interface__["data"][0] % 64 == 0
    del views
    segment.close()
    store.release(fd)
    leaks.assert_none()
    store.release(fd)                               # idempotent
    store.close()


def test_store_close_unlinks_everything(leaks):
    store = SharedCatalogStore()
    for generation in range(3):
        store.publish(f"g{generation}",
                      {"m": np.zeros((4, 2), dtype=np.float32)})
    assert len(leaks.new_memfds()) == 3
    store.close()
    leaks.assert_none()


# -- pool lifecycle -----------------------------------------------------------

def test_clean_shutdown_leaves_no_segments(leaks):
    service = _make_service(workers=2)
    # Boot published one segment, as a descriptor and nothing else.
    assert leaks.new_memfds() == [
        "/memfd:repro-g1-kwai_food-sasrec (deleted)"]
    assert leaks.new_shm() == set()
    result = service.recommend("kwai_food", "sasrec",
                               _history(service), k=5)
    assert len(result["items"]) == 5
    service.close()
    leaks.assert_none()


def test_a_refresh_fence_holds_both_generations_then_only_the_new(
        leaks, monkeypatch):
    service = _make_service(workers=2)
    written, go = threading.Event(), threading.Event()
    control = service.pool._control

    def stalled(handle, kind, payload=(), fd=None):
        sent = control(handle, kind, payload, fd)
        if kind == "swap" and handle.id == 0:
            written.set()
            go.wait(timeout=30)
        return sent

    monkeypatch.setattr(service.pool, "_control", stalled)
    fence = threading.Thread(target=service.refresh,
                             args=("kwai_food", "sasrec"))
    try:
        fence.start()
        assert written.wait(timeout=30)
        # Mid-fence: the serving generation and the one being fenced.
        assert leaks.new_memfds() == [
            "/memfd:repro-g1-kwai_food-sasrec (deleted)",
            "/memfd:repro-g2-kwai_food-sasrec (deleted)"]
        assert leaks.new_shm() == set()
        go.set()
        fence.join(timeout=30)
        assert not fence.is_alive()
        assert leaks.new_memfds() == [
            "/memfd:repro-g2-kwai_food-sasrec (deleted)"]
        result = service.recommend("kwai_food", "sasrec",
                                   _history(service), k=5)
        assert result["index_version"] == 2
    finally:
        go.set()
        service.close()
    leaks.assert_none()


def test_worker_crash_pool_survives_then_cleans_up(leaks):
    service = _make_service(workers=2)
    try:
        victim = service.pool._workers[0]
        victim.process.kill()
        victim.process.join(timeout=10)
        # Traffic keeps flowing: the dispatcher retries on the survivor.
        result = service.recommend("kwai_food", "sasrec",
                                   _history(service), k=5)
        assert len(result["items"]) == 5
        assert service.pool.alive() == 1
        topology = service.stats()["pool"]
        assert topology["workers"] == 2 and topology["alive"] == 1
        assert leaks.new_shm() == set()
    finally:
        service.close()
    # The kill dropped the worker's maps; the parent's descriptors go
    # at close.
    leaks.assert_none()


def test_fence_with_dead_worker_completes_and_unlinks_old_generation(leaks):
    service = _make_service(workers=2)
    try:
        victim = service.pool._workers[1]
        victim.process.kill()
        victim.process.join(timeout=10)
        scenario = service.registry.get("kwai_food", "sasrec")
        scenario.recommender.refresh()
        fence = service.publish_generation(scenario)
        # The fence must neither hang on the corpse nor report it acked.
        assert fence["generation"] == 2
        assert fence["acked"] == 1
        assert fence["workers"] == 2
        # The old generation's descriptor is closed the moment the fence
        # closes; exactly the new generation's remains.
        assert leaks.new_memfds() == [
            "/memfd:repro-g2-kwai_food-sasrec (deleted)"]
        assert leaks.new_shm() == set()
        result = service.recommend("kwai_food", "sasrec",
                                   _history(service), k=5)
        assert len(result["items"]) == 5
    finally:
        service.close()
    leaks.assert_none()


def test_all_workers_dead_raises_not_hangs(leaks):
    service = _make_service(workers=2)
    try:
        for worker in list(service.pool._workers):
            worker.process.kill()
            worker.process.join(timeout=10)
        with pytest.raises(PoolError):
            service.recommend("kwai_food", "sasrec",
                              _history(service), k=5)
    finally:
        service.close()
    leaks.assert_none()


def test_a_failed_start_leaves_no_segment_and_no_process(leaks):
    # The first scenario is indexed, the second is not: the pool must
    # refuse before it publishes the first one's segment.
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add_all("kwai_food:pmmrec-text,kwai_food:pop")
    with pytest.raises(PoolError, match="kwai_food:pop"):
        RecommendationService(registry, workers=2)
    leaks.assert_none()
    assert leaks.new_children() == set()


# -- a pooled server process -------------------------------------------------

@pytest.fixture()
def pooled_server():
    """``repro serve --workers 1`` in its own process group, up and ready."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve",
         "--scenarios", "kwai_food:sasrec", "--profile", "smoke",
         "--workers", "1", "--port", "0", "--no-monitor"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        start_new_session=True)
    # A server that never gets ready is killed rather than hanging the run.
    watchdog = threading.Timer(120, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        lines = []
        for line in proc.stdout:
            lines.append(line.decode(errors="replace"))
            if lines[-1].startswith("serving "):
                break
        else:
            pytest.fail("the server exited before serving:\n"
                        + "".join(lines))
        watchdog.cancel()
        yield proc
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        proc.stdout.close()


def test_a_pooled_server_has_exactly_its_workers_as_children(pooled_server):
    children = _children(pooled_server.pid)
    assert len(children) == 1, children     # the worker; no tracker
    with open(f"/proc/{children[0]}/cmdline", "rb") as handle:
        assert b"repro.cli" in handle.read()  # a fork of the server


def test_sigkill_of_a_pooled_server_group_leaves_nothing(leaks,
                                                         pooled_server):
    os.killpg(pooled_server.pid, signal.SIGKILL)
    pooled_server.wait(timeout=30)
    assert leaks.new_shm() == set()
