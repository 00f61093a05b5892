"""Workload definitions and the seeded inputs they send.

A workload is a server command line (the CLI's defaults, untouched
apart from the scenarios, the tier and ``--port 0``) plus a traffic
mix. Every input is drawn from ``--seed``; the server only ever sees
the generated requests and events.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import numpy as np

__all__ = ["WORKLOADS", "Workload", "HistoryPool", "RequestStream",
           "EventSchedule"]

K = 10
RECENT_WINDOW = 256       # repeat draws come from this many recent requests
CLICKS_PER_WAVE = 128     # stream-churn: clicks in one event wave ...
COLD_EVERY = 3            # ... and a cold item in every third wave


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                      # "serve" | "stream"
    scenarios: tuple[str, ...]
    workers: int = 0                  # 0 = in-process tier
    connections: int = 1              # closed-loop /recommend connections
    repeat_fraction: float = 0.0
    waves: bool = False               # a writer connection posts events

    def server_args(self) -> list[str]:
        args = [self.command, "--scenarios", ",".join(self.scenarios),
                "--port", "0"]
        if self.workers:
            args += ["--workers", str(self.workers)]
        return args


# Why each workload exists is stated once, in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("serve-solo", "serve", ("hm:pmmrec",), connections=1),
    Workload("serve-pool-mix", "serve",
             ("hm:pmmrec", "kwai:sasrec", "bili:pmmrec-text"), workers=2,
             connections=2, repeat_fraction=0.5),
    Workload("stream-churn", "stream", ("hm:pmmrec",), connections=1,
             waves=True),
)}


class HistoryPool:
    """Distinct histories of one dataset, in a seeded random order.

    The pool holds every contiguous window of every user sequence — the
    prefixes of each suffix — deduplicated, so a fresh draw is a history
    the run has never sent (hm alone gives about 44k).
    """

    def __init__(self, dataset, rng: np.random.Generator):
        seen: set[tuple[int, ...]] = set()
        for seq in dataset.sequences:
            items = [int(i) for i in seq]
            for end in range(1, len(items) + 1):
                for start in range(end):
                    seen.add(tuple(items[start:end]))
        histories = sorted(seen)
        order = rng.permutation(len(histories))
        self._histories = [list(histories[i]) for i in order]
        self._next = 0

    def __len__(self) -> int:
        return len(self._histories)

    def fresh(self) -> list[int]:
        if self._next >= len(self._histories):
            raise RuntimeError("history pool exhausted; the run would "
                               "start repeating histories")
        history = self._histories[self._next]
        self._next += 1
        return history


@dataclass
class Request:
    scenario: str                     # "dataset:model"
    history: list[int]
    body: bytes

    @classmethod
    def recommend(cls, scenario: str, history: list[int]) -> "Request":
        dataset, model = scenario.split(":")
        return cls(scenario, history, json.dumps(
            {"dataset": dataset, "model": model, "history": history,
             "k": K}).encode())


class RequestStream:
    """The seeded /recommend stream shared by a workload's connections.

    Scenarios are taken round-robin. With probability
    ``repeat_fraction`` a request repeats a history sent for the same
    scenario among its last ``RECENT_WINDOW`` requests (well inside the
    1024-entry LRU); otherwise it draws a history never sent before.
    """

    def __init__(self, pools: dict[str, HistoryPool], scenarios: list[str],
                 repeat_fraction: float, rng: np.random.Generator):
        self.pools = pools
        self.scenarios = scenarios
        self.repeat_fraction = repeat_fraction
        self.rng = rng
        self.recent: dict[str, list[list[int]]] = {s: [] for s in scenarios}
        self.sent = 0
        self._lock = threading.Lock()

    def next(self) -> Request:
        with self._lock:
            scenario = self.scenarios[self.sent % len(self.scenarios)]
            self.sent += 1
            recent = self.recent[scenario]
            repeat = bool(recent) and self.rng.random() < self.repeat_fraction
            if repeat:
                history = recent[int(self.rng.integers(len(recent)))]
            else:
                history = self.pools[scenario].fresh()
                recent.append(history)
                if len(recent) > RECENT_WINDOW:
                    del recent[0]
        return Request.recommend(scenario, history)


class EventSchedule:
    """Seeded waves of interaction events for ``POST /events``.

    Each wave holds ``CLICKS_PER_WAVE`` clicks by existing users (enough that a
    fine-tune round samples a varied replay buffer rather than re-fitting
    a handful of histories). A click goes
    to an item that followed the user's latest item somewhere in the
    dataset (a successor drawn from the dataset's own transitions), so
    the fine-tune steps see in-distribution data and the eval gate has
    no reason to reject a swap. Every ``COLD_EVERY``-th wave adds one
    cold item carrying text and an image, derived from an existing item
    with a token dropped and noise on the image, clicked by a user.
    """

    def __init__(self, dataset, rng: np.random.Generator):
        self.dataset = dataset
        self.rng = rng
        self.successors: dict[int, list[int]] = {}
        for seq in dataset.sequences:
            for a, b in zip(seq[:-1], seq[1:]):
                self.successors.setdefault(int(a), []).append(int(b))
        self.last = [int(seq[-1]) if len(seq) else 1
                     for seq in dataset.sequences]
        self.waves = 0

    def _click(self) -> dict:
        user = int(self.rng.integers(len(self.last)))
        options = self.successors.get(self.last[user])
        item = (options[int(self.rng.integers(len(options)))] if options
                else int(self.rng.integers(1, self.dataset.num_items + 1)))
        self.last[user] = item
        return {"user": user, "item": item}

    def _cold_item(self) -> dict:
        base = int(self.rng.integers(1, self.dataset.num_items + 1))
        tokens = [int(t) for t in self.dataset.text_tokens[base] if t != 0]
        if len(tokens) > 1:
            del tokens[int(self.rng.integers(len(tokens)))]
        image = self.dataset.images[base] + self.rng.normal(
            0.0, 0.05, self.dataset.images[base].shape)
        user = int(self.rng.integers(len(self.last)))
        return {"user": user,
                "item": {"text_tokens": tokens,
                         "image": np.round(image, 4).tolist(),
                         "topic": int(self.dataset.item_topics[base])}}

    def next_wave(self) -> list[dict]:
        self.waves += 1
        events = [self._click() for _ in range(CLICKS_PER_WAVE)]
        if self.waves % COLD_EVERY == 0:
            events.append(self._cold_item())
        return events
