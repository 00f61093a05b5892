"""The background fine-tune worker and the atomic hot-swap path.

One :class:`FineTuneWorker` per streaming scenario closes the paper's
deployment loop: interaction events (including cold items that exist
only as modality features) flow in through :meth:`ingest`, a background
thread drains the replay buffer into mini-batches and runs incremental
:meth:`~repro.train.trainer.Trainer.train_step` updates on a *shadow*
copy of the serving model, and every ``steps_per_swap`` steps the worker
publishes a new serving generation: model weights, dataset snapshot,
catalogue index and ANN structure — atomically, without dropping
in-flight requests.

The swap protocol (the part that makes "atomic" true):

1. Snapshot the growable dataset under the ingestion lock (immutable by
   construction — growth is by array replacement, see
   :mod:`repro.stream.dataset`).
2. Build the publish model *off the request path*: a fresh instance
   loaded from the shadow's ``state_dict`` (atomic, validate-first —
   see ``Module.load_state_dict``), so serving never observes a
   half-written weight.
3. **Gate the candidate on held-out data** (the part that makes swaps
   *safe*): score it on an eval slice built from *held-out users* —
   their startup leave-one-out examples plus a reservoir of their
   recent events, none of which ever reach the replay buffer — and
   publish only if HR@10/NDCG@10 hold within ``gate_tolerance`` of the
   serving generation on the same slice.
   A failed gate rejects the swap (counted on ``/stats``), optionally
   resets the shadow to the serving weights, and training continues;
   serving never sees the update. ``shadow_mode`` goes further: the old
   generation keeps serving unconditionally while every candidate's
   ranks are logged to a JSONL diff file for offline comparison.
4. Pre-warm a fresh :class:`~repro.serve.index.CatalogIndex` against the
   snapshot — a full re-encode after weight updates, or the
   ``publish_partial`` fast path re-encoding *only new items* when the
   catalogue grew without a weight change. The ANN structure is fitted
   before publication, continuing the retired index's version sequence.
5. ``service.publish_generation`` swaps every serving process's
   micro-batcher onto the new generation — it waits out the batch in
   flight, then runs every later batch (requests already queued
   included) on the new model+index and drops the LRU cache — and only
   then flips the registry entry on one dict assignment.

Requests therefore see old ranks or new ranks, never a mixture — and
with the gate, never a *worse* generation than the tolerance allows.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from .. import nn
from ..obs import metrics, trace
from ..data.batching import pad_sequences
from ..data.catalog import MAX_SEQ_LEN, text_vocab_size
from ..data.splits import EvalExample
from ..serve.index import CatalogIndex
from ..serve.registry import build_model
from ..train.trainer import TrainConfig, Trainer
from .dataset import GrowableDataset
from .events import ColdItemEvent, EventLog, InteractionEvent, ReplayBuffer

__all__ = ["StreamConfig", "SwapReport", "FineTuneWorker"]

GATE_METRICS = ("hr@10", "ndcg@10")


@dataclass
class StreamConfig:
    """Knobs of the online continual-learning loop."""

    batch_size: int = 16         # replayed histories per fine-tune step
    lr: float = 5e-4             # incremental steps use a gentler LR than
                                 # offline training: the model is warm
    clip_norm: float = 5.0
    steps_per_swap: int = 8      # fine-tune steps between hot swaps
    min_events_per_round: int = 8  # wake the worker per this many events
    round_timeout_s: float = 2.0   # ... or when pending events get this old
    buffer_capacity: int = 2048  # replay-buffer histories kept
    max_seq_len: int = MAX_SEQ_LEN
    checkpoint_dir: str | None = None  # versioned ckpt per full swap
    log_tail: int = 4096
    log_path: str | None = None  # optional JSONL event sink
    # -- eval gate (production safety) ------------------------------------
    eval_gate: bool = True       # score the candidate before every swap
    gate_tolerance: float = 0.1  # allowed absolute HR@10/NDCG@10 drop
    eval_set_size: int = 64      # held-out users sampled at startup
                                 # (capped at a quarter of the user base)
    eval_holdout_frac: float = 0.1  # chance a brand-new user is held out
    eval_reservoir: int = 64     # held-out recent-event reservoir capacity
    gate_reset_on_reject: bool = True  # rebuild shadow from serving weights
    # -- prioritized replay -----------------------------------------------
    replay_bias: float = 0.0     # priority exponent (0 = uniform sampling)
    # -- shadow scoring ----------------------------------------------------
    shadow_mode: bool = False    # never publish weight updates, only log
    shadow_log_path: str | None = None  # JSONL rank-diff file
    seed: int = 0


@dataclass
class SwapReport:
    """What one hot swap did (returned by ``POST /swap`` too)."""

    version: int                 # catalogue index version now serving
    kind: str                    # "full" | "catalog" | "skipped"
                                 # | "rejected" | "shadow"
    steps: int                   # fine-tune steps folded into this swap
    new_items: int               # cold items first served by this swap
    reencoded_items: int         # catalogue rows actually re-encoded
    latency_ms: float            # publish latency (encode + fit + flip)
    checkpoint: str | None = None
    gate: dict | None = None     # eval-gate verdict (metrics + deltas)
    fence: dict | None = None    # pool generation fence (workers/acks),
                                 # None on the in-process tier

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _Counters:
    """Ingest/train/swap counters (mutated and snapshotted under one lock)."""

    interactions: int = 0
    cold_items: int = 0
    new_users: int = 0
    held_out: int = 0            # events diverted to the eval reservoir
    steps: int = 0
    swaps: int = 0
    swaps_rejected: int = 0
    shadow_evals: int = 0
    gate_evals: int = 0
    last_loss: float = float("nan")
    last_rejection: dict | None = None
    last_shadow: dict | None = None
    swap_last_ms: float = float("nan")
    round_errors: int = 0
    last_error: str | None = None
    last_error_type: str | None = None


#: Swap phases, in execution order. Each gets a span on a sampled swap
#: trace and a ``repro_stream_swap_phase_seconds{phase=...}`` histogram.
SWAP_PHASES = ("snapshot", "pre_warm", "index_build", "gate",
               "checkpoint", "publish", "fence", "drain")


class FineTuneWorker:
    """Online learner + hot-swapper for one serving scenario."""

    def __init__(self, service, key: tuple[str, str],
                 config: StreamConfig | None = None, start: bool = True):
        self.service = service
        self.registry = service.registry
        self.key = key
        self.config = config or StreamConfig()
        scenario = self.registry.get(*key)
        self.spec = scenario.spec
        # The model must be trainable to fine-tune online; heuristic
        # baselines (popularity, markov) simply can't stream.
        if not hasattr(scenario.model, "training_loss") \
                or not hasattr(scenario.model, "state_dict"):
            raise TypeError(
                f"model {self.spec.model!r} does not support incremental "
                "training; streaming needs the training_loss protocol")
        # Cold items need a model that encodes items from modality
        # features. ID-embedding baselines are sized to the catalogue at
        # construction — exactly the limitation the paper's modality-only
        # design removes — so they serve the event stream but reject
        # cold-item events.
        self.supports_cold_items = bool(
            getattr(scenario.model, "supports_cold_items",
                    hasattr(scenario.model, "encode_items")))

        self.data = GrowableDataset.from_base(scenario.dataset)
        self.log = EventLog(tail_size=self.config.log_tail,
                            path=self.config.log_path)
        self.replay = ReplayBuffer(capacity=self.config.buffer_capacity,
                                   bias=self.config.replay_bias)

        # The shadow: same architecture, same weights, own optimizer.
        dtype = scenario.model.param_dtype
        self.shadow = build_model(self.spec.model, self.data,
                                  seed=self.spec.seed)
        self.shadow.to_dtype(dtype)
        self.shadow.load_state_dict(scenario.model.state_dict())
        self.trainer = Trainer(
            self.shadow, self.data,
            TrainConfig(batch_size=self.config.batch_size,
                        lr=self.config.lr,
                        clip_norm=self.config.clip_norm,
                        max_seq_len=self.config.max_seq_len,
                        seed=self.config.seed),
            pretraining=False)

        # The eval slice is held out by *user*, not by event: an
        # event-level holdout leaks — the user's very next click carries
        # the held-out transition inside its replayed history, and the
        # fine-tune steps would memorize the gate's targets (any
        # candidate would then look great). Instead a sample of users is
        # diverted from replay entirely: their startup leave-one-out
        # examples form the frozen half of the slice, their online
        # events feed the reservoir (see _apply_click), and nothing the
        # optimizer ever sees contains their transitions. Capped at a
        # quarter of the user base so training traffic survives.
        eval_rng = np.random.default_rng(self.config.seed + 7)
        sequences = scenario.dataset.sequences
        eligible = [u for u, seq in enumerate(sequences) if len(seq) >= 3]
        take = min(max(self.config.eval_set_size, 0), len(eligible) // 4)
        picks = (eval_rng.choice(len(eligible), size=take, replace=False)
                 if take else np.empty(0, dtype=np.int64))
        self._eval_users: set[int] = {eligible[int(i)] for i in picks}
        self._eval_frozen: list[EvalExample] = []
        for user in sorted(self._eval_users):
            seq = np.asarray(sequences[user], dtype=np.int64)
            self._eval_frozen.append(EvalExample(
                history=seq[:-1][-self.config.max_seq_len:],
                target=int(seq[-1])))
        self._eval_reservoir: list[EvalExample] = []
        self._holdout_seen = 0
        # Serving-side eval cache: per-example ranks, valid for one
        # (serving model, catalogue size) pair — see _gate_evaluate.
        self._baseline: dict | None = None

        self.counters = _Counters()
        # Registry mirror (Prometheus view on /metrics): counters are
        # scenario-labeled and monotonic across worker generations;
        # _Counters stays the per-instance truth behind stats_json().
        scope = {"scenario": f"{key[0]}:{key[1]}"}
        self._scope = scope
        self._m_events = {
            kind: metrics.counter("repro_stream_events_total",
                                  "ingested events by kind",
                                  labels={**scope, "kind": kind})
            for kind in ("interaction", "cold_item")}
        self._m_steps = metrics.counter(
            "repro_stream_steps_total", "incremental fine-tune steps",
            labels=scope)
        self._m_rounds = metrics.counter(
            "repro_stream_rounds_total", "fine-tune rounds completed",
            labels=scope)
        self._m_round_errors = metrics.counter(
            "repro_stream_round_errors_total",
            "fine-tune rounds that raised", labels=scope)
        self._m_gate_evals = metrics.counter(
            "repro_stream_gate_evals_total", "eval-gate runs", labels=scope)
        self._m_swaps = {
            kind: metrics.counter("repro_stream_swaps_total",
                                  "hot-swap attempts by outcome",
                                  labels={**scope, "kind": kind})
            for kind in ("full", "catalog", "skipped", "rejected", "shadow")}
        self._m_round_seconds = metrics.histogram(
            "repro_stream_round_seconds", "fine-tune round duration",
            labels=scope)
        self._m_swap_seconds = metrics.histogram(
            "repro_stream_swap_seconds", "published hot-swap latency",
            labels=scope)
        self._m_swap_phase = {
            name: metrics.histogram("repro_stream_swap_phase_seconds",
                                    "hot-swap phase latency",
                                    labels={**scope, "phase": name})
            for name in SWAP_PHASES}
        metrics.gauge("repro_stream_buffer_depth",
                      "replay-buffer histories held",
                      labels=scope).set_function(lambda: len(self.replay))
        metrics.gauge("repro_stream_catalogue_items",
                      "catalogue size including cold items",
                      labels=scope).set_function(lambda: self.data.num_items)
        # Self-monitoring inputs (repro.obs.health default rules): how
        # long since this scenario last published, and how many gate
        # rejections in a row. Pull-mode so the timeline sampler reads
        # live values with zero hot-path bookkeeping.
        metrics.gauge("repro_stream_staleness_seconds",
                      "seconds since this scenario last published a swap",
                      labels=scope).set_function(
                          lambda: time.time() - self._last_swap_time)
        metrics.gauge("repro_stream_rejection_streak",
                      "consecutive eval-gate swap rejections",
                      labels=scope).set_function(
                          lambda: self._rejection_streak)
        # Per-instance (unregistered) swap-latency histogram: stats_json
        # reads p50/p99 from its ~64 buckets in O(1) — the bounded deque
        # + percentile pass it replaces — without bleeding another
        # worker generation's swaps into this worker's numbers.
        self._swap_hist = metrics.Histogram("swap_latency_seconds")
        self._published_items = scenario.dataset.num_items
        self._started = time.time()
        self._last_swap_time = self._started
        self._rejection_streak = 0
        self._events_since_round = 0
        self._events_at_last_swap = 0
        self._steps_since_swap = 0
        self._rng = np.random.default_rng(self.config.seed)
        # Ingestion-side randomness (holdout draws) gets its own stream:
        # request threads must never race the worker thread's sampler.
        self._ingest_rng = np.random.default_rng(self.config.seed + 13)
        self._ingest_lock = threading.Lock()
        self._work_lock = threading.RLock()
        # Innermost lock: guards every counter mutation and the
        # stats_json snapshot, never held across training or I/O.
        self._stats_lock = threading.Lock()
        self._cond = threading.Condition()
        self._closed = False
        self._thread: threading.Thread | None = None
        if start:
            self._thread = threading.Thread(
                target=self._loop,
                name=f"repro-stream-{key[0]}:{key[1]}", daemon=True)
            self._thread.start()

    # -- ingestion (request threads) -----------------------------------------

    def _validate(self, events: list) -> None:
        """Reject a batch atomically before applying any of it.

        Simulates the batch: cold items raise when the model cannot host
        them or their modality payload is malformed (token ids outside
        the vocabulary, wrong image shape — which would otherwise only
        blow up later, inside the fine-tune thread or the swap encode);
        interaction ids must fall inside the catalogue as it will exist
        *at that point of the batch* (an interaction may reference a
        cold item registered earlier in the same batch).
        """
        items = self.data.num_items
        users = len(self.data.sequences)
        vocab = text_vocab_size()
        image_shape = self.data.images.shape[1:]
        for position, event in enumerate(events):
            if isinstance(event, ColdItemEvent):
                if not self.supports_cold_items:
                    raise ValueError(
                        f"event[{position}]: model {self.spec.model!r} is "
                        "ID-based and cannot host cold items; only "
                        "modality-encoding models can")
                tokens = np.asarray(event.text_tokens)
                if tokens.size and (tokens.min() < 0
                                    or tokens.max() >= vocab):
                    raise ValueError(
                        f"event[{position}]: text token ids must be in "
                        f"[0, {vocab}); got "
                        f"[{tokens.min()}, {tokens.max()}]")
                if event.image is not None \
                        and np.asarray(event.image).shape != image_shape:
                    raise ValueError(
                        f"event[{position}]: image shape "
                        f"{np.asarray(event.image).shape} != catalogue "
                        f"{image_shape}")
                items += 1
                if event.user is not None:
                    users = self._check_user(position, event.user, users)
            else:
                if not 1 <= event.item <= items:
                    raise ValueError(
                        f"event[{position}]: item id {event.item} outside "
                        f"catalogue [1, {items}]")
                users = self._check_user(position, event.user, users)

    @staticmethod
    def _check_user(position: int, user: int, users: int) -> int:
        if user == -1 or user == users:
            return users + 1
        if not 0 <= user < users:
            raise ValueError(f"event[{position}]: user id {user} outside "
                             f"[0, {users}] (use -1 for a new user)")
        return users

    def ingest(self, events: list) -> dict:
        """Apply a batch of parsed events; returns an ingestion receipt.

        Atomic per batch: the whole list is validated first, then applied
        under the ingestion lock. Cold items are registered synchronously
        (their assigned ids are in the receipt, so a client can reference
        them in follow-up events immediately); learning from them happens
        asynchronously in the worker; *serving* them begins at the next
        hot swap.
        """
        with self._ingest_lock:
            if self._closed:
                raise RuntimeError("stream worker is closed")
            self._validate(events)
            cold_ids = []
            interactions = cold = new_users = held = 0
            for event in events:
                if isinstance(event, ColdItemEvent):
                    item = self.data.add_item(event.text_tokens,
                                              image=event.image,
                                              topic=event.topic)
                    cold_ids.append(item)
                    cold += 1
                    if event.user is not None:
                        fresh, out = self._apply_click(event.user, item)
                        new_users += fresh
                        held += out
                        interactions += 1
                else:
                    fresh, out = self._apply_click(event.user, event.item)
                    new_users += fresh
                    held += out
                    interactions += 1
            self.log.extend(events)
            with self._stats_lock:
                self.counters.interactions += interactions
                self.counters.cold_items += cold
                self.counters.new_users += new_users
                self.counters.held_out += held
            self._m_events["interaction"].inc(interactions)
            self._m_events["cold_item"].inc(cold)
            receipt = {"accepted": len(events),
                       "interactions": interactions,
                       "cold_items": cold,
                       "cold_item_ids": cold_ids,
                       "new_users": new_users,
                       "held_out": held,
                       "events_total": self.log.total,
                       "buffer_size": len(self.replay)}
        with self._cond:
            self._events_since_round += len(events)
            self._cond.notify_all()
        return receipt

    def _apply_click(self, user: int | None, item: int) -> tuple[int, int]:
        """Apply one interaction; returns (new-user flag, held-out flag).

        A trainable user's transition enters the replay buffer with a
        priority weight — cold-item targets and short-history
        (under-served) users are boosted, which ``replay_bias`` turns
        into oversampling. A *held-out* user's transition is instead
        reservoir-sampled into the gate's eval slice: their events still
        grow the dataset (serving history must stay complete) but are
        invisible to the optimizer, which is what makes them a fair
        measurement of the next candidate. Brand-new users are assigned
        to the held-out pool with probability ``eval_holdout_frac`` so
        the slice tracks the live distribution as the user base grows.
        """
        fresh = user is None or user == -1 \
            or user == len(self.data.sequences)
        if fresh:
            uid = len(self.data.sequences)
            if self.config.eval_holdout_frac > 0.0 \
                    and self._ingest_rng.random() \
                    < self.config.eval_holdout_frac:
                self._eval_users.add(uid)
        else:
            uid = int(user)
        history = self.data.add_interaction(user, item)
        if history.size < 2:
            # A single-click history has no next-item transition to learn
            # from (or evaluate); the user enters the window on click 2.
            return int(fresh), 0
        if uid in self._eval_users:
            self._reservoir_add(EvalExample(
                history=history[-self.config.max_seq_len - 1:-1],
                target=int(item)))
            return int(fresh), 1
        weight = 1.0
        if item > self.data.base_num_items:
            weight *= 4.0                   # cold item: few events carry it
        weight *= 1.0 + 1.0 / history.size  # under-served (short) history
        self.replay.push(history[-self.config.max_seq_len:], weight=weight)
        return int(fresh), 0

    def _reservoir_add(self, example: EvalExample) -> None:
        """Classic reservoir sampling into the held-out eval slice."""
        capacity = max(self.config.eval_reservoir, 0)
        if capacity == 0:
            return
        self._holdout_seen += 1
        if len(self._eval_reservoir) < capacity:
            self._eval_reservoir.append(example)
        else:
            slot = int(self._ingest_rng.integers(0, self._holdout_seen))
            if slot >= capacity:
                return
            self._eval_reservoir[slot] = example

    # -- the background loop (worker thread) ---------------------------------

    def _loop(self) -> None:
        # Same size-or-timeout trigger as the request micro-batcher: a
        # round starts when enough events queued *or* the oldest pending
        # event has waited round_timeout_s (a trickle still gets
        # learned). With nothing pending the wait is untimed — ingest()
        # and close() notify — so an idle worker never spins the
        # scheduler.
        while True:
            with self._cond:
                deadline = None
                while not self._closed:
                    pending = self._events_since_round
                    if pending >= self.config.min_events_per_round:
                        break
                    if pending > 0:
                        now = time.monotonic()
                        if deadline is None:
                            deadline = now + self.config.round_timeout_s
                        if now >= deadline:
                            break
                        self._cond.wait(timeout=deadline - now)
                    else:
                        deadline = None
                        self._cond.wait()
                if self._closed:
                    return
                self._events_since_round = 0
            # The learner thread must survive a bad round (a transient
            # encode failure, a poisoned batch): serving continues on the
            # last published generation either way, so record the error
            # where /stats surfaces it and keep draining events — a dead
            # silent thread would masquerade as "no traffic" while
            # staleness grew unbounded. _round already rolled the shadow
            # back to its pre-round state, so no half-applied update can
            # survive into a later swap.
            try:
                self._round()
            except Exception as exc:  # noqa: BLE001 - surfaced via stats
                with self._stats_lock:
                    self.counters.round_errors += 1
                    self.counters.last_error = \
                        f"{type(exc).__name__}: {exc}"
                    self.counters.last_error_type = type(exc).__name__
                self._m_round_errors.inc()
                time.sleep(0.1)      # don't spin if the failure persists

    def _round(self) -> None:
        """Up to ``steps_per_swap`` incremental steps, then a hot swap.

        The step loop runs under a rollback guard: an exception
        mid-round (a poisoned batch blowing up in the loss, an encode
        failure) restores the shadow's weights, the optimizer's moments
        and the step counter to their pre-round values before the error
        propagates — a later swap can therefore never publish a
        half-applied update.
        """
        tick = time.perf_counter()
        with self._work_lock:
            guard = self._round_guard()
            try:
                for _ in range(self.config.steps_per_swap):
                    if not self._train_one_step():
                        break
            except Exception:
                self._round_rollback(guard)
                raise
            self._swap_locked()
        self._m_rounds.inc()
        self._m_round_seconds.observe(time.perf_counter() - tick)

    def _round_guard(self) -> dict:
        """Pre-round snapshot of everything a failed round may corrupt."""
        return {"state": {name: value.copy() for name, value
                          in self.shadow.state_dict().items()},
                "optimizer": self.trainer.optimizer.state_dict(),
                "steps_since_swap": self._steps_since_swap}

    def _round_rollback(self, guard: dict) -> None:
        """Restore the pre-round shadow/optimizer/counter state."""
        self.shadow.load_state_dict(guard["state"])
        self.trainer.optimizer.load_state_dict(guard["optimizer"])
        with self._stats_lock:
            self._steps_since_swap = guard["steps_since_swap"]

    def _train_one_step(self) -> bool:
        histories = self.replay.sample(self._rng, self.config.batch_size)
        if not histories:
            return False
        batch = pad_sequences(histories, max_len=self.config.max_seq_len)
        loss = self.trainer.train_step(batch.item_ids, batch.mask)
        with self._stats_lock:
            self.counters.steps += 1
            self.counters.last_loss = loss
            self._steps_since_swap += 1
        self._m_steps.inc()
        return True

    # -- the eval gate -------------------------------------------------------

    def _eval_examples(self) -> list[EvalExample]:
        """The gate's eval slice (call under the ingestion lock)."""
        return self._eval_frozen + list(self._eval_reservoir)

    def _ranked_eval(self, model, dataset, examples: list[EvalExample],
                     catalog: np.ndarray | None = None
                     ) -> tuple[dict, np.ndarray]:
        """HR@10/NDCG@10 (plus raw ranks) of ``model`` on ``examples``.

        ``catalog`` short-circuits the scorer's full catalogue encode
        with a precomputed item matrix (e.g. the publish index's) — the
        expensive half of a gate eval when the example count is small.
        """
        from ..eval.metrics import metrics_from_ranks, rank_of_target
        from ..eval.scoring import batch_scorer
        from ..nn.tensor import no_grad
        scorer = batch_scorer(model, dataset, catalog=catalog)
        was_training = bool(getattr(model, "training", False))
        if was_training:
            model.eval()
        try:
            chunks = []
            with no_grad():
                for start in range(0, len(examples), 128):
                    chunk = examples[start:start + 128]
                    scores = scorer([ex.history for ex in chunk])
                    targets = np.array([ex.target for ex in chunk])
                    chunks.append(rank_of_target(scores, targets))
        finally:
            if was_training:
                model.train(True)
        ranks = (np.concatenate(chunks) if chunks
                 else np.empty(0, dtype=np.int64))
        return metrics_from_ranks(ranks, ks=(10,)), ranks

    def _gate_evaluate(self, candidate, serving, snapshot,
                       examples: list[EvalExample],
                       candidate_catalog: np.ndarray | None = None,
                       serving_catalog: np.ndarray | None = None) -> dict:
        """Score candidate vs serving generation on the held-out slice.

        The candidate side reuses ``candidate_catalog`` — the publish
        index's matrix, already encoded by the swap path — so gating
        adds no catalogue encode of its own *and* scores exactly what
        serving would serve. The serving side is cached *per example*
        (keyed by identity — frozen examples never change and reservoir
        churn only replaces a few entries between swaps) together with
        its catalogue matrix, valid for one (serving model, catalogue
        size) pair: at steady state the gate costs one candidate
        user-encoder pass plus a handful of incremental baseline scores
        per swap, not two full evals. Both sides score against the
        *same* snapshot so catalogue growth cannot masquerade as a
        metric move.
        """
        tolerance = self.config.gate_tolerance
        start = time.perf_counter()
        if not examples:
            empty = np.empty(0, dtype=np.int64)
            return {"accepted": True, "reason": "no_eval_examples",
                    "examples": 0, "tolerance": tolerance,
                    "candidate": {}, "baseline": {}, "deltas": {},
                    "eval_ms": 0.0,
                    "_candidate_ranks": empty, "_baseline_ranks": empty}
        from ..eval.metrics import metrics_from_ranks
        candidate_metrics, candidate_ranks = self._ranked_eval(
            candidate, snapshot, examples, catalog=candidate_catalog)
        cached = self._baseline
        if (cached is None or cached["model"] is not serving
                or cached["items"] != snapshot.num_items):
            cached = {"model": serving, "items": snapshot.num_items,
                      "catalog": None, "ranks": {}}
        # id() keys are safe because the mapped value keeps the example
        # alive (a freed id could otherwise be reused by a new example).
        known: dict[int, tuple[EvalExample, int]] = cached["ranks"]
        missing = [ex for ex in examples if id(ex) not in known]
        if missing:
            if cached["catalog"] is None and serving_catalog is not None:
                cached["catalog"] = serving_catalog
            if cached["catalog"] is None:
                catalog = serving.encode_catalog(snapshot)
                if self.registry.dtype is not None \
                        and catalog.dtype != np.dtype(self.registry.dtype):
                    # Serve-side fidelity: score through the same cast
                    # the serving index applies (see CatalogIndex).
                    catalog = catalog.astype(self.registry.dtype)
                cached["catalog"] = catalog
            _, missing_ranks = self._ranked_eval(serving, snapshot, missing,
                                                 catalog=cached["catalog"])
            for example, rank in zip(missing, missing_ranks):
                known[id(example)] = (example, int(rank))
        baseline_ranks = np.array([known[id(ex)][1] for ex in examples],
                                  dtype=np.int64)
        baseline_metrics = metrics_from_ranks(baseline_ranks, ks=(10,))
        self._baseline = cached
        deltas = {name: float(candidate_metrics[name]
                              - baseline_metrics[name])
                  for name in GATE_METRICS}
        failed = sorted(name for name, delta in deltas.items()
                        if delta < -tolerance)
        verdict = {
            "accepted": not failed,
            "reason": ("ok" if not failed else
                       "metric_drop:" + ",".join(failed)),
            "examples": len(examples),
            "tolerance": tolerance,
            "candidate": {k: float(v) for k, v in candidate_metrics.items()},
            "baseline": {k: float(v) for k, v in baseline_metrics.items()},
            "deltas": deltas,
            "eval_ms": (time.perf_counter() - start) * 1e3,
        }
        verdict["_candidate_ranks"] = candidate_ranks
        verdict["_baseline_ranks"] = baseline_ranks
        return verdict

    @staticmethod
    def _gate_summary(verdict: dict) -> dict:
        """The JSON-safe slice of a gate verdict (no rank arrays)."""
        return {k: v for k, v in verdict.items()
                if not k.startswith("_")}

    def _log_shadow(self, verdict: dict, steps: int) -> None:
        """Append one candidate-vs-serving rank diff to the JSONL file."""
        path = self.config.shadow_log_path
        if not path:
            return
        record = {"time": time.time(),
                  "scenario": f"{self.key[0]}:{self.key[1]}",
                  "steps": steps,
                  **self._gate_summary(verdict),
                  "candidate_ranks":
                  [int(r) for r in verdict.get("_candidate_ranks", ())],
                  "baseline_ranks":
                  [int(r) for r in verdict.get("_baseline_ranks", ())]}
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.flush()

    def _reset_shadow(self, model) -> None:
        """Discard the rejected update: shadow ← serving, fresh optimizer.

        The rejected round's gradients are suspect wholesale, and AdamW
        moments accumulated from them would keep steering subsequent
        steps — so both are dropped. The replay buffer is left alone:
        the FIFO window ages poisoned events out under clean traffic,
        and until then the gate keeps rejecting (which is the point).
        """
        self.shadow.load_state_dict(model.state_dict())
        config = self.trainer.config
        params = [p for p in self.shadow.parameters() if p.requires_grad]
        self.trainer.optimizer = nn.AdamW(
            params, lr=config.lr, weight_decay=config.weight_decay)

    # -- hot swap ------------------------------------------------------------

    def run_steps(self, steps: int) -> int:
        """Synchronously run up to ``steps`` fine-tune steps (tests/CLI)."""
        with self._work_lock:
            done = 0
            for _ in range(steps):
                if not self._train_one_step():
                    break
                done += 1
            return done

    def swap(self) -> SwapReport:
        """Publish the current shadow weights + catalogue; blocks training.

        Safe to call from any thread (serialized with the training loop
        on the work lock). No-ops with ``kind="skipped"`` when there is
        nothing to publish — no steps taken and no new items. Weight
        changes must pass the eval gate (``kind="rejected"`` when they
        don't) and are withheld entirely in shadow mode
        (``kind="shadow"``).
        """
        with self._work_lock:
            return self._swap_locked()

    def _swap_locked(self) -> SwapReport:
        # The swap is latency-critical and GIL-convoy-prone: the gate
        # eval and the index re-encode issue many short numpy ops, and
        # on a saturated interpreter every GIL release lets a spinning
        # request thread keep the GIL for a full switch interval (5ms
        # by default) — inflating a ~100ms swap several-fold on small
        # hosts. Bounding the interval for the swap's duration caps
        # each wait; request threads lose nothing measurable (they are
        # numpy-bound too and the swap is rare).
        previous = sys.getswitchinterval()
        sys.setswitchinterval(5e-4)
        try:
            return self._swap_impl()
        finally:
            sys.setswitchinterval(previous)

    def _swap_impl(self) -> SwapReport:
        start = time.perf_counter()
        ctx = trace.start("swap", f"{self.key[0]}:{self.key[1]}")
        if ctx is not None:
            ctx.t0 = start

        def phase(name: str, t0: float, t1: float) -> None:
            self._m_swap_phase[name].observe(t1 - t0)
            if ctx is not None:
                ctx.add_span(name, t0, t1)

        with self._ingest_lock:
            snapshot = self.data.snapshot()
            new_ids = self.data.new_item_ids(self._published_items)
            events_total = self.log.total
            examples = self._eval_examples()
        phase("snapshot", start, time.perf_counter())
        steps = self._steps_since_swap
        old = self.registry.get(*self.key)
        if steps == 0 and new_ids.size == 0:
            self._m_swaps["skipped"].inc()
            if ctx is not None:
                trace.finish(ctx, swap_kind="skipped")
            return SwapReport(version=old.recommender.index_version,
                              kind="skipped", steps=0, new_items=0,
                              reencoded_items=0, latency_ms=0.0)
        registry = self.registry
        checkpoint = None
        gate_summary = None
        if steps == 0:
            # Catalogue growth without a weight change: every existing
            # row of the serving index is still exact, so share the
            # serving model and re-encode only the new items. Nothing to
            # gate either — the weights are bitwise the serving weights.
            kind, model = "catalog", old.model
            tick = time.perf_counter()
            index = CatalogIndex(model, snapshot, dtype=registry.dtype,
                                 start_version=old.recommender.index_version)
            if old.recommender.index is not None \
                    and not old.recommender.index.stale:
                base_matrix = old.recommender.index.snapshot()[0]
                index.publish_partial(base_matrix, new_ids)
                reencoded = int(new_ids.size)
            else:
                index.refresh()
                reencoded = snapshot.num_items
            phase("index_build", tick, time.perf_counter())
        else:
            kind = "full"
            tick = time.perf_counter()
            model = build_model(self.spec.model, snapshot,
                                seed=self.spec.seed)
            model.to_dtype(self.shadow.param_dtype)
            model.load_state_dict(self.shadow.state_dict())
            phase("pre_warm", tick, (tick := time.perf_counter()))
            # Encode the publish index *before* the gate: the candidate
            # is then gated against the exact matrix that would serve
            # it, and the catalogue encode is paid once — shared by the
            # eval and the publication — instead of once per side.
            index = CatalogIndex(model, snapshot, dtype=registry.dtype,
                                 start_version=old.recommender.index_version)
            index.refresh()
            reencoded = snapshot.num_items
            phase("index_build", tick, time.perf_counter())
            if self.config.eval_gate or self.config.shadow_mode:
                # The serving side can reuse the live index's matrix
                # when the catalogue has not grown since it was built.
                serving_catalog = None
                base = old.recommender.index
                if base is not None and not base.stale:
                    base_matrix = base.snapshot()[0]
                    if base_matrix.shape[0] == snapshot.num_items + 1:
                        serving_catalog = base_matrix
                tick = time.perf_counter()
                verdict = self._gate_evaluate(model, old.model, snapshot,
                                              examples, index.snapshot()[0],
                                              serving_catalog)
                phase("gate", tick, time.perf_counter())
                gate_summary = self._gate_summary(verdict)
                with self._stats_lock:
                    self.counters.gate_evals += 1
                self._m_gate_evals.inc()
                if self.config.shadow_mode:
                    # Keep serving the old generation unconditionally;
                    # the candidate's ranks go to the diff log and the
                    # shadow keeps training (steps accumulate).
                    self._log_shadow(verdict, steps)
                    latency_ms = (time.perf_counter() - start) * 1e3
                    with self._stats_lock:
                        self.counters.shadow_evals += 1
                        self.counters.last_shadow = dict(
                            gate_summary, steps=steps, time=time.time())
                    self._m_swaps["shadow"].inc()
                    if ctx is not None:
                        trace.finish(ctx, latency_ms / 1e3, swap_kind="shadow")
                    return SwapReport(
                        version=old.recommender.index_version,
                        kind="shadow", steps=steps,
                        new_items=int(new_ids.size), reencoded_items=0,
                        latency_ms=latency_ms, gate=gate_summary)
                if not verdict["accepted"]:
                    rejection = dict(gate_summary, steps_discarded=steps,
                                     time=time.time())
                    if self.config.gate_reset_on_reject:
                        self._reset_shadow(old.model)
                        rejection["shadow_reset"] = True
                    latency_ms = (time.perf_counter() - start) * 1e3
                    with self._stats_lock:
                        self.counters.swaps_rejected += 1
                        self.counters.last_rejection = rejection
                        self._rejection_streak += 1
                        if self.config.gate_reset_on_reject:
                            self._steps_since_swap = 0
                    self._m_swaps["rejected"].inc()
                    if ctx is not None:
                        trace.finish(ctx, latency_ms / 1e3, swap_kind="rejected")
                    return SwapReport(
                        version=old.recommender.index_version,
                        kind="rejected", steps=steps,
                        new_items=int(new_ids.size), reencoded_items=0,
                        latency_ms=latency_ms, gate=gate_summary)
                # The accepted candidate becomes the serving generation:
                # promote its per-example ranks and its catalogue matrix
                # to the baseline cache, so the next gate's serving side
                # costs only the reservoir entries that changed since.
                self._baseline = {
                    "model": model, "items": snapshot.num_items,
                    "catalog": index.snapshot()[0],
                    "ranks": {id(ex): (ex, int(rank)) for ex, rank in
                              zip(examples, verdict["_candidate_ranks"])}}
            tick = time.perf_counter()
            checkpoint = self._save_checkpoint(steps)
            phase("checkpoint", tick, time.perf_counter())
        tick = time.perf_counter()
        scenario = registry.build_scenario(self.spec, snapshot, model,
                                           index=index)
        # The service owns how a generation goes live: a batcher swap
        # in-process, shared-memory publish + generation fence on the
        # pooled tier, then the registry flip.
        fence_info = self.service.publish_generation(scenario)
        done = time.perf_counter()
        # Render the publish/fence/drain phases as contiguous spans from
        # the durations the service reported, ending exactly at `done` so
        # sampled swap traces keep full coverage.
        edge = tick
        for name in ("publish", "fence", "drain"):
            seconds = max(float(fence_info.get(f"{name}_s", 0.0)), 0.0)
            end = done if name == "drain" else min(edge + seconds, done)
            phase(name, edge, end)
            edge = end
        fence_report = None
        if fence_info.get("workers", 0) > 0:
            fence_report = {"workers": fence_info["workers"],
                            "acked": fence_info["acked"],
                            "errors": fence_info.get("errors", []),
                            "generation": fence_info.get("generation"),
                            "fence_ms": round(
                                fence_info.get("fence_s", 0.0) * 1e3, 3)}
        latency_ms = (done - start) * 1e3
        self._published_items = snapshot.num_items
        with self._stats_lock:
            self._steps_since_swap = 0
            self._events_at_last_swap = events_total
            self._last_swap_time = time.time()
            self._rejection_streak = 0     # a publish clears the streak
            self.counters.swaps += 1
            self.counters.swap_last_ms = latency_ms
        self._m_swaps[kind].inc()
        self._swap_hist.observe(latency_ms / 1e3)
        self._m_swap_seconds.observe(latency_ms / 1e3)
        if ctx is not None:
            trace.finish(ctx, latency_ms / 1e3, swap_kind=kind,
                         version=index.version, steps=steps)
        return SwapReport(version=index.version, kind=kind, steps=steps,
                          new_items=int(new_ids.size),
                          reencoded_items=reencoded,
                          latency_ms=latency_ms, checkpoint=checkpoint,
                          gate=gate_summary, fence=fence_report)

    def _save_checkpoint(self, steps: int) -> str | None:
        directory = self.config.checkpoint_dir
        if not directory:
            return None
        from ..nn.serialization import save_checkpoint
        version = self.counters.swaps + 1
        path = os.path.join(
            directory,
            f"{self.spec.dataset}-{self.spec.model}-v{version}.npz")
        save_checkpoint(self.shadow, path,
                        meta={"swap_version": version,
                              "fine_tune_steps": self.counters.steps,
                              "steps_in_swap": steps,
                              "scenario": f"{self.key[0]}:{self.key[1]}"})
        return path

    # -- introspection -------------------------------------------------------

    def stats_json(self) -> dict:
        """Drift/lag counters for ``/stats`` and ``repro stream``.

        The snapshot is taken under the counters lock, so concurrent
        ``_round`` / ``ingest`` mutations can never produce a torn read
        (e.g. a negative ``events_since_swap`` or ``steps_since_swap >
        steps``); monotonic counters observed across successive calls
        never move backwards.
        """
        config = self.config
        with self._stats_lock:
            counters = self.counters
            events_total = self.log.total
            swap_last_ms = counters.swap_last_ms
            snap = {"events_total": events_total,
                    "interactions": counters.interactions,
                    "cold_items": counters.cold_items,
                    "new_users": counters.new_users,
                    "held_out": counters.held_out,
                    "steps": counters.steps,
                    "steps_since_swap": self._steps_since_swap,
                    "last_loss": counters.last_loss,
                    "swaps": counters.swaps,
                    "swaps_rejected": counters.swaps_rejected,
                    "shadow_evals": counters.shadow_evals,
                    "gate_evals": counters.gate_evals,
                    "last_rejection": counters.last_rejection,
                    "last_shadow": counters.last_shadow,
                    "round_errors": counters.round_errors,
                    "last_error": counters.last_error,
                    "last_error_type": counters.last_error_type,
                    "events_since_swap": events_total
                    - self._events_at_last_swap,
                    "staleness_s": time.time() - self._last_swap_time,
                    "rejection_streak": self._rejection_streak,
                    "published_items": self._published_items,
                    "eval_users": len(self._eval_users),
                    "eval_examples": (len(self._eval_frozen)
                                      + len(self._eval_reservoir))}
        snap.update({
            "buffer_size": len(self.replay),
            "buffer_pushed": self.replay.pushed,
            "catalogue_items": self.data.num_items,
            "supports_cold_items": self.supports_cold_items,
            "eval_gate": {"enabled": config.eval_gate,
                          "tolerance": config.gate_tolerance,
                          "holdout_frac": config.eval_holdout_frac,
                          "shadow_mode": config.shadow_mode},
            "replay_bias": self.replay.bias,
            "index_version":
            self.registry.get(*self.key).recommender.index_version})
        # O(1) over the histogram's ~64 buckets, however long the worker
        # has been swapping (the pre-obs deque needed a percentile pass).
        swap_snap = self._swap_hist.snapshot()
        if swap_snap.total:
            snap["swap_p50_ms"] = float(swap_snap.quantile(0.50) * 1e3)
            snap["swap_p99_ms"] = float(swap_snap.quantile(0.99) * 1e3)
            snap["swap_last_ms"] = float(swap_last_ms)
        return snap

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop the background thread; pending events stay unlearned."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        # Detach this worker's pull-gauges from the process-global
        # registry: a closed worker's staleness callback would grow
        # forever and keep the health engine's worst-label-set
        # threshold rules firing for a scenario nobody serves anymore.
        # The values fall back to the static default of 0.
        for name in ("repro_stream_buffer_depth",
                     "repro_stream_catalogue_items",
                     "repro_stream_staleness_seconds",
                     "repro_stream_rejection_streak"):
            metrics.gauge(name, labels=self._scope).set_function(None)
        self.log.close()

    def __enter__(self) -> "FineTuneWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
