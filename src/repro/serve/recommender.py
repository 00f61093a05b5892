"""The online recommendation session API: ``recommend(history, k)``.

Wraps one (model, dataset) pair behind a request-shaped interface:
score the user's history against the catalogue index under ``no_grad``,
mask out the padding item and (optionally) everything the user has
already seen, and return the top-k via the argpartition-backed
:func:`repro.nn.ops.topk` instead of a full-catalogue sort.

With ``retrieval="ivf"`` the top-k is routed through an approximate
index (:mod:`repro.serve.ann`): the user's query vector
shortlists candidates, only the shortlist is scored exactly, and the
answer is re-ranked genuine model scores. The recommender falls back to
exact full-catalogue scoring whenever approximate recall would be
unsafe — tiny catalogues, an ANN structure stale relative to the
catalogue version, models outside the scoring-kernel protocol, or a
``k`` so large the shortlist would approach the whole catalogue — and
counts every routing decision in :attr:`retrieval_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..nn.ops import topk
from ..obs import metrics, trace
from .ann import ANN_KINDS, IVFIndex, make_ann_index
from .index import CatalogIndex
from .scoring import (encode_queries, model_max_len, score_batch,
                      supports_kernel)

__all__ = ["Recommendation", "Recommender", "RetrievalStats",
           "DEFAULT_MIN_ANN_ITEMS"]

# Per-stage latency histograms, recorded once per *batch* (a handful of
# perf_counter calls amortized over the whole flush — the per-request
# cost budget lives in benchmarks/test_obs_perf.py). A sampled request
# additionally gets the same boundaries stamped into its trace context
# as spans, at zero extra timing cost.
_STAGES = ("encode", "shortlist", "rerank", "topk", "score", "mask")
_STAGE_HIST = {name: metrics.histogram(
    "repro_serve_stage_seconds",
    "per-batch serving stage latency", labels={"stage": name})
    for name in _STAGES}


def _stage(name: str, start: float, end: float,
           ctx: trace.TraceContext | None) -> None:
    """Record one stage boundary: histogram always, span when sampled."""
    _STAGE_HIST[name].observe(end - start)
    if ctx is not None:
        ctx.add_span(name, start, end)

#: Below this catalogue size exact scoring is both safer and faster than
#: any shortlist (one small matmul beats candidate bookkeeping).
DEFAULT_MIN_ANN_ITEMS = 1024


@dataclass
class Recommendation:
    """Top-k answer for one request.

    ``items`` are catalogue item ids best-first; ``scores`` the matching
    model scores. When exclusion leaves fewer than ``k`` candidates the
    answer is simply shorter than ``k`` — excluded/padding slots are
    never shipped. ``index_version`` identifies the catalogue snapshot
    that produced the answer.
    """

    items: np.ndarray
    scores: np.ndarray
    index_version: int

    def to_json(self) -> dict:
        """JSON-serializable form used by the HTTP endpoint."""
        return {"items": [int(i) for i in self.items],
                "scores": [float(s) for s in self.scores],
                "index_version": self.index_version}


@dataclass
class RetrievalStats:
    """How batches were routed: approximate, exact, or exact-by-fallback."""

    ann_batches: int = 0
    exact_batches: int = 0
    fallbacks: dict = field(default_factory=dict)

    def record(self, used_ann: bool, reason: str | None) -> None:
        if used_ann:
            self.ann_batches += 1
            metrics.counter("repro_serve_batches_total",
                            "scored batches by retrieval path",
                            labels={"path": "ann"}).inc()
        else:
            self.exact_batches += 1
            metrics.counter("repro_serve_batches_total",
                            "scored batches by retrieval path",
                            labels={"path": "exact"}).inc()
            if reason is not None:
                self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
                metrics.counter("repro_serve_ann_fallbacks_total",
                                "exact-scoring fallbacks by reason",
                                labels={"reason": reason}).inc()

    def to_json(self) -> dict:
        return {"ann_batches": self.ann_batches,
                "exact_batches": self.exact_batches,
                "fallbacks": dict(self.fallbacks)}


class Recommender:
    """Session-style top-k retrieval for one (dataset, model) scenario.

    Kernel-capable models score through a :class:`CatalogIndex` (built
    lazily, shared, versioned); heuristic models without the catalogue
    protocol fall back to their own ``score_histories``. The model is
    put in eval mode once at construction so the request path never
    touches training state.

    ``retrieval`` selects the top-k backend, one of
    :data:`repro.serve.ann.ANN_KINDS` (case-insensitive): ``"exact"``
    (default) or ``"ivf"``; any other name is a ``ValueError`` for every
    model, including those that never consult an index. ``ann_params``
    are forwarded to the :class:`IVFIndex` constructor (``nlist``,
    ``nprobe``, ...). ``min_ann_items`` is the catalogue-size floor below
    which the ANN path is never taken.
    """

    def __init__(self, model, dataset, index: CatalogIndex | None = None,
                 exclude_seen: bool = True, index_dtype=None,
                 retrieval: str = "exact", ann_params: dict | None = None,
                 min_ann_items: int = DEFAULT_MIN_ANN_ITEMS):
        self.model = model
        self.dataset = dataset
        self.exclude_seen = exclude_seen
        self.retrieval = (retrieval or "exact").lower()
        if self.retrieval not in ANN_KINDS:
            raise ValueError(f"unknown retrieval backend {retrieval!r}; "
                             f"choose from {ANN_KINDS}")
        self.min_ann_items = min_ann_items
        self.retrieval_stats = RetrievalStats()
        if hasattr(model, "eval"):
            model.eval()
        if index is None and hasattr(model, "encode_catalog"):
            index = CatalogIndex(model, dataset, dtype=index_dtype)
        self.index = index
        self._use_kernel = supports_kernel(model)
        self._max_len = model_max_len(model)
        # Only kernel-capable indexed models can form the query vectors
        # ANN retrieval shortlists with; for anything else the structure
        # would never be consulted, so don't pay its build cost. A
        # structure already attached to a shared index is reused unless
        # the caller supplied explicit knobs, which then win.
        if (index is not None and self._use_kernel
                and self.retrieval == "ivf"
                and (index.ann is None or ann_params)):
            index.attach_ann(make_ann_index("ivf", **(ann_params or {})))

    @property
    def ann(self) -> IVFIndex | None:
        """The attached approximate-retrieval structure, if any."""
        return None if self.index is None else self.index.ann

    @property
    def index_version(self) -> int:
        """Version of the catalogue snapshot (0 for fallback models)."""
        return 0 if self.index is None else self.index.version

    @property
    def index_stale(self) -> bool:
        """True when the next request will rebuild the index."""
        return self.index is not None and self.index.stale

    def refresh(self) -> int:
        """Rebuild the catalogue index (no-op for fallback models)."""
        return 0 if self.index is None else self.index.refresh()

    def describe_retrieval(self) -> dict:
        """Backend + routing counters for ``/scenarios`` and ``/stats``."""
        out = {"retrieval": self.retrieval,
               "min_ann_items": self.min_ann_items,
               **self.retrieval_stats.to_json()}
        if self.ann is not None:
            out["ann"] = self.ann.describe()
        return out

    # -- scoring -------------------------------------------------------------

    def score(self, histories: list[np.ndarray]) -> np.ndarray:
        """Raw full-catalogue scores ``(N, num_items+1)`` for histories."""
        return self._score_snapshot(histories)[0]

    def _score_snapshot(self,
                        histories: list[np.ndarray]) -> tuple[np.ndarray, int]:
        """Score and return the index version of the matrix actually used."""
        if self.index is None:
            return self.model.score_histories(self.dataset, histories), 0
        matrix, version = self.index.snapshot()
        if self._use_kernel:
            return score_batch(self.model, matrix, histories,
                               max_seq_len=self._max_len), version
        # Custom inference (e.g. BERT4Rec's mask-token query) keeps its
        # own scoring but still reuses the precomputed index.
        return self.model.score_histories(self.dataset, histories,
                                          catalog=matrix), version

    def _mask_scores(self, scores: np.ndarray,
                     histories: list[np.ndarray],
                     owned: bool) -> np.ndarray:
        # The kernel path hands us a freshly allocated matrix we can mask
        # in place — it is the largest per-request buffer, so avoid a
        # second copy. Fallback models may return shared state: copy.
        if not owned:
            scores = np.array(scores, copy=True)
        scores[:, 0] = -np.inf                      # padding pseudo-item
        if self.exclude_seen:
            rows = np.repeat(np.arange(len(histories)),
                             [len(h) for h in histories])
            cols = np.concatenate([np.asarray(h) for h in histories])
            scores[rows, cols] = -np.inf
        return scores

    # -- retrieval routing ---------------------------------------------------

    def _retrieval_plan(self, histories: list[np.ndarray],
                        k: int) -> tuple[bool, str | None]:
        """Decide ANN vs exact for one batch: ``(use_ann, fallback_reason)``.

        The reason is ``None`` when exact scoring was *chosen* (backend
        is ``"exact"``) rather than fallen back to.
        """
        if self.retrieval == "exact":
            return False, None
        if self.index is None or not self._use_kernel:
            return False, "no_kernel"
        num_items = self.index.num_items
        if num_items < self.min_ann_items:
            return False, "small_catalog"
        needed = k + (max(len(h) for h in histories)
                      if self.exclude_seen else 0)
        if needed >= num_items // 2:
            return False, "k_near_catalog"
        return True, None

    def _recommend_ann(self, histories: list[np.ndarray],
                       k: int) -> tuple[list[Recommendation] | None,
                                        str | None]:
        """The approximate path; ``(None, reason)`` means fall back.

        One query-encoder pass covers the batch; each row then scores
        only its shortlist, so per-row work is ``O(|shortlist|·d)``
        instead of ``O(n·d)``. Candidates arrive id-ascending from the
        index, so the stable top-k tie-break (lower item id wins) is the
        same one the exact path applies.
        """
        matrix, version, ann = self.index.snapshot_retrieval()
        if ann is None:
            return None, "stale_index"
        ctx = trace.current()
        tick = perf_counter()
        queries = encode_queries(self.model, matrix, histories,
                                 max_seq_len=self._max_len)
        _stage("encode", tick, perf_counter(), ctx)
        out = []
        t_short = t_rerank = t_topk = 0.0
        for query, history in zip(queries, histories):
            needed = k + (len(history) if self.exclude_seen else 0)
            t0 = perf_counter()
            candidates = ann.candidates(query, needed)
            t1 = perf_counter()
            scores = matrix[candidates] @ query
            if self.exclude_seen:
                keep = ~np.isin(candidates, history)
                candidates, scores = candidates[keep], scores[keep]
            t2 = perf_counter()
            values, order = topk(scores, min(k, len(scores)) or 1)
            t3 = perf_counter()
            t_short += t1 - t0
            t_rerank += t2 - t1
            t_topk += t3 - t2
            items = candidates[order]
            items.setflags(write=False)
            values.setflags(write=False)
            out.append(Recommendation(items=items, scores=values,
                                      index_version=version))
        # The per-row stage times interleave; report them as contiguous
        # synthetic intervals ending at the batch end — durations (what
        # histograms and span sums consume) are exact, only the span
        # offsets are condensed.
        end = perf_counter()
        _stage("shortlist", end - t_short - t_rerank - t_topk,
               end - t_rerank - t_topk, ctx)
        _stage("rerank", end - t_rerank - t_topk, end - t_topk, ctx)
        _stage("topk", end - t_topk, end, ctx)
        return out, None

    # -- request API ---------------------------------------------------------

    def recommend(self, history, k: int = 10) -> Recommendation:
        """Top-k next items for one user history."""
        return self.recommend_batch([history], k=k)[0]

    def recommend_batch(self, histories, k: int = 10) -> list[Recommendation]:
        """Top-k for many histories in one batched scoring pass."""
        histories = [np.asarray(h, dtype=np.int64) for h in histories]
        for h in histories:
            if h.size == 0:
                raise ValueError("history must contain at least one item")
            if h.min() < 1 or h.max() > self.dataset.num_items:
                raise ValueError(
                    f"history items must be in [1, {self.dataset.num_items}]")
        use_ann, reason = self._retrieval_plan(histories, k)
        if use_ann:
            results, reason = self._recommend_ann(histories, k)
            if results is not None:
                self.retrieval_stats.record(True, None)
                return results
        self.retrieval_stats.record(False, reason)
        ctx = trace.current()
        tick = perf_counter()
        raw, version = self._score_snapshot(histories)
        _stage("score", tick, (tick := perf_counter()), ctx)
        scores = self._mask_scores(raw, histories,
                                   owned=(self.index is not None
                                          and self._use_kernel))
        _stage("mask", tick, (tick := perf_counter()), ctx)
        values, indices = topk(scores, k)
        _stage("topk", tick, perf_counter(), ctx)
        out = []
        for row in range(len(histories)):
            keep = np.isfinite(values[row])  # drop excluded/padding slots
            items, top = indices[row][keep], values[row][keep]
            # Served results are shared via the LRU cache; freeze them so
            # one caller's mutation cannot corrupt another's answer.
            items.setflags(write=False)
            top.setflags(write=False)
            out.append(Recommendation(items=items, scores=top,
                                      index_version=version))
        return out
