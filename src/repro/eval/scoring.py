"""The batch-scoring kernel shared by offline eval and online serving.

Every kernel-capable model in the repo (PMMRec and all sequential
baselines) scores a batch of histories the same way: gather the item
representations for the padded history out of a precomputed catalogue
matrix, run the user encoder once under ``no_grad``, and project the
final hidden state against the whole catalogue. This module holds that
one hot path so ``evaluate_model`` (offline tables) and the
``repro.serve`` stack (online requests) stay byte-for-byte identical —
and so the per-chunk overhead lives in exactly one place: a single
gather (multiplied by the mask in place, no second allocation) and a
single allocation-free ``Tensor._wrap`` per batch.

It lives in ``repro.eval`` (below ``core``/``baselines``/``serve`` in
the dependency graph, needing only ``data.batching`` + ``nn.tensor``)
and is re-exported by ``repro.serve.scoring``.

The user-encoder forward this kernel runs goes through the fused
one-node attention/LayerNorm kernels (``repro.nn.fused``), whose forward
is bit-for-bit identical to the unfused composition: the kernel-parity
goldens in ``tests/eval/test_scoring_parity.py`` score every model
through both (the composition via the test suite's parity oracle) and
require identical catalogues, scores and ranks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..data.batching import pad_sequences
from ..nn.tensor import Tensor, no_grad

__all__ = ["supports_kernel", "model_max_len", "encode_queries",
           "score_batch", "batch_scorer"]

ScoreFn = Callable[[list[np.ndarray]], np.ndarray]


def supports_kernel(model) -> bool:
    """True when ``model`` can be scored through the shared kernel.

    Requires the catalogue protocol (``encode_catalog`` +
    ``sequence_hidden``) and an inference scheme the kernel can
    reproduce: models whose ``score_histories`` does more than
    gather-encode-project set ``supports_score_kernel = False``
    (BERT4Rec appends a mask token outside the catalogue) and take the
    fallback path, as do heuristic baselines like ``FPMC`` /
    ``MostPopular`` that only expose ``score_histories``.
    """
    return (hasattr(model, "encode_catalog")
            and hasattr(model, "sequence_hidden")
            and getattr(model, "supports_score_kernel", True))


def model_max_len(model) -> int:
    """History truncation length for a model (config, attribute or 30)."""
    config = getattr(model, "config", None)
    if config is not None and hasattr(config, "max_seq_len"):
        return int(config.max_seq_len)
    return int(getattr(model, "max_seq_len", 30))


def encode_queries(model, catalog: np.ndarray,
                   histories: list[np.ndarray],
                   max_seq_len: int | None = None) -> np.ndarray:
    """User query vectors ``(N, d)``: the encoder's final hidden states.

    This is the front half of :func:`score_batch` — pad, gather from the
    catalogue matrix, run the user encoder under ``no_grad``, pick each
    sequence's last real position. A query vector's dot product with a
    catalogue row *is* that item's score, which is what lets approximate
    retrieval (``repro.serve.ann``) shortlist candidates without the
    full-catalogue matmul.
    """
    if max_seq_len is None:
        max_seq_len = model_max_len(model)
    batch = pad_sequences(histories, max_len=max_seq_len)
    was_training = bool(getattr(model, "training", False))
    if was_training:
        model.eval()
    try:
        with no_grad():
            gathered = catalog[batch.item_ids]      # fancy index: fresh array
            gathered *= batch.mask[:, :, None]       # zero padding in place
            hidden = model.sequence_hidden(Tensor._wrap(gathered),
                                           batch.mask).data
    finally:
        if was_training:
            model.train(True)
    last = batch.mask.sum(axis=1) - 1
    return hidden[np.arange(hidden.shape[0]), last]


def score_batch(model, catalog: np.ndarray,
                histories: list[np.ndarray],
                max_seq_len: int | None = None) -> np.ndarray:
    """Full-catalogue scores ``(N, num_items+1)`` for a batch of histories.

    ``catalog`` is an ``encode_catalog`` matrix (row 0 = padding; callers
    must ignore column 0 of the result). The model is flipped to eval
    mode only if it is currently training, so steady-state callers
    (evaluation loops, the serving path) never pay the recursive
    train/eval walk per batch.
    """
    return encode_queries(model, catalog, histories,
                          max_seq_len=max_seq_len) @ catalog.T


def batch_scorer(model, dataset, catalog: np.ndarray | None = None) -> ScoreFn:
    """A ``histories -> scores`` closure over the shared kernel.

    Encodes the catalogue once up front for kernel-capable models;
    anything else falls back to the model's own ``score_histories``
    (still valid for evaluation, just without the shared hot path) —
    with the catalogue still precomputed once when the model offers
    ``encode_catalog``.
    """
    if not supports_kernel(model):
        if hasattr(model, "encode_catalog"):
            fallback_catalog = (catalog if catalog is not None
                                else model.encode_catalog(dataset))
            return lambda histories: model.score_histories(
                dataset, histories, catalog=fallback_catalog)
        return lambda histories: model.score_histories(dataset, histories)
    if catalog is None:
        catalog = model.encode_catalog(dataset)
    max_len = model_max_len(model)

    def scorer(histories: list[np.ndarray]) -> np.ndarray:
        return score_batch(model, catalog, histories, max_seq_len=max_len)

    return scorer
