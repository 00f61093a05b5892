"""PMMRec training objectives (paper Eq. 5-12).

All contrastive objectives are expressed through the shared
:func:`repro.nn.info_nce` primitive: each builds a score matrix plus a
positive mask (the numerator terms) and a candidate mask (the denominator
terms). Following the paper's equations literally, NICL's next-item
positive terms appear in the numerator but not the denominator.

Batch conventions: sequences arrive as a padded ``(B, L)`` id matrix with
``mask`` marking real items; items are deduplicated into ``U`` unique
representations with ``inverse`` of shape ``(B, L)`` mapping positions to
unique rows; ``owner`` of shape ``(B, U)`` marks which unique items each
user interacted with (used to exclude a user's own items from their
negative sets, per Eq. 5).
"""

from __future__ import annotations

import numpy as np

from ..nn.fused import info_nce, softmax_cross_entropy
from ..nn.tensor import Tensor, concat

__all__ = ["batch_structure", "dap_loss", "alignment_loss", "nid_loss",
           "rcl_loss", "masked_mean_pool"]


def batch_structure(item_ids: np.ndarray, mask: np.ndarray):
    """Deduplicate a padded id batch.

    Returns ``(unique_ids, inverse, owner)``: the unique real item ids, a
    ``(B, L)`` map from positions to unique rows (0 for padding — callers
    must apply ``mask``), and the ``(B, U)`` user-ownership matrix.
    """
    mask = np.asarray(mask, dtype=bool)
    ids = np.asarray(item_ids)
    unique_ids, flat_inverse = np.unique(ids[mask], return_inverse=True)
    inverse = np.zeros_like(ids)
    inverse[mask] = flat_inverse
    owner = np.zeros((ids.shape[0], len(unique_ids)), dtype=bool)
    rows = np.repeat(np.arange(ids.shape[0]), mask.sum(axis=1))
    owner[rows, flat_inverse] = True
    return unique_ids, inverse, owner


def _anchor_positions(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``(u, l)`` that have a valid next item at ``l+1``."""
    valid_next = mask[:, :-1] & mask[:, 1:]
    users, steps = np.where(valid_next)
    return users, steps


def dap_loss(hidden: Tensor, item_reps: Tensor, inverse: np.ndarray,
             mask: np.ndarray, owner: np.ndarray) -> Tensor:
    """Dense Auto-regressive Prediction (Eq. 5).

    Every position with a next item predicts that next item against
    in-batch negatives, excluding the current user's own items from the
    negative set.
    """
    users, steps = _anchor_positions(mask)
    if len(users) == 0:
        return Tensor(0.0, dtype=hidden.data.dtype)
    anchors = hidden[(users, steps)]                    # (R, d)
    scores = anchors @ item_reps.swapaxes(0, 1)         # (R, U)
    targets = inverse[users, steps + 1]
    num_unique = item_reps.shape[0]
    positive = np.zeros((len(users), num_unique), dtype=bool)
    positive[np.arange(len(users)), targets] = True
    candidate = ~owner[users]                           # drop own items...
    candidate[np.arange(len(users)), targets] = True    # ...but keep target
    return info_nce(scores, positive, candidate)


def alignment_loss(t_cls: Tensor, v_cls: Tensor, inverse: np.ndarray,
                   mask: np.ndarray, owner: np.ndarray, variant: str = "nicl",
                   temperature: float = 0.2) -> Tensor:
    """Cross-modal contrastive alignment — VCL / ICL / NCL / NICL.

    Implements Eq. 6-9. Features are L2-normalized before scoring (paper
    Sec. III-C1); the loss is computed symmetrically for both the
    text-anchored and vision-anchored directions and averaged.

    Variant semantics (Table VIII):

    * ``vcl``  — inter-modality negatives only, self positive only.
    * ``icl``  — adds intra-modality negatives to the denominator.
    * ``ncl``  — adds next-item positives (both modalities) to ``vcl``.
    * ``nicl`` — next-item positives *and* intra-modality negatives.
    """
    if variant == "none":
        return Tensor(0.0, dtype=t_cls.data.dtype)
    users, steps = _anchor_positions(mask)
    if len(users) == 0:
        return Tensor(0.0, dtype=t_cls.data.dtype)
    anchor_idx = inverse[users, steps]
    next_idx = inverse[users, steps + 1]
    rows = np.arange(len(users))
    num_unique = t_cls.shape[0]

    t_norm = t_cls.l2_normalize()
    v_norm = v_cls.l2_normalize()
    with_next = variant in ("nicl", "ncl")
    with_intra = variant in ("nicl", "icl")

    def directed(anchor_feats: Tensor, cross_feats: Tensor,
                 same_feats: Tensor) -> Tensor:
        anchors = anchor_feats[anchor_idx]
        cross_scores = (anchors @ cross_feats.swapaxes(0, 1)) * (1.0 / temperature)
        same_scores = (anchors @ same_feats.swapaxes(0, 1)) * (1.0 / temperature)
        scores = concat([cross_scores, same_scores], axis=1)   # (R, 2U)

        positive = np.zeros((len(users), 2 * num_unique), dtype=bool)
        positive[rows, anchor_idx] = True                 # delta(t_l, v_l)
        if with_next:
            positive[rows, next_idx] = True               # delta(t_l, v_l+1)
            positive[rows, num_unique + next_idx] = True  # delta(t_l, t_l+1)

        negatives = ~owner[users]                         # other users' items
        candidate = np.zeros_like(positive)
        candidate[:, :num_unique] = negatives
        candidate[rows, anchor_idx] = True                # self pair
        if with_intra:
            candidate[:, num_unique:] = negatives
        return info_nce(scores, positive, candidate)

    loss_tv = directed(t_norm, v_norm, t_norm)
    loss_vt = directed(v_norm, t_norm, v_norm)
    return (loss_tv + loss_vt) * 0.5


def nid_loss(corrupt_hidden: Tensor, classifier, labels: np.ndarray,
             mask: np.ndarray) -> Tensor:
    """Noised Item Detection (Eq. 10): 3-way per-position classification.

    Following the paper, logits are ``ReLU(h W + b)``; padded positions are
    excluded via ``ignore_index``.
    """
    logits = classifier(corrupt_hidden).relu()
    masked_labels = np.where(np.asarray(mask, dtype=bool), labels, -1)
    # Fused softmax+NLL node: one graph node for the whole loss.
    return softmax_cross_entropy(logits, masked_labels, ignore_index=-1)


def masked_mean_pool(hidden: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over valid positions of a ``(B, L, d)`` tensor."""
    mask = np.asarray(mask, dtype=hidden.data.dtype)
    weights = mask / np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
    return (hidden * Tensor._wrap(weights[:, :, None])).sum(axis=1)


def rcl_loss(hidden: Tensor, corrupt_hidden: Tensor,
             mask: np.ndarray) -> Tensor:
    """Robustness-aware Contrastive Learning (Eq. 11).

    The pooled original sequence representation must stay closer to its own
    corrupted view than to other users' corrupted views.
    """
    pooled = masked_mean_pool(hidden, mask)
    pooled_corrupt = masked_mean_pool(corrupt_hidden, mask)
    scores = pooled @ pooled_corrupt.swapaxes(0, 1)     # (B, B)
    positive = np.eye(scores.shape[0], dtype=bool)
    return info_nce(scores, positive)
