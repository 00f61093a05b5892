"""Model-agnostic training loop with early stopping.

Works with any model exposing the shared protocol::

    training_loss(dataset, item_ids, mask, pretraining=bool) -> (Tensor, dict)
    score_histories(dataset, histories, catalog=None) -> np.ndarray
    encode_catalog(dataset) -> np.ndarray            # optional, for speed

which PMMRec and every baseline implement. The trainer mirrors the paper's
recipe: AdamW, early stopping on validation HR@10, multi-task objective
during pre-training and DAP-only during fine-tuning. Per-epoch validation
metrics are recorded so Figure 3's convergence curves fall out for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..obs import prof
from ..data.batching import batch_iterator
from ..data.catalog import SeqDataset
from ..eval.evaluator import evaluate_model

__all__ = ["TrainConfig", "TrainResult", "Trainer"]


@dataclass
class TrainConfig:
    """Optimization hyper-parameters."""

    epochs: int = 40
    batch_size: int = 24
    lr: float = 2e-3
    weight_decay: float = 0.01
    clip_norm: float = 5.0
    patience: int = 4           # early-stop after this many non-improvements
    eval_every: int = 1         # validate every N epochs
    max_seq_len: int = 30
    metric: str = "hr@10"       # early-stopping criterion
    warmup_frac: float = 0.0    # >0 enables a warmup+cosine LR schedule
    dtype: str | None = None    # "float32"/"float64": cast the model up front
    seed: int = 0
    verbose: bool = False


@dataclass
class TrainResult:
    """Outcome of a training run."""

    best_metric: float
    best_epoch: int
    epochs_run: int
    curve: list[tuple[int, float]] = field(default_factory=list)
    loss_history: list[float] = field(default_factory=list)


class Trainer:
    """Train a recommender on one dataset with validation early stopping."""

    def __init__(self, model, dataset: SeqDataset,
                 config: TrainConfig | None = None, pretraining: bool = True):
        self.model = model
        self.dataset = dataset
        self.config = config or TrainConfig()
        self.pretraining = pretraining
        self._rng = np.random.default_rng(self.config.seed)
        if self.config.dtype is not None:
            # Cast before the optimizer snapshots its moment buffers so the
            # whole run (params, grads, optimizer state) shares one dtype.
            model.to_dtype(self.config.dtype)
        params = [p for p in model.parameters() if p.requires_grad]
        self.optimizer = nn.AdamW(params, lr=self.config.lr,
                                  weight_decay=self.config.weight_decay)
        self.schedule = None
        if self.config.warmup_frac > 0.0:
            steps_per_epoch = max(
                (len(dataset.split.train) + self.config.batch_size - 1)
                // self.config.batch_size, 1)
            total = steps_per_epoch * self.config.epochs
            self.schedule = nn.WarmupCosineSchedule(
                self.optimizer,
                warmup_steps=int(self.config.warmup_frac * total),
                total_steps=total)

    def train_step(self, item_ids: np.ndarray, mask: np.ndarray) -> float:
        """One optimizer step on an already-padded batch; returns the loss.

        The incremental entry point the streaming subsystem drives: the
        background fine-tune worker feeds replayed interaction batches
        through this method between hot swaps, so online updates use the
        exact optimizer/clipping/schedule path as offline epochs. The
        model is flipped to train mode only when needed, so steady
        stream-of-steps callers never pay the recursive mode walk.
        """
        cfg = self.config
        if not getattr(self.model, "training", True):
            self.model.train()
        self.optimizer.zero_grad()
        with prof.section("train.forward"):
            loss, _ = self.model.training_loss(
                self.dataset, item_ids, mask, pretraining=self.pretraining)
        with prof.section("train.backward"):
            loss.backward()
        with prof.section("train.clip"):
            nn.clip_grad_norm(self.optimizer.parameters, cfg.clip_norm)
        with prof.section("train.optimizer_step"):
            self.optimizer.step()
        if self.schedule is not None:
            self.schedule.step()
        return float(loss.data)

    def _run_epoch(self) -> float:
        cfg = self.config
        total, batches = 0.0, 0
        self.model.train()
        for batch in batch_iterator(self.dataset.split.train,
                                    cfg.batch_size, self._rng,
                                    max_len=cfg.max_seq_len):
            total += self.train_step(batch.item_ids, batch.mask)
            batches += 1
        return total / max(batches, 1)

    def validate(self) -> dict[str, float]:
        """Metrics on the validation split (ks limited to 10 for speed)."""
        return evaluate_model(self.model, self.dataset,
                              self.dataset.split.valid, ks=(10,))

    def fit(self) -> TrainResult:
        """Train until ``epochs`` or early stopping; restore the best state."""
        cfg = self.config
        best_metric, best_epoch = -1.0, 0
        best_state = self.model.state_dict()
        curve: list[tuple[int, float]] = []
        losses: list[float] = []
        bad_evals = 0
        epoch = 0
        for epoch in range(1, cfg.epochs + 1):
            losses.append(self._run_epoch())
            if epoch % cfg.eval_every != 0:
                continue
            metric = self.validate()[cfg.metric]
            curve.append((epoch, metric))
            if cfg.verbose:
                print(f"[{self.dataset.name}] epoch {epoch:3d} "
                      f"loss {losses[-1]:.4f} {cfg.metric} {metric:.4f}")
            if metric > best_metric:
                best_metric, best_epoch = metric, epoch
                best_state = self.model.state_dict()
                bad_evals = 0
            else:
                bad_evals += 1
                if bad_evals >= cfg.patience:
                    break
        self.model.load_state_dict(best_state)
        return TrainResult(best_metric=best_metric, best_epoch=best_epoch,
                           epochs_run=epoch, curve=curve,
                           loss_history=losses)
