"""The unfused parity oracle reaches every fused-kernel call a model makes.

A model that reached a fused kernel through a reference the oracle does
not rebind (a kernel captured in a default argument, a dict of ops, an
instance attribute) would make the parity tests compare that kernel
with itself. So here the real kernels are made to raise, whatever
reference reaches them: inside the oracle a training step and a scoring
pass of PMMRec, SASRec and BERT4Rec must still complete, and outside it
the same training step must hit a raising kernel.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.baselines import make_baseline
from repro.core import make_pmmrec
from repro.data import build_dataset, pad_sequences
from repro.eval.scoring import batch_scorer
from repro.train import TrainConfig, Trainer

from .unfused import REFERENCES, unfused


def _fused_kernel_called(*args, **kwargs):
    raise AssertionError("a fused kernel ran inside the unfused oracle")


@contextlib.contextmanager
def _real_kernels_raise():
    """Swap the body of every fused kernel for one that raises."""
    bodies = [getattr(kernel, "__wrapped__", kernel) for kernel in REFERENCES]
    saved = [fn.__code__ for fn in bodies]
    for fn in bodies:
        fn.__code__ = _fused_kernel_called.__code__
    try:
        yield
    finally:
        for fn, code in zip(bodies, saved):
            fn.__code__ = code


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("kwai_food", profile="smoke")


def _trainer(name: str, dataset) -> Trainer:
    model = (make_pmmrec(name, seed=0) if name == "pmmrec"
             else make_baseline(name, dataset, seed=0))
    return Trainer(model, dataset, TrainConfig(batch_size=4, seed=0))


def _batch(dataset, trainer: Trainer):
    return pad_sequences(dataset.split.train[:4],
                         max_len=trainer.config.max_seq_len)


@pytest.mark.parametrize("name", ["pmmrec", "sasrec", "bert4rec"])
def test_every_kernel_call_goes_through_the_oracle(name, dataset):
    trainer = _trainer(name, dataset)
    batch = _batch(dataset, trainer)
    histories = [np.asarray(ex.history) for ex in dataset.split.test[:4]]
    with unfused(), _real_kernels_raise():
        loss = trainer.train_step(batch.item_ids, batch.mask)
        # The shared scoring kernel for PMMRec and SASRec; BERT4Rec's
        # own mask-token inference, which opts out of it.
        scores = batch_scorer(trainer.model, dataset)(histories)
    assert np.isfinite(loss)
    assert scores.shape == (len(histories), dataset.num_items + 1)


def test_raising_kernels_fire_outside_the_oracle(dataset):
    trainer = _trainer("sasrec", dataset)
    batch = _batch(dataset, trainer)
    with _real_kernels_raise(), pytest.raises(AssertionError,
                                              match="fused kernel ran"):
        trainer.train_step(batch.item_ids, batch.mask)
