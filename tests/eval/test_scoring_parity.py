"""Golden parity for the shared batch-scoring kernel (`eval/scoring.py`).

The kernel is the one hot path offline tables and online serving share,
so it is locked down from two directions, for PMMRec and every
``supports_score_kernel`` baseline:

* **batch vs per-user** — scoring N histories in one kernel call must
  rank identically to scoring them one at a time (padding to the batch
  width must be invisible);
* **kernel vs naive reference** — the kernel must match a from-scratch
  per-user scorer that never pads at all: gather the history's rows
  from the catalogue, run ``sequence_hidden`` on the exact-length
  sequence, project the last hidden state. This pins the kernel's
  gather/mask/last-position logic independently of ``pad_sequences``.

``encode_queries`` (the ANN retrieval front half) is pinned to
``score_batch`` by construction — asserted here too so a future refactor
cannot split the paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import BASELINE_NAMES, make_baseline
from repro.core import make_pmmrec
from repro.data import build_dataset
from repro.eval.scoring import (encode_queries, model_max_len, score_batch,
                                supports_kernel)
from repro.nn.tensor import Tensor, no_grad

from ..nn.unfused import unfused

KERNEL_BASELINES = [name for name in BASELINE_NAMES]


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("kwai_food", profile="smoke")


@pytest.fixture(scope="module")
def histories(dataset):
    return [np.asarray(ex.history) for ex in dataset.split.test[:8]]


def _build(name: str, dataset):
    if name.startswith("pmmrec"):
        return make_pmmrec(name, seed=0)
    return make_baseline(name, dataset, seed=0)


def naive_scores(model, catalog: np.ndarray,
                 history: np.ndarray) -> np.ndarray:
    """Unpadded per-user reference: gather -> encode -> project."""
    with no_grad():
        reps = Tensor._wrap(catalog[np.asarray(history)][None, :, :].copy())
        mask = np.ones((1, len(history)), dtype=bool)
        hidden = model.sequence_hidden(reps, mask).data
    return hidden[0, -1] @ catalog.T


@pytest.mark.parametrize("name", KERNEL_BASELINES + ["pmmrec"])
def test_kernel_parity_batch_vs_per_user_vs_naive(name, dataset, histories):
    model = _build(name, dataset)
    model.eval()
    if not supports_kernel(model):
        pytest.skip(f"{name} opts out of the scoring kernel")
    catalog = model.encode_catalog(dataset)
    max_len = model_max_len(model)
    usable = [h[-max_len:] for h in histories]

    batched = score_batch(model, catalog, usable)
    for row, history in enumerate(usable):
        single = score_batch(model, catalog, [history])[0]
        naive = naive_scores(model, catalog, history)
        # Scores agree numerically...
        np.testing.assert_allclose(batched[row], single, rtol=1e-8,
                                   atol=1e-10)
        np.testing.assert_allclose(batched[row], naive, rtol=1e-8,
                                   atol=1e-10)
        # ...and the *ranking* — what serving and every metric consume —
        # is identical item for item.
        assert np.array_equal(np.argsort(-batched[row], kind="stable"),
                              np.argsort(-single, kind="stable"))
        assert np.array_equal(np.argsort(-batched[row], kind="stable"),
                              np.argsort(-naive, kind="stable"))


@pytest.mark.parametrize("name", ["sasrec", "pmmrec"])
def test_encode_queries_is_the_front_half_of_score_batch(name, dataset,
                                                         histories):
    model = _build(name, dataset)
    model.eval()
    catalog = model.encode_catalog(dataset)
    queries = encode_queries(model, catalog, histories)
    assert queries.shape == (len(histories), catalog.shape[1])
    np.testing.assert_allclose(queries @ catalog.T,
                               score_batch(model, catalog, histories),
                               rtol=1e-12)


@pytest.mark.parametrize("name", KERNEL_BASELINES + ["pmmrec"])
def test_kernel_parity_fused_vs_unfused_ranks(name, dataset, histories):
    """The fused autograd kernels must not move a single rank.

    The fused one-node attention/LayerNorm forward mirrors the unfused
    composition's floating-point op order exactly, so the scoring kernel
    must produce bit-identical scores — and therefore identical ranks —
    on the fused kernels and inside the unfused parity oracle.
    """
    model = _build(name, dataset)
    model.eval()
    if not supports_kernel(model):
        pytest.skip(f"{name} opts out of the scoring kernel")
    usable = [h[-model_max_len(model):] for h in histories]
    catalog_f = model.encode_catalog(dataset)
    fused_scores = score_batch(model, catalog_f, usable)
    with unfused():
        catalog_u = model.encode_catalog(dataset)
        unfused_scores = score_batch(model, catalog_u, usable)
    np.testing.assert_array_equal(catalog_f, catalog_u)
    np.testing.assert_array_equal(fused_scores, unfused_scores)
    assert np.array_equal(np.argsort(-fused_scores, axis=1, kind="stable"),
                          np.argsort(-unfused_scores, axis=1, kind="stable"))


def test_bert4rec_is_excluded_from_the_kernel(dataset):
    model = make_baseline("bert4rec", dataset, seed=0)
    assert not supports_kernel(model)


def test_heuristic_models_are_excluded_from_the_kernel(dataset):
    assert not supports_kernel(make_baseline("pop", dataset))
    assert not supports_kernel(make_baseline("fpmc", dataset, seed=0))
