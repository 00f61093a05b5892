"""Shared fixtures for the serving-subsystem tests (smoke-scale)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import make_baseline
from repro.data import build_dataset
from repro.serve import Recommender


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("kwai_food", profile="smoke")


@pytest.fixture(scope="module")
def model(dataset):
    return make_baseline("sasrec", dataset, seed=0)


@pytest.fixture(scope="module")
def recommender(model, dataset):
    return Recommender(model, dataset)


def reference_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Stable full-sort reference the argpartition path must agree with."""
    return np.argsort(-scores, axis=-1, kind="stable")[..., :k]


class TableScorer:
    """Deterministic fallback-protocol model: one fixed score row per item.

    Scores a history as the table row of its last item, *returning
    shared state* — which is exactly the case ``Recommender._mask_scores``
    must defensively copy before writing ``-inf`` exclusions into it.
    Rows are lookups, so a batch scores each member exactly as a solo
    run does.
    """

    def __init__(self, num_items: int, seed: int):
        rng = np.random.default_rng(seed)
        # A small integer range forces score ties across items.
        self.table = rng.integers(0, 7,
                                  size=(num_items + 1,
                                        num_items + 1)).astype(np.float64)

    def score_histories(self, dataset, histories):
        return self.table[[int(h[-1]) for h in histories]]


class FakeDataset:
    name = "fake"

    def __init__(self, num_items: int):
        self.num_items = num_items
