"""Property-based lockdown of the serving retrieval primitives.

``nn.topk`` promises *exactly* a stable descending sort truncated to
``k`` — ties broken by lower index — over arbitrary shapes, dtypes and
tie patterns; the argpartition fast path must never be observable.
Hypothesis drives it against the full-argsort oracle, including the
``-inf`` exclusion values the serving mask path injects, and a fake
scorer drives the whole ``Recommender`` request path (padding mask +
seen-item exclusion + truncation) against the same oracle.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.ops import topk
from repro.serve import Recommender

from .conftest import FakeDataset, TableScorer, reference_topk


def _scores(seed: int, rows: int, cols: int, dtype, tie_levels: int,
            neg_inf_frac: float) -> np.ndarray:
    """A score matrix with controlled tie density and -inf exclusions."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, tie_levels, size=(rows, cols)).astype(dtype)
    if neg_inf_frac > 0:
        mask = rng.random((rows, cols)) < neg_inf_frac
        # Keep at least one finite entry per row so answers are non-empty.
        mask[:, 0] = False
        scores[mask] = -np.inf
    return scores


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31), rows=st.integers(1, 6),
       cols=st.integers(1, 64), k=st.integers(1, 80),
       dtype=st.sampled_from([np.float32, np.float64]),
       tie_levels=st.integers(1, 1000),
       neg_inf_frac=st.sampled_from([0.0, 0.3, 0.9]))
def test_topk_equals_stable_argsort_oracle(seed, rows, cols, k, dtype,
                                           tie_levels, neg_inf_frac):
    scores = _scores(seed, rows, cols, dtype, tie_levels, neg_inf_frac)
    values, indices = topk(scores, k)
    k_eff = min(k, cols)
    expected = reference_topk(scores, k_eff)
    assert indices.shape == (rows, k_eff)
    assert np.array_equal(indices, expected)
    assert np.array_equal(values,
                          np.take_along_axis(scores, expected, axis=-1))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), cols=st.integers(1, 64),
       k=st.integers(1, 80), tie_levels=st.integers(1, 8))
def test_topk_1d_equals_oracle(seed, cols, k, tie_levels):
    scores = _scores(seed, 1, cols, np.float64, tie_levels, 0.0)[0]
    values, indices = topk(scores, k)
    expected = reference_topk(scores, min(k, cols))
    assert indices.ndim == 1
    assert np.array_equal(indices, expected)
    assert np.array_equal(values, scores[expected])


# -- the seen-item-exclusion mask path through Recommender -------------------


def _oracle_recommend(scores: np.ndarray, history: np.ndarray,
                      k: int, exclude_seen: bool) -> np.ndarray:
    scores = scores.copy()
    scores[0] = -np.inf
    if exclude_seen:
        scores[np.asarray(history)] = -np.inf
    order = np.argsort(-scores, kind="stable")
    order = order[np.isfinite(scores[order])]
    return order[:k]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), num_items=st.integers(2, 40),
       history_len=st.integers(1, 12), k=st.integers(1, 50),
       exclude_seen=st.booleans())
def test_recommend_matches_oracle_with_exclusion(seed, num_items,
                                                 history_len, k,
                                                 exclude_seen):
    rng = np.random.default_rng(seed)
    model = TableScorer(num_items, seed)
    dataset = FakeDataset(num_items)
    recommender = Recommender(model, dataset, exclude_seen=exclude_seen)
    history = rng.integers(1, num_items + 1, size=history_len)
    answer = recommender.recommend(history, k=k)
    expected = _oracle_recommend(model.table[int(history[-1])], history,
                                 k, exclude_seen)
    assert np.array_equal(answer.items, expected)
    if exclude_seen:
        assert not np.isin(answer.items, history).any()
    assert 0 not in answer.items
    # The shared table row must be untouched by the in-place masking.
    assert np.isfinite(model.table).all()
