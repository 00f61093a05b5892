"""Gradient correctness of every autograd primitive vs finite differences."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.nn as nn
from repro.nn.tensor import Tensor, concat, stack, where

from ..conftest import check_grad

SHAPES = [(3,), (2, 4), (2, 3, 2)]


def _arrays(shape, low=-2.0, high=2.0):
    return hnp.arrays(np.float64, shape,
                      elements=st.floats(low, high, allow_nan=False))


def test_no_grad_is_thread_local():
    """A thread inside no_grad must not disable other threads' graphs.

    This is load-bearing for repro.stream: serving threads score under
    no_grad while the fine-tune worker builds training graphs
    concurrently. With a process-global gate the worker's backward would
    randomly see no graph at all.
    """
    import threading
    entered = threading.Event()
    release = threading.Event()

    def server():
        with nn.no_grad():
            entered.set()
            release.wait(timeout=30)

    thread = threading.Thread(target=server, daemon=True)
    thread.start()
    assert entered.wait(timeout=30)
    try:
        # The other thread is parked inside its inference block right
        # now; this thread's graph construction must be unaffected.
        assert nn.is_grad_enabled()
        w = Tensor(np.ones((3, 3)), requires_grad=True)
        out = (w @ w).sum()
        assert out.requires_grad
        out.backward()
        assert w.grad is not None
    finally:
        release.set()
        thread.join(timeout=30)


@pytest.mark.parametrize("shape", SHAPES)
def test_add_grad(shape, rng):
    x = rng.normal(size=shape)
    other = rng.normal(size=shape)
    check_grad(lambda t: (t + Tensor(other)).sum(), x)


def test_add_broadcast_grad(rng):
    x = rng.normal(size=(2, 1, 4))
    other = rng.normal(size=(3, 4))
    check_grad(lambda t: ((t + Tensor(other)) ** 2.0).sum(), x)


def test_mul_broadcast_grad(rng):
    x = rng.normal(size=(3, 1))
    other = rng.normal(size=(3, 4))
    check_grad(lambda t: (t * Tensor(other)).sum(), x)


def test_div_grad(rng):
    x = rng.normal(size=(4,)) + 3.0
    other = rng.normal(size=(4,)) + 3.0
    check_grad(lambda t: (Tensor(other) / t).sum(), x)


def test_pow_grad(rng):
    x = np.abs(rng.normal(size=(5,))) + 0.5
    check_grad(lambda t: (t ** 3.0).sum(), x)


def test_matmul_2d_grad(rng):
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))
    check_grad(lambda t: (t @ Tensor(w)).sum(), x)
    check_grad(lambda t: (Tensor(x) @ t).sum(), w)


def test_matmul_batched_grad(rng):
    x = rng.normal(size=(2, 3, 4))
    w = rng.normal(size=(2, 4, 2))
    check_grad(lambda t: ((t @ Tensor(w)) ** 2.0).sum(), x)
    check_grad(lambda t: ((Tensor(x) @ t) ** 2.0).sum(), w)


def test_matmul_broadcast_batch_grad(rng):
    x = rng.normal(size=(2, 3, 4))
    w = rng.normal(size=(4, 5))
    check_grad(lambda t: ((Tensor(x) @ t) ** 2.0).sum(), w)


def test_matmul_vector_grad(rng):
    x = rng.normal(size=(3, 4))
    v = rng.normal(size=(4,))
    check_grad(lambda t: (t @ Tensor(v)).sum(), x)
    check_grad(lambda t: (Tensor(x) @ t).sum(), v)


@pytest.mark.parametrize("op", ["exp", "log", "sqrt", "tanh", "sigmoid",
                                "relu", "abs"])
def test_unary_grads(op, rng):
    x = np.abs(rng.normal(size=(6,))) + 0.5  # positive domain for log/sqrt
    if op in ("tanh", "sigmoid"):
        x = rng.normal(size=(6,))
    check_grad(lambda t: getattr(t, op)().sum(), x)


def test_clip_grad(rng):
    x = rng.normal(size=(8,)) * 2.0
    # Stay away from the clip boundaries where the subgradient is ambiguous.
    x = x[np.abs(np.abs(x) - 1.0) > 0.05]
    check_grad(lambda t: t.clip(-1.0, 1.0).sum(), x)


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False),
                                           (1, True), ((0, 1), False)])
def test_sum_grad(axis, keepdims, rng):
    x = rng.normal(size=(3, 4))
    check_grad(lambda t: (t.sum(axis=axis, keepdims=keepdims) ** 2.0).sum(), x)


def test_mean_grad(rng):
    x = rng.normal(size=(3, 4))
    check_grad(lambda t: (t.mean(axis=1) ** 2.0).sum(), x)


def test_max_grad_no_ties(rng):
    x = np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 4.0]])
    check_grad(lambda t: t.max(axis=1).sum(), x)


def test_reshape_transpose_grad(rng):
    x = rng.normal(size=(2, 3, 4))
    check_grad(lambda t: (t.reshape(6, 4).transpose(1, 0) ** 2.0).sum(), x)


def test_swapaxes_grad(rng):
    x = rng.normal(size=(2, 3, 4))
    check_grad(lambda t: (t.swapaxes(1, 2) ** 2.0).sum(), x)


def test_getitem_slice_grad(rng):
    x = rng.normal(size=(4, 5))
    check_grad(lambda t: (t[1:3, ::2] ** 2.0).sum(), x)


def test_getitem_fancy_repeated_grad(rng):
    x = rng.normal(size=(5, 3))
    idx = np.array([0, 2, 2, 4])
    check_grad(lambda t: (t[idx] ** 2.0).sum(), x)


def test_concat_grad(rng):
    x = rng.normal(size=(2, 3))
    other = rng.normal(size=(2, 2))
    check_grad(lambda t: (concat([t, Tensor(other)], axis=1) ** 2.0).sum(), x)


def test_stack_grad(rng):
    x = rng.normal(size=(2, 3))
    other = rng.normal(size=(2, 3))
    check_grad(lambda t: (stack([t, Tensor(other)], axis=0) ** 2.0).sum(), x)


def test_where_grad(rng):
    x = rng.normal(size=(3, 4))
    cond = rng.random((3, 4)) > 0.5
    other = rng.normal(size=(3, 4))
    check_grad(lambda t: (where(cond, t, Tensor(other)) ** 2.0).sum(), x)


def test_l2_normalize_grad(rng):
    x = rng.normal(size=(3, 4)) + 0.1
    check_grad(lambda t: (t.l2_normalize() ** 2.0).sum(), x, atol=1e-4)


def test_reuse_accumulates_grad(rng):
    x = rng.normal(size=(3,))
    check_grad(lambda t: (t * t).sum() + t.sum() * 2.0, x)


def test_diamond_graph_grad(rng):
    x = rng.normal(size=(4,))

    def loss(t):
        a = t * 2.0
        b = t + 1.0
        return (a * b).sum()

    check_grad(loss, x)


def test_backward_requires_grad_flag():
    t = Tensor(np.ones(3), requires_grad=False)
    with pytest.raises(RuntimeError):
        (t.sum() if t.requires_grad else t).backward()


def test_no_grad_blocks_graph():
    t = Tensor(np.ones(3), requires_grad=True)
    with nn.no_grad():
        out = (t * 2.0).sum()
    assert not out.requires_grad


@settings(max_examples=25, deadline=None)
@given(_arrays((3, 4)))
def test_softmax_rows_sum_to_one(arr):
    out = nn.softmax(Tensor(arr), axis=-1).data
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
    assert (out >= 0).all()


@settings(max_examples=25, deadline=None)
@given(_arrays((2, 5)))
def test_log_softmax_matches_log_of_softmax(arr):
    a = nn.log_softmax(Tensor(arr)).data
    b = np.log(nn.softmax(Tensor(arr)).data + 1e-300)
    np.testing.assert_allclose(a, b, atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(_arrays((4, 3), low=-3.0, high=3.0))
def test_softmax_grad_hypothesis(arr):
    weights = np.arange(12, dtype=np.float64).reshape(4, 3)
    check_grad(lambda t: (nn.softmax(t, axis=-1) * Tensor(weights)).sum(),
               arr, atol=1e-4)


def test_cross_entropy_matches_manual(rng):
    logits = rng.normal(size=(5, 7))
    targets = rng.integers(0, 7, size=5)
    loss = nn.cross_entropy(Tensor(logits), targets).item()
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    manual = -np.log(probs[np.arange(5), targets]).mean()
    assert abs(loss - manual) < 1e-8


def test_cross_entropy_ignore_index(rng):
    logits = rng.normal(size=(4, 3))
    targets = np.array([0, 1, -1, 2])
    loss = nn.cross_entropy(Tensor(logits), targets, ignore_index=-1).item()
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    kept = [0, 1, 3]
    manual = -np.log(probs[kept, targets[kept]]).mean()
    assert abs(loss - manual) < 1e-8


def test_cross_entropy_grad(rng):
    logits = rng.normal(size=(4, 5))
    targets = rng.integers(0, 5, size=4)
    check_grad(lambda t: nn.cross_entropy(t, targets), logits)


def test_embedding_grad_scatter(rng):
    table = rng.normal(size=(6, 3))
    idx = np.array([[0, 1, 1], [5, 0, 2]])
    check_grad(lambda t: (nn.embedding(t, idx) ** 2.0).sum(), table)


def test_gelu_grad(rng):
    x = rng.normal(size=(7,))
    check_grad(lambda t: nn.gelu(t).sum(), x)


def test_gelu_known_values():
    x = Tensor(np.array([0.0, 100.0, -100.0]))
    out = nn.gelu(x).data
    np.testing.assert_allclose(out, [0.0, 100.0, 0.0], atol=1e-6)


def test_masked_fill():
    x = Tensor(np.ones((2, 2)))
    mask = np.array([[True, False], [False, True]])
    out = nn.masked_fill(x, mask).data
    assert out[0, 0] < -1e8 and out[0, 1] == 1.0


def test_info_nce_matches_manual(rng):
    scores = rng.normal(size=(3, 4))
    pos = np.zeros((3, 4), dtype=bool)
    pos[np.arange(3), [0, 1, 2]] = True
    loss = nn.info_nce(Tensor(scores), pos).item()
    exp = np.exp(scores)
    manual = -np.log(exp[np.arange(3), [0, 1, 2]] / exp.sum(axis=1)).mean()
    assert abs(loss - manual) < 1e-8


def test_info_nce_multiple_positives(rng):
    scores = rng.normal(size=(2, 4))
    pos = np.array([[True, True, False, False], [False, False, True, True]])
    loss = nn.info_nce(Tensor(scores), pos).item()
    exp = np.exp(scores)
    manual = -np.log((exp * pos).sum(axis=1) / exp.sum(axis=1)).mean()
    assert abs(loss - manual) < 1e-8


def test_info_nce_candidate_mask(rng):
    scores = rng.normal(size=(2, 4))
    pos = np.array([[True, False, False, False], [False, True, False, False]])
    cand = np.array([[True, True, True, False], [True, True, False, True]])
    loss = nn.info_nce(Tensor(scores), pos, cand).item()
    exp = np.exp(scores)
    manual = -np.log((exp * pos).sum(axis=1) / (exp * cand).sum(axis=1)).mean()
    assert abs(loss - manual) < 1e-8


def test_info_nce_skips_rows_without_positives(rng):
    scores = rng.normal(size=(3, 4))
    pos = np.zeros((3, 4), dtype=bool)
    pos[0, 1] = True
    loss = nn.info_nce(Tensor(scores), pos).item()
    assert np.isfinite(loss)


def test_info_nce_grad(rng):
    scores = rng.normal(size=(3, 5))
    pos = np.zeros((3, 5), dtype=bool)
    pos[np.arange(3), [0, 2, 4]] = True
    cand = np.ones((3, 5), dtype=bool)
    cand[0, 1] = False
    check_grad(lambda t: nn.info_nce(t, pos, cand), scores)


def test_dropout_zero_rate_is_identity(rng):
    x = Tensor(rng.normal(size=(4, 4)))
    out = nn.dropout(x, 0.0, rng, training=True)
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_eval_is_identity(rng):
    x = Tensor(rng.normal(size=(4, 4)))
    out = nn.dropout(x, 0.5, rng, training=False)
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_scales_kept_units():
    rng = np.random.default_rng(0)
    x = Tensor(np.ones((100, 100)))
    out = nn.dropout(x, 0.5, rng, training=True).data
    kept = out[out != 0]
    np.testing.assert_allclose(kept, 2.0)
    assert abs((out == 0).mean() - 0.5) < 0.05
