"""Parity suite for the fused autograd kernels (``repro.nn.fused``).

Every fused composite node is pinned against the unfused multi-node
composition it replaced (the parity oracle in ``tests/nn/unfused.py``)
from three directions:

* **forward** — bit-for-bit identical output (the fused kernels mirror
  the unfused floating-point operation order exactly), in float64 and
  float32, masked and unmasked, eval and training-mode dropout;
* **backward** — gradients agree within dtype rounding, for the input
  and for every parameter;
* **finite differences** — the fused backward closures are additionally
  checked against central finite differences directly, so the parity
  does not rest on the unfused path alone.

Also locks down the supporting refactors: the lazy-unbroadcast engine,
the dropout passthrough and the cached masks.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn as nn
from repro.nn.tensor import Tensor

from ..conftest import check_grad
from .test_autograd_dtypes import check_grad_dtype
from .unfused import kernel_path, unfused

DTYPES = ["float64", "float32"]
GRAD_TOLS = {"float64": dict(rtol=1e-9, atol=1e-11),
             "float32": dict(rtol=2e-3, atol=1e-4)}


def _mask_cases(batch: int, length: int, rng):
    """None, causal+padding, and a fully-masked-row attention mask."""
    valid = rng.random((batch, length)) > 0.3
    valid[:, 0] = True
    causal = nn.causal_mask(length)[None, None] | nn.padding_mask(valid)
    fully_masked = causal.copy()
    fully_masked[0, :, 1, :] = True          # one row attends to nothing
    return {"none": None, "causal+padding": causal,
            "fully-masked-row": fully_masked}


# -- the oracle is the composition ---------------------------------------------


def test_transformer_block_op_honors_escape_hatch(rng):
    """Calling the whole-layer op directly inside the oracle composes it."""
    blk = nn.TransformerBlock(8, 2, rng=np.random.default_rng(2))
    blk.eval()
    x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
    params = {"ln1_g": blk.norm1.gamma, "ln1_b": blk.norm1.beta,
              "wq": blk.attn.q_proj.weight, "bq": blk.attn.q_proj.bias,
              "wk": blk.attn.k_proj.weight, "bk": blk.attn.k_proj.bias,
              "wv": blk.attn.v_proj.weight, "bv": blk.attn.v_proj.bias,
              "wo": blk.attn.out_proj.weight, "bo": blk.attn.out_proj.bias,
              "ln2_g": blk.norm2.gamma, "ln2_b": blk.norm2.beta,
              "w1": blk.ffn.fc1.weight, "b1": blk.ffn.fc1.bias,
              "w2": blk.ffn.fc2.weight, "b2": blk.ffn.fc2.bias}
    fused_out = nn.transformer_block(x, params, num_heads=2, eps=1e-5)
    assert len(fused_out._parents) == 17      # the one-node form
    with unfused():
        composed = nn.transformer_block(x, params, num_heads=2, eps=1e-5)
        assert len(composed._parents) != 17       # multi-node composition
    np.testing.assert_array_equal(fused_out.data, composed.data)


def test_unfused_builds_composition_nodes(rng):
    """The oracle really is the multi-node graph, not a re-label."""
    x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
    gamma, beta = nn.Parameter(np.ones(8)), nn.Parameter(np.zeros(8))
    one = nn.layer_norm(x, gamma, beta)
    assert one._parents == (x, gamma, beta)
    with unfused():
        many = nn.layer_norm(x, gamma, beta)
        assert x not in many._parents      # composed through intermediates


# -- forward/backward parity, all fused ops ------------------------------------


def _block_run(dtype, fused_on, train, mask, dropout):
    with kernel_path(fused_on):
        rng = np.random.default_rng(7)
        with nn.default_dtype(dtype):
            blk = nn.TransformerBlock(16, 4, dropout=dropout, rng=rng)
        blk.train(train)
        x = np.random.default_rng(1).normal(size=(4, 6, 16)).astype(dtype)
        t = Tensor(x, requires_grad=True)
        out = blk(t, mask=mask)
        (out ** 2.0).sum().backward()
        return (out.data, t.grad,
                {name: p.grad for name, p in blk.named_parameters()})


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("train", [False, True])
def test_transformer_block_parity(dtype, train, rng):
    for name, mask in _mask_cases(4, 6, rng).items():
        out1, gx1, pg1 = _block_run(dtype, True, train, mask, dropout=0.25)
        out0, gx0, pg0 = _block_run(dtype, False, train, mask, dropout=0.25)
        np.testing.assert_array_equal(out1, out0, err_msg=f"mask={name}")
        tols = GRAD_TOLS[dtype]
        np.testing.assert_allclose(gx1, gx0, **tols, err_msg=f"mask={name}")
        assert pg1.keys() == pg0.keys()
        for pname in pg1:
            np.testing.assert_allclose(pg1[pname], pg0[pname], **tols,
                                       err_msg=f"{pname} mask={name}")


@pytest.mark.parametrize("dtype", DTYPES)
def test_mha_op_parity(dtype, rng):
    """The standalone one-node MHA (cross-attention module path uses it)."""
    with nn.default_dtype(dtype):
        attn = nn.MultiHeadAttention(16, 4, rng=np.random.default_rng(3))
    x = rng.normal(size=(3, 5, 16)).astype(dtype)
    mask = _mask_cases(3, 5, rng)["causal+padding"]

    def run(fused_on):
        with kernel_path(fused_on):
            t = Tensor(x, requires_grad=True)
            out = attn(t, mask=mask)
            (out ** 2.0).sum().backward()
            return out.data, t.grad
    out1, g1 = run(True)
    out0, g0 = run(False)
    np.testing.assert_array_equal(out1, out0)
    np.testing.assert_allclose(g1, g0, **GRAD_TOLS[dtype])


@pytest.mark.parametrize("dtype", DTYPES)
def test_sdpa_parity_cross_attention(dtype, rng):
    q = rng.normal(size=(2, 2, 4, 8)).astype(dtype)
    k = rng.normal(size=(2, 2, 6, 8)).astype(dtype)
    v = rng.normal(size=(2, 2, 6, 8)).astype(dtype)
    mask = rng.random((2, 1, 4, 6)) > 0.6

    def run(fused_on):
        with kernel_path(fused_on):
            tq, tk, tv = (Tensor(a, requires_grad=True) for a in (q, k, v))
            out = nn.scaled_dot_product_attention(tq, tk, tv, mask=mask)
            (out ** 2.0).sum().backward()
            return out.data, tq.grad, tk.grad, tv.grad
    r1, r0 = run(True), run(False)
    np.testing.assert_array_equal(r1[0], r0[0])
    for a, b in zip(r1[1:], r0[1:]):
        np.testing.assert_allclose(a, b, **GRAD_TOLS[dtype])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("ignore", [None, -1])
def test_softmax_cross_entropy_parity(dtype, ignore, rng):
    logits = rng.normal(size=(4, 5, 7)).astype(dtype)
    targets = rng.integers(0, 7, size=(4, 5))
    if ignore is not None:
        targets[0, :3] = ignore

    def run(fused_on):
        with kernel_path(fused_on):
            t = Tensor(logits, requires_grad=True)
            loss = nn.softmax_cross_entropy(t, targets, ignore_index=ignore)
            loss.backward()
            return float(loss.data), t.grad
    (l1, g1), (l0, g0) = run(True), run(False)
    assert l1 == l0
    np.testing.assert_allclose(g1, g0, **GRAD_TOLS[dtype])


def test_softmax_cross_entropy_all_ignored_is_constant_zero():
    logits = Tensor(np.ones((2, 3)), requires_grad=True)
    loss = nn.softmax_cross_entropy(logits, np.array([-1, -1]),
                                    ignore_index=-1)
    assert float(loss.data) == 0.0 and loss._backward is None


@pytest.mark.parametrize("dtype", DTYPES)
def test_info_nce_parity(dtype, rng):
    scores = rng.normal(size=(10, 14)).astype(dtype)
    positive = rng.random((10, 14)) < 0.2
    positive[3] = False                       # a row with no positives
    candidate = rng.random((10, 14)) < 0.6
    for cand in (None, candidate):
        def run(fused_on):
            with kernel_path(fused_on):
                t = Tensor(scores, requires_grad=True)
                loss = nn.info_nce(t, positive, cand)
                loss.backward()
                return float(loss.data), t.grad
        (l1, g1), (l0, g0) = run(True), run(False)
        assert l1 == l0
        np.testing.assert_allclose(g1, g0, **GRAD_TOLS[dtype])


@pytest.mark.parametrize("dtype", DTYPES)
def test_layer_norm_and_linear_and_ffn_parity(dtype, rng):
    x = rng.normal(size=(3, 4, 8)).astype(dtype)
    with nn.default_dtype(dtype):
        norm = nn.LayerNorm(8)
        lin = nn.Linear(8, 6, rng=np.random.default_rng(0))
        ffn = nn.FeedForward(8, 16, rng=np.random.default_rng(1))
    for module in (norm, lin, ffn):
        def run(fused_on):
            with kernel_path(fused_on):
                t = Tensor(x, requires_grad=True)
                (module(t) ** 2.0).sum().backward()
                grads = [p.grad.copy() for p in module.parameters()]
                for p in module.parameters():
                    p.zero_grad()
                return module(t.detach()).data, t.grad, grads
        out1, g1, pg1 = run(True)
        out0, g0, pg0 = run(False)
        np.testing.assert_array_equal(out1, out0)
        for a, b in zip([g1] + pg1, [g0] + pg0):
            np.testing.assert_allclose(a, b, **GRAD_TOLS[dtype])


# -- finite-difference checks of the fused backward closures -------------------


@pytest.mark.parametrize("dtype", DTYPES)
def test_fused_sdpa_fd(dtype, rng):
    k = rng.normal(size=(2, 3, 8))
    v = rng.normal(size=(2, 3, 8))
    mask = np.triu(np.ones((3, 3), dtype=bool), k=1)
    check_grad_dtype(
        lambda t: (nn.scaled_dot_product_attention(
            t, Tensor(k, dtype=t.data.dtype),
            Tensor(v, dtype=t.data.dtype), mask=mask) ** 2.0).sum(),
        rng.normal(size=(2, 3, 8)), dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_fused_block_fd_wrt_input(dtype, rng):
    with nn.default_dtype(dtype):
        blk = nn.TransformerBlock(8, 2, rng=np.random.default_rng(5))
    blk.eval()
    mask = nn.causal_mask(4)[None, None]
    check_grad_dtype(lambda t: (blk(t, mask=mask) ** 2.0).sum(),
                     rng.normal(size=(2, 4, 8)), dtype)


def test_fused_block_fd_wrt_parameters(rng):
    """FD through every parameter of the one-node layer (float64)."""
    from ..conftest import numeric_grad

    blk = nn.TransformerBlock(8, 2, rng=np.random.default_rng(5))
    blk.eval()
    x = rng.normal(size=(2, 4, 8))
    mask = nn.causal_mask(4)[None, None]
    for name, param in blk.named_parameters():
        blk.zero_grad()
        loss = (blk(Tensor(x), mask=mask) ** 2.0).sum()
        loss.backward()
        analytic = param.grad.copy()
        base = param.data.copy()

        def scalar_fn(arr, param=param):
            param.data = arr
            with nn.no_grad():
                return float(
                    ((blk(Tensor(x), mask=mask) ** 2.0).sum()).data)

        try:
            numeric = numeric_grad(scalar_fn, base.copy())
        finally:
            param.data = base
        np.testing.assert_allclose(analytic, numeric, atol=1e-4,
                                   rtol=1e-4, err_msg=name)


@pytest.mark.parametrize("dtype", DTYPES)
def test_fused_cross_entropy_fd(dtype, rng):
    targets = np.array([0, 2, 1, -1])
    check_grad_dtype(
        lambda t: nn.softmax_cross_entropy(t, targets, ignore_index=-1),
        rng.normal(size=(4, 5)), dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_fused_layer_norm_fd(dtype, rng):
    gamma = rng.normal(size=(6,)) + 1.0
    beta = rng.normal(size=(6,))
    check_grad_dtype(
        lambda t: (nn.layer_norm(
            t, Tensor(gamma, dtype=t.data.dtype),
            Tensor(beta, dtype=t.data.dtype)) ** 2.0).sum(),
        rng.normal(size=(3, 6)), dtype)
    x_const = rng.normal(size=(3, 6))
    check_grad_dtype(
        lambda t: (nn.layer_norm(
            Tensor(x_const, dtype=t.data.dtype), t,
            Tensor(beta, dtype=t.data.dtype)) ** 2.0).sum(),
        gamma, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_fused_linear_fd(dtype, rng):
    w = rng.normal(size=(5, 4))
    b = rng.normal(size=(4,))
    check_grad_dtype(
        lambda t: (nn.linear(t, Tensor(w, dtype=t.data.dtype),
                             Tensor(b, dtype=t.data.dtype)) ** 2.0).sum(),
        rng.normal(size=(2, 3, 5)), dtype)
    check_grad_dtype(
        lambda t: (nn.linear(Tensor(np.ones((2, 5)), dtype=t.data.dtype),
                             t, None) ** 2.0).sum(),
        w, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_fused_info_nce_fd(dtype, rng):
    positive = np.eye(4, 6, dtype=bool)
    candidate = rng.random((4, 6)) > 0.2
    candidate |= positive
    check_grad_dtype(lambda t: nn.info_nce(t, positive, candidate),
                     rng.normal(size=(4, 6)), dtype)


# -- lazy unbroadcast ----------------------------------------------------------


def test_lazy_unbroadcast_grad_shapes(rng):
    """Broadcast operands still receive reduced, writable gradients."""
    a = Tensor(rng.normal(size=(4,)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    ((a + b) * a).sum().backward()
    assert a.grad.shape == (4,) and b.grad.shape == (3, 4)
    assert a.grad.flags.writeable and b.grad.flags.writeable


def test_lazy_unbroadcast_fd_mixed_shapes(rng):
    other = rng.normal(size=(3, 4))
    check_grad(lambda t: ((t + Tensor(other)) * (t * 2.0)).sum(),
               rng.normal(size=(4,)))
    check_grad(lambda t: ((Tensor(other) - t) / (t ** 2.0 + 2.0)).sum(),
               np.abs(rng.normal(size=(1, 4))) + 1.0)


def test_lazy_unbroadcast_multiple_contributions(rng):
    """Two different broadcast uses of one leaf accumulate correctly."""
    x0 = rng.normal(size=(1, 4))
    other = rng.normal(size=(5, 4))

    def loss(t):
        first = (t * Tensor(other)).sum()        # (5, 4) contribution
        second = (t + 1.0).sum()                 # (1, 4) contribution
        return first + second

    check_grad(loss, x0)


def test_sum_backward_broadcast_view_is_safe(rng):
    """sum() returns a broadcast view; leaves must still get fresh grads."""
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    x.sum().backward()
    first = x.grad
    assert first.flags.writeable
    x.sum().backward()                           # accumulate a second pass
    np.testing.assert_allclose(x.grad, 2.0)


# -- dropout passthrough & mask caching ----------------------------------------


def test_dropout_zero_rate_is_identity():
    drop = nn.Dropout(0.0)
    x = Tensor(np.ones((3, 3)))
    assert drop(x) is x


def test_eval_dropout_is_identity_and_draws_nothing():
    drop = nn.Dropout(0.5)
    drop.eval()
    probe = nn.Dropout(0.5)      # same seed: a reference stream
    x = Tensor(np.ones((3, 3)))
    assert drop(x) is x
    assert drop.mask_for((3, 3), np.float64) is None
    # The stream is untouched: the next draw equals a fresh generator's.
    assert drop._rng.random() == probe._rng.random()


def test_dropout_mask_for_matches_forward_stream():
    """mask_for consumes the exact draws forward would have consumed."""
    a, b = nn.Dropout(0.4, seed=9), nn.Dropout(0.4, seed=9)
    a.train(); b.train()
    x = np.ones((5, 7))
    out = a(Tensor(x)).data
    mask = b.mask_for((5, 7), np.float64)
    np.testing.assert_array_equal(out, x * mask)


def test_causal_mask_cached_and_readonly():
    m1, m2 = nn.causal_mask(9), nn.causal_mask(9)
    assert m1 is m2
    assert not m1.flags.writeable
    assert m1[0, 1] and not m1[1, 0]


def test_padding_mask_full_valid_cached():
    valid = np.ones((3, 5), dtype=bool)
    m1, m2 = nn.padding_mask(valid), nn.padding_mask(valid)
    assert m1 is m2 and m1.shape == (3, 1, 1, 5) and not m1.any()
    assert not m1.flags.writeable
    ragged = valid.copy()
    ragged[1, 3:] = False
    m3 = nn.padding_mask(ragged)
    assert m3[1, 0, 0, 3] and not m3[0].any()


# -- fused ops under no_grad ---------------------------------------------------


def test_fused_ops_take_no_grad_fast_path(rng):
    blk = nn.TransformerBlock(8, 2, rng=np.random.default_rng(0))
    blk.eval()
    x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
    with nn.no_grad():
        out = blk(x)
    assert out._backward is None and out._parents == ()
    assert not out.requires_grad
