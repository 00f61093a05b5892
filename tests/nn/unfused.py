"""The parity oracle: the unfused compositions behind ``repro.nn.fused``.

Each fused kernel in the runtime collapses a chain of autograd ops into
one graph node whose forward mirrors the chain's floating-point op order
bit-for-bit. The chains themselves live here, in the test suite, as the
reference the kernels are pinned against; the runtime carries no switch
back to them.

:func:`unfused` rebinds, for the duration of a ``with`` block, every
attribute of every loaded ``repro`` module that *is* a fused kernel to
its composition below. Module-level imports (``from .fused import
linear as linear_fn``), package re-exports (``repro.nn.info_nce``) and
the kernels' home module are all covered, so a model run inside the
block builds the multi-node graph end to end::

    with unfused():
        loss, _ = model.training_loss(dataset, item_ids, mask)

The compositions call each other directly (never through ``fused``), so
the whole-layer :func:`transformer_block` is the composition all the way
down. The rebinding is process-wide: keep the block on one thread.
"""

from __future__ import annotations

import contextlib
import sys

import numpy as np

from repro.nn import fused, ops
from repro.nn.ops import cross_entropy, gelu, masked_fill, softmax
from repro.nn.tensor import Tensor, as_tensor

__all__ = ["unfused", "kernel_path", "REFERENCES"]


def scaled_dot_product_attention(q, k, v, mask=None, scale=None,
                                 dropout_mask=None) -> Tensor:
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if scale is None:
        scale = q.shape[-1] ** -0.5
    scale = float(scale)
    scores = (q @ k.swapaxes(-1, -2)) * scale
    if mask is not None:
        scores = masked_fill(scores,
                             np.broadcast_to(mask, scores.shape))
    weights = softmax(scores, axis=-1)
    if dropout_mask is not None:
        weights = weights * Tensor._wrap(np.asarray(dropout_mask))
    return weights @ v


def multi_head_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, num_heads,
                         mask=None, scale=None, dropout_mask=None) -> Tensor:
    x = as_tensor(x)
    batch, length, dim = x.shape
    head_dim = dim // num_heads
    if scale is None:
        scale = head_dim ** -0.5
    scale = float(scale)

    def split(t: Tensor) -> Tensor:
        return t.reshape(batch, length, num_heads, head_dim) \
                .transpose(0, 2, 1, 3)

    q = split(linear(x, wq, bq))
    k = split(linear(x, wk, bk))
    v = split(linear(x, wv, bv))
    context = scaled_dot_product_attention(
        q, k, v, mask=mask, scale=scale, dropout_mask=dropout_mask)
    context = context.transpose(0, 2, 1, 3).reshape(batch, length, dim)
    return linear(context, wo, bo)


def transformer_block(x, params, num_heads, eps, mask=None,
                      attn_dropout_mask=None, ffn_dropout_mask=None,
                      out1_dropout_mask=None, out2_dropout_mask=None,
                      eps2=None) -> Tensor:
    x = as_tensor(x)
    p = {name: as_tensor(value) for name, value in params.items()}
    eps2 = eps if eps2 is None else eps2
    h = layer_norm(x, p["ln1_g"], p["ln1_b"], eps=eps)
    attn = multi_head_attention(
        h, p["wq"], p["bq"], p["wk"], p["bk"], p["wv"], p["bv"],
        p["wo"], p["bo"], num_heads=num_heads, mask=mask,
        dropout_mask=attn_dropout_mask)
    if out1_dropout_mask is not None:
        attn = attn * Tensor._wrap(out1_dropout_mask)
    y = x + attn
    h2 = layer_norm(y, p["ln2_g"], p["ln2_b"], eps=eps2)
    ffn = feed_forward(h2, p["w1"], p["b1"], p["w2"], p["b2"],
                       dropout_mask=ffn_dropout_mask)
    if out2_dropout_mask is not None:
        ffn = ffn * Tensor._wrap(out2_dropout_mask)
    return y + ffn


def softmax_cross_entropy(logits, targets, ignore_index=None) -> Tensor:
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    return cross_entropy(logits, targets, ignore_index=ignore_index)


def linear(x, weight, bias=None) -> Tensor:
    x, weight = as_tensor(x), as_tensor(weight)
    bias = as_tensor(bias) if bias is not None else None
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def feed_forward(x, w1, b1, w2, b2, dropout_mask=None) -> Tensor:
    x = as_tensor(x)
    hidden = gelu(linear(x, w1, b1))
    if dropout_mask is not None:
        hidden = hidden * Tensor._wrap(dropout_mask)
    return linear(hidden, w2, b2)


def info_nce(scores, positive_mask, candidate_mask=None) -> Tensor:
    scores = as_tensor(scores)
    return ops.info_nce(scores, positive_mask, candidate_mask)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered * ((var + eps) ** -0.5)
    return normed * gamma + beta


#: Every fused kernel, keyed by the runtime object, with its composition.
REFERENCES = {getattr(fused, name): globals()[name] for name in fused.__all__}
_BY_ID = {id(kernel): reference for kernel, reference in REFERENCES.items()}


@contextlib.contextmanager
def unfused():
    """Run every fused kernel bound in a ``repro`` module as its composition."""
    patched = []
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            reference = _BY_ID.get(id(value))
            if reference is not None:
                patched.append((module, attr, value))
                setattr(module, attr, reference)
    try:
        yield
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)


def kernel_path(fused_on: bool):
    """The fused runtime (``True``) or the oracle (``False``) as a context."""
    return contextlib.nullcontext() if fused_on else unfused()
