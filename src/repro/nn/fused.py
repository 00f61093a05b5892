"""Fused composite autograd nodes for the Transformer hot chain.

With the closure-free ``no_grad`` path in place, op *dispatch* — one
Python-level graph node per numpy op — is the dominant remaining cost of
training (ROADMAP NEXT). Every Transformer in the paper (RoBERTa text
encoder, ViT, the merge-attention fusion of Eq. 3, the SASRec user
encoder) pays that cost per layer per step, so the chains they all share
are collapsed here into single forward/backward pairs:

* :func:`transformer_block` — an entire pre-LN layer
  (LN → MHA → dropout → residual → LN → FFN → dropout → residual) as
  ONE node; :func:`multi_head_attention` and
  :func:`scaled_dot_product_attention` cover the standalone attention
  chains (softmax Jacobian folded into the backward closure, no
  intermediate Tensor graph nodes).
* :func:`layer_norm`, :func:`linear`, :func:`feed_forward` — the
  remaining per-layer chains as one node each.
* :func:`softmax_cross_entropy` — log-softmax + negative-log-likelihood
  gather + masked mean as one node; the backward pass is the classic
  ``softmax(logits) - onehot`` expression.
* :func:`info_nce` — the generalized contrastive objective behind the
  paper's Eq. 5–11 losses, with the closed-form
  ``cand·softmax_cand − pos·softmax_pos`` backward.

Each op mirrors the unfused composition's floating-point operation order
exactly, so the fused forward is bit-for-bit identical to the graph it
replaces — eval metrics, serving ranks and checkpoints are unaffected.

These kernels are the only implementation the runtime has. The unfused
compositions they replace live in the test suite (``tests/nn/unfused.py``)
as the parity oracle: inside its context manager every fused kernel
bound in a ``repro`` module runs as its multi-node composition, and the
parity tests compare the two paths and check the fused backward closures
against finite differences.
"""

from __future__ import annotations

import numpy as np
from ..obs import prof
from .ops import _INV_SQRT2, _INV_SQRT_2PI, _NEG_INF, erf_
from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = ["scaled_dot_product_attention", "multi_head_attention",
           "transformer_block", "softmax_cross_entropy", "layer_norm",
           "linear", "feed_forward", "info_nce"]


# -- attention -----------------------------------------------------------------
#
# The masked-softmax attention core is shared by every fused attention
# kernel (sdpa, one-node MHA, the whole-layer transformer_block) so the
# subtle numerics — in-place softmax op order (the bit-for-bit parity
# guarantee), the dropout-mask fold, the fully-masked-row gradient
# zeroing — exist exactly once.


def _attn_forward(qd: np.ndarray, kd: np.ndarray, vd: np.ndarray,
                  mask: np.ndarray | None, scale: float,
                  dropout_mask: np.ndarray | None):
    """Fused ``softmax(q@kT*scale + mask) * drop @ v`` on raw arrays.

    Returns ``(out, weights, applied)`` where ``weights`` are the
    pre-dropout softmax weights and ``applied`` the dropped ones (same
    array when dropout is inactive); both are needed by
    :func:`_attn_backward`.
    """
    scores = qd @ np.swapaxes(kd, -1, -2)
    scores *= scale
    if mask is not None:
        np.copyto(scores, scores.dtype.type(_NEG_INF),
                  where=np.broadcast_to(mask, scores.shape))
    # In-place numerically-stable softmax; ``scores`` becomes the weights.
    np.subtract(scores, scores.max(axis=-1, keepdims=True), out=scores)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    weights = scores
    applied = weights if dropout_mask is None else weights * dropout_mask
    return applied @ vd, weights, applied


def _attn_backward(g: np.ndarray, qd: np.ndarray, kd: np.ndarray,
                   vd: np.ndarray, weights: np.ndarray, applied: np.ndarray,
                   mask: np.ndarray | None, scale: float,
                   dropout_mask: np.ndarray | None):
    """Gradients ``(gq, gk, gv)`` of :func:`_attn_forward`."""
    gv = np.swapaxes(applied, -1, -2) @ g
    gw = g @ np.swapaxes(vd, -1, -2)
    if dropout_mask is not None:
        gw *= dropout_mask
    gs = weights * (gw - (gw * weights).sum(axis=-1, keepdims=True))
    if mask is not None:
        # Fully-masked rows have uniform weights; the unfused path's
        # masked_fill blocks their gradient, so zero it here too.
        np.copyto(gs, gs.dtype.type(0),
                  where=np.broadcast_to(mask, gs.shape))
    gs *= scale
    return gs @ kd, np.swapaxes(gs, -1, -2) @ qd, gv


@prof.profiled("fused.attention")
def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 mask: np.ndarray | None = None,
                                 scale: float | None = None,
                                 dropout_mask: np.ndarray | None = None
                                 ) -> Tensor:
    """Fused ``softmax(q @ k.T * scale + mask) @ v`` as one graph node.

    Parameters
    ----------
    q, k, v:
        ``(..., Lq, D)``, ``(..., Lk, D)`` and ``(..., Lk, Dv)`` tensors;
        leading (batch/head) axes follow numpy broadcasting.
    mask:
        Boolean array broadcastable to ``(..., Lq, Lk)``; True marks
        *disallowed* attention edges (filled with ``-1e9`` before the
        softmax, exactly like :func:`repro.nn.masked_fill`).
    scale:
        Score scale; defaults to ``D ** -0.5``.
    dropout_mask:
        Optional keep/scale array (already including the ``1/(1-p)``
        inverted-dropout factor) multiplied onto the softmax weights.
        Passing the mask explicitly keeps the RNG stream identical
        between the fused and unfused paths.

    The backward pass folds the softmax Jacobian in:
    ``dS = W * (dW - sum(dW * W, axis=-1))`` with ``W`` the (pre-dropout)
    attention weights, then ``dQ = dS @ K * scale`` and
    ``dK = dS.T @ Q * scale``; no intermediate graph nodes are built.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if scale is None:
        scale = q.shape[-1] ** -0.5
    scale = float(scale)

    qd, kd, vd = q.data, k.data, v.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
    out, weights, applied = _attn_forward(qd, kd, vd, mask, scale,
                                          dropout_mask)
    if not (is_grad_enabled()
            and (q.requires_grad or k.requires_grad or v.requires_grad)):
        return Tensor._wrap(out)

    def backward(g):
        return _attn_backward(g, qd, kd, vd, weights, applied, mask,
                              scale, dropout_mask)

    return Tensor._node(out, (q, k, v), backward)


@prof.profiled("fused.mha")
def multi_head_attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor,
                         bk: Tensor, wv: Tensor, bv: Tensor, wo: Tensor,
                         bo: Tensor, num_heads: int,
                         mask: np.ndarray | None = None,
                         scale: float | None = None,
                         dropout_mask: np.ndarray | None = None) -> Tensor:
    """One-node multi-head *self*-attention.

    The full chain — q/k/v projections, head split, scaled dot-product
    attention with masking and weight dropout, head merge, output
    projection — as a single forward/backward pair. This is the hot op
    of every Transformer in the paper; fusing it removes ~13 graph nodes
    (4 affine, 8 reshape/transpose views, plus the attention chain) per
    layer per step.

    ``x`` is ``(B, L, D)``; the weights are the module's ``(D, D)``
    projection matrices with ``(D,)`` biases. Semantics of ``mask`` /
    ``scale`` / ``dropout_mask`` match
    :func:`scaled_dot_product_attention`.
    """
    x = as_tensor(x)
    params = [as_tensor(t) for t in (wq, bq, wk, bk, wv, bv, wo, bo)]
    if scale is None:
        scale = (x.shape[-1] // num_heads) ** -0.5
    scale = float(scale)

    xd = x.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
    raw = tuple(p.data for p in params)
    out, saved = _mha_forward(xd, raw, num_heads, mask, scale, dropout_mask)
    needs = x.requires_grad or any(p.requires_grad for p in params)
    if not (is_grad_enabled() and needs):
        return Tensor._wrap(out)

    def backward(g):
        return _mha_backward(g, xd, raw, num_heads, mask, scale,
                             dropout_mask, saved)

    return Tensor._node(out, (x, *params), backward)


def _mha_forward(xd: np.ndarray, raw: tuple, num_heads: int,
                 mask: np.ndarray | None, scale: float,
                 dropout_mask: np.ndarray | None):
    """Projection/split/attend/merge/project on raw arrays.

    ``raw`` is ``(wq, bq, wk, bk, wv, bv, wo, bo)``. Returns
    ``(out, saved)`` with everything :func:`_mha_backward` needs.
    """
    wq, bq, wk, bk, wv, bv, wo, bo = raw
    batch, length, dim = xd.shape
    head_dim = dim // num_heads
    q = xd @ wq
    q += bq
    k = xd @ wk
    k += bk
    v = xd @ wv
    v += bv
    q4 = q.reshape(batch, length, num_heads, head_dim).transpose(0, 2, 1, 3)
    k4 = k.reshape(batch, length, num_heads, head_dim).transpose(0, 2, 1, 3)
    v4 = v.reshape(batch, length, num_heads, head_dim).transpose(0, 2, 1, 3)
    ctx4, weights, applied = _attn_forward(q4, k4, v4, mask, scale,
                                           dropout_mask)
    ctx = ctx4.transpose(0, 2, 1, 3).reshape(batch, length, dim)
    out = ctx @ wo
    out += bo
    return out, (q4, k4, v4, weights, applied, ctx)


def _mha_backward(g: np.ndarray, xd: np.ndarray, raw: tuple, num_heads: int,
                  mask: np.ndarray | None, scale: float,
                  dropout_mask: np.ndarray | None, saved: tuple):
    """Gradients of :func:`_mha_forward` in parameter order
    ``(gx, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo)``."""
    wq, bq, wk, bk, wv, bv, wo, bo = raw
    q4, k4, v4, weights, applied, ctx = saved
    batch, length, dim = xd.shape
    head_dim = dim // num_heads

    def merge(t4: np.ndarray) -> np.ndarray:
        return t4.transpose(0, 2, 1, 3).reshape(batch, length, dim)

    gwo = ctx.reshape(-1, dim).T @ g.reshape(-1, dim)
    gbo = g.sum(axis=(0, 1))
    gctx4 = (g @ wo.T).reshape(batch, length, num_heads, head_dim) \
        .transpose(0, 2, 1, 3)
    gq4, gk4, gv4 = _attn_backward(gctx4, q4, k4, v4, weights, applied,
                                   mask, scale, dropout_mask)
    gq, gk, gv = merge(gq4), merge(gk4), merge(gv4)
    gx = gq @ wq.T
    gx += gk @ wk.T
    gx += gv @ wv.T
    x2t = xd.reshape(-1, dim).T
    return (gx, x2t @ gq.reshape(-1, dim), gq.sum(axis=(0, 1)),
            x2t @ gk.reshape(-1, dim), gk.sum(axis=(0, 1)),
            x2t @ gv.reshape(-1, dim), gv.sum(axis=(0, 1)), gwo, gbo)


def _ln_forward(xd: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                eps: float):
    """Shared fused-LN forward; mirrors Tensor.mean's op order exactly."""
    inv_n = 1.0 / xd.shape[-1]
    mu = xd.sum(axis=-1, keepdims=True) * inv_n
    xc = xd - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) * inv_n
    inv_std = (var + eps) ** -0.5
    xc *= inv_std          # xc becomes xhat in place
    xhat = xc
    out = xhat * gamma
    out += beta
    return out, xhat, inv_std


def _ln_backward(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray,
                 gamma: np.ndarray, lead: tuple[int, ...]):
    """Closed-form fused-LN backward: ``(gx, ggamma, gbeta)``."""
    inv_n = 1.0 / xhat.shape[-1]
    gxhat = g * gamma
    m1 = gxhat.sum(axis=-1, keepdims=True) * inv_n
    m2 = (gxhat * xhat).sum(axis=-1, keepdims=True) * inv_n
    ggamma = (g * xhat).sum(axis=lead)
    # gxhat is dead after this point; reuse it as the gx buffer.
    gxhat -= m1
    gxhat -= xhat * m2
    gxhat *= inv_std
    return gxhat, ggamma, g.sum(axis=lead)


def _gelu_ffn_forward(xd: np.ndarray, w1: np.ndarray, b1: np.ndarray,
                      w2: np.ndarray, b2: np.ndarray,
                      dropout_mask: np.ndarray | None):
    """linear → exact GELU → dropout → linear on raw arrays.

    Returns ``(out, pre, cdf, hidden)``; the GELU op order matches
    :func:`repro.nn.gelu` exactly (erf in a scratch buffer).
    """
    pre = xd @ w1
    pre += b1
    cdf = erf_(pre * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    hidden = pre * cdf
    if dropout_mask is not None:
        hidden *= dropout_mask
    out = hidden @ w2
    out += b2
    return out, pre, cdf, hidden


def _gelu_ffn_backward(g: np.ndarray, xd: np.ndarray, w1: np.ndarray,
                       w2: np.ndarray, pre: np.ndarray, cdf: np.ndarray,
                       hidden: np.ndarray, dropout_mask: np.ndarray | None,
                       lead: tuple[int, ...]):
    """Gradients ``(gx, gw1, gb1, gw2, gb2)`` of :func:`_gelu_ffn_forward`."""
    gw2 = hidden.reshape(-1, hidden.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    gb2 = g.sum(axis=lead)
    ghid = g @ w2.T
    if dropout_mask is not None:
        ghid *= dropout_mask
    # d gelu(pre) = cdf + pre * pdf(pre), reusing the forward's cdf.
    dact = pre * pre
    dact *= -0.5
    np.exp(dact, out=dact)
    dact *= _INV_SQRT_2PI
    dact *= pre
    dact += cdf
    gpre = ghid * dact
    gw1 = xd.reshape(-1, xd.shape[-1]).T @ gpre.reshape(-1, gpre.shape[-1])
    gb1 = gpre.sum(axis=lead)
    gx = gpre @ w1.T
    return gx, gw1, gb1, gw2, gb2


@prof.profiled("fused.transformer_block")
def transformer_block(x: Tensor, params: dict, num_heads: int, eps: float,
                      mask: np.ndarray | None = None,
                      attn_dropout_mask: np.ndarray | None = None,
                      ffn_dropout_mask: np.ndarray | None = None,
                      out1_dropout_mask: np.ndarray | None = None,
                      out2_dropout_mask: np.ndarray | None = None,
                      eps2: float | None = None) -> Tensor:
    """An entire pre-LN Transformer layer as ONE graph node.

    Computes ``y = x + drop(MHA(LN1(x)))`` then
    ``out = y + drop(FFN(LN2(y)))`` with all four dropout masks drawn by
    the caller (preserving the unfused RNG order). ``params`` maps the
    layer's 17 tensors: ``ln1_g ln1_b wq bq wk bk wv bv wo bo ln2_g
    ln2_b w1 b1 w2 b2`` — the caller (``nn.TransformerBlock``) passes its
    registered parameters, so optimizers and ``state_dict`` are
    untouched. ``eps`` belongs to LN1; ``eps2`` to LN2 (defaults to
    ``eps``). The backward pass chains the closed-form LN, attention and
    FFN gradients by hand; no intermediate nodes exist.
    """
    x = as_tensor(x)
    order = ("ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv",
             "wo", "bo", "ln2_g", "ln2_b", "w1", "b1", "w2", "b2")
    p = {name: as_tensor(params[name]) for name in order}
    eps2 = eps if eps2 is None else eps2

    xd = x.data
    scale = (xd.shape[-1] // num_heads) ** -0.5
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
    mha_raw = tuple(p[name].data for name in order[2:10])

    # LN1 -> MHA -> dropout -> residual
    h, xhat1, inv1 = _ln_forward(xd, p["ln1_g"].data, p["ln1_b"].data, eps)
    attn, mha_saved = _mha_forward(h, mha_raw, num_heads, mask, scale,
                                   attn_dropout_mask)
    if out1_dropout_mask is not None:
        attn *= out1_dropout_mask
    y = xd + attn

    # LN2 -> FFN -> dropout -> residual
    h2, xhat2, inv2 = _ln_forward(y, p["ln2_g"].data, p["ln2_b"].data, eps2)
    ffn, pre, cdf, hidden = _gelu_ffn_forward(
        h2, p["w1"].data, p["b1"].data, p["w2"].data, p["b2"].data,
        ffn_dropout_mask)
    if out2_dropout_mask is not None:
        ffn *= out2_dropout_mask
    out = y + ffn

    tensors = (x,) + tuple(p[name] for name in order)
    if not (is_grad_enabled() and any(t.requires_grad for t in tensors)):
        return Tensor._wrap(out)
    lead = (0, 1)

    def backward(g):
        # FFN half, back to the residual stream y.
        gffn = g if out2_dropout_mask is None else g * out2_dropout_mask
        gh2, gw1, gb1, gw2, gb2 = _gelu_ffn_backward(
            gffn, h2, p["w1"].data, p["w2"].data, pre, cdf, hidden,
            ffn_dropout_mask, lead)
        gy_ln2, gg2, gbln2 = _ln_backward(gh2, xhat2, inv2,
                                          p["ln2_g"].data, lead)
        gy = g + gy_ln2

        # Attention half, back to the input x.
        gattn = gy if out1_dropout_mask is None else gy * out1_dropout_mask
        gh, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo = _mha_backward(
            gattn, h, mha_raw, num_heads, mask, scale, attn_dropout_mask,
            mha_saved)
        gx_ln1, gg1, gbln1 = _ln_backward(gh, xhat1, inv1,
                                          p["ln1_g"].data, lead)
        gx = gy + gx_ln1
        return (gx, gg1, gbln1, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo,
                gg2, gbln2, gw1, gb1, gw2, gb2)

    return Tensor._node(out, tensors, backward)


# -- training loss -------------------------------------------------------------


@prof.profiled("fused.cross_entropy")
def softmax_cross_entropy(logits: Tensor, targets: np.ndarray,
                          ignore_index: int | None = None) -> Tensor:
    """Fused mean cross-entropy between ``logits`` and integer ``targets``.

    Drop-in replacement for :func:`repro.nn.cross_entropy` (same
    signature, same value bit-for-bit) that builds ONE graph node instead
    of the log-softmax / gather / mask / mean chain. The backward pass is
    ``(softmax(logits) - onehot(targets)) * upstream / count`` with
    ignored positions zeroed.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    data = logits.data
    flat = data.reshape(-1, data.shape[-1])
    idx = targets.reshape(-1)
    n = flat.shape[0]
    rows = np.arange(n)
    if ignore_index is not None:
        keep = idx != ignore_index
        if not keep.any():
            return Tensor(0.0, dtype=data.dtype)
        safe = np.where(keep, idx, 0)
        count = float(keep.sum())
    else:
        keep = None
        safe = idx
        count = float(n)

    shifted = flat - flat.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    sumexp = exps.sum(axis=-1, keepdims=True)
    # per-position loss = logsumexp - target logit (== -log p[target])
    per = np.log(sumexp[:, 0]) - shifted[rows, safe]
    if keep is not None:
        per = per * keep.astype(data.dtype)
        out = np.asarray(per.sum() / count)      # mirrors unfused ``/``
    else:
        out = np.asarray(per.sum() * (1.0 / count))  # mirrors ``.mean()``
    if not (is_grad_enabled() and logits.requires_grad):
        return Tensor._wrap(out)

    def backward(g):
        gf = exps / sumexp
        gf[rows, safe] -= 1.0
        if keep is not None:
            gf *= keep[:, None]
        gf *= np.asarray(g) / count
        return (gf.reshape(data.shape),)

    return Tensor._node(out, (logits,), backward)


# -- affine --------------------------------------------------------------------


@prof.profiled("fused.linear")
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fused affine transform ``x @ weight + bias`` as one graph node.

    Every Linear layer in every Transformer pays the matmul-node plus
    bias-add-node cost per call; fusing them halves the graph nodes of
    the projection-heavy MHA/FFN chains. ``x`` is ``(..., in)``,
    ``weight`` is ``(in, out)``, ``bias`` is ``(out,)`` or ``None``.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    bias = as_tensor(bias) if bias is not None else None
    xd, wd = x.data, weight.data
    out = xd @ wd
    if bias is not None:
        out += bias.data
    needs = x.requires_grad or weight.requires_grad \
        or (bias is not None and bias.requires_grad)
    if not (is_grad_enabled() and needs):
        return Tensor._wrap(out)
    lead = tuple(range(out.ndim - 1))

    def backward(g):
        gx = g @ np.swapaxes(wd, -1, -2)
        gw = xd.reshape(-1, xd.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        if bias is None:
            return (gx, gw)
        return (gx, gw, g.sum(axis=lead))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._node(out, parents, backward)


@prof.profiled("fused.ffn")
def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                 dropout_mask: np.ndarray | None = None) -> Tensor:
    """Fused Transformer FFN: ``(gelu(x @ w1 + b1) * drop) @ w2 + b2``.

    The position-wise feed-forward chain — linear, exact GELU, inverted
    dropout, linear — as ONE graph node. ``dropout_mask`` is the
    keep/scale array (or ``None`` when dropout is inactive); passing it
    in keeps the RNG stream identical to the unfused composition.
    """
    x = as_tensor(x)
    w1, b1, w2, b2 = (as_tensor(t) for t in (w1, b1, w2, b2))
    xd = x.data
    out, pre, cdf, hidden = _gelu_ffn_forward(xd, w1.data, b1.data,
                                              w2.data, b2.data, dropout_mask)
    needs = any(t.requires_grad for t in (x, w1, b1, w2, b2))
    if not (is_grad_enabled() and needs):
        return Tensor._wrap(out)
    lead = tuple(range(out.ndim - 1))

    def backward(g):
        return _gelu_ffn_backward(g, xd, w1.data, w2.data, pre, cdf,
                                  hidden, dropout_mask, lead)

    return Tensor._node(out, (x, w1, b1, w2, b2), backward)


# -- contrastive loss ----------------------------------------------------------


@prof.profiled("fused.info_nce")
def info_nce(scores: Tensor, positive_mask: np.ndarray,
             candidate_mask: np.ndarray | None = None) -> Tensor:
    """Fused generalized InfoNCE (see :func:`repro.nn.ops.info_nce`).

    The paper's Eq. 5–11 objectives all reduce to this primitive, so it
    is the single hottest loss in every training step. The fused node
    mirrors the unfused composition's value bit-for-bit and backpropagates
    the closed form ``dS = r * (cand * softmax_cand - pos * softmax_pos)``
    in one step instead of the ~10-node masked-exp-sum-log chain.
    """
    scores = as_tensor(scores)
    positive_mask = np.asarray(positive_mask, dtype=bool)
    if candidate_mask is None:
        candidate_mask = np.ones_like(positive_mask)
    candidate_mask = np.asarray(candidate_mask, dtype=bool)
    valid_rows = positive_mask.any(axis=1)
    if not valid_rows.any():
        return Tensor(0.0, dtype=scores.data.dtype)
    dtype = scores.data.dtype
    count = float(valid_rows.sum())

    union = candidate_mask | positive_mask
    masked = np.where(union, scores.data, dtype.type(_NEG_INF))
    masked -= masked.max(axis=1, keepdims=True)
    exp = np.exp(masked)
    cand_f = candidate_mask.astype(dtype)
    pos_f = positive_mask.astype(dtype)
    denom = (exp * cand_f).sum(axis=1)
    numer = (exp * pos_f).sum(axis=1)
    # Rows without positives contribute zero loss; pad their log args to 1
    # so 0 * log(0) never yields a NaN (mirrors the unfused composition).
    pad = (~valid_rows).astype(dtype)
    denom += pad
    numer += pad
    losses = np.log(denom) - np.log(numer)
    losses *= valid_rows.astype(dtype)
    out = np.asarray(losses.sum() / count)
    if not (is_grad_enabled() and scores.requires_grad):
        return Tensor._wrap(out)

    def backward(g):
        rscale = valid_rows.astype(dtype) * (np.asarray(g) / count)
        gs = cand_f / denom[:, None]
        gs -= pos_f / numer[:, None]
        gs *= exp
        gs *= rscale[:, None]
        return (gs,)

    return Tensor._node(out, (scores,), backward)


# -- layer norm ----------------------------------------------------------------


@prof.profiled("fused.layer_norm")
def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Fused layer normalization over the last axis as one graph node.

    Computes ``(x - mean) / sqrt(var + eps) * gamma + beta`` with the
    statistics taken over the last axis, exactly mirroring the unfused
    mean/center/var/scale composition's operation order (bit-for-bit
    identical forward). The backward pass uses the closed form
    ``dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))``.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    gd = gamma.data
    out, xhat, inv_std = _ln_forward(x.data, gd, beta.data, eps)
    if not (is_grad_enabled() and (x.requires_grad or gamma.requires_grad
                                   or beta.requires_grad)):
        return Tensor._wrap(out)
    lead = tuple(range(out.ndim - 1))

    def backward(g):
        return _ln_backward(g, xhat, inv_std, gd, lead)

    return Tensor._node(out, (x, gamma, beta), backward)
