"""Multi-head attention and Transformer encoder blocks.

Used for every Transformer in the paper: the RoBERTa-style text encoder,
the ViT vision encoder, the merge-attention fusion block (Eq. 3) and the
SASRec-style user encoder (Eq. 4, causal variant).

Self-attention and whole encoder layers run as fused one-node kernels
(:func:`repro.nn.fused.multi_head_attention` and
:func:`repro.nn.fused.transformer_block`); cross-attention projects
through :class:`Linear` and attends with
:func:`repro.nn.fused.scaled_dot_product_attention`. Constant masks are
cached so training loops don't rebuild them on every forward call.
"""

from __future__ import annotations

import functools

import numpy as np

from .fused import (multi_head_attention, scaled_dot_product_attention,
                    transformer_block)
from .modules import Dropout, FeedForward, LayerNorm, Linear, Module
from .tensor import Tensor

__all__ = ["MultiHeadAttention", "TransformerBlock", "causal_mask",
           "padding_mask"]


@functools.lru_cache(maxsize=128)
def _causal_mask_cached(length: int) -> np.ndarray:
    mask = np.triu(np.ones((length, length), dtype=bool), k=1)
    mask.setflags(write=False)
    return mask


def causal_mask(length: int) -> np.ndarray:
    """Boolean ``(length, length)`` mask; True marks *disallowed* positions.

    Cached per length (training loops call this every step with the same
    sequence length); the returned array is read-only — copy before
    mutating.
    """
    return _causal_mask_cached(int(length))


@functools.lru_cache(maxsize=128)
def _no_padding_mask_cached(batch: int, length: int) -> np.ndarray:
    mask = np.zeros((batch, 1, 1, length), dtype=bool)
    mask.setflags(write=False)
    return mask


def padding_mask(valid: np.ndarray) -> np.ndarray:
    """Turn a ``(batch, length)`` validity mask into an attention mask.

    Returns boolean ``(batch, 1, 1, length)``; True marks key positions
    that must not be attended to (padding). Fully-valid batches (vision
    patches, fusion streams without text padding) hit a per-shape cache
    instead of re-allocating an all-False mask each call; the cached
    array is read-only.
    """
    valid = np.asarray(valid, dtype=bool)
    if valid.all():
        return _no_padding_mask_cached(valid.shape[0], valid.shape[1])
    return ~valid[:, None, None, :]


class MultiHeadAttention(Module):
    """Scaled dot-product attention with ``num_heads`` parallel heads."""

    def __init__(self, dim: int, num_heads: int, dropout: float = 0.0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim={dim} not divisible by num_heads={num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim, rng=rng)
        self.k_proj = Linear(dim, dim, rng=rng)
        self.v_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)
        self.drop = Dropout(dropout)

    def _split_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        return x.reshape(batch, length, self.num_heads, self.head_dim) \
                .transpose(0, 2, 1, 3)

    def forward(self, query: Tensor, key: Tensor | None = None,
                value: Tensor | None = None,
                mask: np.ndarray | None = None) -> Tensor:
        """Attend ``query`` over ``key``/``value`` (self-attention if omitted).

        ``mask`` is boolean, broadcastable to ``(batch, heads, q_len, k_len)``
        with True marking disallowed attention edges.
        """
        batch, q_len, _ = query.shape
        k_len = query.shape[1] if key is None else key.shape[1]

        # The attention-weight dropout mask is drawn here and folded
        # into the fused node, so the kernel and its unfused composition
        # consume the same RNG stream draw for draw.
        drop_mask = self.drop.mask_for((batch, self.num_heads, q_len, k_len),
                                       query.data.dtype)
        if key is None and value is None:
            # Self-attention (every Transformer in the repo): the whole
            # projection/split/attend/merge/project chain is one node.
            return multi_head_attention(
                query, self.q_proj.weight, self.q_proj.bias,
                self.k_proj.weight, self.k_proj.bias,
                self.v_proj.weight, self.v_proj.bias,
                self.out_proj.weight, self.out_proj.bias,
                num_heads=self.num_heads, mask=mask,
                scale=self.head_dim ** -0.5, dropout_mask=drop_mask)

        key = query if key is None else key
        value = key if value is None else value
        q = self._split_heads(self.q_proj(query), batch, q_len)
        k = self._split_heads(self.k_proj(key), batch, k_len)
        v = self._split_heads(self.v_proj(value), batch, k_len)
        context = scaled_dot_product_attention(
            q, k, v, mask=mask, scale=self.head_dim ** -0.5,
            dropout_mask=drop_mask)
        context = context.transpose(0, 2, 1, 3).reshape(batch, q_len, self.dim)
        return self.out_proj(context)


class TransformerBlock(Module):
    """Pre-LN Transformer encoder block (MHA + FFN with residuals)."""

    def __init__(self, dim: int, num_heads: int, ffn_dim: int | None = None,
                 dropout: float = 0.0, rng: np.random.Generator | None = None):
        super().__init__()
        ffn_dim = ffn_dim or 4 * dim
        self.attn = MultiHeadAttention(dim, num_heads, dropout=dropout, rng=rng)
        self.ffn = FeedForward(dim, ffn_dim, dropout=dropout, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.drop = Dropout(dropout)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        # The entire layer is one fused node. The four dropout masks are
        # drawn here in the order the layer applies them (attention
        # weights, attention output, FFN hidden, FFN output).
        batch, length, _ = x.shape
        dtype = x.data.dtype
        attn = self.attn
        m_attn = attn.drop.mask_for(
            (batch, attn.num_heads, length, length), dtype)
        m_out1 = self.drop.mask_for(x.shape, dtype)
        m_ffn = self.ffn.drop.mask_for(
            x.shape[:-1] + (self.ffn.hidden_dim,), dtype)
        m_out2 = self.drop.mask_for(x.shape, dtype)
        return transformer_block(
            x,
            {"ln1_g": self.norm1.gamma, "ln1_b": self.norm1.beta,
             "wq": attn.q_proj.weight, "bq": attn.q_proj.bias,
             "wk": attn.k_proj.weight, "bk": attn.k_proj.bias,
             "wv": attn.v_proj.weight, "bv": attn.v_proj.bias,
             "wo": attn.out_proj.weight, "bo": attn.out_proj.bias,
             "ln2_g": self.norm2.gamma, "ln2_b": self.norm2.beta,
             "w1": self.ffn.fc1.weight, "b1": self.ffn.fc1.bias,
             "w2": self.ffn.fc2.weight, "b2": self.ffn.fc2.bias},
            num_heads=attn.num_heads, eps=self.norm1.eps,
            eps2=self.norm2.eps, mask=mask,
            attn_dropout_mask=m_attn, ffn_dropout_mask=m_ffn,
            out1_dropout_mask=m_out1, out2_dropout_mask=m_out2)
