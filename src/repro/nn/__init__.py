"""``repro.nn`` — a numpy reverse-mode autodiff engine with NN layers.

This subpackage replaces PyTorch for the reproduction (see DESIGN.md §1):
tensors with autograd, transformer / recurrent / convolutional layers,
optimizers and checkpointing. Gradient correctness is property-tested
against finite differences.
"""

from .attention import MultiHeadAttention, TransformerBlock, causal_mask, padding_mask
from .cluster import kmeans, kmeans_assign
from .convolution import CausalConv1d, NextItNetResidualBlock
from .fused import (feed_forward, info_nce, layer_norm, linear,
                    multi_head_attention, scaled_dot_product_attention,
                    softmax_cross_entropy, transformer_block)
from .modules import (Dropout, Embedding, FeedForward, Identity, LayerNorm,
                      Linear, Module, ModuleList, Sequential, inference_mode)
from .ops import (cosine_similarity, cross_entropy, dropout, dropout_mask,
                  embedding, gelu, log_softmax, masked_fill,
                  softmax, take_rows, topk)
from .optim import (Adam, AdamW, ConstantSchedule, SGD, WarmupCosineSchedule,
                    clip_grad_norm)
from .recurrent import GRU, GRUCell
from .serialization import (CHECKPOINT_FORMAT, checkpoint_meta, filter_state,
                            load_checkpoint, save_checkpoint, strip_prefix)
from .tensor import (Parameter, Tensor, as_tensor, concat, default_dtype,
                     get_default_dtype, is_grad_enabled, no_grad,
                     scatter_add_rows, set_default_dtype, stack, where)

__all__ = [
    "Tensor", "Parameter", "as_tensor", "concat", "stack", "where",
    "no_grad", "is_grad_enabled",
    "default_dtype", "get_default_dtype", "set_default_dtype",
    "Module", "ModuleList", "Sequential", "Identity", "inference_mode",
    "Linear", "Embedding", "LayerNorm", "Dropout", "FeedForward",
    "MultiHeadAttention", "TransformerBlock", "causal_mask", "padding_mask",
    "GRU", "GRUCell", "CausalConv1d", "NextItNetResidualBlock",
    "softmax", "log_softmax", "cross_entropy", "embedding", "take_rows",
    "topk", "gelu", "masked_fill", "dropout", "info_nce", "cosine_similarity",
    "scaled_dot_product_attention", "multi_head_attention",
    "transformer_block", "softmax_cross_entropy", "layer_norm", "linear",
    "feed_forward", "dropout_mask", "kmeans", "kmeans_assign",
    "SGD", "Adam", "AdamW", "clip_grad_norm",
    "ConstantSchedule", "WarmupCosineSchedule",
    "save_checkpoint", "load_checkpoint", "checkpoint_meta",
    "CHECKPOINT_FORMAT", "filter_state", "strip_prefix",
    "scatter_add_rows",
]
