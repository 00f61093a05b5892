"""Module system and core layers.

Mirrors the familiar ``torch.nn`` surface at the scale this reproduction
needs: attribute-based parameter registration, recursive ``state_dict``,
train/eval mode propagation, and the basic layers (Linear, Embedding,
LayerNorm, Dropout, feed-forward) used by every encoder.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Iterator

import numpy as np

from . import init
from .fused import feed_forward as feed_forward_fn
from .fused import layer_norm as layer_norm_fn
from .fused import linear as linear_fn
from .ops import dropout as dropout_fn
from .ops import dropout_mask as dropout_mask_fn
from .ops import embedding as embedding_fn
from .tensor import Parameter, Tensor, get_default_dtype, no_grad

__all__ = [
    "Module", "ModuleList", "Sequential", "Linear", "Embedding",
    "LayerNorm", "Dropout", "FeedForward", "Identity", "inference_mode",
]


@contextlib.contextmanager
def inference_mode(module):
    """Eval mode + ``no_grad`` for the block, restoring train mode after.

    The shared wrapper for catalogue/row encoding: the recursive mode
    walk is skipped entirely when the module is already in eval (the
    serving steady state pays nothing), and restoration is
    exception-safe.
    """
    was_training = bool(getattr(module, "training", False))
    if was_training:
        module.eval()
    try:
        with no_grad():
            yield
    finally:
        if was_training:
            module.train(True)


class Module:
    """Base class for all neural network modules.

    Parameters (:class:`repro.nn.Parameter`) and sub-modules assigned as
    attributes are registered automatically and traversed recursively by
    :meth:`parameters`, :meth:`state_dict` and :meth:`train`.
    """

    def __init__(self):
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, "Module"] = {}
        self.training: bool = True

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ------------------------------------------------------------

    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its children."""
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # -- train / eval ------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- dtype ----------------------------------------------------------------

    @property
    def param_dtype(self) -> np.dtype:
        """Dtype of this module's parameters (ambient default if it has none)."""
        for param in self.parameters():
            return param.data.dtype
        return get_default_dtype()

    def to_dtype(self, dtype) -> "Module":
        """Cast every parameter (and pending gradient) to ``dtype`` in place.

        Call this *before* constructing an optimizer: Adam/SGD snapshot
        their moment/velocity buffers from the parameter dtype at
        construction time and will not follow a later cast.
        """
        dtype = np.dtype(dtype)
        for param in self.parameters():
            param.data = param.data.astype(dtype, copy=False)
            if param.grad is not None:
                param.grad = param.grad.astype(dtype, copy=False)
        return self

    # -- serialization --------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat mapping of dotted parameter names to array copies."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray],
                        strict: bool = True) -> None:
        """Load parameter values in place from :meth:`state_dict` output.

        The load is *atomic*: every key and shape is validated before any
        parameter is written, so a bad checkpoint can never leave the
        module half-loaded — which is what makes in-process hot-swapping
        (``repro.stream``) safe to retry after a failed load. Strict mode
        (the default) raises on missing or unexpected keys; shape
        mismatches raise in both modes, reporting every offending key at
        once rather than the first.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}")
        staged: list[tuple["Parameter", np.ndarray]] = []
        mismatched: list[str] = []
        for name, param in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.shape:
                mismatched.append(f"{name}: checkpoint {value.shape} "
                                  f"vs module {param.shape}")
            else:
                staged.append((param, value))
        if mismatched:
            raise ValueError("state_dict shape mismatch for "
                             f"{len(mismatched)} parameter(s): "
                             + "; ".join(mismatched))
        for param, value in staged:
            param.data = value.copy()

    # -- call protocol --------------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """Hold an ordered list of sub-modules."""

    def __init__(self, modules: Iterable[Module] = ()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        name = str(len(self._items))
        self._modules[name] = module
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


class Sequential(Module):
    """Apply sub-modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = ModuleList(modules)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


class Identity(Module):
    """No-op layer, useful as a default pluggable component."""

    def forward(self, x):
        return x


class Linear(Module):
    """Affine transform ``x @ W + b`` (one fused graph node)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None, dtype=None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((in_features, out_features), rng), dtype=dtype)
        self.bias = Parameter(np.zeros(out_features), dtype=dtype) \
            if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear_fn(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    ``padding_idx`` rows start at zero; their gradient updates are harmless
    because padded positions are always masked out of the losses.
    """

    def __init__(self, num_embeddings: int, dim: int,
                 padding_idx: int | None = None,
                 rng: np.random.Generator | None = None, dtype=None):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.padding_idx = padding_idx
        table = init.normal((num_embeddings, dim), std=0.02, rng=rng)
        if padding_idx is not None:
            table[padding_idx] = 0.0
        self.weight = Parameter(table, dtype=dtype)

    def forward(self, indices: np.ndarray) -> Tensor:
        return embedding_fn(self.weight, np.asarray(indices))

    def prefix(self, length: int) -> Tensor:
        """First ``length`` rows as a ``(length, dim)`` tensor.

        Positional tables are almost always looked up with a broadcast
        ``arange`` — slicing the table and letting the caller broadcast-add
        it replaces a batch-sized gather (and its scatter-add backward)
        with a view plus one lazy sum-reduction.
        """
        return self.weight[:length]


class LayerNorm(Module):
    """Layer normalization over the last axis.

    Runs as the fused one-node kernel :func:`repro.nn.fused.layer_norm`.
    """

    def __init__(self, dim: int, eps: float = 1e-5, dtype=None):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim), dtype=dtype)
        self.beta = Parameter(np.zeros(dim), dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm_fn(x, self.gamma, self.beta, eps=self.eps)


class Dropout(Module):
    """Inverted dropout driven by an owned RNG for reproducibility.

    Inactive dropout — ``rate == 0`` or eval mode — is a true
    passthrough: the input tensor is returned as-is with no graph node,
    no RNG draw, not even a dispatch into :func:`repro.nn.dropout`.
    """

    def __init__(self, rate: float, seed: int = 0):
        super().__init__()
        self.rate = rate
        # SFC64: same-seed reproducible like PCG64 but ~40% faster to
        # draw from — mask generation is pure overhead in every training
        # step, and dropout only needs decorrelated uniforms.
        self._rng = np.random.Generator(np.random.SFC64(seed))

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.rate <= 0.0:
            return x
        return dropout_fn(x, self.rate, self._rng, training=True)

    def mask_for(self, shape: tuple[int, ...], dtype) -> np.ndarray | None:
        """Draw the keep/scale mask this layer would apply to ``shape``.

        Returns ``None`` when dropout is inactive (no RNG draw). The mask
        already carries the ``1/(1-rate)`` inverted-dropout scaling, and
        consumes the exact same RNG values as :meth:`forward` would, so
        callers that fold dropout into a fused kernel (multi-head
        attention) stay numerically identical to the unfused composition.
        """
        if not self.training or self.rate <= 0.0:
            return None
        return dropout_mask_fn(shape, self.rate, self._rng, dtype)


class FeedForward(Module):
    """Transformer position-wise feed-forward block with GELU.

    The whole chain — linear, exact GELU, inverted dropout, linear —
    runs as one fused graph node (:func:`repro.nn.fused.feed_forward`).
    """

    def __init__(self, dim: int, hidden_dim: int, dropout: float = 0.0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.hidden_dim = hidden_dim
        self.fc1 = Linear(dim, hidden_dim, rng=rng)
        self.fc2 = Linear(hidden_dim, dim, rng=rng)
        self.drop = Dropout(dropout)

    def forward(self, x: Tensor) -> Tensor:
        drop_mask = self.drop.mask_for(x.shape[:-1] + (self.hidden_dim,),
                                       x.data.dtype)
        return feed_forward_fn(x, self.fc1.weight, self.fc1.bias,
                               self.fc2.weight, self.fc2.bias,
                               dropout_mask=drop_mask)
