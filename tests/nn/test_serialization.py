"""Checkpoint save/load, metadata, strict-mode hardening, state filtering."""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn as nn
from repro.nn.serialization import META_KEY

from .unfused import kernel_path


class _Net(nn.Module):
    def __init__(self):
        super().__init__()
        self.encoder = nn.Linear(4, 4)
        self.head = nn.Linear(4, 2)

    def forward(self, x):
        return self.head(self.encoder(x).relu())


def test_checkpoint_roundtrip(tmp_path, rng):
    model = _Net()
    model.encoder.weight.data = rng.normal(size=(4, 4))
    path = str(tmp_path / "ckpt.npz")
    nn.save_checkpoint(model, path)
    state = nn.load_checkpoint(path)
    fresh = _Net()
    fresh.load_state_dict(state)
    np.testing.assert_array_equal(fresh.encoder.weight.data,
                                  model.encoder.weight.data)


def test_load_checkpoint_adds_extension(tmp_path):
    model = _Net()
    path = str(tmp_path / "ckpt.npz")
    nn.save_checkpoint(model, path)
    state = nn.load_checkpoint(str(tmp_path / "ckpt"))
    assert "encoder.weight" in state


def test_filter_and_strip_prefix(tmp_path):
    model = _Net()
    state = model.state_dict()
    enc = nn.filter_state(state, ("encoder.",))
    assert set(enc) == {"encoder.weight", "encoder.bias"}
    stripped = nn.strip_prefix(enc, "encoder.")
    assert set(stripped) == {"weight", "bias"}
    # Loading the stripped state into a bare Linear must work.
    layer = nn.Linear(4, 4)
    layer.load_state_dict(stripped)
    np.testing.assert_array_equal(layer.weight.data, model.encoder.weight.data)


@pytest.mark.parametrize("fused", [False, True])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_roundtrip_under_both_kernel_paths(tmp_path, rng, fused, dtype):
    """Save/load round-trips bit-for-bit on the fused kernels and inside
    the unfused parity oracle: which kernel path built the model must not
    leak into checkpoint contents or the load path.
    """
    with kernel_path(fused):
        model = _Net().to_dtype(dtype)
        model.encoder.weight.data = rng.normal(size=(4, 4)).astype(dtype)
        path = str(tmp_path / f"ckpt-{int(fused)}-{dtype}.npz")
        nn.save_checkpoint(model, path, meta={"swap_version": 3})
        state, meta = nn.load_checkpoint(path, with_meta=True)
        fresh = _Net().to_dtype(dtype)
        fresh.load_state_dict(state)
    for name, value in model.state_dict().items():
        np.testing.assert_array_equal(fresh.state_dict()[name], value)
        assert fresh.state_dict()[name].dtype == np.dtype(dtype)
    assert meta["swap_version"] == 3
    assert meta["dtype"] == dtype
    assert meta["params"] == len(state)


def test_checkpoint_meta_and_format_guard(tmp_path):
    model = _Net()
    path = str(tmp_path / "ckpt.npz")
    nn.save_checkpoint(model, path)
    meta = nn.checkpoint_meta(path)
    assert meta["format"] == nn.CHECKPOINT_FORMAT
    assert meta["module"] == "_Net"
    # A future-format checkpoint is refused, not half-loaded.
    import json
    state = model.state_dict()
    record = {"format": nn.CHECKPOINT_FORMAT + 1, "params": len(state)}
    np.savez(str(tmp_path / "future.npz"), **state,
             **{META_KEY: np.array(json.dumps(record))})
    with pytest.raises(ValueError, match="archive format"):
        nn.load_checkpoint(str(tmp_path / "future.npz"))


def test_corrupt_param_count_detected(tmp_path):
    model = _Net()
    path = str(tmp_path / "ckpt.npz")
    nn.save_checkpoint(model, path)
    state, meta = nn.load_checkpoint(path, with_meta=True)
    import json
    dropped = dict(state)
    dropped.pop("head.bias")
    np.savez(str(tmp_path / "corrupt.npz"), **dropped,
             **{META_KEY: np.array(json.dumps(
                 {"format": 1, "params": meta["params"]}))})
    with pytest.raises(ValueError, match="corrupt"):
        nn.load_checkpoint(str(tmp_path / "corrupt.npz"))


def test_meta_key_collision_rejected(tmp_path):
    with pytest.raises(ValueError, match="collide"):
        nn.save_checkpoint(_Net(), str(tmp_path / "x.npz"),
                           meta={"format": 99})


def test_premetadata_checkpoint_still_loads(tmp_path):
    """Archives written before metadata existed load with empty meta."""
    model = _Net()
    np.savez(str(tmp_path / "old.npz"), **model.state_dict())
    state, meta = nn.load_checkpoint(str(tmp_path / "old.npz"),
                                     with_meta=True)
    assert meta == {}
    fresh = _Net()
    fresh.load_state_dict(state)


def test_strict_load_raises_on_missing_and_unexpected():
    model = _Net()
    state = model.state_dict()
    state.pop("head.bias")
    state["ghost.weight"] = np.zeros((2, 2))
    with pytest.raises(KeyError, match="missing=.*head.bias"):
        _Net().load_state_dict(state)


def test_shape_mismatch_raises_listing_all_and_mutates_nothing():
    """A bad checkpoint reports every offending key and is fully atomic."""
    model = _Net()
    state = model.state_dict()
    state["encoder.weight"] = np.zeros((3, 3))
    state["head.weight"] = np.zeros((5, 5))
    # Put a recognizable value in a *valid* slot: it must NOT be applied.
    state["encoder.bias"] = np.full(4, 7.25)
    target = _Net()
    before = {k: v.copy() for k, v in target.state_dict().items()}
    with pytest.raises(ValueError) as excinfo:
        target.load_state_dict(state)
    message = str(excinfo.value)
    assert "encoder.weight" in message and "head.weight" in message
    assert "2 parameter(s)" in message
    for name, value in target.state_dict().items():
        np.testing.assert_array_equal(value, before[name])


def test_nonstrict_still_raises_on_shape_mismatch():
    """Non-strict mode skips absent names but never shape mismatches."""
    model = _Net()
    state = {"encoder.weight": np.zeros((9, 9))}
    with pytest.raises(ValueError, match="shape mismatch"):
        model.load_state_dict(state, strict=False)


def test_partial_transfer_between_models():
    """Transferring only the encoder leaves the head untouched (Sec. III-E)."""
    source, target = _Net(), _Net()
    head_before = target.head.weight.data.copy()
    enc_state = nn.filter_state(source.state_dict(), ("encoder.",))
    target.load_state_dict(enc_state, strict=False)
    np.testing.assert_array_equal(target.encoder.weight.data,
                                  source.encoder.weight.data)
    np.testing.assert_array_equal(target.head.weight.data, head_before)
