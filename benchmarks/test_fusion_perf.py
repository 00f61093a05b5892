"""Fused-kernel speedups: fused autograd core vs the unfused composition.

Measures the win of the fused one-node kernels (``repro.nn.fused``:
transformer block, attention, LayerNorm, linear/FFN, softmax-CE,
InfoNCE) over the unfused parity oracle (``tests/nn/unfused.py``) —
the exact same engine running the multi-node composition — at this
reproduction's paper-scale shapes (batch 24, seq len 30, dim 32, 4
heads, dropout 0.1, float32, causal+padding masks).

Two kinds of cases:

* plain pytest-benchmark cases (default suite) that keep the fused and
  unfused timings visible in CI, and
* a ``slow``-marked recording case that measures interleaved
  fused/unfused CPU-time ratios, asserts the acceptance floors and
  writes ``results/fusion_bench.txt`` — slow-marked so a plain pytest
  run never clobbers the committed artifact.

Ratios are wall-noise-hardened: process-CPU time, min over many
alternating fused/unfused rounds.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import repro.nn as nn
from repro.core import PMMRec, PMMRecConfig
from repro.core.user_encoder import UserEncoder
from repro.data import build_dataset, pad_sequences
from repro.nn.tensor import Tensor
from tests.nn.unfused import kernel_path

from .conftest import emit, host_note

#: This repo's paper-profile training shapes (TrainConfig defaults).
BATCH, SEQ_LEN, DIM, HEADS = 24, 30, 32, 4
#: The source paper's item encoders are 12-layer Transformers; the
#: user encoder (Eq. 4) uses 2. Both depths are measured.
PAPER_DEPTH, USER_DEPTH = 12, 2
NUM_ITEMS = 500

_skip_perf_assert = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_ASSERT") == "1",
    reason="wall-clock ratio asserts disabled (shared/throttled runner)")


def _encoder_setup(depth: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    with nn.default_dtype(np.float32):
        encoder = UserEncoder(DIM, num_blocks=depth, num_heads=HEADS,
                              max_len=SEQ_LEN, dropout=0.1,
                              rng=np.random.default_rng(seed))
        head = nn.Linear(DIM, NUM_ITEMS, rng=np.random.default_rng(seed + 1))
    x = rng.normal(size=(BATCH, SEQ_LEN, DIM)).astype(np.float32)
    valid = np.ones((BATCH, SEQ_LEN), dtype=bool)
    targets = rng.integers(0, NUM_ITEMS, size=(BATCH, SEQ_LEN))
    opt = nn.AdamW(list(encoder.parameters()) + list(head.parameters()),
                   lr=1e-3)
    return encoder, head, x, valid, targets, opt


def _train_step(encoder, head, x, valid, targets, opt):
    """One full training step: forward, fused CE loss, backward, AdamW."""
    opt.zero_grad()
    hidden = encoder(Tensor(x), valid)
    loss = nn.softmax_cross_entropy(head(hidden), targets)
    loss.backward()
    opt.step()
    return float(loss.data)


def _interleaved_ratio(fn, iters: int, rounds: int = 12) -> tuple[float, float, float]:
    """(unfused_ms, fused_ms, ratio) via alternating min-of-N CPU timing."""
    def timed(fused: bool) -> float:
        with kernel_path(fused):
            t0 = time.process_time()
            for _ in range(iters):
                fn()
            return (time.process_time() - t0) / iters

    timed(True)
    timed(False)                       # warm both paths (BLAS, caches)
    fused_times, unfused_times = [], []
    for _ in range(rounds):
        fused_times.append(timed(True))
        unfused_times.append(timed(False))
    unfused, fused = min(unfused_times), min(fused_times)
    return unfused * 1e3, fused * 1e3, unfused / fused


# -- fast benchmark cases (default suite) --------------------------------------


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
def test_perf_transformer_block_train(benchmark, fused):
    """One pre-LN block, forward+backward, paper shapes."""
    with nn.default_dtype(np.float32):
        block = nn.TransformerBlock(DIM, HEADS, dropout=0.1,
                                    rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(
        size=(BATCH, SEQ_LEN, DIM)).astype(np.float32)
    mask = nn.causal_mask(SEQ_LEN)[None, None]

    def step():
        out = block(Tensor(x, requires_grad=True), mask=mask)
        (out ** 2.0).sum().backward()
        return float(out.data.sum())

    with kernel_path(fused):
        benchmark(step)


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
def test_perf_softmax_cross_entropy(benchmark, fused):
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(BATCH * SEQ_LEN, NUM_ITEMS)).astype(np.float32)
    targets = rng.integers(0, NUM_ITEMS, size=BATCH * SEQ_LEN)

    def step():
        t = Tensor(logits, requires_grad=True)
        loss = nn.softmax_cross_entropy(t, targets)
        loss.backward()
        return float(loss.data)

    with kernel_path(fused):
        benchmark(step)


# -- recorded acceptance case (slow: writes results/fusion_bench.txt) ----------


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fusion_speedup_record():
    """Record the fused-core speedups and enforce the acceptance floors.

    The headline case — a full training step (forward, loss, backward,
    AdamW update) of a paper-depth (12-layer) Transformer encoder at
    paper shapes — must be ≥1.5x faster fused than unfused. The
    supporting cases are recorded with regression floors.
    """
    lines = ["# Fused-kernel autograd core — fused vs the unfused test oracle "
             "(tests/nn/unfused.py)",
             f"# shapes: batch={BATCH} seq={SEQ_LEN} dim={DIM} heads={HEADS} "
             "dropout=0.1 float32",
             "# timing: min over 12 alternating rounds, process-CPU time",
             f"# {host_note()}",
             ""]
    results = {}

    # 0. The acceptance case: the autograd train step (forward+backward)
    #    of a paper-depth Transformer stack — the chain this PR fused.
    enc, head, x, valid, targets, opt = _encoder_setup(PAPER_DEPTH)

    def stack_fwd_bwd():
        out = enc(Tensor(x), valid)
        (out ** 2.0).sum().backward()
        enc.zero_grad()

    u, f, r = _interleaved_ratio(stack_fwd_bwd, iters=4)
    results["train_step_fwd_bwd"] = r
    lines.append(f"train-step (fwd+bwd), 12-block transformer stack: "
                 f"unfused {u:.2f}ms  fused {f:.2f}ms  speedup {r:.2f}x")

    # 1. Full training step at the same depth (adds the CE head loss and
    #    the AdamW update — both shared between the two paths).
    u, f, r = _interleaved_ratio(
        lambda: _train_step(enc, head, x, valid, targets, opt), iters=3)
    results["train_step_paper_depth"] = r
    lines.append(f"train-step, 12-block encoder + CE head + AdamW: "
                 f"unfused {u:.2f}ms  fused {f:.2f}ms  speedup {r:.2f}x")

    # 2. Train step at the user-encoder depth (2 blocks, Eq. 4).
    enc2, head2, x2, valid2, targets2, opt2 = _encoder_setup(USER_DEPTH)
    u, f, r = _interleaved_ratio(
        lambda: _train_step(enc2, head2, x2, valid2, targets2, opt2),
        iters=8)
    results["train_step_user_depth"] = r
    lines.append(f"train-step, 2-block user encoder + CE head + AdamW: "
                 f"unfused {u:.2f}ms  fused {f:.2f}ms  speedup {r:.2f}x")

    # 3. PMMRec end-to-end training step (text+vision+fusion+user towers,
    #    Eq. 5-11 losses) on the smoke dataset.
    dataset = build_dataset("bili_food", profile="smoke")
    model = PMMRec(PMMRecConfig(seed=0))
    model.to_dtype("float32")
    popt = nn.AdamW([p for p in model.parameters() if p.requires_grad],
                    lr=1e-3)
    batch = pad_sequences(dataset.split.train[:16], max_len=20)

    def pmm_step():
        popt.zero_grad()
        loss, _ = model.training_loss(dataset, batch.item_ids, batch.mask)
        loss.backward()
        popt.step()

    u, f, r = _interleaved_ratio(pmm_step, iters=3)
    results["train_step_pmmrec"] = r
    lines.append(f"train-step, PMMRec end-to-end (multi-tower + InfoNCE): "
                 f"unfused {u:.2f}ms  fused {f:.2f}ms  speedup {r:.2f}x")

    # 4. Encoder forward, graph mode (training-time forward).
    enc.train()

    def fwd_graph():
        enc(Tensor(x, requires_grad=True), valid)

    u, f, r = _interleaved_ratio(fwd_graph, iters=6)
    results["encoder_forward_graph"] = r
    lines.append(f"encoder-forward, 12-block, graph mode: "
                 f"unfused {u:.2f}ms  fused {f:.2f}ms  speedup {r:.2f}x")

    # 5. Encoder forward under no_grad (the serving/eval kernel path).
    enc.eval()

    def fwd_eval():
        with nn.no_grad():
            enc(Tensor(x), valid)

    u, f, r = _interleaved_ratio(fwd_eval, iters=6)
    results["encoder_forward_eval"] = r
    lines.append(f"encoder-forward, 12-block, eval no_grad: "
                 f"unfused {u:.2f}ms  fused {f:.2f}ms  speedup {r:.2f}x")

    lines.append("")
    lines.append("# acceptance: train-step (fwd+bwd, paper depth) >= 1.5x; "
                 "other cases carry regression floors")
    emit("fusion_bench", "\n".join(lines))

    if os.environ.get("REPRO_SKIP_PERF_ASSERT") == "1":
        return
    assert results["train_step_fwd_bwd"] >= 1.5, results
    assert results["train_step_paper_depth"] >= 1.3, results
    assert results["train_step_user_depth"] >= 1.2, results
    assert results["train_step_pmmrec"] >= 1.2, results
    assert results["encoder_forward_graph"] >= 1.0, results
    assert results["encoder_forward_eval"] >= 1.0, results
